import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmaps.analytic import (
    TRANSCRIPTION_FIXES,
    cc_params,
    ring_params,
    xx_eigenparams,
    xx_reduced_map,
    xx_unitary_components,
)
from spinmaps.network import NetworkSpec, PairSpec, build_hamiltonian
from spinmaps.reduced import MapExtractor, fit_pc

RNG = np.random.default_rng(23)

unit_floats = st.floats(-1.0, 1.0)
times = st.floats(0.0, 12.0)


def dense_params(topology, n, t, j_perp, j_par, h, z, focal):
    """Numeric (lambda3, tau3, transfer) for absolute site polarizations z."""
    spec = NetworkSpec(topology=topology, n=n, h=h, j_perp=j_perp, j_par=j_par)
    env = [(0.0, 0.0, z[s]) for s in range(n) if s != focal]
    m = MapExtractor(build_hamiltonian(spec), focal, env).transfer(t)
    return m[3, 3], m[3, 0], m


def cyclic_env(z, focal, n):
    return [z[(focal + 1 + k) % n] for k in range(n - 1)]


def test_transcription_registry_is_complete():
    assert len(TRANSCRIPTION_FIXES) == 7
    for fix in TRANSCRIPTION_FIXES:
        assert fix.family and fix.quantity and fix.printed
        assert fix.implemented and fix.evidence


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cc_params_match_dense(n):
    jp, jz, h = 1.0, 0.45, 0.31
    z = RNG.uniform(-1, 1, n)
    for focal in (0, n - 1):
        for t in (0.7, 3.9):
            pc, _ = cc_params(n, t, jp, jz, h, cyclic_env(z, focal, n), focal)
            lam3, tau3, m = dense_params("complete", n, t, jp, jz, h, z, focal)
            assert abs(pc.lambda3 - lam3) < 1e-11
            assert abs(pc.tau3 - tau3) < 1e-11
            fit = fit_pc(m)
            assert fit.residual < 1e-10
            assert abs(pc.lambda1 - fit.lambda1) < 1e-11
            assert np.max(np.abs(pc.transfer() - m)) < 1e-11


def test_ring4_params_match_dense():
    jp, jz, h = 1.0, -0.6, 0.23
    z = RNG.uniform(-1, 1, 4)
    for focal in range(4):
        for t in (0.9, 4.4):
            pc, _ = ring_params(4, t, jp, jz, h, cyclic_env(z, focal, 4), focal)
            _, _, m = dense_params("ring", 4, t, jp, jz, h, z, focal)
            assert np.max(np.abs(pc.transfer() - m)) < 1e-11


def test_ring5_isotropic_z_sector_matches_dense():
    jp = 1.0
    z = RNG.uniform(-1, 1, 5)
    for focal in (0, 2):
        for t in (1.3, 5.1):
            pc, decomp = ring_params(5, t, jp, jp, 0.0, cyclic_env(z, focal, 5), focal)
            lam3, tau3, _ = dense_params("ring", 5, t, jp, jp, 0.0, z, focal)
            assert decomp is None
            assert np.isnan(pc.lambda1) and np.isnan(pc.theta)
            assert abs(pc.lambda3 - lam3) < 1e-11
            assert abs(pc.tau3 - tau3) < 1e-11


def test_ring_params_rejections():
    env = [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(ValueError):
        ring_params(5, 1.0, 1.0, 0.5, 0.0, env)  # anisotropic N=5
    with pytest.raises(ValueError):
        ring_params(6, 1.0, 1.0, 1.0, 0.0, [0.0] * 5)
    with pytest.raises(ValueError):
        cc_params(7, 1.0, 1.0, 0.5, 0.0, [0.0] * 6)
    with pytest.raises(ValueError):
        cc_params(3, 1.0, 1.0, 0.5, 0.0, [0.0, 0.0, 0.0])  # env length


@given(st.lists(unit_floats, min_size=2, max_size=2), times)
def test_cc3_t0_identity_and_z_parity(env, t):
    pc0, d0 = cc_params(3, 0.0, 1.0, 0.4, 0.2, env)
    assert abs(pc0.lambda3 - 1.0) < 1e-12 and abs(pc0.tau3) < 1e-12
    assert abs(d0.alpha - 1.0) < 1e-12 and abs(d0.beta) < 1e-12
    pc, _ = cc_params(3, t, 1.0, 0.4, 0.2, env)
    flip, _ = cc_params(3, t, 1.0, 0.4, 0.2, [-v for v in env])
    assert abs(pc.lambda3 - flip.lambda3) < 1e-12
    assert abs(pc.tau3 + flip.tau3) < 1e-12


@given(st.permutations(range(3)), times)
def test_cc4_env_permutation_invariance(perm, t):
    env = [0.7, -0.2, 0.4]
    a, da = cc_params(4, t, 1.0, 0.3, 0.1, env)
    b, db = cc_params(4, t, 1.0, 0.3, 0.1, [env[i] for i in perm])
    assert abs(a.lambda3 - b.lambda3) < 1e-12
    assert abs(a.tau3 - b.tau3) < 1e-12
    assert abs(da.alpha - db.alpha) < 1e-12
    assert abs(da.beta - db.beta) < 1e-12


@given(times)
def test_ring4_reflection_but_not_transposition(t):
    # neighbours s1 and s3 are interchangeable; neighbour vs antipode is not
    env = [0.8, -0.5, 0.3]
    a, da = ring_params(4, t, 1.0, 0.4, 0.0, env)
    b, db = ring_params(4, t, 1.0, 0.4, 0.0, [env[2], env[1], env[0]])
    assert abs(a.lambda3 - b.lambda3) < 1e-12
    assert abs(a.tau3 - b.tau3) < 1e-12
    assert abs(da.alpha - db.alpha) < 1e-12


def test_ring4_neighbour_antipode_asymmetry():
    env = [0.8, -0.5, 0.3]
    swapped = [env[1], env[0], env[2]]
    diffs = []
    for t in np.linspace(0.3, 6.0, 30):
        a, _ = ring_params(4, t, 1.0, 0.4, 0.0, env)
        b, _ = ring_params(4, t, 1.0, 0.4, 0.0, swapped)
        diffs.append(abs(a.lambda3 - b.lambda3))
    assert max(diffs) > 1e-3


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.05, 3))
def test_xx_eigenparams_identities(h1, h2, j):
    h12, w, phi = xx_eigenparams(h1, h2, j)
    assert abs(h12 - (h1 + h2) / 2) < 1e-12
    assert abs(abs(w) - np.hypot(h1 - h2, j)) < 1e-9
    assert abs(w * np.cos(phi) - (h1 - h2)) < 1e-9
    assert abs(w * np.sin(phi) - j) < 1e-9


def test_xx_eigenparams_zero_detuning_branch():
    h12, w, phi = xx_eigenparams(1.0, 1.0, 0.7)
    assert w == 0.7 and abs(phi - np.pi / 2) < 1e-12


@given(st.floats(0, 8), st.floats(-2, 2), st.floats(-3, 3), st.floats(-np.pi, np.pi))
def test_xx_unitary_components_orthogonal(t, h12, w, phi):
    m = xx_unitary_components(t, h12, w, phi)
    assert np.max(np.abs(m @ m.T - np.eye(16))) < 1e-9


@given(st.floats(0, 8), st.floats(-2, 2), st.floats(0.05, 3), st.floats(-np.pi, np.pi))
def test_xx_swap_relation(t, h12, w, phi):
    env = (0.3, -0.4, 0.5)
    a = xx_reduced_map(t, (h12, w, phi), env, which=2)
    b = xx_reduced_map(t, (h12, -w, -phi), env, which=1)
    assert np.max(np.abs(a - b)) < 1e-12


def test_xx_reduced_map_matches_dense_both_sites():
    h1, h2, j = 1.0, 0.4, 0.8
    spec = NetworkSpec(topology="xx_pairs", n=2, pairs=(PairSpec(h1, h2, j),))
    hm = build_hamiltonian(spec)
    params = xx_eigenparams(h1, h2, j)
    env = (0.3, 0.1, -0.6)
    for which, focal in ((1, 0), (2, 1)):
        ex = MapExtractor(hm, focal, [env])
        for t in (0.0, 0.8, 2.9):
            m = xx_reduced_map(t, params, env, which)
            assert np.max(np.abs(m - ex.transfer(t))) < 1e-11


def test_xx_full_transfer_matches_dense_two_qubit():
    from spinmaps.qlinalg import HermitianEvolver, kron_all, pauli

    h1, h2, j = 0.9, -0.3, 1.1
    spec = NetworkSpec(topology="xx_pairs", n=2, pairs=(PairSpec(h1, h2, j),))
    u = HermitianEvolver(build_hamiltonian(spec)).unitary(1.7)
    m = xx_unitary_components(1.7, *xx_eigenparams(h1, h2, j))
    axes = ("0", "x", "y", "z")
    for i, ai in enumerate(axes):
        for jdx, aj in enumerate(axes):
            for k, ak in enumerate(axes):
                for ldx, al in enumerate(axes):
                    want = 0.25 * np.trace(
                        kron_all([pauli(ai), pauli(aj)])
                        @ u @ kron_all([pauli(ak), pauli(al)]) @ u.conj().T)
                    assert abs(m[4 * i + jdx, 4 * k + ldx] - want.real) < 1e-10
