from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmaps.analytic import (
    _XX_COLS,
    _XX_ROWS,
    cc_params,
    closed_form,
    ring_params,
    xx_eigenparams,
    xx_reduced_map,
    xx_unitary_components,
)
from spinmaps.ensemble import UnsupportedNetwork
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


def test_transcription_notes_record_every_repair():
    # the notes are the one record of departures from the source tables
    notes = (Path(__file__).parents[1] / "TRANSCRIPTION_NOTES.md").read_text()
    repairs = notes.split("- *Quantity:*")[1:]
    assert len(repairs) == 7
    for repair in repairs:
        assert all(f"*{field}:*" in repair for field in ("Printed", "Implemented", "Evidence"))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cc_params_match_dense(n):
    jp, jz, h = 1.0, 0.45, 0.31
    z = RNG.uniform(-1, 1, n)
    for focal in (0, n - 1):
        for t in (0.7, 3.9):
            pc = cc_params(n, t, jp, jz, h, cyclic_env(z, focal, n))
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
            pc = ring_params(4, t, jp, jz, h, cyclic_env(z, focal, 4))
            _, _, m = dense_params("ring", 4, t, jp, jz, h, z, focal)
            assert np.max(np.abs(pc.transfer() - m)) < 1e-11


def test_ring5_isotropic_z_sector_matches_dense():
    jp = 1.0
    z = RNG.uniform(-1, 1, 5)
    for focal in (0, 2):
        for t in (1.3, 5.1):
            pc = ring_params(5, t, jp, jp, 0.0, cyclic_env(z, focal, 5))
            lam3, tau3, _ = dense_params("ring", 5, t, jp, jp, 0.0, z, focal)
            assert np.isnan(pc.lambda1) and np.isnan(pc.theta)
            assert abs(pc.lambda3 - lam3) < 1e-11
            assert abs(pc.tau3 - tau3) < 1e-11


def test_ring_params_rejections():
    env = [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(UnsupportedNetwork):
        ring_params(5, 1.0, 1.0, 0.5, 0.0, env)  # anisotropic N=5
    with pytest.raises(UnsupportedNetwork):
        ring_params(6, 1.0, 1.0, 1.0, 0.0, [0.0] * 5)
    with pytest.raises(UnsupportedNetwork):
        cc_params(7, 1.0, 1.0, 0.5, 0.0, [0.0] * 6)
    with pytest.raises(ValueError):  # the XXZ closed forms hold for diagonal partners only
        closed_form(NetworkSpec("complete", 3), 0, [(0.1, 0.0, 0.5), (0.0, 0.0, 0.2)], 1.0)
    xx = NetworkSpec("xx_pairs", 2, pairs=(PairSpec(1.0, 0.5, 1.0),))
    with pytest.raises(ValueError):  # the focal site's own state is not a partner
        closed_form(xx, 0, [(0.0, 0.0, 1.0), (0.3, 0.0, 0.5)], 1.0)
    with pytest.raises(ValueError):
        cc_params(3, 1.0, 1.0, 0.5, 0.0, [0.0, 0.0, 0.0])  # env length
    # a site outside the network, not an index that wraps or overruns
    two_pairs = NetworkSpec("xx_pairs", 4, pairs=(PairSpec(1.0, 0.5, 1.0),) * 2)
    for spec, site in ((two_pairs, -1), (two_pairs, 4), (NetworkSpec("complete", 4), 7)):
        with pytest.raises(ValueError, match=rf"0\.\.{spec.n - 1}, got {site}"):
            closed_form(spec, site, [(0.0, 0.0, 0.5)] * (spec.n - 1), 1.0)


@given(st.lists(unit_floats, min_size=2, max_size=2), times)
def test_cc3_t0_identity_and_z_parity(env, t):
    pc0 = cc_params(3, 0.0, 1.0, 0.4, 0.2, env)
    assert abs(pc0.lambda3 - 1.0) < 1e-12 and abs(pc0.tau3) < 1e-12
    assert abs(pc0.lambda1 - 1.0) < 1e-12 and abs(pc0.theta) < 1e-12
    pc = cc_params(3, t, 1.0, 0.4, 0.2, env)
    flip = cc_params(3, t, 1.0, 0.4, 0.2, [-v for v in env])
    assert abs(pc.lambda3 - flip.lambda3) < 1e-12
    assert abs(pc.tau3 + flip.tau3) < 1e-12


@given(st.permutations(range(3)), times)
def test_cc4_env_permutation_invariance(perm, t):
    env = [0.7, -0.2, 0.4]
    a = cc_params(4, t, 1.0, 0.3, 0.1, env)
    b = cc_params(4, t, 1.0, 0.3, 0.1, [env[i] for i in perm])
    assert abs(a.lambda3 - b.lambda3) < 1e-12
    assert abs(a.tau3 - b.tau3) < 1e-12
    assert np.max(np.abs(a.transfer() - b.transfer())) < 1e-12


@given(times)
def test_ring4_reflection_but_not_transposition(t):
    # neighbours s1 and s3 are interchangeable; neighbour vs antipode is not
    env = [0.8, -0.5, 0.3]
    a = ring_params(4, t, 1.0, 0.4, 0.0, env)
    b = ring_params(4, t, 1.0, 0.4, 0.0, [env[2], env[1], env[0]])
    assert abs(a.lambda3 - b.lambda3) < 1e-12
    assert abs(a.tau3 - b.tau3) < 1e-12
    assert np.max(np.abs(a.transfer() - b.transfer())) < 1e-12


def test_ring4_neighbour_antipode_asymmetry():
    env = [0.8, -0.5, 0.3]
    swapped = [env[1], env[0], env[2]]
    diffs = []
    for t in np.linspace(0.3, 6.0, 30):
        a = ring_params(4, t, 1.0, 0.4, 0.0, env)
        b = ring_params(4, t, 1.0, 0.4, 0.0, swapped)
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


def test_xx_table_has_one_slot_per_nonzero_entry():
    slots = set(zip(_XX_ROWS.tolist(), _XX_COLS.tolist()))
    assert len(_XX_ROWS) == len(slots) == 70
    m = xx_unitary_components(0.7, 0.3, 1.1, 0.4)  # generic: no entry vanishes
    assert set(zip(*np.nonzero(m))) == slots


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


def test_closed_form_matches_dense_on_xx_pairs():
    # two pairs, every partner transverse: closed_form must find each site's
    # partner among the other three in ascending order, and its side of the pair
    spec = NetworkSpec(topology="xx_pairs", n=4,
                       pairs=(PairSpec(1.0, 0.4, 0.8), PairSpec(-0.3, 0.9, 1.1)))
    hm = build_hamiltonian(spec)
    blochs = [(0.3, 0.1, -0.6), (-0.5, 0.4, 0.2), (0.1, -0.7, 0.5), (0.6, 0.2, -0.3)]
    for focal in range(4):
        env = [b for s, b in enumerate(blochs) if s != focal]
        ex = MapExtractor(hm, focal, env)
        for t in (0.0, 0.8, 2.9):
            assert np.max(np.abs(closed_form(spec, focal, env, t) - ex.transfer(t))) < 1e-12


@pytest.mark.parametrize("spec", [
    *(NetworkSpec("complete", n, h=0.31, j_perp=1.0, j_par=0.45) for n in (3, 4, 5, 6)),
    NetworkSpec("ring", 4, h=0.23, j_perp=1.0, j_par=-0.6),
    NetworkSpec("ring", 5, h=0.23, j_perp=1.0, j_par=1.0),  # NaN transverse sector
    NetworkSpec("xx_pairs", 4, pairs=(PairSpec(1.0, 0.4, 0.8), PairSpec(-0.3, 0.9, 1.1))),
], ids=lambda spec: f"{spec.topology}{spec.n}")
def test_closed_form_over_a_grid_stacks_pointwise_calls(spec):
    grid = np.linspace(0.0, 40.0, 33)
    if spec.topology == "xx_pairs":  # every partner transverse
        blochs = [(0.3, 0.1, -0.6), (-0.5, 0.4, 0.2), (0.1, -0.7, 0.5), (0.6, 0.2, -0.3)]
    else:
        blochs = [(0.0, 0.0, z) for z in RNG.uniform(-1, 1, spec.n)]
    for focal in range(spec.n):
        env = [b for s, b in enumerate(blochs) if s != focal]
        maps = closed_form(spec, focal, env, grid)
        assert maps.shape == (grid.size, 4, 4)
        points = [closed_form(spec, focal, env, t) for t in grid]
        assert all(m.shape == (4, 4) for m in points)
        assert np.array_equal(np.isnan(maps), np.isnan(points))
        assert np.nanmax(np.abs(maps - points)) < 1e-13
        assert closed_form(spec, focal, env, grid.reshape(3, 11)).shape == (3, 11, 4, 4)


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
