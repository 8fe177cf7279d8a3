from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmaps.analytic import (
    _XX_COLS,
    _XX_ROWS,
    _ring_basis,
    _ring_couplings,
    _ring_terms,
    RING_ORACLE_MAX_N,
    cc_params,
    closed_form,
    ring_params,
    xx_eigenparams,
    xx_reduced_map,
    xx_unitary_components,
)
from spinmaps.ensemble import SpectralAverage, UnsupportedNetwork, steady_channel
from spinmaps.network import NetworkSpec, PairSpec, build_hamiltonian
from spinmaps.qlinalg import HermitianEvolver
from spinmaps.reduced import MapExtractor

RNG = np.random.default_rng(23)

unit_floats = st.floats(-1.0, 1.0)
times = st.floats(0.0, 12.0)


def cyclic_env(z, focal, n):
    return [z[(focal + 1 + k) % n] for k in range(n - 1)]


def test_transcription_notes_record_every_repair():
    # the notes are the one record of departures from the source tables
    notes = (Path(__file__).parents[1] / "TRANSCRIPTION_NOTES.md").read_text()
    repairs = notes.split("- *Quantity:*")[1:]
    assert len(repairs) == 7
    for repair in repairs:
        assert all(f"*{field}:*" in repair for field in ("Printed", "Implemented", "Evidence"))


# (J_perp, J_par, h): generic, the degenerate h = 0 and J_par = J_perp, and J_perp < 0
CC_COUPLINGS = [(1.0, 0.45, 0.31), (0.8, 0.8, 0.0), (-0.7, 0.25, -0.4)]


@pytest.mark.parametrize("n", range(2, 9))
def test_cc_params_match_dense(n):
    # against the engine at every focal site; pure partners (z = +-1) and
    # a signed zero among random polarizations
    z = np.concatenate([[1.0, -0.0, -1.0][:n], RNG.uniform(-1.0, 1.0, max(0, n - 3))])
    times = np.linspace(0.0, 9.0, 23)
    for j_perp, j_par, h in CC_COUPLINGS:
        spec = NetworkSpec("complete", n, h=h, j_perp=j_perp, j_par=j_par)
        for focal in range(n):
            want = SpectralAverage(spec, z, sites=(focal,)).maps(times)
            got = cc_params(n, times, j_perp, j_par, h, cyclic_env(z, focal, n)).transfer()
            assert np.max(np.abs(got - want)) <= 1e-12, (j_perp, j_par, h, focal)


# (J_perp, J_par, h): generic, the XX ring (J_par = 0), J_par = J_perp with
# and without a field, J_par < 0, J_perp < 0, a strong field, J_par > J_perp
# and no exchange at all (J_perp = 0)
RING_COUPLINGS = [(1.0, 0.45, 0.31), (1.0, 0.0, 0.2), (1.0, 0.0, 0.618), (0.8, 0.8, 0.0),
                  (1.0, 1.0, 0.618), (1.0, -0.6, 0.23), (1.0, -0.6, 0.2), (-0.7, 0.25, -0.4),
                  (1.0, 0.37, 1.3), (-0.7, 2.5, 0.0), (0.0, 0.7, 0.3)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ring_params_match_dense(n):
    # against the engine at every focal site and entry; pure partners
    # (z = +-1) and a signed zero next to random polarizations, then random ones
    times = np.linspace(0.0, 9.0, 23)
    for z in ([1.0, -0.0, -1.0, *RNG.uniform(-1.0, 1.0, n - 3)], RNG.uniform(-1.0, 1.0, n)):
        for j_perp, j_par, h in RING_COUPLINGS:
            spec = NetworkSpec("ring", n, h=h, j_perp=j_perp, j_par=j_par)
            for focal in range(n):
                want = SpectralAverage(spec, z, sites=(focal,)).maps(times)
                got = ring_params(n, times, j_perp, j_par, h, cyclic_env(z, focal, n)).transfer()
                assert np.max(np.abs(got - want)) <= 1e-12, (z, j_perp, j_par, h, focal)


@pytest.mark.parametrize("n", range(6, RING_ORACLE_MAX_N + 1))
def test_ring_params_match_the_engine_up_to_the_cap(n):
    # blocks of more than two states: against the engine's map extraction
    # at every focal site, one eigendecomposition for all of them, at J_par
    # = 0, +-J_perp and a random value; pure partners and both signed zeros
    rng = np.random.default_rng(n)
    times = np.linspace(0.0, 9.0, 7)
    z = [1.0, -0.0, -1.0, 0.0, *rng.uniform(-1.0, 1.0, n - 4)]
    for j_par in (0.0, 1.0, -1.0, rng.uniform(-1.5, 1.5)):
        spec = NetworkSpec("ring", n, h=0.618, j_perp=1.0, j_par=j_par)
        evolver = HermitianEvolver(build_hamiltonian(spec))
        for focal in range(n):
            env = [(0.0, 0.0, v) for s, v in enumerate(z) if s != focal]
            want = [MapExtractor(evolver, focal, env).transfer(t) for t in times]
            got = ring_params(n, times, 1.0, j_par, 0.618, cyclic_env(z, focal, n)).transfer()
            assert np.max(np.abs(got - want)) <= 1e-12, (j_par, focal)


@pytest.mark.parametrize("n", range(3, RING_ORACLE_MAX_N + 1))
def test_ring_basis_block_diagonalises_h(n):
    # the (charge, momentum) sector bases together are unitary, and the
    # engine's H, field included, has no entry in them outside the blocks
    # of the sectors on its diagonal
    bases = _ring_basis(n)[0]
    basis = np.concatenate(bases, axis=1)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(2**n))) <= 1e-14
    sector = np.repeat(np.arange(len(bases)), [b.shape[1] for b in bases])
    outside = np.not_equal.outer(sector, sector)
    for j_perp, j_par, h in RING_COUPLINGS:
        h_mat = build_hamiltonian(NetworkSpec("ring", n, h=h, j_perp=j_perp, j_par=j_par))
        assert np.max(np.abs((basis.conj().T @ h_mat @ basis)[outside])) <= 1e-14


@pytest.mark.parametrize("n", [4, 5])
def test_ring_params_on_a_warm_cache_equal_a_cold_call(n):
    # the coupling-only part is built once per (n, J_perp, J_par) and keyed
    # by their exact bits: a site served from the cache, after every other
    # site and after the couplings with J_par negated (at 0, its other
    # signed zero), equals a call on an empty cache byte for byte
    times = np.linspace(0.0, 9.0, 23)
    z = [0.5, -0.0, 1.0, -0.25, 0.75][:n]
    couplings = [(1.0, 0.0, 0.3), (1.0, -0.0, 0.3), (-0.7, 2.5, 0.0), (1.0, 1.0, 0.618)]
    for j_perp, j_par, h in couplings:
        cold = []
        for focal in range(n):
            _ring_couplings.cache_clear()
            cold.append(ring_params(n, times, j_perp, j_par, h, cyclic_env(z, focal, n)))
        _ring_couplings.cache_clear()
        ring_params(n, times, j_perp, -j_par, h, cyclic_env(z, 0, n))  # J_par negated first
        for focal in range(n):
            warm = ring_params(n, times, j_perp, j_par, h, cyclic_env(z, focal, n))
            for field in ("lambda1", "theta", "lambda3", "tau3"):
                got, want = getattr(warm, field), getattr(cold[focal], field)
                assert got.tobytes() == want.tobytes(), (j_perp, j_par, focal, field)
        info = _ring_couplings.cache_info()
        assert (info.misses, info.hits) == (2, n - 1)


def zero_gap_limit(n, j_par, z):
    """(lambda3, tau3) of the derivation's terms at zero gap, averaged over
    the focal sites: the infinite-time channel, without the engine."""
    limit = np.zeros(2)
    for focal in range(n):
        energies, amps = _ring_terms(n, 1.0, j_par, cyclic_env([float(v) for v in z], focal, n))
        gaps = np.subtract.outer(energies, energies)
        zero = np.abs(gaps) <= 1e-9 * max(1.0, np.ptp(energies))
        limit += amps[:2, zero].sum(axis=-1).real / n
    return limit


@pytest.mark.parametrize("j_par", [0.0, -0.6, 1.0, 2.5])
def test_ring4_steady_table_is_the_closed_form_limit(j_par):
    # a check of the exact table that does not go through the engine
    rng = np.random.default_rng(4)
    spec = NetworkSpec("ring", 4, h=0.3, j_perp=1.0, j_par=j_par)
    for _ in range(10):
        z = [Fraction(int(k), 97) for k in rng.integers(-97, 98, 4)]
        limit, steady = zero_gap_limit(4, j_par, z), steady_channel(spec, z)
        assert abs(limit[0] - steady.lambda3) <= 1e-14, z
        assert abs(limit[1] - steady.tau3) <= 1e-14, z


def test_ring5_steady_table_is_the_closed_form_limit():
    # the ring N=5 table holds at J_par = J_perp only
    rng = np.random.default_rng(5)
    spec = NetworkSpec("ring", 5, h=0.3, j_perp=1.0, j_par=1.0)
    for _ in range(12):
        z = [Fraction(int(k), 97) for k in rng.integers(-97, 98, 5)]
        limit, steady = zero_gap_limit(5, 1.0, z), steady_channel(spec, z)
        assert abs(limit[0] - steady.lambda3) <= 1e-14, z
        assert abs(limit[1] - steady.tau3) <= 1e-14, z


# the paper's first example off the isotropic point, where ring N=5 has no
# rational table: lambda3 at infinite time, z = RING_Z[:5], J_perp = 1, by J_par
RING_Z = (0.3, -0.2, 0.5, 0.1, -0.7, 0.9, -0.4)
RING5_LATE_LAMBDA3 = {1.0: 0.3136, 0.0: 0.36, 0.37: 0.27395082150557, -0.6: 0.29266254158764}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_ring_late_time_limit_is_the_engines(n):
    # the zero-gap sum of the oracle's terms against the engine's
    # diagonal-ensemble channel, both averaged over the focal sites
    for j_par, lambda3 in RING5_LATE_LAMBDA3.items():
        spec = NetworkSpec("ring", n, h=0.618, j_perp=1.0, j_par=j_par)
        limit = zero_gap_limit(n, j_par, RING_Z[:n])
        engine = SpectralAverage(spec, RING_Z[:n]).limit
        assert abs(limit[0] - engine[3, 3]) <= 1e-12, j_par
        assert abs(limit[1] - engine[3, 0]) <= 1e-12, j_par
        if n == 5:
            assert abs(limit[0] - lambda3) <= 1e-12, j_par


def test_ring_params_rejections():
    cap = rf"\(ring, N=9\): the ring oracle covers 3 <= N <= {RING_ORACLE_MAX_N}$"
    with pytest.raises(UnsupportedNetwork, match=cap):  # the first ring above the cap
        ring_params(9, 1.0, 1.0, 1.0, 0.0, [0.0] * 8)
    with pytest.raises(UnsupportedNetwork, match=cap):  # the dispatch
        closed_form(NetworkSpec("ring", 9), 0, [(0.0, 0.0, 0.0)] * 8, 1.0)
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


def einsum_reduced_map(t, pair_params, env_bloch, which):
    """The partner-weighted sum over the 16x16 channel: xx_reduced_map's
    definition, which its direct 4x4 must equal byte for byte."""
    weights = np.array([1.0, *env_bloch])
    u4 = xx_unitary_components(t, *pair_params).reshape(4, 4, 4, 4)
    if which == 1:
        return np.einsum("ilk,k->il", u4[:, 0, :, :], weights)
    return np.einsum("iml,m->il", u4[0, :, :, :], weights)


def xx_edge_inputs():
    """t = 0 (both signs), rotations that vanish with either sign, phi at 0
    and +-pi/2, and diagonal, polarized, signed-zero and unit partners."""
    params = [(0.5, 1.1, 0.4), (-0.5, -1.1, 0.4), (-0.5, 1.1, -0.4), (0.5, -1.1, 0.0),
              (0.3, 0.7, np.pi / 2), (-0.3, -0.7, -np.pi / 2), (0.0, 0.0, 0.0),
              (-0.0, -0.0, -0.0)]
    envs = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
            (-0.0, 0.0, -1.0), (0.0, -0.0, 0.4), (0.3, -0.0, 0.5), (-0.0, -0.6, -0.0),
            (0.6, 0.8, 0.0), (-0.6, 0.0, -0.8)]
    return [(t, p, e) for t in (0.0, -0.0, 1.3) for p in params for e in envs]


def xx_random_inputs(count, rng):
    """Random times, eigen-parameters and partners, a quarter of the
    partners diagonal and a quarter of them on the unit sphere."""
    ts = rng.uniform(-20.0, 20.0, count)
    pars = np.column_stack([rng.normal(0.0, 3.0, count), rng.normal(0.0, 3.0, count),
                            rng.uniform(-np.pi, np.pi, count)])
    envs = rng.normal(size=(count, 3))
    envs *= (rng.uniform(size=count) / np.linalg.norm(envs, axis=1))[:, None]
    envs[: count // 4, :2] = 0.0
    envs[count // 4: count // 2] /= np.linalg.norm(envs[count // 4: count // 2], axis=1)[:, None]
    return [(float(t), tuple(p.tolist()), tuple(e.tolist())) for t, p, e in zip(ts, pars, envs)]


@pytest.mark.parametrize("which", [1, 2])
def test_xx_reduced_map_is_byte_identical_to_einsum_over_the_channel(which):
    inputs = xx_edge_inputs() + xx_random_inputs(50_000, np.random.default_rng(11 + which))
    direct = np.stack([xx_reduced_map(t, p, e, which) for t, p, e in inputs])
    summed = np.stack([einsum_reduced_map(t, p, e, which) for t, p, e in inputs])
    same = [a.tobytes() == b.tobytes() for a, b in zip(direct, summed)]
    assert all(same), [inputs[k] for k, ok in enumerate(same) if not ok][:5]


def test_xx_reduced_map_rejections():
    with pytest.raises(ValueError, match="norm > 1"):
        xx_reduced_map(0.5, (0.3, 1.1, 0.4), (0.8, 0.8, 0.0))
    with pytest.raises(ValueError, match="norm > 1"):  # the norm is checked first
        xx_reduced_map(0.5, (0.3, 1.1, 0.4), (0.8, 0.8, 0.0), which=3)
    for which in (0, 3):
        with pytest.raises(ValueError, match="which must be 1 or 2"):
            xx_reduced_map(0.5, (0.3, 1.1, 0.4), (0.0, 0.0, 1.0), which)


# a NaN partner describes no state: refused, not turned into a NaN channel
def test_cc_params_refuses_a_nan_partner():
    with pytest.raises(ValueError, match="exceeds 1"):
        cc_params(3, 1.0, 1.0, 0.5, 0.3, [float("nan"), 0.2])


def test_ring_params_refuses_a_nan_partner():
    with pytest.raises(ValueError, match="exceeds 1"):
        ring_params(4, 1.0, 1.0, 0.5, 0.3, [0.1, float("nan"), 0.2])


def test_xx_reduced_map_refuses_a_nan_partner():
    with pytest.raises(ValueError, match="norm > 1"):
        xx_reduced_map(1.0, xx_eigenparams(1.0, 0.5, 1.0), (float("nan"), 0.0, 0.0))


def test_xx_reduced_map_matches_dense_both_sites():
    h1, h2, j = 1.0, 0.4, 0.8
    spec = NetworkSpec(topology="xx_pairs", n=2, pairs=(PairSpec(h1, h2, j),))
    hm = build_hamiltonian(spec)
    params = xx_eigenparams(h1, h2, j)
    env = (0.3, 0.1, -0.6)
    for which, focal in ((1, 0), (2, 1)):
        ex = MapExtractor(HermitianEvolver(hm), focal, [env])
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
        ex = MapExtractor(HermitianEvolver(hm), focal, env)
        for t in (0.0, 0.8, 2.9):
            assert np.max(np.abs(closed_form(spec, focal, env, t) - ex.transfer(t))) < 1e-12


@pytest.mark.parametrize("spec", [
    *(NetworkSpec("complete", n, h=0.31, j_perp=1.0, j_par=0.45) for n in (3, 4, 5, 6)),
    NetworkSpec("ring", 4, h=0.23, j_perp=1.0, j_par=-0.6),
    NetworkSpec("ring", 5, h=0.23, j_perp=1.0, j_par=1.0),
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
        assert np.all(np.isfinite(maps))
        assert np.max(np.abs(maps - points)) < 1e-13
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


def test_map_series_gives_the_verdict_maps_exits_on(monkeypatch):
    # the library call, no argparse: a closed form planted 2e-9 off fails the
    # 1e-9 oracle, and a map outside the CP set stops the run
    from spinmaps import analytic, reduced
    from spinmaps.network import t_scale
    from spinmaps.qlinalg import InvariantError

    spec = NetworkSpec("complete", 3, h=0.37, j_perp=1.0, j_par=0.6)
    envs = {s: [(0.0, 0.0, 0.5)] * 2 for s in range(3)}
    args = (spec, envs, t_scale(1.0), 1.0, 10)
    exact = analytic.map_series(*args)
    assert exact.failure is None
    assert exact.diagnostics["analytic_check"]["max_abs_err"] <= analytic.ORACLE_TOL
    assert exact.diagnostics["roundoff_budget"] < analytic.ROUNDOFF_LIMIT
    closed_form = analytic.closed_form
    monkeypatch.setattr(analytic, "closed_form", lambda *a: closed_form(*a) + 2e-9)
    planted = analytic.map_series(*args)
    assert planted.failure.startswith("closed form and numeric maps disagree: max_abs_err 2.")
    assert planted.tables["data.csv"] == exact.tables["data.csv"]
    monkeypatch.setattr(reduced.MapExtractor, "transfer",
                        lambda self, t: np.diag([1.0, 1.5, 1.5, 1.0]))
    with pytest.raises(InvariantError, match=r"^CP violation at t=0.000 t_J, site 0: \(l1=1.5"):
        analytic.map_series(*args)


def test_map_series_reports_a_numeric_only_run_through_warn():
    from spinmaps import analytic
    from spinmaps.network import t_scale

    spec = NetworkSpec("ring", 9, h=0.37, j_perp=1.0, j_par=1.0)  # above the ring oracle's cap
    envs = {s: [(0.0, 0.0, 0.5)] * 8 for s in range(9)}
    reasons = []
    result = analytic.map_series(spec, envs, t_scale(1.0), 0.1, 10, warn=reasons.append)
    assert reasons == [result.diagnostics["analytic_skip_reason"]] and reasons[0]
    assert result.failure is None and result.diagnostics["analytic_check"] is None
