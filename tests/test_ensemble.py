import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from spinmaps import ensemble, reduced
from spinmaps.ensemble import (
    GENERIC_H_RATIO,
    SpectralAverage,
    UnsupportedNetwork,
    converged_fluctuations,
    esym,
    network_average,
    network_series,
    quench_demo,
    quench_series,
    steady_channel,
    time_average,
)
from spinmaps.network import NetworkSpec, build_hamiltonian, t_scale
from spinmaps.qlinalg import PAULI_STACK, HermitianEvolver, NumericalError, partial_trace_keep
from spinmaps.reduced import MapExtractor, PCParams, fit_pc, transfer_from_unitary

RNG = np.random.default_rng(31)

HIER3 = [1.0, 1.0 / 3.0, 2.0 / 3.0]


def iso(topology, n):
    """The isotropic network (J_par = J_perp = 1), which every steady table covers."""
    return NetworkSpec(topology=topology, n=n, j_perp=1.0, j_par=1.0)


def network_avg_series(topology, n, z, t_max_tj, ppt, j_perp=1.0, j_par=1.0,
                       h=None):
    h = GENERIC_H_RATIO * j_perp if h is None else h
    t_j = t_scale(j_perp)
    grid = np.linspace(0.0, t_max_tj * t_j, int(round(t_max_tj * ppt)) + 1)
    spec = NetworkSpec(topology=topology, n=n, h=h, j_perp=j_perp, j_par=j_par)
    return grid, network_series(spec, z, grid)


# ---------------------------------------------------------------------------
# esym
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(-5, 5), min_size=0, max_size=6), st.integers(0, 6))
def test_esym_matches_subset_sums(zs, k):
    if k > len(zs):
        with pytest.raises(ValueError):
            esym(zs, k)
        return
    brute = sum(int(np.prod(c)) for c in itertools.combinations(zs, k)) if k else 1
    assert esym(zs, k) == brute


def test_esym_exact_with_fractions():
    zs = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 11)]
    assert esym(zs, 2) == Fraction(1, 3) * Fraction(-2, 5) \
        + Fraction(1, 3) * Fraction(7, 11) + Fraction(-2, 5) * Fraction(7, 11)
    assert isinstance(esym(zs, 2), Fraction)


# ---------------------------------------------------------------------------
# network / time averages
# ---------------------------------------------------------------------------


def test_network_average_is_entrywise_mean_and_validates():
    maps = [RNG.normal(size=(4, 4)) for _ in range(3)]
    assert np.max(np.abs(network_average(maps) - np.mean(maps, axis=0))) < 1e-15
    with pytest.raises(ValueError):
        network_average([])
    with pytest.raises(ValueError):
        network_average([np.eye(3)])


def test_network_average_of_stacks_equals_per_time_calls():
    maps = RNG.normal(size=(10, 7, 4, 4))  # (m, T, 4, 4)
    whole = network_average(maps)
    assert whole.shape == (7, 4, 4)
    assert whole.tobytes() == np.array([network_average(maps[:, k]) for k in range(7)]).tobytes()
    with pytest.raises(ValueError):
        network_average(np.ones((3, 7, 4, 3)))


def test_convex_closure_of_pc_pattern():
    # averaging PC transfers never leaves the pattern
    ps = [PCParams(*RNG.uniform(-0.5, 0.5, 4)) for _ in range(5)]
    avg = network_average([p.transfer() for p in ps])
    assert fit_pc(avg).residual < 1e-12


def test_time_average_of_constant_series():
    grid = np.linspace(0.0, 5.0, 11)
    m = RNG.normal(size=(4, 4))
    series = np.repeat(m[None], 11, axis=0)
    out = time_average(grid, series)
    assert np.max(np.abs(out - m[None])) < 1e-12


def test_time_average_of_cosine_decays():
    omega = 7.0
    grid = np.linspace(0.0, 40.0, 4001)
    series = np.zeros((grid.size, 4, 4))
    series[:, 1, 1] = np.cos(omega * grid)
    out = time_average(grid, series)
    # running mean of cos is sin(wt)/(wt): bounded by 1/(w t) plus O(dt^2)
    tail = out[-1, 1, 1]
    assert abs(tail) < 1.1 / (omega * grid[-1]) + 1e-4


def test_time_average_grid_validation():
    series = np.zeros((3, 4, 4))
    with pytest.raises(ValueError):
        time_average([0.0, 1.0, 3.0], series)  # non-uniform
    with pytest.raises(ValueError):
        time_average([1.0, 2.0, 3.0], series)  # must start at 0
    with pytest.raises(ValueError):
        time_average([0.0, 1.0], series)  # shape mismatch


def test_running_average_converges_to_steady_table():
    grid, series = network_avg_series("complete", 3, HIER3, 61.3, 20)
    avg = time_average(grid, series)[-1]
    sc = steady_channel(iso("complete", 3), HIER3)
    bound = 5.0 * t_scale(1.0) / (3 * grid[-1])
    assert abs(avg[3, 3] - sc.lambda3) < bound
    assert abs(avg[3, 0] - sc.tau3) < bound
    assert np.hypot(avg[1, 1], avg[2, 1]) < 0.01  # generic field kills lambda1


def test_richardson_step_halving():
    grid1, series1 = network_avg_series("complete", 3, HIER3, 61.3, 20)
    grid2, series2 = network_avg_series("complete", 3, HIER3, 61.3, 40)
    a = time_average(grid1, series1)[-1, 3, 3]
    b = time_average(grid2, series2)[-1, 3, 3]
    assert abs(a - b) < 1e-4


def spectral_average(topology, n, z, j_perp=1.0, j_par=1.0):
    spec = NetworkSpec(topology=topology, n=n, h=GENERIC_H_RATIO * j_perp,
                       j_perp=j_perp, j_par=j_par)
    return SpectralAverage(spec, z)


def test_spectral_limit_is_the_steady_table():
    for topo in ("complete", "ring"):
        sa = spectral_average(topo, 4, [0.2] * 4)
        sc = steady_channel(iso(topo, 4), [Fraction(1, 5)] * 4)
        assert abs(sa.limit[3, 3] - sc.lambda3) < 1e-12
        assert abs(sa.limit[3, 0] - sc.tau3) < 1e-12
        assert np.hypot(sa.limit[1, 1], sa.limit[2, 1]) < 1e-12
        assert fit_pc(sa.limit).residual < 1e-12


def test_spectral_average_matches_trapezoid_within_its_error():
    grid, series = network_avg_series("complete", 3, HIER3, 5.0, 200)
    sa = spectral_average("complete", 3, HIER3)
    exact = sa(grid)
    assert np.max(np.abs(exact[0] - series[0])) < 1e-12  # T = 0 is the map at 0
    # trapezoid error of a running mean <= dt^2/12 max|M''|, and
    # |M''| <= 2 sum_g |a_g| w_g^2 entry-wise
    dt = grid[1] - grid[0]
    bound = dt ** 2 / 12.0 * 2.0 * np.einsum("g,gij->ij", sa.gaps ** 2,
                                             np.abs(sa.amplitudes))
    assert bound.max() < 1e-3
    diff = np.abs(time_average(grid, series) - exact)
    assert np.all(diff <= bound[None] + 1e-13)


ENGINE_SPECS = [NetworkSpec(topology=topo, n=n, h=0.37, j_perp=1.0, j_par=j_par)
                for topo, sizes in (("complete", (3, 4, 5, 6)), ("ring", (4, 5)))
                for n in sizes for j_par in (0.6, 1.0)]


@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=lambda s: f"{s.topology}{s.n}-{s.j_par}")
def test_spectral_maps_match_map_extractor_at_every_site(spec):
    rng = np.random.default_rng(10 * spec.n + int(10 * spec.j_par))
    z = rng.uniform(-1.0, 1.0, spec.n)
    times = np.linspace(0.0, 10.0 * t_scale(1.0), 101)
    evolver = HermitianEvolver(build_hamiltonian(spec))
    per_site = []
    for s in range(spec.n):
        env = [(0.0, 0.0, z[k]) for k in range(spec.n) if k != s]
        extractor = MapExtractor(evolver, s, env)
        want = np.stack([extractor.transfer(t) for t in times])
        got = SpectralAverage(spec, z, sites=(s,)).maps(times)
        assert np.max(np.abs(got - want)) <= 1e-12
        per_site.append(want)
    # the default, every site, is the site average, and steady's own path
    got = SpectralAverage(spec, z).maps(times)
    assert np.max(np.abs(got - np.mean(per_site, axis=0))) <= 1e-12
    assert np.max(np.abs(network_series(spec, z, times) - got)) <= 1e-12


def test_network_series_decomposes_each_environment_once(monkeypatch):
    """N focal sites over T times: N cache misses and N (T - 1) hits, so the
    partners are decomposed N (N - 1) times, not N (N - 1) T times."""
    spec = NetworkSpec(topology="ring", n=5, h=0.2, j_perp=1.0, j_par=0.6)
    times = np.linspace(0.0, 3.0, 17)
    decompositions = []

    def counted(bloch):
        decompositions.append(bloch)
        return eigen_weights(bloch)

    eigen_weights = reduced._eigen_weights
    monkeypatch.setattr(reduced, "_eigen_weights", counted)
    reduced._band_environment.cache_clear()
    network_series(spec, [0.5, -0.25, 0.0, 1.0, -0.0], times)
    info = reduced._band_environment.cache_info()
    n, t = spec.n, len(times)
    assert (info.misses, info.hits) == (n, n * (t - 1))
    assert len(decompositions) == n * (n - 1)


def expm_transfer(spec, z, site, t):
    """Transfer matrix of `site` from scipy's expm and np.kron inputs alone."""
    u = scipy.linalg.expm(-1j * t * build_hamiltonian(spec))
    out = np.empty((4, 4))
    for j, sigma in enumerate(PAULI_STACK):
        rho = np.ones((1, 1))
        for k in range(spec.n):
            rho = np.kron(rho, sigma if k == site else np.diag([1.0 + z[k], 1.0 - z[k]]) / 2)
        reduced = partial_trace_keep(u @ rho @ u.conj().T, site)
        out[:, j] = [0.5 * np.trace(p @ reduced).real for p in PAULI_STACK]
    return out


@pytest.mark.parametrize("topology, n", [("complete", 3), ("ring", 4)])
def test_spectral_maps_match_expm_reference(topology, n):
    spec = NetworkSpec(topology=topology, n=n, h=0.37, j_perp=1.0, j_par=0.6)
    z = [0.9, -0.3, 0.5, 0.1][:n]
    times = np.array([0.0, 0.7, 3.1, 17.0])
    evolver = HermitianEvolver(build_hamiltonian(spec))
    for site in range(n):
        got = SpectralAverage(spec, z, sites=(site,)).maps(times)
        extractor = MapExtractor(evolver, site, [(0.0, 0.0, z[k]) for k in range(n) if k != site])
        for t, tr in zip(times, got):
            want = expm_transfer(spec, z, site, t)
            assert np.max(np.abs(tr - want)) <= 1e-12
            assert np.max(np.abs(extractor.transfer(t) - want)) <= 1e-12


@pytest.mark.parametrize("sites", [(3,), (-1,), (0, 5), ()])
def test_spectral_sites_out_of_range(sites):
    with pytest.raises(ValueError):
        SpectralAverage(iso("complete", 3), HIER3, sites=sites)


@pytest.mark.parametrize("times", [[np.nan, 1.0], [1.0, np.inf], [-np.inf], [0.5, -1.0]])
def test_spectral_series_refuse_non_finite_and_negative_times(times):
    average = SpectralAverage(iso("complete", 3), HIER3)
    for series in (average, average.maps):
        with pytest.raises(ValueError, match="finite values >= 0"):
            series(times)


def test_spectral_limit_refuses_nan(monkeypatch):
    # a NaN partner polarization is bad input, refused where its density is
    # built, not a library fault
    with pytest.raises(ValueError, match="norm > 1") as caught:
        SpectralAverage(iso("complete", 3), [1.0, np.nan, 2.0 / 3.0])
    assert not isinstance(caught.value, NumericalError)
    # NaN inputs make every limit entry NaN, which no tolerance comparison
    # rejects unless NaN fails the guard
    monkeypatch.setattr(ensemble, "_env_inputs",
                        lambda n, site, env: [np.full((8, 8), np.nan)] * 4)
    with pytest.raises(NumericalError, match="time-averaged"):
        SpectralAverage(iso("complete", 3), [1.0, 0.5, 2.0 / 3.0])


def test_spectral_limit_degeneracy_tolerance_edge():
    # The Zeeman gap 2h splits levels that are degenerate at h = 0. Within
    # _DEGEN_TOL (1e-9) it still counts as degenerate, and the rotation block
    # keeps its h = 0 value; a gap of 1e-7 is resolved, and the block
    # averages out.
    def lambda1_limit(h):
        limit = SpectralAverage(NetworkSpec("complete", 3, h=h), HIER3).limit
        return np.hypot(limit[1, 1], limit[2, 1])

    at_zero = lambda1_limit(0.0)
    assert at_zero > 0.2
    assert abs(lambda1_limit(5e-12) - at_zero) <= 1e-12
    assert lambda1_limit(5e-8) <= 1e-12


RING_SYMMETRY_TIMES = np.linspace(0.0, 20.0, 41)
FLIP = np.diag([1.0, 1.0, -1.0, -1.0])


@pytest.mark.parametrize("n", [5, 6])
def test_ring_maps_are_shift_covariant(n):
    # an engine symmetry that needs no closed form: the cyclic shift s -> s + 1 takes
    # the site-0 map at z to the site-1 map at z shifted by one site
    spec = NetworkSpec("ring", n, h=0.618, j_par=0.6)
    z = np.random.default_rng(40 + n).uniform(-1.0, 1.0, n)
    at_0 = SpectralAverage(spec, z, sites=(0,)).maps(RING_SYMMETRY_TIMES)
    at_1 = SpectralAverage(spec, np.roll(z, 1), sites=(1,)).maps(RING_SYMMETRY_TIMES)
    assert np.max(np.abs(at_0 - at_1)) <= 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_ring_maps_are_flip_covariant(n):
    # the global spin flip takes (h, z) to (-h, -z) and T to D T D,
    # D = diag(1, 1, -1, -1)
    z = np.random.default_rng(50 + n).uniform(-1.0, 1.0, n)
    maps = {sign: SpectralAverage(NetworkSpec("ring", n, h=sign * 0.618, j_par=0.6),
                                  sign * z, sites=(0,)).maps(RING_SYMMETRY_TIMES)
            for sign in (1.0, -1.0)}
    assert np.max(np.abs(FLIP @ maps[1.0] @ FLIP - maps[-1.0])) <= 1e-12
    assert np.max(np.abs(maps[1.0] - maps[-1.0])) > 0.1  # the flip is not trivial


# engine relations that need no closed form, on rings N=5 and N=6 and on
# the complete graph at N=7
SYMMETRY_NETWORKS = [("ring", 5), ("ring", 6), ("complete", 7)]


def z_block(maps):
    """Rows and columns (1, Z) of a stack of transfer matrices: lambda3, tau3."""
    return maps[:, [0, 3]][:, :, [0, 3]]


@pytest.mark.parametrize("topology, n", SYMMETRY_NETWORKS)
def test_field_only_precesses_the_map(topology, n):
    # the uniform field commutes with H, so U_h(t) = e^{-iht sum Z} U_0(t) and
    # the environment's share of the phase is traced out: the site map at h
    # is the h = 0 map followed by a rotation about z by 2ht
    z = np.random.default_rng(60 + n).uniform(-1.0, 1.0, n)
    maps = {h: SpectralAverage(NetworkSpec(topology, n, h=h, j_par=0.6), z, sites=(1,))
            .maps(RING_SYMMETRY_TIMES) for h in (0.0, 0.618, -1.3)}
    bare = maps[0.0]
    for h in (0.618, -1.3):
        angle = 2.0 * h * RING_SYMMETRY_TIMES
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
        assert np.max(np.abs(z_block(maps[h]) - z_block(bare))) <= 1e-12
        assert np.max(np.abs(fit_pc(maps[h]).lambda1 - fit_pc(bare).lambda1)) <= 1e-12
        assert np.max(np.abs(maps[h][:, 1:3] - rotation @ bare[:, 1:3])) <= 1e-12
        assert np.max(np.abs(maps[h][:, 1:3] - bare[:, 1:3])) > 0.1  # the field does act


@pytest.mark.parametrize("topology, n", SYMMETRY_NETWORKS)
def test_z_block_ignores_j_par_on_the_complete_graph_only(topology, n):
    # on the complete graph sum_{i<j} Z_i Z_j = (Q^2 - N)/2, a function of the
    # conserved charge Q, so J_par leaves the focal site's populations alone;
    # the ring's bonds are no function of Q, and there J_par does enter
    z = np.random.default_rng(70 + n).uniform(-1.0, 1.0, n)
    blocks = [z_block(SpectralAverage(NetworkSpec(topology, n, h=0.618, j_par=j_par), z,
                                      sites=(1,)).maps(RING_SYMMETRY_TIMES))
              for j_par in (0.0, 0.6, 1.7)]
    gap = max(np.max(np.abs(b - blocks[0])) for b in blocks[1:])
    if topology == "complete":
        assert gap <= 1e-12
    else:
        assert gap > 0.1


def test_converged_fluctuation_constant_complete4():
    # the doubling test alone stops at 0.2295 here: the 10 and 20 points/t_J
    # grids both miss the same peak of the nearly periodic envelope
    t_j = t_scale(1.0)
    sc = steady_channel(iso("complete", 4), [Fraction(1, 5)] * 4)
    grid = np.linspace(0.0, 100.0 * t_j, 1001)
    f = converged_fluctuations(spectral_average("complete", 4, [0.2] * 4), sc,
                               t_j, grid, onset=20.0)
    assert abs(f.c_lambda3 / 0.247 - 1.0) < 0.01
    assert abs(f.c_tau3 / 0.198 - 1.0) < 0.01
    assert f.rel_change < 0.01 and f.sup_gap < 0.01
    assert f.points_per_tj > 10.0
    # the series itself stays on the given grid
    assert f.t_over_tj.size == grid.size


# ---------------------------------------------------------------------------
# steady tables
# ---------------------------------------------------------------------------


def test_steady_cc3_exact_values():
    z = [Fraction(1), Fraction(1, 3), Fraction(2, 3)]
    sc = steady_channel(iso("complete", 3), z)
    e1 = sum(z)
    assert sc.lambda3_exact == Fraction(5, 9)
    assert sc.tau3_exact == Fraction(4, 9) * e1 / 3
    assert sc.coeffs == {0: Fraction(5, 9)}


# The complete graph's tables as the paper gives them (N = 3..6), and as
# fitted to the engine's limit at N = 7, 8; the library derives them.
STEADY_COMPLETE = {
    3: {0: Fraction(5, 9)},
    4: {0: Fraction(7, 16), 2: Fraction(3, 16)},
    5: {0: Fraction(7, 15), 2: Fraction(16, 75)},
    6: {0: Fraction(59, 144), 2: Fraction(5, 12), 4: Fraction(-5, 48)},
    7: {0: Fraction(3, 7), 2: Fraction(16, 35), 4: Fraction(-32, 245)},
    8: {0: Fraction(605, 1536), 2: Fraction(1015, 1536), 4: Fraction(-175, 512),
        6: Fraction(35, 512)},
}


def test_steady_coefficient_tables():
    want = {(n, "complete"): coeffs for n, coeffs in STEADY_COMPLETE.items()}
    want[5, "ring"] = {0: Fraction(71, 225), 2: Fraction(2, 45)}
    want[4, "ring"] = {0: Fraction(7, 16), 2: Fraction(3, 16), (0, 2): Fraction(-1, 4)}
    for (n, topo), coeffs in want.items():
        sc = steady_channel(iso(topo, n), [Fraction(1, 2)] * n)
        assert sc.coeffs == coeffs


@pytest.mark.parametrize("n", sorted(STEADY_COMPLETE))
def test_complete_table_is_exact_at_any_coupling(n):
    # the z block's gap J_perp (2J'+1) never vanishes: one table for every
    # field and J_par, and for either sign of J_perp
    for j_perp, j_par, h in [(1.0, 1.0, 0.0), (1.0, 0.3, 0.7), (-2.0, 0.0, 0.0)]:
        spec = NetworkSpec("complete", n, h=h, j_perp=j_perp, j_par=j_par)
        assert ensemble.steady_table(spec) == STEADY_COMPLETE[n]


@pytest.mark.parametrize("n", range(2, 11))
def test_complete_table_tau3_is_the_blocks_time_average(n):
    # steady_channel's tau3 = (1 - a_0) e_1/N - sum_k a_k e_{k+1}/C(N, k+1),
    # against the time-independent part of the blocks' focal tau3 (and the
    # lambda3 the table is read from), exactly: at uniform x both sides are
    # polynomials of degree <= n in x, so n + 1 points decide
    m = n - 1
    for x in (Fraction(k, n) for k in range(-n, n + 1, 2)):
        lam = tau = Fraction(0)
        for up, weight, _, u, v in ensemble.collective_blocks(n):
            prob = weight * math.comb(m, up) * ((1 + x) / 2) ** up * ((1 - x) / 2) ** (m - up)
            lam += prob * (1 - 2 * (u * (1 - u) + v * (1 - v)))
            tau += prob * 2 * (v * (1 - v) - u * (1 - u))
        sc = steady_channel(iso("complete", n), [x] * n)
        assert (sc.lambda3_exact, sc.tau3_exact) == (lam, tau)


@pytest.mark.parametrize("n", range(2, 8))
def test_complete_steady_channel_is_the_engine_limit_at_degenerate_couplings(n):
    # h = 0 (levels M and -M meet) and J_par = J_perp (every M meets):
    # the table still holds, degenerate gaps and all
    z = [Fraction(k, 7) for k in (7, -3, 5, -7, 1, 0, 2)][:n]
    for j_par, h in [(0.4, 0.0), (1.0, 0.37), (1.0, 0.0)]:
        spec = NetworkSpec("complete", n, h=h, j_perp=1.0, j_par=j_par)
        limit = SpectralAverage(spec, z).limit
        sc = steady_channel(spec, z)
        assert abs(limit[3, 3] - sc.lambda3) <= 1e-12 and abs(limit[3, 0] - sc.tau3) <= 1e-12


def test_steady_ring4_antipodal_term():
    z = [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)]
    sc = steady_channel(iso("ring", 4), z)
    e = [esym(z, k) for k in range(5)]
    pair = e[2] - 4 * (z[0] * z[2] + z[1] * z[3])
    assert sc.lambda3_exact == Fraction(7, 16) + Fraction(3, 16) * pair / 6
    assert sc.tau3_exact == Fraction(9, 16) * e[1] / 4 + Fraction(1, 16) * e[3] / 4


def test_steady_constraint_at_polarized_states():
    for n, topo in [(3, "complete"), (4, "complete"), (5, "complete"),
                    (6, "complete"), (4, "ring"), (5, "ring")]:
        up = steady_channel(iso(topo, n), [1] * n)
        dn = steady_channel(iso(topo, n), [-1] * n)
        assert up.tau3_exact + up.lambda3_exact == 1
        assert dn.tau3_exact - dn.lambda3_exact == -1
        assert up.constraint_ok() and dn.constraint_ok()


@given(st.permutations(range(5)))
def test_steady_permutation_invariance(perm):
    z = [Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3),
         Fraction(-1, 5)]
    base_cc = steady_channel(iso("complete", 5), z)
    perm_cc = steady_channel(iso("complete", 5), [z[i] for i in perm])
    assert base_cc.lambda3_exact == perm_cc.lambda3_exact
    assert base_cc.tau3_exact == perm_cc.tau3_exact
    base_r = steady_channel(iso("ring", 5), z)
    perm_r = steady_channel(iso("ring", 5), [z[i] for i in perm])
    assert base_r.lambda3_exact == perm_r.lambda3_exact
    assert base_r.tau3_exact == perm_r.tau3_exact


def test_steady_ring4_cyclic_but_not_transposition():
    z = [Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)]
    base = steady_channel(iso("ring", 4), z)
    # a rotation, the reversal and the reflection through site 0
    for image in (z[1:] + z[:1], z[::-1], [z[0], z[3], z[2], z[1]]):
        other = steady_channel(iso("ring", 4), image)
        assert (base.lambda3_exact, base.tau3_exact) == (other.lambda3_exact, other.tau3_exact)
    swapped = steady_channel(iso("ring", 4), [z[1], z[0], z[2], z[3]])
    assert base.lambda3_exact != swapped.lambda3_exact


def test_steady_channel_validation():
    z = [Fraction(1), Fraction(-1, 3), Fraction(1, 2)]
    # the 3-ring is the 3-clique: the same table, the same values
    assert steady_channel(iso("ring", 3), z) == steady_channel(iso("complete", 3), z)
    with pytest.raises(UnsupportedNetwork):
        steady_channel(NetworkSpec("ring", 5, j_perp=1.0, j_par=0.6), [0] * 5)
    with pytest.raises(ValueError):
        steady_channel(iso("complete", 3), [0, 0])  # wrong length


def test_steady_channel_refuses_unphysical_z():
    # |z| <= 1 exactly, checked on the Fractions, the site named
    with pytest.raises(ValueError, match="site 0"):
        steady_channel(iso("complete", 3), [2, 0, 0])
    with pytest.raises(ValueError, match="site 2"):
        steady_channel(iso("ring", 4), [1, -1, Fraction(-10**17 - 1, 10**17), 0])
    assert steady_channel(iso("ring", 4), [1, -1, -1, 0]).n == 4


# ---------------------------------------------------------------------------
# fluctuations
# ---------------------------------------------------------------------------


class PlantedEngine:
    """Stand-in for a SpectralAverage: the running averages `series(t)` at any
    times, and a zero curvature bound (no sup to certify between points)."""

    def __init__(self, series):
        self.series = series

    def __call__(self, times):
        return self.series(np.asarray(times, dtype=float))

    def curvature(self):
        return np.zeros((4, 4))


def planted_engine(lambda3, tau3):
    """Engine whose (lambda3, tau3) running averages are the given functions of t."""
    def series(t):
        out = np.zeros((t.size, 4, 4))
        out[:, 0, 0] = 1.0
        out[:, 3, 3] = lambda3(t)
        out[:, 3, 0] = tau3(t)
        return out
    return PlantedEngine(series)


def test_fluctuations_fits_the_planted_constant():
    sc = steady_channel(iso("complete", 3), HIER3)
    t_j = t_scale(1.0)
    c0 = 2.5

    def dev(t):
        with np.errstate(divide="ignore"):
            return np.where(t > 0, c0 * t_j / (sc.n * t), 1.0)

    engine = planted_engine(lambda t: sc.lambda3 * (1.0 + dev(t)),
                            lambda t: sc.tau3 * (1.0 + dev(t)))
    grid = np.linspace(0.0, 60.0 * t_j, 201)
    f = converged_fluctuations(engine, sc, t_j, grid, onset=20.0)
    assert f.lambda3_normalized and f.tau3_normalized
    assert abs(f.c_lambda3 - c0) < 1e-9
    assert abs(f.c_tau3 - c0) < 1e-9
    assert f.rel_change < 1e-9 and f.sup_gap == 0.0
    # deviations beyond the onset are bounded by C t_J / (N t)
    tail = f.t_over_tj > f.onset
    assert np.all(np.abs(f.delta_lambda3[tail])
                  <= f.c_lambda3 / (sc.n * f.t_over_tj[tail]) + 1e-12)


def test_fluctuations_absolute_mode_when_steady_is_zero():
    sc = steady_channel(iso("complete", 3), [0.5, -0.5, 0.0])  # e1 = 0 -> tau3 = 0
    assert sc.tau3_exact == 0
    t_j = t_scale(1.0)
    engine = planted_engine(lambda t: np.full(t.size, sc.lambda3),
                            lambda t: np.full(t.size, 0.01))
    f = converged_fluctuations(engine, sc, t_j, np.linspace(0.0, 30.0 * t_j, 301))
    assert not f.tau3_normalized
    assert np.max(np.abs(f.delta_tau3 - 0.01)) < 1e-12
    # |delta| N t/t_J peaks at the horizon
    assert abs(f.c_tau3 - 0.01 * sc.n * 30.0) < 1e-12


def test_fluctuations_needs_tail_samples():
    sc = steady_channel(iso("complete", 3), HIER3)
    engine = planted_engine(lambda t: np.zeros(t.size), lambda t: np.zeros(t.size))
    grid = np.linspace(0.0, 5.0, 6)
    with pytest.raises(ValueError, match="onset"):
        converged_fluctuations(engine, sc, 1.0, grid, onset=20.0)
    with pytest.raises(ValueError, match="t_j"):
        converged_fluctuations(engine, sc, 0.0, grid, onset=20.0)


@pytest.mark.parametrize("topology, z", [("ring", [1, -1, 1, -1]),  # Neel
                                         ("complete", [0.5, -0.5, 0.0]),  # e1 = 0
                                         ("complete", [0.2] * 4)])
def test_curvature_bounds_the_rate_of_change(topology, z):
    sa = spectral_average(topology, len(z), z)
    bound = sa.curvature()
    t = np.linspace(0.0, 20.0 * t_scale(1.0), 8001)
    dt = t[1] - t[0]
    rate = np.max(np.abs(np.diff(sa.maps(t), axis=0)), axis=0) / dt
    # the difference quotient never exceeds the sup of the derivative; the
    # slack is the roundoff of two maps, divided by the step
    assert np.all(rate <= bound + 1e-13 / dt)
    if sum(z) == 0:
        # symmetric states pin tau3 to 0 at every t: the eigenpairs that share
        # a gap cancel, and so does the bound
        assert bound[3, 0] < 1e-12


# ---------------------------------------------------------------------------
# staggered quench
# ---------------------------------------------------------------------------


# the always-on cluster: isotropic j = 1 is J_perp = J_par = 2
QUENCH = NetworkSpec(topology="complete", n=3, h=GENERIC_H_RATIO * 2.0,
                     j_perp=2.0, j_par=2.0)
POLARIZED = [1.0] * 3
QUENCH_T_J = t_scale(2.0)
NARROW_WINDOW = ("switch-on times span less than one t_J; the cluster average "
                 "will not resemble a time average")


@pytest.fixture(scope="module")
def site0():
    return SpectralAverage(QUENCH, POLARIZED, sites=(0,))


def test_quench_single_cluster_contract(site0):
    ev = HermitianEvolver(build_hamiltonian(QUENCH))
    env = [(0.0, 0.0, 1.0)] * 2
    want = transfer_from_unitary(ev.unitary(5.5 - 1.2), 0, env)
    got = quench_demo(site0, [1.2], 5.5)
    assert np.max(np.abs(got - want)) < 1e-12
    # all clusters quenched at the same time degenerate to the same map
    same = quench_demo(site0, [1.2] * 4, 5.5)
    assert np.max(np.abs(same - want)) < 1e-12


def test_quench_future_switch_is_identity(site0):
    got = quench_demo(site0, [3.0], 1.0)
    assert np.max(np.abs(got - np.eye(4))) < 1e-12


def test_quench_schedule_shape_checked(site0):
    with pytest.raises(ValueError):
        quench_demo(site0, [], 1.0)
    with pytest.raises(ValueError):
        quench_demo(site0, [[0.0, 1.0]], 1.0)


def test_quench_warns_on_narrow_window():
    def reasons(n_cl, window_tj, schedule="staggered"):
        got = []
        quench_series(QUENCH, POLARIZED, n_cl, window_tj, 8.0, schedule, 0, warn=got.append)
        return got

    assert reasons(5, 0.5) == [NARROW_WINDOW]
    assert reasons(5, 0.5, "random") == [NARROW_WINDOW]
    assert reasons(4, 0.0) == [NARROW_WINDOW]  # every cluster switched on at once
    # a window of one t_J, or a single cluster, is no warning
    assert reasons(5, 1.0) == [] and reasons(1, 0.5) == []


def test_quench_average_tracks_time_average(site0):
    # moderate size; the acceptance suite runs the full-size benchmark
    t_j = QUENCH_T_J
    # staggered over [0, 50 t_J], evaluated at the last switch-on
    avg = quench_demo(site0, np.linspace(0.0, 50.0 * t_j, 200), 50.0 * t_j)
    # the exact running time average of site 0 in one always-on cluster
    ref = site0([50.0 * t_j])[0]
    assert np.max(np.abs(avg - ref)) < 0.02


def _hierarchy_cc3():
    spec = NetworkSpec("complete", 3, h=ensemble.GENERIC_H_RATIO, j_perp=1.0, j_par=1.0)
    z = (Fraction(1), Fraction(1, 3), Fraction(2, 3))
    return spec, z, steady_channel(spec, z)


def test_steady_series_gives_the_verdict_steady_exits_on():
    # the inputs of `steady --horizon-tj 2.3 --tol 1e-6`, without argparse
    import dataclasses

    spec, z, steady = _hierarchy_cc3()
    short = ensemble.steady_series(spec, z, steady, 2.3, 20, 1e-6)
    assert short.failure.startswith("horizon too short: |diff| = (5.57e-03, 3.72e-03)")
    assert short.diagnostics["pass"] is False
    # whole periods of every gap at 5 t_J: the running average is the limit
    exact = ensemble.steady_series(spec, z, steady, 5.0, 20, 1e-6)
    assert exact.failure is None and exact.diagnostics["pass"] is True
    # either value planted off the numeric limit fails the verdict
    for field in ("lambda3", "tau3"):
        planted = dataclasses.replace(steady, **{field: getattr(steady, field) + 1e-3})
        result = ensemble.steady_series(spec, z, planted, 5.0, 20, 1e-6)
        assert result.diagnostics["pass"] is False and result.failure, field


def test_steady_series_refuses_a_budget_at_a_quarter_of_tol():
    spec, z, steady = _hierarchy_cc3()
    norm = spec.n * abs(spec.h) + 3 * 1.5
    # the horizon (in t_J) at which eps ||H|| t_max is tol/4 = 2.5e-13
    edge = 2.5e-13 / (np.finfo(float).eps * norm * t_scale(1.0))
    with pytest.raises(UnsupportedNetwork, match=r"is not below tol/4 = 2.5e-13: steady"):
        ensemble.steady_series(spec, z, steady, 1.01 * edge, 1, 1e-12)
    ensemble.steady_series(spec, z, steady, 0.99 * edge, 1, 1e-12)


def test_fluct_series_is_not_converged_after_too_few_doublings(monkeypatch):
    spec = NetworkSpec("complete", 4, h=ensemble.GENERIC_H_RATIO, j_perp=1.0, j_par=1.0)
    z = (Fraction(1, 5),) * 4
    steady = steady_channel(spec, z)
    monkeypatch.setattr(ensemble, "_MAX_DOUBLINGS", 1)
    result = ensemble.fluct_series(spec, z, steady, 60, 2, 20.0)
    # one doubling moved neither constant, but the grid maximum is not certified
    assert result.diagnostics["rel_change"] < ensemble.FLUCT_RTOL
    assert result.diagnostics["sup_gap"] >= ensemble.FLUCT_RTOL
    assert result.diagnostics["converged"] is False
    assert result.failure.startswith("fluctuation constants not converged")
    monkeypatch.setattr(ensemble, "_MAX_DOUBLINGS", 6)
    converged = ensemble.fluct_series(spec, z, steady, 60, 2, 20.0)
    assert converged.failure is None and converged.diagnostics["converged"] is True
