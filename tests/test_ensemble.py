import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmaps.ensemble import (
    GENERIC_H_RATIO,
    SpectralAverage,
    converged_fluctuations,
    esym,
    fluctuations,
    network_average,
    network_series,
    quench_demo,
    steady_channel,
    time_average,
)
from spinmaps.network import NetworkSpec, build_hamiltonian, t_scale
from spinmaps.qlinalg import HermitianEvolver
from spinmaps.reduced import PCParams, fit_pc, transfer_from_unitary

RNG = np.random.default_rng(31)

HIER3 = [1.0, 1.0 / 3.0, 2.0 / 3.0]


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
    sc = steady_channel(3, "complete", HIER3)
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
        sc = steady_channel(4, topo, [Fraction(1, 5)] * 4)
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


def test_converged_fluctuation_constant_complete4():
    # the doubling test alone stops at 0.2295 here: the 10 and 20 points/t_J
    # grids both miss the same peak of the nearly periodic envelope
    t_j = t_scale(1.0)
    sc = steady_channel(4, "complete", [Fraction(1, 5)] * 4)
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
    sc = steady_channel(3, "complete", z)
    e1 = sum(z)
    assert sc.lambda3_exact == Fraction(5, 9)
    assert sc.tau3_exact == Fraction(4, 9) * e1 / 3
    assert sc.coeffs == {0: Fraction(5, 9)}


def test_steady_coefficient_tables():
    want = {
        (3, "complete"): {0: Fraction(5, 9)},
        (4, "complete"): {0: Fraction(7, 16), 2: Fraction(3, 16)},
        (5, "complete"): {0: Fraction(7, 15), 2: Fraction(16, 75)},
        (6, "complete"): {0: Fraction(59, 144), 2: Fraction(5, 12),
                          4: Fraction(-5, 48)},
        (5, "ring"): {0: Fraction(71, 225), 2: Fraction(2, 45)},
        (4, "ring"): {0: Fraction(7, 16), 2: Fraction(3, 16)},
    }
    for (n, topo), coeffs in want.items():
        sc = steady_channel(n, topo, [Fraction(1, 2)] * n)
        assert sc.coeffs == coeffs


def test_steady_ring4_antipodal_term():
    z = [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)]
    sc = steady_channel(4, "ring", z)
    e = [esym(z, k) for k in range(5)]
    pair = e[2] - 4 * (z[0] * z[2] + z[1] * z[3])
    assert sc.lambda3_exact == Fraction(7, 16) + Fraction(3, 16) * pair / 6
    assert sc.tau3_exact == Fraction(9, 16) * e[1] / 4 + Fraction(1, 16) * e[3] / 4


def test_steady_constraint_at_polarized_states():
    for n, topo in [(3, "complete"), (4, "complete"), (5, "complete"),
                    (6, "complete"), (4, "ring"), (5, "ring")]:
        up = steady_channel(n, topo, [1] * n)
        dn = steady_channel(n, topo, [-1] * n)
        assert up.tau3_exact + up.lambda3_exact == 1
        assert dn.tau3_exact - dn.lambda3_exact == -1
        assert up.constraint_ok() and dn.constraint_ok()


@given(st.permutations(range(5)))
def test_steady_permutation_invariance(perm):
    z = [Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3),
         Fraction(-1, 5)]
    base_cc = steady_channel(5, "complete", z)
    perm_cc = steady_channel(5, "complete", [z[i] for i in perm])
    assert base_cc.lambda3_exact == perm_cc.lambda3_exact
    assert base_cc.tau3_exact == perm_cc.tau3_exact
    base_r = steady_channel(5, "ring", z)
    perm_r = steady_channel(5, "ring", [z[i] for i in perm])
    assert base_r.lambda3_exact == perm_r.lambda3_exact
    assert base_r.tau3_exact == perm_r.tau3_exact


def test_steady_ring4_cyclic_but_not_transposition():
    z = [Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)]
    base = steady_channel(4, "ring", z)
    cyc = steady_channel(4, "ring", z[1:] + z[:1])
    assert base.lambda3_exact == cyc.lambda3_exact
    swapped = steady_channel(4, "ring", [z[1], z[0], z[2], z[3]])
    assert base.lambda3_exact != swapped.lambda3_exact


def test_steady_caller_coeffs_and_validation():
    sc = steady_channel(4, "ring", [Fraction(1, 2)] * 4,
                        coeffs={0: Fraction(1, 2), 2: Fraction(1, 4)})
    assert sc.coeffs == {0: Fraction(1, 2), 2: Fraction(1, 4)}
    with pytest.raises(ValueError):
        steady_channel(4, "complete", [0] * 4, coeffs={2: Fraction(1, 4)})
    with pytest.raises(ValueError):
        steady_channel(4, "complete", [0] * 4,
                       coeffs={0: Fraction(1, 2), 3: Fraction(1, 4)})
    with pytest.raises(ValueError):
        steady_channel(3, "ring", [0, 0, 0])  # no ring-3 table; use complete
    with pytest.raises(ValueError):
        steady_channel(3, "complete", [0, 0])  # wrong length


# ---------------------------------------------------------------------------
# fluctuations
# ---------------------------------------------------------------------------


def synthetic_series(steady, t_j, c0, n_pts=201, t_max_tj=60.0):
    grid = np.linspace(0.0, t_max_tj * t_j, n_pts)
    series = np.zeros((n_pts, 4, 4))
    series[:, 0, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.where(grid > 0, c0 * t_j / (steady.n * grid), 1.0)
    series[:, 3, 3] = steady.lambda3 * (1.0 + dev)
    series[:, 3, 0] = steady.tau3 * (1.0 + dev)
    return grid, series


def test_fluctuations_fits_the_planted_constant():
    sc = steady_channel(3, "complete", HIER3)
    t_j = t_scale(1.0)
    grid, series = synthetic_series(sc, t_j, c0=2.5)
    f = fluctuations(grid, series, sc, t_j, onset=20.0)
    assert f.lambda3_normalized and f.tau3_normalized
    assert abs(f.c_lambda3 - 2.5) < 1e-9
    assert abs(f.c_tau3 - 2.5) < 1e-9
    # deviations beyond the onset are bounded by C t_J / (N t)
    tail = f.t_over_tj > f.onset
    assert np.all(np.abs(f.delta_lambda3[tail])
                  <= f.c_lambda3 / (sc.n * f.t_over_tj[tail]) + 1e-12)


def test_fluctuations_absolute_mode_when_steady_is_zero():
    sc = steady_channel(3, "complete", [0.5, -0.5, 0.0])  # e1 = 0 -> tau3 = 0
    assert sc.tau3_exact == 0
    t_j = t_scale(1.0)
    grid = np.linspace(0.0, 30.0 * t_j, 301)
    series = np.zeros((301, 4, 4))
    series[:, 0, 0] = 1.0
    series[:, 3, 3] = sc.lambda3
    series[:, 3, 0] = 0.01
    f = fluctuations(grid, series, sc, t_j)
    assert not f.tau3_normalized
    assert np.max(np.abs(f.delta_tau3 - 0.01)) < 1e-12


def test_fluctuations_needs_tail_samples():
    sc = steady_channel(3, "complete", HIER3)
    grid = np.linspace(0.0, 5.0, 6)
    with pytest.raises(ValueError):
        fluctuations(grid, np.zeros((6, 4, 4)), sc, t_j=1.0, onset=20.0)


# ---------------------------------------------------------------------------
# staggered quench
# ---------------------------------------------------------------------------


def test_quench_single_cluster_contract():
    h = GENERIC_H_RATIO * 2.0
    # the always-on cluster: isotropic j = 1 is J_perp = J_par = 2
    spec = NetworkSpec(topology="complete", n=3, h=h, j_perp=2.0, j_par=2.0)
    ev = HermitianEvolver(build_hamiltonian(spec))
    env = [(0.0, 0.0, 1.0)] * 2
    want = transfer_from_unitary(ev.unitary(5.5 - 1.2), 0, env)
    got = quench_demo(1, schedule=[1.2], t_eval=5.5, h=h)
    assert np.max(np.abs(got - want)) < 1e-12
    # all clusters quenched at the same time degenerate to the same map
    with pytest.warns(UserWarning):
        same = quench_demo(4, schedule=[1.2] * 4, t_eval=5.5, h=h)
    assert np.max(np.abs(same - want)) < 1e-12


def test_quench_future_switch_is_identity():
    got = quench_demo(1, schedule=[3.0], t_eval=1.0)
    assert np.max(np.abs(got - np.eye(4))) < 1e-12


def test_quench_schedule_shape_checked():
    with pytest.raises(ValueError):
        quench_demo(3, schedule=[0.0, 1.0])


def test_quench_warns_on_narrow_window():
    with pytest.warns(UserWarning):
        quench_demo(5, schedule=np.linspace(0.0, 0.5, 5), t_eval=8.0)


def test_quench_average_tracks_time_average():
    # moderate size; the acceptance suite runs the full-size benchmark
    avg = quench_demo(200)  # staggered over [0, 50 t_J], t_eval = 50 t_J
    t_j = t_scale(2.0)
    h = GENERIC_H_RATIO * 2.0
    spec = NetworkSpec(topology="complete", n=3, h=h, j_perp=2.0, j_par=2.0)
    grid = np.linspace(0.0, 50.0 * t_j, 50 * 20 + 1)
    ref = time_average(grid, network_series(spec, [1.0] * 3, grid, sites=(0,)))[-1]
    assert np.max(np.abs(avg - ref)) < 0.02
