"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins one headline result at its stated tolerance; together they
exercise every module through the public API. The two long-horizon
fixtures are exact spectral averages shared across tests. Criterion 01
checks the closed forms on 200-point grids: per (state, focal site) one
SpectralAverage gives the numeric maps and one closed_form call the
analytic ones, over the whole grid; the engine itself is checked against
dense extraction in tests/test_ensemble.py.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment

from spinmaps.analytic import closed_form
from spinmaps.cli import main as cli_main
from spinmaps.disorder import (DisorderSpec, _sample_phi, mc_disorder_map,
                               max_tau3_trunc_tanh, trunc_tanh_pdf)
from spinmaps.ensemble import (GENERIC_H_RATIO, SpectralAverage,
                               converged_fluctuations, esym, network_average,
                               quench_demo, steady_channel)
from spinmaps.measure import (MeasureSpec, broken_uniform_sample, cp_contains,
                              eigenvalues_broken, eigenvalues_pc, time_grid,
                              trajectory_sample, uniform_sample, volume_mc)
from spinmaps.network import NetworkSpec, build_hamiltonian, t_scale
from spinmaps.qlinalg import HermitianEvolver, pauli
from spinmaps.reduced import MapExtractor, PCParams, choi_check, cp_ok, fit_pc

J = 1.0
T_J = t_scale(J)
H_GENERIC = GENERIC_H_RATIO * J

FAMILIES = [("complete", 3), ("complete", 4), ("complete", 5),
            ("complete", 6), ("ring", 4), ("ring", 5)]


def hierarchy(n):
    return [1.0] + [k / n for k in range(1, n)]


def hierarchy_exact(n):
    return [Fraction(1)] + [Fraction(k, n) for k in range(1, n)]


def env_absolute(z, focal):
    return [(0.0, 0.0, z[s]) for s in range(len(z)) if s != focal]


def family_spec(topo, n):
    """The isotropic network of a steady-table family at the generic field."""
    return NetworkSpec(topology=topo, n=n, h=H_GENERIC, j_perp=J, j_par=J)


@pytest.fixture(scope="module")
def hier_running():
    """Hierarchy-state running average of the site-averaged transfer matrix
    at 200 t_J for all families, exact (SpectralAverage)."""
    out = {}
    for topo, n in FAMILIES:
        out[(topo, n)] = SpectralAverage(family_spec(topo, n), hierarchy(n))([200.0 * T_J])[0]
    return out


@pytest.fixture(scope="module")
def smallz_flucts():
    """Converged fluctuation constants at uniform z = 0.2 for the
    fluctuation families, from the exact running average out to 100 t_J."""
    out = {}
    for topo, n in [("complete", 4), ("complete", 5), ("complete", 6),
                    ("ring", 4), ("ring", 5)]:
        spec = family_spec(topo, n)
        times = np.linspace(0.0, 100.0 * T_J, 100 * 10 + 1)
        steady = steady_channel(spec, [Fraction(1, 5)] * n)
        out[(topo, n)] = converged_fluctuations(
            SpectralAverage(spec, [0.2] * n), steady, T_J, times, onset=20.0)
    return out


def test_criterion_01_closed_forms_match_numeric_extraction():
    cases = [("complete", 3, 0.6), ("complete", 4, 0.6), ("complete", 5, 0.6),
             ("complete", 6, 0.6), ("ring", 4, 0.6), ("ring", 5, 1.0)]
    worst = 0.0
    for topo, n, j_par in cases:
        rng = np.random.default_rng(100 * n + (7 if topo == "ring" else 0))
        spec = NetworkSpec(topology=topo, n=n, h=0.37, j_perp=J, j_par=j_par)
        times = np.linspace(0.0, 10.0 * T_J, 200)
        for _ in range(20):
            z = rng.uniform(-1.0, 1.0, n)
            for focal in range(n):
                numeric = SpectralAverage(spec, z, sites=(focal,)).maps(times)
                analytic = closed_form(spec, focal, env_absolute(z, focal), times)
                worst = max(worst, float(np.nanmax(np.abs(analytic - numeric))))
    assert worst < 1e-9


# printed coefficient tables: lambda side {k: a_k}; the tau side follows
# from the same a_k through the shared even/odd-N form
_PRINTED = {
    ("complete", 3): {0: Fraction(5, 9)},
    ("complete", 4): {0: Fraction(7, 16), 2: Fraction(3, 16)},
    ("complete", 5): {0: Fraction(7, 15), 2: Fraction(16, 75)},
    ("complete", 6): {0: Fraction(59, 144), 2: Fraction(5, 12),
                      4: Fraction(-5, 48)},
    ("ring", 5): {0: Fraction(71, 225), 2: Fraction(2, 45)},
}


def test_criterion_02_steady_tables_and_constraint(hier_running):
    rng = np.random.default_rng(2)
    for topo, n in FAMILIES:
        zx = hierarchy_exact(n)
        steady = steady_channel(family_spec(topo, n), zx)

        # numeric long-time average vs the table value
        avg = hier_running[(topo, n)]
        assert abs(avg[3, 3] - steady.lambda3) < 5e-3
        assert abs(avg[3, 0] - steady.tau3) < 5e-3

        # the coefficient tables themselves, in exact arithmetic
        if (topo, n) in _PRINTED:
            assert steady.coeffs == _PRINTED[(topo, n)]
        zr = [Fraction(rng.integers(-9, 10), 10) for _ in range(n)]
        sr = steady_channel(family_spec(topo, n), zr)
        e = [esym(zr, k) for k in range(n + 1)]
        if topo == "complete" and n == 3:
            assert sr.tau3_exact == Fraction(4, 9) * e[1] / 3
        elif topo == "complete" and n == 4:
            assert sr.tau3_exact == (Fraction(9, 16) * e[1] / 4
                                     - Fraction(3, 16) * e[3] / 4)
        elif topo == "complete" and n == 5:
            assert sr.tau3_exact == (Fraction(8, 15) * e[1] / 5
                                     - Fraction(16, 75) * e[3] / 10)
        elif topo == "complete" and n == 6:
            assert sr.tau3_exact == (Fraction(85, 144) * e[1] / 6
                                     - Fraction(5, 12) * e[3] / 20
                                     + Fraction(5, 48) * e[5] / 6)
        elif topo == "ring" and n == 4:
            pair_corr = e[2] - 4 * (zr[0] * zr[2] + zr[1] * zr[3])
            assert sr.lambda3_exact == (Fraction(7, 16)
                                        + Fraction(3, 16) * pair_corr / 6)
            assert sr.tau3_exact == (Fraction(9, 16) * e[1] / 4
                                     + Fraction(1, 16) * e[3] / 4)
        else:  # ring 5
            assert sr.tau3_exact == (Fraction(154, 225) * e[1] / 5
                                     - Fraction(2, 45) * e[3] / 10)

        # polarized constraint, exact: tau +- lambda = +-1 at z = +-1
        up = steady_channel(family_spec(topo, n), [Fraction(1)] * n)
        down = steady_channel(family_spec(topo, n), [Fraction(-1)] * n)
        assert up.tau3_exact + up.lambda3_exact == 1
        assert down.tau3_exact - down.lambda3_exact == -1
        assert up.constraint_ok() and down.constraint_ok()


def test_criterion_03_transverse_average_vanishes(hier_running):
    for topo, n in FAMILIES:
        avg = hier_running[(topo, n)]
        lambda1_bar = math.hypot(avg[1, 1], avg[2, 1])
        assert lambda1_bar < 0.01


def test_criterion_04_fluctuation_constants_and_ring_ratio(smallz_flucts):
    # every constant is converged: a doubled grid moves it by less than 1%
    for key, fl in smallz_flucts.items():
        assert fl.rel_change < 0.01, (key, fl.rel_change)
        assert fl.sup_gap < 0.01, (key, fl.sup_gap)
    for key in [("complete", 4), ("complete", 6), ("ring", 4), ("ring", 5)]:
        fl = smallz_flucts[key]
        assert 0.1 <= fl.c_lambda3 <= 10.0
        assert 0.1 <= fl.c_tau3 <= 10.0
    # sparser connectivity must slow equilibration at least 2x at N=5
    ring, cc = smallz_flucts[("ring", 5)], smallz_flucts[("complete", 5)]
    assert ring.c_lambda3 >= 2.0 * cc.c_lambda3, (
        f"N=5: ring {ring.c_lambda3:.3f} vs cc {cc.c_lambda3:.3f}")
    assert ring.c_tau3 >= 2.0 * cc.c_tau3, (
        f"N=5: ring {ring.c_tau3:.3f} vs cc {cc.c_tau3:.3f}")
    # the N=4 ring is the complete graph less two of its six bonds: it still
    # equilibrates more slowly, by about 1.3x in converged constants
    ring, cc = smallz_flucts[("ring", 4)], smallz_flucts[("complete", 4)]
    assert ring.c_lambda3 > cc.c_lambda3, (
        f"N=4: ring {ring.c_lambda3:.3f} vs cc {cc.c_lambda3:.3f}")
    assert ring.c_tau3 > cc.c_tau3, (
        f"N=4: ring {ring.c_tau3:.3f} vs cc {cc.c_tau3:.3f}")


def test_criterion_05_cp_certificates_agree():
    # every map `maps` extracts, and their network average, passes both CP
    # certificates: one (sites + average, T, 4, 4) stack per state
    for topo, n in FAMILIES:
        rng = np.random.default_rng(500 + n)
        states = [hierarchy(n),
                  [1.0 if k % 2 == 0 else -1.0 for k in range(n)],
                  [0.2] * n,
                  list(rng.uniform(-1.0, 1.0, n))]
        spec = NetworkSpec(topology=topo, n=n, h=H_GENERIC, j_perp=J, j_par=J)
        evolver = HermitianEvolver(build_hamiltonian(spec))
        times = np.linspace(0.0, 10.0 * T_J, 50)
        for z in states:
            maps = np.empty((n + 1, times.size, 4, 4))
            for f in range(n):
                extractor = MapExtractor(evolver, f, env_absolute(z, f))
                maps[f] = [extractor.transfer(t) for t in times]
            maps[-1] = network_average(maps[:-1])
            p = fit_pc(maps)
            assert cp_ok(p.lambda1, p.tau3, p.lambda3, tol=1e-9).all()
            assert (choi_check(maps) >= -1e-9).all()

    # inequality test and Choi spectrum agree in sign across the pattern box
    rng = np.random.default_rng(55)
    l1 = rng.uniform(-1.0, 1.0, 100000)
    t3 = rng.uniform(-1.0, 1.0, 100000)
    l3 = rng.uniform(-1.0, 1.0, 100000)
    ineq = cp_ok(l1, t3, l3)
    s = [pauli(a) for a in "0xyz"]
    basis = np.stack([np.kron(s[0], s[0].T),
                      np.kron(s[1], s[1].T) + np.kron(s[2], s[2].T),
                      np.kron(s[3], s[0].T),
                      np.kron(s[3], s[3].T)])
    coeffs = np.stack([np.ones_like(l1), l1, t3, l3], axis=1)
    chois = 0.25 * np.tensordot(coeffs, basis, axes=(1, 0))
    min_eig = np.linalg.eigvalsh(chois)[:, 0]
    assert np.array_equal(ineq, min_eig >= -1e-12)
    # spot-check the batched Choi against the reference implementation
    for k in range(0, 100000, 9973):
        p = PCParams(lambda1=abs(l1[k]), theta=0.0, lambda3=l3[k], tau3=t3[k])
        assert (choi_check(p.transfer()) >= -1e-9) == bool(ineq[k])


def test_criterion_06_disorder_average_is_phase_covariant():
    spec = DisorderSpec.from_varphi(B=1.0, Omega=1.0, sigma_h=1.0,
                                    sigma_omega=1.0, varphi=3.0)
    pc_zeros = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (1, 3), (2, 3),
                (3, 1), (3, 2)]
    env = (0.3, -0.4, 0.5)  # tilted partner so single samples do break PC
    for t in np.linspace(0.1, 2.0, 10):
        mean, stderr = mc_disorder_map(spec, float(t), env, 10000, seed=0)
        for i, j in pc_zeros:
            assert abs(mean[i, j]) < 3.0 * stderr[i, j] + 1e-12


def test_criterion_07_trunc_tanh_ceiling():
    ceiling = max_tau3_trunc_tanh()
    assert abs(ceiling - (6.0 + math.pi ** 2) / (2.0 * math.pi ** 2)) < 1e-15
    val, _ = quad(lambda p: math.sin(p) ** 2 * trunc_tanh_pdf(p, 1e-4),
                  -math.pi / 2, math.pi / 2, limit=200)
    assert abs(val - ceiling) < 1e-6
    spec = DisorderSpec(phi_dist="trunc_tanh", a_phi=1e-3, B=1.0, Omega=1.0,
                        sigma_h=1.0, sigma_omega=1.0)
    rng = np.random.default_rng(7)
    phis = np.array([_sample_phi(spec, rng) for _ in range(300000)])
    assert abs(np.mean(np.sin(phis) ** 2) - ceiling) < 1e-3


def test_criterion_08_cp_volume_and_bias():
    est = volume_mc(10 ** 6, seed=0)
    assert abs(est.total - 16.0 / 9.0) < 3.0 * est.total_err
    assert abs(est.negative - math.pi / 6.0) < 3.0 * est.negative_err
    rng = np.random.default_rng(8)
    mean_l3 = float(np.mean([uniform_sample(rng).lambda3
                             for _ in range(5000)]))
    assert mean_l3 > 0.0


def _matched_diff(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def test_criterion_09_channel_spectra():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(5000):
        p = uniform_sample(rng)
        worst = max(worst, _matched_diff(eigenvalues_pc(p),
                                         np.linalg.eigvals(p.transfer())))
    for _ in range(5000):
        b = broken_uniform_sample(rng)
        vals = eigenvalues_broken(b)
        worst = max(worst, _matched_diff(vals,
                                         np.linalg.eigvals(b.transfer())))
        assert abs(vals[1] * vals[2] - b.lambda1 * b.lambda2) < 1e-12
    assert worst < 1e-10
    for _ in range(100):
        l1, th, l3 = rng.uniform(0, 1), rng.uniform(-math.pi, math.pi), \
            rng.uniform(-1, 1)
        ref = eigenvalues_pc(PCParams(l1, th, l3, 0.0))
        for t3 in rng.uniform(-1, 1, 5):
            assert np.array_equal(eigenvalues_pc(PCParams(l1, th, l3, t3)),
                                  ref)


def test_criterion_10_trajectory_measure():
    steady = steady_channel(family_spec("complete", 3), hierarchy_exact(3))
    spec = MeasureSpec.from_steady(steady, times=time_grid(60.0, 120), C=1.0)
    traj = trajectory_sample(spec, seed=0)
    assert len(traj) == 120
    for p in traj:
        assert cp_contains(p.lambda1, p.tau3, p.lambda3)
    for t, p in zip(spec.times, traj):
        if t > 10.0:
            assert abs(p.lambda3 - spec.mu_lambda3) <= 3.0 * spec.sigma(t)


def test_criterion_11_quench_cluster_average():
    t_j = t_scale(2.0 * J)  # pair bonds carry 2J at the isotropic point
    schedule = np.linspace(0.0, 50.0 * t_j, 400)
    # the always-on cluster: isotropic J per pair is J_perp = J_par = 2J
    spec = NetworkSpec(topology="complete", n=3, h=GENERIC_H_RATIO * 2.0 * J,
                       j_perp=2.0 * J, j_par=2.0 * J)
    average = SpectralAverage(spec, [1.0] * 3, sites=(0,))
    cluster_avg = quench_demo(average, schedule, 100.0 * t_j, t_j)
    # the exact running time average of site 0 in one always-on cluster
    reference = average([100.0 * t_j])[0]
    assert float(np.abs(cluster_avg - reference).max()) < 0.02


def test_criterion_12_deterministic_artifacts(tmp_path, capsys):
    def run(argv):
        rc = cli_main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        return (Path(out.strip().splitlines()[-1]) / "data.csv").read_bytes()

    stochastic = [run(["volume", "--samples", "100000", "--seed", "11",
                       "--outdir", str(tmp_path / f"v{k}")]) for k in range(2)]
    assert stochastic[0] == stochastic[1]
    sampled = [run(["measure", "--steps", "10", "--t-max-tj", "4", "--seed", "3",
                    "--outdir", str(tmp_path / f"m{k}")]) for k in range(2)]
    assert sampled[0] == sampled[1]
