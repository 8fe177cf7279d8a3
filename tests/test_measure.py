import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from spinmaps.ensemble import steady_channel
from spinmaps.measure import _uniform_theta
from spinmaps.measure import (
    BrokenPCParams,
    MeasureSpec,
    broken_uniform_sample,
    cp_contains,
    cp_mask,
    eigenvalues_broken,
    eigenvalues_pc,
    time_grid,
    trajectory_sample,
    trunc_gauss_sample,
    uniform_sample,
    volume_mc,
)
from spinmaps.qlinalg import PAULI_AXES, pauli
from spinmaps.reduced import PCParams, choi_check, cp_ok

unit_floats = st.floats(-1.0, 1.0)


@given(unit_floats, unit_floats, unit_floats)
def test_cp_contains_equals_cp_ok(l1, t3, l3):
    assert cp_contains(l1, t3, l3) == cp_ok(abs(l1), t3, l3)


@given(unit_floats, unit_floats, unit_floats)
def test_cp_contains_matches_choi_sign(l1, t3, l3):
    p = PCParams(lambda1=abs(l1), theta=0.0, lambda3=l3, tau3=t3)
    margin = choi_check(p.transfer())
    # the inequality test and the eigenvalue test round independently, so
    # exactly on the CP boundary they may split hairs thinner than 1e-100;
    # the shared fact is the sign away from a thin shell
    assume(abs(margin) > 1e-6)
    assert cp_contains(l1, t3, l3) == (margin >= 0.0)


def test_cp_mask_vectorizes_scalar_rule():
    rng = np.random.default_rng(5)
    draws = rng.uniform(-1, 1, size=(500, 3))
    mask = cp_mask(draws[:, 0], draws[:, 1], draws[:, 2])
    for k in range(500):
        assert mask[k] == cp_contains(*draws[k])


def test_uniform_sample_properties():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = uniform_sample(rng)
        assert p.lambda1 >= 0.0
        assert -math.pi < p.theta <= math.pi
        assert cp_contains(p.lambda1, p.tau3, p.lambda3)
    again = uniform_sample(np.random.default_rng(17))
    first = uniform_sample(np.random.default_rng(17))
    assert again == first


def test_volume_mc_against_exact_values():
    est = volume_mc(10**5, seed=0)
    assert abs(est.total - 16.0 / 9.0) < 3.0 * est.total_err
    assert abs(est.negative - math.pi / 6.0) < 3.0 * est.negative_err
    assert abs(est.total - est.negative - est.positive) < 1e-12
    assert est.positive > est.negative  # the body is biased toward lambda3 > 0
    d = est.as_dict()
    assert d["n"] == 10**5 and d["seed"] == 0
    with pytest.raises(ValueError):
        volume_mc(10**4, seed=0)


def test_broken_transfer_pattern():
    b = BrokenPCParams(lambda1=0.4, lambda2=0.2, theta=0.5, lambda3=0.3, tau3=0.1)
    m = b.transfer()
    assert abs(m[1, 1] - 0.4 * math.cos(0.5)) < 1e-15
    assert abs(m[2, 2] - 0.2 * math.cos(0.5)) < 1e-15
    assert abs(m[1, 2] + 0.4 * math.sin(0.5)) < 1e-15
    assert abs(m[2, 1] - 0.2 * math.sin(0.5)) < 1e-15


@given(unit_floats, st.floats(-math.pi, math.pi), unit_floats, unit_floats)
def test_pc_eigenvalues_ignore_tau3(l1, th, l3, t3):
    base = eigenvalues_pc(PCParams(abs(l1), th, l3, 0.0))
    shifted = eigenvalues_pc(PCParams(abs(l1), th, l3, t3))
    assert np.array_equal(base, shifted)


@given(unit_floats, unit_floats, st.floats(-math.pi, math.pi), unit_floats)
def test_broken_eigenvalue_product_identity(l1, l2, th, l3):
    b = BrokenPCParams(l1, l2, th, l3, 0.2)
    vals = eigenvalues_broken(b)
    assert abs(vals[1] * vals[2] - l1 * l2) < 1e-12
    assert vals[0] == 1.0 and vals[3] == l3


def test_broken_reduces_to_pc_at_equal_radii():
    b = BrokenPCParams(0.5, 0.5, 0.8, 0.3, 0.1)
    got = sorted(eigenvalues_broken(b)[1:3], key=lambda v: v.imag)
    want = sorted(eigenvalues_pc(PCParams(0.5, 0.8, 0.3, 0.1))[1:3],
                  key=lambda v: v.imag)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


def test_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = uniform_sample(rng)
        dense = np.sort_complex(np.linalg.eigvals(p.transfer()))
        ana = np.sort_complex(eigenvalues_pc(p))
        assert np.max(np.abs(dense - ana)) < 1e-10
    for _ in range(100):
        b = broken_uniform_sample(rng)
        dense = np.sort_complex(np.linalg.eigvals(b.transfer()))
        ana = np.sort_complex(eigenvalues_broken(b))
        assert np.max(np.abs(dense - ana)) < 1e-10


def test_broken_uniform_sample_is_cp():
    rng = np.random.default_rng(3)
    for _ in range(50):
        b = broken_uniform_sample(rng)
        assert choi_check(b.transfer()) >= -1e-9


def test_broken_uniform_sample_accepts_as_choi_definition():
    def definition_sample(rng):
        while True:
            l1, l2, t3, l3 = rng.uniform(-1.0, 1.0, size=4)
            cand = BrokenPCParams(lambda1=float(l1), lambda2=float(l2),
                                  theta=_uniform_theta(rng),
                                  lambda3=float(l3), tau3=float(t3))
            t = cand.transfer()
            choi = sum(0.25 * t[i, j] * np.kron(pauli(ai), pauli(aj).T)
                       for i, ai in enumerate(PAULI_AXES)
                       for j, aj in enumerate(PAULI_AXES))
            if np.linalg.eigvalsh(choi)[0] >= -1e-9:
                return cand

    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(300):
        assert broken_uniform_sample(rng) == definition_sample(ref)


@given(st.floats(-2, 2), st.floats(0.05, 3), st.floats(-1.5, 0.5),
       st.floats(0.05, 1.5), st.integers(0, 50))
def test_trunc_gauss_respects_bounds(mu, sigma, a, width, seed):
    b = a + width
    x = trunc_gauss_sample(mu, sigma, a, b, np.random.default_rng(seed))
    assert a <= x <= b


def test_trunc_gauss_flat_and_halfnormal_limits():
    rng = np.random.default_rng(11)
    flat = np.mean([trunc_gauss_sample(0.3, 50.0, 0.1, 0.5, rng)
                    for _ in range(4000)])
    assert abs(flat - 0.3) < 0.01  # sigma >> interval: effectively uniform
    rng = np.random.default_rng(12)
    half = np.mean([trunc_gauss_sample(0.0, 1.0, 0.0, 50.0, rng)
                    for _ in range(4000)])
    assert abs(half - math.sqrt(2.0 / math.pi)) < 0.05


def test_trunc_gauss_far_tail_branch():
    # interval entirely beyond 6 sigma: inverse CDF would collapse
    rng = np.random.default_rng(13)
    xs = np.array([trunc_gauss_sample(0.0, 1.0, 8.0, 9.0, rng)
                   for _ in range(3000)])
    assert xs.min() >= 8.0 and xs.max() <= 9.0
    num, _ = quad(lambda z: z * math.exp(-0.5 * z * z), 8.0, 9.0)
    den, _ = quad(lambda z: math.exp(-0.5 * z * z), 8.0, 9.0)
    assert abs(xs.mean() - num / den) < 0.01
    # mirrored tail on the negative side
    lo = trunc_gauss_sample(0.0, 1.0, -9.0, -8.0, np.random.default_rng(14))
    assert -9.0 <= lo <= -8.0


def test_trunc_gauss_argument_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        trunc_gauss_sample(0.0, 1.0, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        trunc_gauss_sample(0.0, 0.0, 0.0, 1.0, rng)


def test_time_grid_shape():
    g = time_grid(2.0, 80.0, 25)
    assert g.size == 25
    assert abs(g[0] - 0.2) < 1e-12 and abs(g[-1] - 80.0) < 1e-9
    ratios = g[1:] / g[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-9
    with pytest.raises(ValueError):
        time_grid(2.0, 0.1, 10)


def test_measure_spec_validation():
    times = tuple(time_grid(1.0, 30.0, 40))
    MeasureSpec(mu_lambda3=0.5, mu_tau3=0.2, t_ref=1.0, n=3, times=times)
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, t_ref=0.0, n=3, times=times)
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, t_ref=1.0, n=0, times=times)
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, t_ref=1.0, n=3, times=times, C=0.0)
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, t_ref=1.0, n=3, times=times, tau3_rule="odd")
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, t_ref=1.0, n=3, times=())
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, t_ref=1.0, n=3, times=(0.01, 1.0))  # before t_ref/10
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, t_ref=1.0, n=3, times=(1.0, 1.0))


def test_measure_spec_from_steady():
    sc = steady_channel(3, "complete", [1.0, 1.0 / 3.0, 2.0 / 3.0])
    spec = MeasureSpec.from_steady(sc, t_ref=1.0, times=time_grid(1.0, 60.0, 50))
    assert spec.mu_lambda3 == sc.lambda3 and spec.mu_tau3 == sc.tau3
    assert spec.n == 3
    assert abs(spec.sigma(10.0) - (1.0 / 3.0) * 0.1) < 1e-15
    with pytest.raises(ValueError):
        spec.sigma(0.0)


def test_trajectory_deterministic_and_cp():
    sc = steady_channel(3, "complete", [1.0, 1.0 / 3.0, 2.0 / 3.0])
    spec = MeasureSpec.from_steady(sc, t_ref=1.0, times=time_grid(1.0, 60.0, 80))
    a = trajectory_sample(spec, seed=4)
    b = trajectory_sample(spec, seed=4)
    assert a == b
    assert len(a) == 80
    for p in a:
        assert cp_contains(p.lambda1, p.tau3, p.lambda3)
        assert p.theta == 0.0
    # widths shrink, so late samples hug the steady values
    late = a[-1]
    assert abs(late.lambda3 - sc.lambda3) < 5.0 * spec.sigma(spec.times[-1])


def test_trajectory_signed_rule_pins_tau3_sign():
    sc = steady_channel(3, "complete", [1.0, 1.0 / 3.0, 2.0 / 3.0])
    assert sc.tau3 > 0
    spec = MeasureSpec.from_steady(sc, t_ref=1.0,
                                   times=time_grid(1.0, 30.0, 60),
                                   tau3_rule="signed")
    for p in trajectory_sample(spec, seed=9):
        assert p.tau3 >= 0.0
