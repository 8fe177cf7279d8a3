import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from spinmaps import measure
from spinmaps.ensemble import steady_channel
from spinmaps.measure import _ndtr, _ndtri, _uniform_theta
from spinmaps.measure import (
    MIN_VOLUME_SAMPLES,
    BrokenPCParams,
    MeasureSpec,
    VolumeEstimate,
    broken_cp_margin,
    broken_uniform_sample,
    cp_contains,
    eigenvalues_broken,
    eigenvalues_pc,
    time_grid,
    trajectory_sample,
    trunc_gauss_sample,
    uniform_sample,
    volume_mc,
)
from spinmaps.network import NetworkSpec
from spinmaps.qlinalg import PAULI_AXES, NumericalError, pauli
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


def test_cp_contains_on_arrays_equals_scalar_rule():
    rng = np.random.default_rng(5)
    draws = rng.uniform(-1, 1, size=(500, 3))
    # and 60,000 points within one ulp of 4 l1^2 + t3^2 = (1 + l3)^2, where
    # a libm pow square and a product square can round apart
    l3 = rng.uniform(-1.0, 1.0, 20_000)
    t3 = rng.uniform(-1.0, 1.0, 20_000) * (1.0 - np.abs(l3))
    l1 = 0.5 * np.sqrt((1.0 + l3) ** 2 - t3 ** 2)
    edge = np.stack([np.concatenate([np.nextafter(l1, -1.0), l1, np.nextafter(l1, 2.0)]),
                     np.tile(t3, 3), np.tile(l3, 3)], axis=1)
    for points in (draws, edge):
        mask = cp_contains(points[:, 0], points[:, 1], points[:, 2])
        assert mask.tolist() == [cp_contains(*row) for row in points.tolist()]


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


def one_shot_volume(n, seed):
    """volume_mc's estimates from one n x 3 draw, the unchunked definition."""
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 3))
    hit = cp_contains(draws[:, 0], draws[:, 1], draws[:, 2])
    hits, negs = int(hit.sum()), int((hit & (draws[:, 2] < 0.0)).sum())

    def rate_err(k):
        p = k / n
        return 8.0 * p, 8.0 * math.sqrt(p * (1.0 - p) / n)

    return VolumeEstimate(*rate_err(hits), *rate_err(negs), *rate_err(hits - negs), n, seed)


def test_volume_mc_chunks_equal_one_shot_draw():
    # the fewest whole chunks volume_mc allows, plus a partial one
    chunk = measure._VOLUME_CHUNK
    n = (MIN_VOLUME_SAMPLES // chunk + 1) * chunk + 17
    for seed in (0, 7):
        assert volume_mc(n, seed) == one_shot_volume(n, seed)


def test_volume_mc_memory_is_flat_in_n():
    tracemalloc.start()
    try:
        volume_mc(10**6, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # the one-shot 10^6 x 3 draw alone is 24 MB


def test_volume_mc_against_exact_values():
    est = volume_mc(10**5, seed=0)
    assert abs(est.total - 16.0 / 9.0) < 3.0 * est.total_err
    assert abs(est.negative - math.pi / 6.0) < 3.0 * est.negative_err
    assert abs(est.total - est.negative - est.positive) < 1e-12
    assert est.positive > est.negative  # the body is biased toward lambda3 > 0
    d = est.as_dict()
    assert d["n"] == 10**5 and d["seed"] == 0
    with pytest.raises(ValueError):
        volume_mc(MIN_VOLUME_SAMPLES - 1, seed=0)


def test_broken_transfer_pattern():
    b = BrokenPCParams(lambda1=0.4, lambda2=0.2, theta=0.5, lambda3=0.3, tau3=0.1)
    m = b.transfer()
    assert abs(m[1, 1] - 0.4 * math.cos(0.5)) < 1e-15
    assert abs(m[2, 2] - 0.2 * math.cos(0.5)) < 1e-15
    assert abs(m[1, 2] + 0.4 * math.sin(0.5)) < 1e-15
    assert abs(m[2, 1] - 0.2 * math.sin(0.5)) < 1e-15


def test_broken_transfer_over_arrays_stacks_scalar_transfers():
    rng = np.random.default_rng(5)
    l1, l2, l3, t3 = rng.uniform(-1.0, 1.0, size=(4, 6, 3))
    theta = rng.uniform(-math.pi, math.pi, size=(6, 3))
    block = BrokenPCParams(lambda1=l1, lambda2=l2, theta=theta, lambda3=l3, tau3=t3).transfer()
    assert block.shape == (6, 3, 4, 4)
    points = [BrokenPCParams(*args).transfer()
              for args in zip(*(x.ravel().tolist() for x in (l1, l2, theta, l3, t3)))]
    assert block.tobytes() == np.array(points).reshape(block.shape).tobytes()


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


def test_uniform_theta_draws_as_numpy_uniform():
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(2000):
        want = math.pi - float(ref.uniform(0.0, 2.0 * math.pi))
        assert _uniform_theta(rng).hex() == want.hex()
    assert rng.bit_generator.state == ref.bit_generator.state


def broken_choi(l1, l2, t3, l3, theta):
    """choi_check of the broken family; floats or equal-shape arrays."""
    return choi_check(BrokenPCParams(lambda1=l1, lambda2=l2, theta=theta,
                                     lambda3=l3, tau3=t3).transfer())


@given(unit_floats, unit_floats, unit_floats, unit_floats, st.floats(-math.pi, math.pi))
def test_broken_cp_margin_is_the_min_choi_eigenvalue_at_every_theta(l1, l2, t3, l3, theta):
    margin = broken_cp_margin(l1, l2, t3, l3)
    # 1e-14 leaves 100x headroom under the 1e-13 band broken_uniform_sample trusts
    for th in (theta, 0.0, math.pi / 2.0, -math.pi):
        assert abs(margin - broken_choi(l1, l2, t3, l3, th)) <= 1e-14


def closed_form_margins(l1, l2, t3, l3):
    """broken_cp_margin point by point over equal-shape arrays."""
    return np.array([broken_cp_margin(*p) for p in zip(
        l1.tolist(), l2.tolist(), t3.tolist(), l3.tolist())])


def boundary_points(rng, n, block, margin):
    """Broken parameters with closed-form margin `margin` set by one Choi block.

    block 0 solves hypot(t3, l1 + l2) = 1 + l3 - 4 margin, block 1 solves
    hypot(t3, l1 - l2) = 1 - l3 - 4 margin; points where the other block
    is lower or |t3| > 1 are dropped.
    """
    l1, l2, l3 = rng.uniform(-1.0, 1.0, size=(3, n))
    sign = (1.0, -1.0)[block]
    radius = 1.0 + sign * l3 - 4.0 * margin
    pair = l1 + sign * l2
    t3 = rng.choice([-1.0, 1.0], n) * np.sqrt(np.maximum(radius**2 - pair**2, 0.0))
    other = 1.0 - sign * l3 - np.hypot(t3, l1 - sign * l2)
    keep = (np.abs(pair) <= radius) & (np.abs(t3) <= 1.0) & (other >= 4.0 * margin)
    return l1[keep], l2[keep], t3[keep], l3[keep]


def test_broken_cp_margin_on_the_cp_boundary_and_the_acceptance_edge():
    rng = np.random.default_rng(21)
    for block in (0, 1):
        for edge in (0.0, -1e-9):
            l1, l2, t3, l3 = boundary_points(rng, 40_000, block, edge)
            assert l1.size > 5_000
            theta = rng.uniform(-math.pi, math.pi, l1.size)
            margins = closed_form_margins(l1, l2, t3, l3)
            assert np.max(np.abs(margins - edge)) < 1e-15
            assert np.max(np.abs(margins - broken_choi(l1, l2, t3, l3, theta))) <= 1e-14
    # and a plain box draw, as the sampler makes them
    l1, l2, t3, l3 = rng.uniform(-1.0, 1.0, size=(4, 50_000))
    theta = rng.uniform(-math.pi, math.pi, 50_000)
    margins = closed_form_margins(l1, l2, t3, l3)
    assert np.max(np.abs(margins - broken_choi(l1, l2, t3, l3, theta))) <= 1e-14


def test_broken_sampler_certifies_each_draw_once(monkeypatch):
    calls = []

    def counted(transfer):
        calls.append(transfer.shape)
        return choi_check(transfer)

    monkeypatch.setattr(measure, "choi_check", counted)
    rng = np.random.default_rng(6)
    for _ in range(300):
        broken_uniform_sample(rng)
    # the margin prunes every candidate away from the acceptance edge
    assert calls == [(4, 4)] * 300


def test_broken_sampler_refuses_a_margin_its_certificate_contradicts(monkeypatch):
    # a planted margin that passes every candidate: the first non-CP one
    # reaches the Choi test, which refuses it
    monkeypatch.setattr(measure, "broken_cp_margin", lambda *args: 1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(NumericalError, match="closed-form margin"):
        for _ in range(100):
            broken_uniform_sample(rng)


def definition_uniform_sample(rng):
    """uniform_sample candidate by candidate: one scalar draw and test each."""
    while True:
        l1, t3, l3 = rng.uniform(-1.0, 1.0, size=3)
        if cp_contains(l1, t3, l3):
            return PCParams(lambda1=abs(float(l1)), theta=_uniform_theta(rng),
                            lambda3=float(l3), tau3=float(t3))


def definition_broken_sample(rng):
    """broken_uniform_sample candidate by candidate, one choi_check each."""
    while True:
        l1, l2, t3, l3 = rng.uniform(-1.0, 1.0, size=4)
        cand = BrokenPCParams(lambda1=float(l1), lambda2=float(l2),
                              theta=_uniform_theta(rng),
                              lambda3=float(l3), tau3=float(t3))
        if choi_check(cand.transfer()) >= -1e-9:
            return cand


def next_outputs(rng):
    """The generator's next float32 (which takes a pending 32-bit half
    first) and next double, without consuming them."""
    state = rng.bit_generator.state
    out = (rng.random(dtype=np.float32), rng.random())
    rng.bit_generator.state = state
    return out


def pending_uint32_pcg64(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.random(dtype=np.float32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("make", [
    *(lambda seed=seed: np.random.default_rng(seed) for seed in range(5)),
    lambda: pending_uint32_pcg64(3),
    lambda: np.random.Generator(np.random.MT19937(4)),
], ids=[f"default_rng-{seed}" for seed in range(5)] + ["pcg64-pending-uint32", "mt19937"])
def test_block_samplers_draw_as_definition_samplers(make):
    # interleaved pc and broken draws off one generator, as cmd_measure makes them
    rng, ref = make(), make()
    for _ in range(1000):
        assert uniform_sample(rng) == definition_uniform_sample(ref)
        assert next_outputs(rng) == next_outputs(ref)
        assert broken_uniform_sample(rng) == definition_broken_sample(ref)
        assert next_outputs(rng) == next_outputs(ref)


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


def ndtr_branches():
    """1e5 points (both signs) per branch of Cephes' ndtr: erf for |x|/sqrt2
    below sqrt(1/2), erfc's two rational forms (|x|/sqrt2 below and above 8),
    and erfc past its underflow (|x|/sqrt2 > sqrt(log DBL_MAX), |x| > 37.7)."""
    rng = np.random.default_rng(23)
    sign = rng.choice((-1.0, 1.0), size=(4, 100_000))
    edges = ((0.0, 1.0), (1.0, 8.0 * math.sqrt(2.0)), (8.0 * math.sqrt(2.0), 38.6), (37.7, 1e3))
    return {name: sign[k] * rng.uniform(lo, hi, 100_000)
            for k, (name, (lo, hi)) in enumerate(zip(("erf", "erfc_pq", "erfc_rs", "underflow"),
                                                     edges))}


def ndtri_branches():
    """1e5 points per branch of Cephes' ndtri: the centre |y - 1/2| < 1/2 -
    e^-2, the tail y < e^-2 with sqrt(-2 log y) below 8 (y > e^-32) and
    above it (down to the least subnormal), and y near 1 (1 - y < e^-2)."""
    rng = np.random.default_rng(29)
    return {
        "centre": rng.uniform(math.exp(-2.0), 1.0 - math.exp(-2.0), 100_000),
        "tail_p1": np.exp(-rng.uniform(2.0, 32.0, 100_000)),
        "tail_p2": np.exp(-rng.uniform(32.0, 744.4, 100_000)),
        "near_one": 1.0 - np.exp(-rng.uniform(0.0, 2.0, 100_000)) * math.exp(-2.0)
        * 10.0 ** -rng.uniform(0.0, 14.0, 100_000),
    }


@pytest.mark.parametrize("branch", ["erf", "erfc_pq", "erfc_rs", "underflow"])
def test_ndtr_port_equals_scipy_bit_for_bit(branch):
    xs = ndtr_branches()[branch]
    got = np.array([_ndtr(x) for x in xs.tolist()])
    want = ndtr(xs)
    assert got.tobytes() == want.tobytes(), f"{np.sum(got != want)} of {xs.size} differ"


@pytest.mark.parametrize("branch", ["centre", "tail_p1", "tail_p2", "near_one"])
def test_ndtri_port_equals_scipy_bit_for_bit(branch):
    ys = ndtri_branches()[branch]
    assert np.all((ys > 0.0) & (ys < 1.0))
    got = np.array([_ndtri(y) for y in ys.tolist()])
    want = ndtri(ys)
    assert got.tobytes() == want.tobytes(), f"{np.sum(got != want)} of {ys.size} differ"


def test_ndtr_and_ndtri_ends():
    assert _ndtr(-math.inf) == 0.0 and _ndtr(math.inf) == 1.0
    assert _ndtri(0.0) == -math.inf and _ndtri(1.0) == math.inf
    assert math.isnan(_ndtri(-0.25)) and math.isnan(_ndtri(1.25))
    assert math.isnan(_ndtr(math.nan)) and math.isnan(_ndtri(math.nan))
    for got, want in ((_ndtr(-math.inf), ndtr(-np.inf)), (_ndtr(math.inf), ndtr(np.inf)),
                      (_ndtri(0.0), ndtri(0.0)), (_ndtri(1.0), ndtri(1.0))):
        assert got == want


# scipy 1.17.1's ndtr/ndtri, pinned so that a later scipy cannot move the
# reference unseen
NDTR_PINNED = [
    (0.0, "0x1.0000000000000p-1"),
    (-0.5, "0x1.3bf143b9aa712p-2"),
    (0.7, "0x1.841d5715c32a8p-1"),
    (1.0, "0x1.aec4bd120d37dp-1"),
    (-3.0, "0x1.61de1f985b5d1p-10"),
    (5.0, "0x1.fffff661ae86fp-1"),
    (-12.0, "0x1.272b3136661edp-109"),
    (-20.0, "0x1.c0bd0f18806a3p-295"),
    (-37.5, "0x1.08eda98086fd0p-1021"),
    (-38.6, "0x0.0p+0"),
    (40.0, "0x1.0000000000000p+0"),
]
NDTRI_PINNED = [
    (0.5, "0x0.0p+0"),
    (0.3, "-0x1.0c7e39582c5fcp-1"),
    (0.9, "0x1.4813c36e26d32p+0"),
    (0.1, "-0x1.4813c36e26d32p+0"),
    (1e-10, "-0x1.97203597a2154p+2"),
    (1e-20, "-0x1.2865170b43a4dp+3"),
    (1e-300, "-0x1.286074064c26ep+5"),
    (5e-324, "-0x1.33bd3f27fcd03p+5"),
    (0.9999999999, "0x1.97203589fd4f6p+2"),
    (0.95, "0x1.a515209676abbp+0"),
]


@pytest.mark.parametrize("x, want", NDTR_PINNED)
def test_ndtr_pinned_values(x, want):
    assert _ndtr(x).hex() == want
    assert float(ndtr(x)).hex() == want


@pytest.mark.parametrize("y, want", NDTRI_PINNED)
def test_ndtri_pinned_values(y, want):
    assert _ndtri(y).hex() == want
    assert float(ndtri(y)).hex() == want


def test_trunc_gauss_argument_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        trunc_gauss_sample(0.0, 1.0, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        trunc_gauss_sample(0.0, 0.0, 0.0, 1.0, rng)


def test_time_grid_shape():
    g = time_grid(80.0, 25)
    assert g.size == 25
    assert g[0] == 0.1 and abs(g[-1] - 80.0) < 1e-9
    ratios = g[1:] / g[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-9
    with pytest.raises(ValueError):
        time_grid(0.1, 10)


def test_measure_spec_validation():
    times = tuple(time_grid(30.0, 40))
    MeasureSpec(mu_lambda3=0.5, mu_tau3=0.2, n=3, times=times)
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, n=0, times=times)
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, n=3, times=times, C=0.0)
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, n=3, times=times, tau3_rule="odd")
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, n=3, times=())
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, n=3, times=(0.01, 1.0))  # before the grid start 0.1
    with pytest.raises(ValueError):
        MeasureSpec(0.5, 0.2, n=3, times=(1.0, 1.0))


def test_measure_spec_from_steady():
    sc = steady_channel(NetworkSpec("complete", 3), [1.0, 1.0 / 3.0, 2.0 / 3.0])
    spec = MeasureSpec.from_steady(sc, times=time_grid(60.0, 50))
    assert spec.mu_lambda3 == sc.lambda3 and spec.mu_tau3 == sc.tau3
    assert spec.n == 3
    assert abs(spec.sigma(10.0) - (1.0 / 3.0) * 0.1) < 1e-15
    with pytest.raises(ValueError):
        spec.sigma(0.0)


def test_trajectory_deterministic_and_cp():
    sc = steady_channel(NetworkSpec("complete", 3), [1.0, 1.0 / 3.0, 2.0 / 3.0])
    spec = MeasureSpec.from_steady(sc, times=time_grid(60.0, 80))
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
    sc = steady_channel(NetworkSpec("complete", 3), [1.0, 1.0 / 3.0, 2.0 / 3.0])
    assert sc.tau3 > 0
    spec = MeasureSpec.from_steady(sc, times=time_grid(30.0, 60),
                                   tau3_rule="signed")
    for p in trajectory_sample(spec, seed=9):
        assert p.tau3 >= 0.0


def test_library_import_leaves_scipy_special_unloaded():
    code = ("import sys, spinmaps.cli, spinmaps.disorder, spinmaps.measure; "
            "print('scipy.special' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.strip() == "False"


def test_measure_run_loads_no_scipy(tmp_path):
    # trunc_gauss_sample computes the normal CDF and its inverse in Python:
    # a full run (trajectory, overlay and scatter) imports no scipy module
    code = ("import sys; from spinmaps import cli; "
            f"rc = cli.main(['measure', '--steps', '20', '--scatter-samples', '50', "
            f"'--outdir', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.strip().splitlines()[-1] == "0 []"
