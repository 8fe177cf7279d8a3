import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from spinmaps.disorder import (
    MIN_A_PHI,
    MIN_VARPHI,
    ComponentCheck,
    DisorderSpec,
    PairEig,
    SampleStreams,
    _sample_phi,
    closedform_disorder_components,
    disorder_components,
    max_tau3_trunc_tanh,
    mc_disorder_map,
    sample_pair,
    trunc_tanh_pdf,
)
from spinmaps.analytic import xx_eigenparams, xx_reduced_map

GAUSS = DisorderSpec.from_varphi(B=1.0, Omega=1.0, sigma_h=1.0,
                                 sigma_omega=1.0, varphi=3.0)
TANH = DisorderSpec(B=1.0, Omega=1.0, sigma_h=1.0, sigma_omega=1.0,
                    phi_dist="trunc_tanh", a_phi=1.0)

# pattern-zero entries of a phase-covariant transfer matrix
PC_ZEROS = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (1, 3), (2, 3), (3, 1), (3, 2)]


def test_pair_eig_consistency():
    # a PairEig is the (h12, omega12, phi12) triple of xx_eigenparams, by name
    eig = xx_eigenparams(1.0, 0.4, 0.8)
    p = PairEig(*eig)
    assert p == eig and (p.h12, p.omega12, p.phi12) == eig
    env = (0.2, -0.3, 0.4)
    assert np.array_equal(xx_reduced_map(1.3, p, env), xx_reduced_map(1.3, eig, env))
    assert type(sample_pair(GAUSS, SampleStreams(9).at(0))) is PairEig


def test_spec_validation():
    with pytest.raises(ValueError):
        DisorderSpec(B=1, Omega=1, sigma_h=0.0, sigma_omega=1, sigma_phi=1.0)
    with pytest.raises(ValueError):
        DisorderSpec(B=1, Omega=1, sigma_h=1, sigma_omega=1)  # no width at all
    with pytest.raises(ValueError):
        DisorderSpec(B=1, Omega=1, sigma_h=1, sigma_omega=1,
                     sigma_phi=1.0, a_phi=1.0)  # both widths
    with pytest.raises(ValueError):
        DisorderSpec(B=1, Omega=1, sigma_h=1, sigma_omega=1,
                     phi_dist="trunc_tanh", sigma_phi=1.0)
    with pytest.raises(ValueError):
        DisorderSpec.from_varphi(1, 1, 1, 1, varphi=-2.0)
    assert abs(GAUSS.varphi - 3.0) < 1e-12
    assert abs(GAUSS.sigma_phi - math.pi / 3.0) < 1e-12
    with pytest.raises(ValueError):
        TANH.varphi


def test_width_bounds_sit_where_the_arithmetic_fails():
    below = math.nextafter(MIN_VARPHI, 0.0)
    assert MIN_VARPHI ** 2 > 0.0 and below ** 2 == 0.0
    ceiling = math.tanh(MIN_A_PHI * math.pi / 2.0) ** 2
    below = math.nextafter(MIN_A_PHI, 0.0)
    assert ceiling >= sys.float_info.min > math.tanh(below * math.pi / 2.0) ** 2
    # the closed form holds at the bound: no phase coherence is left
    spec = DisorderSpec.from_varphi(B=1.0, Omega=1.0, sigma_h=1.0, sigma_omega=1.0,
                                    varphi=MIN_VARPHI)
    comps = closedform_disorder_components(spec, 0.5)
    assert comps["z0z"] == 0.25 * (1.0 - math.cos(1.0) * math.exp(-0.5))


def test_trunc_tanh_pdf_normalized_and_supported():
    # the norm pi - (2/a) tanh(a pi/2) cancels at small a
    for a in (1e-10, 1e-8, 1e-6, 1e-3, 0.01, 1.0, 5.0, 1e3):
        integral, err = quad(lambda x: float(trunc_tanh_pdf(x, a)), -math.pi / 2, math.pi / 2,
                             epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs(integral - 1.0) < 1e-12, a
    assert trunc_tanh_pdf(2.0, 1.0) == 0.0
    assert trunc_tanh_pdf(-2.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        trunc_tanh_pdf(0.1, 0.0)


def test_tanh_ceiling_value_and_monotonicity():
    ceiling = max_tau3_trunc_tanh()
    assert abs(ceiling - (6.0 + math.pi**2) / (2.0 * math.pi**2)) < 1e-15

    def sin2_moment(a):
        val, _ = quad(lambda x: math.sin(x) ** 2 * float(trunc_tanh_pdf(x, a)),
                      -math.pi / 2, math.pi / 2, limit=200)
        return val

    small = sin2_moment(1e-4)
    assert abs(small - ceiling) < 1e-6
    # widening the flat part only lowers the moment
    assert small > sin2_moment(0.5) > sin2_moment(2.0) > sin2_moment(8.0)


def test_sampling_is_deterministic_per_seed_and_index():
    a = sample_pair(GAUSS, SampleStreams(42).at(7))
    b = sample_pair(GAUSS, SampleStreams(42).at(7))
    c = sample_pair(GAUSS, SampleStreams(42).at(8))
    assert a == b
    assert a != c
    m1, s1 = mc_disorder_map(GAUSS, 0.7, (0.0, 0.0, 1.0), 200, seed=3)
    m2, s2 = mc_disorder_map(GAUSS, 0.7, (0.0, 0.0, 1.0), 200, seed=3)
    assert np.array_equal(m1, m2) and np.array_equal(s1, s2)


def fresh_rng(seed, index):
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))


def test_sample_streams_match_fresh_philox():
    streams = SampleStreams(42)
    # out of order, repeated, and past the 32-bit counter range
    for i in (7, 3, 2**32, 0, 2**32 + 5, 2**40, 7):
        rng = streams.at(i)
        fresh = fresh_rng(42, i)
        assert np.array_equal(rng.normal(size=5), fresh.normal(size=5))
        assert rng.uniform() == fresh.uniform()
    assert streams.at(1) is streams.at(2)  # one generator, moved


@pytest.mark.parametrize("spec", [GAUSS, TANH], ids=["gaussian", "trunc_tanh"])
def test_mc_disorder_map_equals_fresh_philox_loop(spec):
    env = (0.3, -0.4, 0.5)
    mean, stderr = mc_disorder_map(spec, 0.9, env, 200, seed=11)
    maps = np.array([xx_reduced_map(0.9, sample_pair(spec, fresh_rng(11, i)), env)
                     for i in range(200)])
    assert np.array_equal(mean, maps.mean(axis=0))
    assert np.array_equal(stderr, maps.std(axis=0, ddof=1) / math.sqrt(200))


def reference_phi(spec, rng):
    """_sample_phi through numpy's normal(loc, scale) and uniform(lo, hi)."""
    if spec.phi_dist == "gaussian":
        return float(rng.normal(0.0, spec.sigma_phi))
    ceil = math.tanh(spec.a_phi * math.pi / 2.0) ** 2
    while True:
        phi = float(rng.uniform(-math.pi / 2.0, math.pi / 2.0))
        if rng.uniform() * ceil <= math.tanh(spec.a_phi * phi) ** 2:
            return phi


def reference_pair(spec, rng):
    h = float(rng.normal(spec.B, spec.sigma_h))
    omega = float(rng.normal(spec.Omega, spec.sigma_omega))
    return PairEig(h, omega, reference_phi(spec, rng))


DRAW_SPECS = [
    GAUSS, TANH,
    DisorderSpec(B=-0.3, Omega=2.5, sigma_h=0.2, sigma_omega=3.0, sigma_phi=1e-3),
    # sigma_phi * z underflows to -0.0 for every negative z below 0.5
    DisorderSpec(B=1.0, Omega=1.0, sigma_h=1.0, sigma_omega=1.0, sigma_phi=5e-324),
    DisorderSpec(B=0.7, Omega=-1.2, sigma_h=2.0, sigma_omega=0.1, phi_dist="trunc_tanh",
                 a_phi=1e-3),
    DisorderSpec(B=1.0, Omega=1.0, sigma_h=1.0, sigma_omega=1.0, phi_dist="trunc_tanh",
                 a_phi=MIN_A_PHI),
    DisorderSpec(B=1.0, Omega=1.0, sigma_h=1.0, sigma_omega=1.0, phi_dist="trunc_tanh",
                 a_phi=50.0),
]


def plain_state(rng):
    """The generator's state with its arrays as lists, for ==."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("spec", DRAW_SPECS, ids=["gaussian", "trunc_tanh", "narrow_gaussian",
                                                  "subnormal_gaussian", "a_phi_1e-3", "a_phi_min", "a_phi_50"])
@pytest.mark.parametrize("draw, reference", [(sample_pair, reference_pair),
                                             (_sample_phi, reference_phi)],
                         ids=["sample_pair", "_sample_phi"])
def test_draws_equal_numpy_normal_and_uniform_bit_for_bit(spec, draw, reference):
    # per-index Philox streams, as mc_disorder_map draws, then one PCG64
    # stream drawn on and on, as criterion 07 does
    streams, ref_streams = SampleStreams(17), SampleStreams(17)
    pcg, ref_pcg = np.random.default_rng(17), np.random.default_rng(17)
    for k in range(3300):
        rng, ref_rng = (streams.at(k), ref_streams.at(k)) if k < 300 else (pcg, ref_pcg)
        got, want = draw(spec, rng), reference(spec, ref_rng)
        assert type(got) is type(want)
        got, want = (got, want) if isinstance(got, tuple) else ((got,), (want,))
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert plain_state(rng) == plain_state(ref_rng)


def test_sample_pair_moments():
    streams = SampleStreams(0)
    draws = [sample_pair(GAUSS, streams.at(i)) for i in range(2000)]
    hs = np.array([d.h12 for d in draws])
    ws = np.array([d.omega12 for d in draws])
    assert abs(hs.mean() - GAUSS.B) < 4.0 * GAUSS.sigma_h / math.sqrt(2000)
    assert abs(ws.mean() - GAUSS.Omega) < 4.0 * GAUSS.sigma_omega / math.sqrt(2000)
    phis = np.array([d.phi12 for d in draws])
    assert abs(phis.mean()) < 4.0 * GAUSS.sigma_phi / math.sqrt(2000)


def test_trunc_tanh_samples_stay_in_support():
    streams = SampleStreams(1)
    draws = [sample_pair(TANH, streams.at(i)).phi12 for i in range(500)]
    assert max(abs(p) for p in draws) <= math.pi / 2


def test_mc_requires_enough_samples():
    with pytest.raises(ValueError):
        mc_disorder_map(GAUSS, 0.5, (0.0, 0.0, 1.0), 50, seed=0)


def test_closedform_matches_mc_at_fixed_seed():
    checks = disorder_components(GAUSS, 0.7, z2=1.0, n_samples=2000, seed=0)
    assert [c.name for c in checks] == ["xx0", "yx0", "z0z", "zz0"]
    assert not any(c.flagged for c in checks)
    for c in checks:
        assert abs(c.pull) < 5.0


def test_zero_spread_component_is_flagged_unless_it_agrees():
    assert ComponentCheck("xx0", 1.0, 0.0, 0.9).flagged
    assert ComponentCheck("xx0", 1.0, 0.0, 0.9).pull == -math.inf
    assert ComponentCheck("xx0", 0.9, 0.0, 1.0).pull == math.inf
    assert not ComponentCheck("xx0", 1.0, 0.0, 1.0).flagged
    assert not ComponentCheck("xx0", 1.0, 0.0, 1.0 + 1e-13).flagged
    assert not ComponentCheck("xx0", 1.0, 0.0).flagged  # no closed form


def test_closedform_t0_is_exact_identity():
    closed = closedform_disorder_components(GAUSS, 0.0)
    assert closed["xx0"] == 1.0 and closed["yx0"] == 0.0
    assert closed["z0z"] == 0.0 and closed["zz0"] == 1.0
    mean, stderr = mc_disorder_map(GAUSS, 0.0, (0.0, 0.0, 1.0), 200, seed=0)
    assert np.max(np.abs(mean - np.eye(4))) < 1e-12
    assert np.max(stderr) < 1e-12


def test_closedform_gaussian_family_only():
    with pytest.raises(ValueError):
        closedform_disorder_components(TANH, 0.5)


def test_envelope_damps_transverse_sector():
    early = closedform_disorder_components(GAUSS, 0.1)
    late = closedform_disorder_components(GAUSS, 3.0)
    assert math.hypot(late["xx0"], late["yx0"]) < 1e-6
    assert math.hypot(early["xx0"], early["yx0"]) > 0.5
    # z-shift saturates between 0 and the phi-variance ceiling
    assert 0.0 <= late["z0z"] <= 0.25
    assert abs(late["zz0"] + late["z0z"] - 1.0) < 1e-15


def test_swap_relation_through_pair_eig():
    pair = sample_pair(GAUSS, SampleStreams(9).at(0))
    flipped = PairEig(h12=pair.h12, omega12=-pair.omega12, phi12=-pair.phi12)
    env = (0.2, -0.3, 0.4)
    a = xx_reduced_map(1.3, pair, env, which=2)
    b = xx_reduced_map(1.3, flipped, env, which=1)
    assert np.max(np.abs(a - b)) < 1e-12


def test_even_phi_average_restores_phase_covariance():
    # single samples with a tilted partner break the pattern; the even-phi
    # ensemble mean does not (light version of the acceptance run)
    env = (0.3, -0.4, 0.5)
    single = xx_reduced_map(0.9, sample_pair(GAUSS, SampleStreams(0).at(0)), env)
    assert max(abs(single[i, j]) for i, j in PC_ZEROS) > 1e-3
    mean, stderr = mc_disorder_map(GAUSS, 0.9, env, 1000, seed=0)
    for i, j in PC_ZEROS:
        assert abs(mean[i, j]) <= 3.0 * stderr[i, j] + 1e-12
