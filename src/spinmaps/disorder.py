"""Disorder ensembles of detuned XX pairs and the averaged focal-qubit map.

The fundamental random variables are the pair eigen-parameters (h, omega,
phi) themselves, drawn independently: h ~ N(B, sigma_h^2), omega ~
N(Omega, sigma_omega^2), and phi from an even, zero-mean family, either a
Gaussian of width sigma_phi or the truncated density proportional to
tanh^2(a_phi * phi) on [-pi/2, pi/2]. Even phi means phase covariance holds
for the averaged map even though single samples break it.

Width-symbol note: the closed-form averaged components carry a width symbol
varphi; they are implemented with sigma_phi = pi / varphi, the reading under
which they are exactly the Gaussian averages of the per-sample components.
The Monte Carlo estimator is the ground truth those closed forms are checked
against (disorder_components flags any component off by more than 5
standard errors instead of silently accepting it).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import xx_reduced_map
from .ensemble import UnsupportedNetwork
from .qlinalg import Result, check_count, roundoff_budget

_PHI_FAMILIES = ("gaussian", "trunc_tanh")
MIN_SAMPLES = 100
# Smallest phase-law widths the arithmetic holds at. The closed forms divide
# by varphi^2, which underflows to 0 below 2^-537.5 (this value, rounded up).
MIN_VARPHI = 1.5717277847026288e-162
# The trunc_tanh sampler compares u tanh^2(a_phi pi/2) with tanh^2(a_phi phi).
# Below this a_phi the ceiling tanh^2(a_phi pi/2) ~ (a_phi pi/2)^2 leaves the
# normal floats: it loses digits, then underflows to 0, where every candidate
# passes and phi comes out uniform.
MIN_A_PHI = 2.0 / math.pi * math.sqrt(sys.float_info.min)


class PairEig(NamedTuple):
    """Eigen-parameters of one sampled pair, the triple xx_reduced_map takes.

    The swap relation between the two pair members is a sign flip of
    (omega12, phi12) jointly.
    """

    h12: float
    omega12: float
    phi12: float


@dataclass(frozen=True)
class DisorderSpec:
    """Distribution parameters for (h, omega, phi).

    Exactly one width is set: sigma_phi for the gaussian family, a_phi for
    trunc_tanh. varphi is the equivalent width symbol of the closed-form
    components, varphi = pi / sigma_phi.
    """

    B: float
    Omega: float
    sigma_h: float
    sigma_omega: float
    phi_dist: str = "gaussian"
    sigma_phi: float | None = None
    a_phi: float | None = None

    def __post_init__(self):
        if self.sigma_h <= 0 or self.sigma_omega <= 0:
            raise ValueError("sigma_h and sigma_omega must be positive")
        if self.phi_dist not in _PHI_FAMILIES:
            raise ValueError(f"phi_dist must be one of {_PHI_FAMILIES}")
        if self.phi_dist == "gaussian":
            if self.sigma_phi is None or self.sigma_phi <= 0 or self.a_phi is not None:
                raise ValueError("gaussian family needs sigma_phi > 0 (and no a_phi)")
            # not >=, so that a NaN width is refused too
            if not math.pi / self.sigma_phi >= MIN_VARPHI:
                raise ValueError(f"varphi = pi / sigma_phi must be at least {MIN_VARPHI}")
        else:
            if self.a_phi is None or self.a_phi <= 0 or self.sigma_phi is not None:
                raise ValueError("trunc_tanh family needs a_phi > 0 (and no sigma_phi)")
            if not self.a_phi >= MIN_A_PHI:
                raise ValueError(f"a_phi must be at least {MIN_A_PHI}")

    @property
    def varphi(self) -> float:
        if self.phi_dist != "gaussian":
            raise ValueError("varphi is defined for the gaussian family only")
        return math.pi / self.sigma_phi

    @classmethod
    def from_varphi(cls, B, Omega, sigma_h, sigma_omega, varphi) -> "DisorderSpec":
        # varphi itself, not only pi / (pi / varphi), which can round up to
        # the floor from below it
        if not varphi >= MIN_VARPHI:
            raise ValueError(f"varphi must be at least {MIN_VARPHI}")
        return cls(B=B, Omega=Omega, sigma_h=sigma_h, sigma_omega=sigma_omega,
                   phi_dist="gaussian", sigma_phi=math.pi / varphi)


def trunc_tanh_pdf(phi, a_phi: float):
    """Normalized density proportional to tanh^2(a_phi phi) on [-pi/2, pi/2].

    With x = a_phi pi/2 the norm pi - (2/a_phi) tanh x is (pi/x)(x - tanh x),
    which cancels at small x: below x = 0.1 it comes from the Taylor series
    x - tanh x = x^3/3 - 2x^5/15 + ..., truncated at a relative 5e-15.
    """
    if a_phi <= 0:
        raise ValueError("a_phi must be positive")
    x = a_phi * math.pi / 2.0
    if x < 0.1:
        x2 = x * x
        norm = math.pi * x2 * (1 / 3 - x2 * (2 / 15 - x2 * (17 / 315 - x2 * (
            62 / 2835 - x2 * (1382 / 155925 - x2 * 21844 / 6081075)))))
    else:
        norm = math.pi - (2.0 / a_phi) * math.tanh(x)
    phi = np.asarray(phi, dtype=float)
    inside = np.abs(phi) <= math.pi / 2.0
    return np.where(inside, np.tanh(a_phi * phi) ** 2 / norm, 0.0)


def _sample_phi(spec: DisorderSpec, rng: np.random.Generator) -> float:
    """One phase from the generator's raw primitives.

    standard_normal() and random() with the affine maps written out:
    normal(loc, scale) and uniform(lo, hi) compute exactly loc + scale * z
    and lo + (hi - lo) * u, with hi - lo = pi here, so the draws and the
    generator state are theirs bit for bit. The 0.0 + keeps normal(0,
    scale)'s +0.0 where scale * z is -0.0. A trunc_tanh candidate takes its
    (u, v) from one random(2) call: a block fill draws what that many
    scalar calls draw, in their order, and leaves the same generator state.
    """
    if spec.phi_dist == "gaussian":
        return 0.0 + spec.sigma_phi * rng.standard_normal()
    # Rejection with a uniform proposal; the density peaks at the endpoints,
    # and acceptance stays above 1/3 for every a_phi.
    a_phi = spec.a_phi
    ceil = math.tanh(a_phi * math.pi / 2.0) ** 2
    while True:
        u, v = rng.random(2).tolist()
        phi = -math.pi / 2.0 + math.pi * u
        if v * ceil <= math.tanh(a_phi * phi) ** 2:
            return phi


def sample_pair(spec: DisorderSpec, rng: np.random.Generator) -> PairEig:
    """One draw of the pair eigen-parameters: h, omega and phi in that order,
    each from the generator's raw primitives (see _sample_phi).

    The normals come from one standard_normal block per pair: h, omega and
    the Gaussian phi's three, or h's and omega's two before the trunc_tanh
    rejection loop. A block holds only draws the pair consumes, so a
    generator reused after the call is where the scalar draws leave it.
    """
    if spec.phi_dist == "gaussian":
        z_h, z_omega, z_phi = rng.standard_normal(3).tolist()
        phi = 0.0 + spec.sigma_phi * z_phi  # as _sample_phi
    else:
        z_h, z_omega = rng.standard_normal(2).tolist()
        phi = _sample_phi(spec, rng)
    return PairEig(spec.B + spec.sigma_h * z_h, spec.Omega + spec.sigma_omega * z_omega, phi)


class SampleStreams:
    """The per-index random streams of one seed.

    Stream i is Philox4x64 keyed by the seed with i in the top counter
    word: streams are independent and platform-stable, and the rejection
    loop's variable draw count cannot shift later indices. One bit
    generator serves every index; at(i) moves it to counter [0, 0, 0, i],
    so its draws equal those of a fresh Philox(key=seed, counter=[0, 0, 0,
    i]) without that constructor's cost.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 2**128:  # the range of a Philox key
            raise ValueError(f"seed: must be >= 0 and below 2**128, got {seed}")
        self._bits = np.random.Philox(key=seed, counter=[0, 0, 0, 0])
        self._state = self._bits.state  # a fresh generator's state, buffer empty
        self._counter = self._state["state"]["counter"]
        self._rng = np.random.Generator(self._bits)

    def at(self, index: int) -> np.random.Generator:
        """The generator at the start of stream `index`. It is valid until
        the next index is requested: every call returns the same generator,
        moved."""
        self._counter[3] = index
        self._bits.state = self._state
        return self._rng


def mc_disorder_map(spec: DisorderSpec, t: float, env_bloch, n_samples: int,
                    seed: int, which: int = 1):
    """Monte Carlo disorder average of the reduced pair map.

    Returns (mean, stderr): entry-wise sample mean of the 4x4 transfer
    matrix over n_samples pair draws and its standard error (sample std /
    sqrt(n)). Deterministic given seed, sample by sample.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
    maps = np.empty((n_samples, 4, 4))
    stream_at = SampleStreams(seed).at
    for i in range(n_samples):
        maps[i] = xx_reduced_map(t, sample_pair(spec, stream_at(i)), env_bloch, which)
    mean = maps.mean(axis=0)
    stderr = maps.std(axis=0, ddof=1) / math.sqrt(n_samples)
    return mean, stderr


def closedform_disorder_components(spec: DisorderSpec, t: float) -> dict:
    """Closed-form Gaussian-family averages of the nonzero map components.

    Keys: 'xx0' (= entry xx, with 'yy0' equal and 'xy0' = -'yx0'), 'yx0',
    'z0z' (the z-shift per unit partner polarization), 'zz0' = 1 - 'z0z'.
    The trunc_tanh family has no closed form here.
    """
    if spec.phi_dist != "gaussian":
        raise ValueError("closed forms are available for the gaussian family only")
    varphi = spec.varphi
    envelope = math.exp(-(spec.sigma_omega ** 2 + 4.0 * spec.sigma_h ** 2) * t * t / 2.0)
    cphi = math.exp(-math.pi ** 2 / (2.0 * varphi ** 2))  # <cos phi>
    co, so = math.cos(spec.Omega * t), math.sin(spec.Omega * t)
    cb, sb = math.cos(2.0 * spec.B * t), math.sin(2.0 * spec.B * t)
    xx0 = (co * cb - cphi * so * sb) * envelope
    yx0 = (co * sb + cphi * so * cb) * envelope
    z0z = 0.25 * (1.0 - math.exp(-2.0 * math.pi ** 2 / varphi ** 2)) \
        * (1.0 - math.cos(2.0 * spec.Omega * t) * math.exp(-2.0 * spec.sigma_omega ** 2 * t * t))
    return {"xx0": xx0, "yx0": yx0, "z0z": z0z, "zz0": 1.0 - z0z}


# Where each closed-form component sits in the mean transfer matrix; the
# z-shift z0z scales with the partner polarization z2.
_COMPONENT_SLOTS = {"xx0": (1, 1), "yx0": (2, 1), "z0z": (3, 0), "zz0": (3, 3)}

PULL_LIMIT = 5.0  # a closed form further than this many stderr from MC is flagged
ZERO_SPREAD_TOL = 1e-12  # the agreement a component without MC spread must show


@dataclass(frozen=True)
class ComponentCheck:
    """One tracked component at one time: the Monte Carlo mean and standard
    error, and the closed form where the family has one (None otherwise)."""

    name: str
    mc_mean: float
    mc_stderr: float
    closed_form: float | None = None

    @property
    def pull(self) -> float:
        """(closed - mc) / stderr: the closed form's distance from the Monte
        Carlo mean in standard errors. Where the MC spread vanishes it is 0
        if the two agree to ZERO_SPREAD_TOL and +-inf if they do not."""
        gap = self.closed_form - self.mc_mean
        if self.mc_stderr > 0:
            return gap / self.mc_stderr
        return 0.0 if abs(gap) <= ZERO_SPREAD_TOL else math.copysign(math.inf, gap)

    @property
    def flagged(self) -> bool:
        # not <=, so that a NaN closed form (or pull) is flagged
        return self.closed_form is not None and not abs(self.pull) <= PULL_LIMIT


def disorder_components(spec: DisorderSpec, t: float, z2: float, n_samples: int,
                        seed: int) -> list:
    """The tracked components of the disorder-averaged map at time t.

    One mc_disorder_map call with the partner polarized to z2 along z. z0z
    is reported per unit partner polarization (MC mean and stderr divided
    by z2) and skipped at z2 = 0, where the z-shift column is dark. The
    gaussian family carries closedform_disorder_components.
    """
    mean, stderr = mc_disorder_map(spec, t, (0.0, 0.0, z2), n_samples, seed)
    closed = closedform_disorder_components(spec, t) if spec.phi_dist == "gaussian" else None
    checks = []
    for name, (i, j) in _COMPONENT_SLOTS.items():
        mc, err = float(mean[i, j]), float(stderr[i, j])
        if name == "z0z":
            if z2 == 0.0:
                continue
            mc, err = mc / z2, err / abs(z2)
        checks.append(ComponentCheck(name, mc, err, None if closed is None else closed[name]))
    return checks


# the roundoff budget eps (2|B| + |Omega| + 4 sigma_h + sigma_omega) t_max
# below which the phases 2ht and omega t keep four correct digits: more than
# 10x under the standard error of a 200,000-sample run, and four decades
# under the smallest budget (1.4) at which the closed form and Monte Carlo
# were seen to disagree
DISORDER_ROUNDOFF_LIMIT = 1e-4


def disorder_series(spec: DisorderSpec, z2: float, t_max: float, steps: int, n_samples: int,
                    seed: int) -> Result:
    """disorder_components at `steps` times from 0 to t_max: it fails where a
    closed form is flagged. UnsupportedNetwork where the budget, eps (|2h| +
    |omega|) t_max two sigma out, is not below DISORDER_ROUNDOFF_LIMIT."""
    rate = 2.0 * abs(spec.B) + abs(spec.Omega) + 4.0 * spec.sigma_h + spec.sigma_omega
    budget = roundoff_budget(rate, t_max)
    if not budget < DISORDER_ROUNDOFF_LIMIT:
        raise UnsupportedNetwork(
            f"roundoff budget eps (2|b| + |omega| + 4 sigma_h + sigma_omega) t_max = "
            f"{budget:.2e}, set by b, omega, sigma_h, sigma_omega and t_max, is not below "
            f"{DISORDER_ROUNDOFF_LIMIT:g}: disorder's phases 2ht and omega t keep fewer than four "
            f"correct digits here")
    check_count(steps, "steps")
    rows = []
    flagged = []
    for t in np.linspace(0.0, t_max, steps).tolist():
        for c in disorder_components(spec, t, float(z2), n_samples, seed):
            # a family without a closed form leaves its column empty
            cf = "" if c.closed_form is None else c.closed_form
            rows.append((t, c.name, c.mc_mean, c.mc_stderr, cf))
            if c.flagged:
                flagged.append({"t": t, "component": c.name,
                                "closed_form": c.closed_form,
                                "mc_mean": c.mc_mean, "mc_stderr": c.mc_stderr})

    diagnostics = {"flagged": flagged, "phi_dist": spec.phi_dist}
    if spec.phi_dist != "gaussian":
        diagnostics.update(sin2_phi_headroom(spec, n_samples, seed))

    header = ("t", "component", "mc_mean", "mc_stderr", "closed_form")
    return Result({"data.csv": (header, list(zip(*rows)))}, diagnostics,
                  f"{len(flagged)} closed-form/MC disagreements beyond "
                  f"{PULL_LIMIT:g} stderr (see diagnostics.json)" if flagged else None)


def sin2_phi_headroom(spec: DisorderSpec, n_samples: int, seed: int) -> dict:
    """How close the sampled phases get to the trunc_tanh ceiling: the
    ceiling and the Monte Carlo mean of sin^2(phi) with its standard error,
    over the same n_samples draws mc_disorder_map makes."""
    streams = SampleStreams(seed)
    sin2 = np.array([math.sin(sample_pair(spec, streams.at(i)).phi12) ** 2
                     for i in range(n_samples)])
    return {"max_tau3_ceiling": max_tau3_trunc_tanh(),
            "mc_sin2_phi": float(sin2.mean()),
            "mc_sin2_phi_stderr": float(sin2.std(ddof=1) / math.sqrt(sin2.size))}


def max_tau3_trunc_tanh() -> float:
    """Largest mean sin^2(phi) the trunc_tanh family can reach.

    The a_phi -> 0 limit concentrates the density toward 12 phi^2 / pi^3 on
    [-pi/2, pi/2], whose sin^2 average is (6 + pi^2) / (2 pi^2) ~= 0.804;
    larger a_phi only lowers it. The z-shift of the averaged map is bounded
    by this number, which an untruncated Gaussian phi (mean sin^2 < 1/2)
    can never reach.
    """
    return (6.0 + math.pi ** 2) / (2.0 * math.pi ** 2)
