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
against (closedform_vs_mc flags any component off by more than 5 standard
errors instead of silently accepting it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import xx_reduced_map

_PHI_FAMILIES = ("gaussian", "trunc_tanh")


@dataclass(frozen=True)
class PairEig:
    """Eigen-parameters of one sampled pair.

    delta12 is redundant (= omega12 * cos(phi12)) but kept because the swap
    relation between the two pair members is a sign flip of delta12, i.e. of
    (omega12, phi12) jointly.
    """

    h12: float
    delta12: float
    omega12: float
    phi12: float

    def __post_init__(self):
        scale = max(1.0, abs(self.omega12))
        if abs(self.delta12 - self.omega12 * math.cos(self.phi12)) > 1e-9 * scale:
            raise ValueError("delta12 inconsistent with omega12 * cos(phi12)")

    @property
    def j12(self) -> float:
        return self.omega12 * math.sin(self.phi12)


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
        else:
            if self.a_phi is None or self.a_phi <= 0 or self.sigma_phi is not None:
                raise ValueError("trunc_tanh family needs a_phi > 0 (and no sigma_phi)")

    @property
    def varphi(self) -> float:
        if self.phi_dist != "gaussian":
            raise ValueError("varphi is defined for the gaussian family only")
        return math.pi / self.sigma_phi

    @classmethod
    def from_varphi(cls, B, Omega, sigma_h, sigma_omega, varphi) -> "DisorderSpec":
        if varphi <= 0:
            raise ValueError("varphi must be positive")
        return cls(B=B, Omega=Omega, sigma_h=sigma_h, sigma_omega=sigma_omega,
                   phi_dist="gaussian", sigma_phi=math.pi / varphi)


def trunc_tanh_pdf(phi, a_phi: float):
    """Normalized density proportional to tanh^2(a_phi phi) on [-pi/2, pi/2]."""
    if a_phi <= 0:
        raise ValueError("a_phi must be positive")
    norm = math.pi - (2.0 / a_phi) * math.tanh(a_phi * math.pi / 2.0)
    phi = np.asarray(phi, dtype=float)
    inside = np.abs(phi) <= math.pi / 2.0
    return np.where(inside, np.tanh(a_phi * phi) ** 2 / norm, 0.0)


def _sample_phi(spec: DisorderSpec, rng: np.random.Generator) -> float:
    if spec.phi_dist == "gaussian":
        return float(rng.normal(0.0, spec.sigma_phi))
    # Rejection with a uniform proposal; the density peaks at the endpoints,
    # and acceptance stays above 1/3 for every a_phi.
    ceil = math.tanh(spec.a_phi * math.pi / 2.0) ** 2
    while True:
        phi = float(rng.uniform(-math.pi / 2.0, math.pi / 2.0))
        if rng.uniform() * ceil <= math.tanh(spec.a_phi * phi) ** 2:
            return phi


def sample_pair(spec: DisorderSpec, rng: np.random.Generator) -> PairEig:
    """One draw of the pair eigen-parameters."""
    h = float(rng.normal(spec.B, spec.sigma_h))
    omega = float(rng.normal(spec.Omega, spec.sigma_omega))
    phi = _sample_phi(spec, rng)
    return PairEig(h12=h, delta12=omega * math.cos(phi), omega12=omega, phi12=phi)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # Philox4x64 keyed by the seed with the sample index in the top counter
    # word: per-sample streams are independent and platform-stable, and the
    # rejection loop's variable draw count cannot shift later samples.
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))


def mc_disorder_map(spec: DisorderSpec, t: float, env_bloch, n_samples: int,
                    seed: int, which: int = 1):
    """Monte Carlo disorder average of the reduced pair map.

    Returns (mean, stderr): entry-wise sample mean of the 4x4 transfer
    matrix over n_samples pair draws and its standard error (sample std /
    sqrt(n)). Deterministic given seed, sample by sample.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    maps = np.empty((n_samples, 4, 4))
    for i in range(n_samples):
        pair = sample_pair(spec, _sample_rng(seed, i))
        maps[i] = xx_reduced_map(t, (pair.h12, pair.omega12, pair.phi12),
                                 env_bloch, which)
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


# Where each closed-form component sits in the mean transfer matrix when the
# partner is fully polarized (env_bloch = (0, 0, 1)).
_COMPONENT_SLOTS = {"xx0": (1, 1), "yx0": (2, 1), "z0z": (3, 0), "zz0": (3, 3)}

PULL_LIMIT = 5.0  # a closed form further than this many stderr from MC is flagged


def pull(closed: float, mc: float, stderr: float) -> float:
    """(closed - mc) / stderr: the closed form's distance from the Monte
    Carlo mean in standard errors, 0 where the MC spread vanishes."""
    return (closed - mc) / stderr if stderr > 0 else 0.0


def closedform_vs_mc(spec: DisorderSpec, t: float, n_samples: int = 20000,
                     seed: int = 0) -> dict:
    """Structured comparison of the closed forms against the MC oracle.

    Runs the Monte Carlo average with a fully polarized partner, computes
    the pull per component, and flags anything beyond PULL_LIMIT standard
    errors. The result is JSON-ready.
    """
    closed = closedform_disorder_components(spec, t)
    mean, stderr = mc_disorder_map(spec, t, (0.0, 0.0, 1.0), n_samples, seed)
    components = {}
    flagged = []
    for name, (i, j) in _COMPONENT_SLOTS.items():
        mc, err = float(mean[i, j]), float(stderr[i, j])
        offset = pull(closed[name], mc, err)
        components[name] = {
            "closed_form": closed[name],
            "mc_mean": mc,
            "mc_stderr": err,
            "pull": offset,
        }
        if abs(offset) > PULL_LIMIT:
            flagged.append(name)
    return {"t": t, "n_samples": n_samples, "seed": seed,
            "components": components, "flagged": flagged}


def max_tau3_trunc_tanh() -> float:
    """Largest mean sin^2(phi) the trunc_tanh family can reach.

    The a_phi -> 0 limit concentrates the density toward 12 phi^2 / pi^3 on
    [-pi/2, pi/2], whose sin^2 average is (6 + pi^2) / (2 pi^2) ~= 0.804;
    larger a_phi only lowers it. The z-shift of the averaged map is bounded
    by this number, which an untruncated Gaussian phi (mean sin^2 < 1/2)
    can never reach.
    """
    return (6.0 + math.pi ** 2) / (2.0 * math.pi ** 2)
