"""Measures over phase-covariant qubit channels.

Geometry of the completely positive region in (lambda1, tau3, lambda3),
uniform and truncated-Gaussian sampling over it, eigenvalue statistics of
the sampled maps (including a minimally broken family with lambda2 !=
lambda1), Monte Carlo volume estimates, and the time-dependent trajectory
construction whose width shrinks as sigma(t) = (C/N)(t_ref/t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .disorder import _sample_rng
# cp_contains is the scalar CP predicate of reduced under this module's name
from .reduced import PCParams, choi_check, cp_ok as cp_contains

_TAU3_RULES = ("symmetric", "signed")


def cp_mask(lambda1, tau3, lambda3) -> np.ndarray:
    """Vectorized cp_contains over equal-shape arrays."""
    l1, t3, l3 = (np.asarray(a, dtype=float) for a in (lambda1, tau3, lambda3))
    return ((np.abs(l3) + np.abs(t3) <= 1.0)
            & (4.0 * l1**2 + t3**2 <= (1.0 + l3) ** 2))


def _uniform_theta(rng: np.random.Generator) -> float:
    # uniform on (-pi, pi]
    return math.pi - float(rng.uniform(0.0, 2.0 * math.pi))


def uniform_sample(rng: np.random.Generator) -> PCParams:
    """Uniform draw from the CP solid, theta uniform on (-pi, pi].

    Rejection from the bounding box [-1, 1]^3; the sign of the lambda1 draw
    is folded away (the map depends on lambda1 only through the rotation
    block, and we keep lambda1 >= 0).
    """
    while True:
        l1, t3, l3 = rng.uniform(-1.0, 1.0, size=3)
        if cp_contains(l1, t3, l3):
            return PCParams(lambda1=abs(float(l1)), theta=_uniform_theta(rng),
                            lambda3=float(l3), tau3=float(t3))


@dataclass(frozen=True)
class VolumeEstimate:
    total: float
    total_err: float
    negative: float
    negative_err: float
    positive: float
    positive_err: float
    n: int
    seed: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def volume_mc(n: int, seed: int) -> VolumeEstimate:
    """Hit-or-miss volume of the CP solid over [-1, 1]^3, split by sign(lambda3).

    The exact values are 16/9 in total, of which pi/6 lies at lambda3 < 0.
    """
    if n < 10**5:
        raise ValueError("n must be at least 10^5")
    rng = np.random.default_rng(seed)
    box = 8.0

    def rate_err(k):
        p = k / n
        return box * p, box * math.sqrt(p * (1.0 - p) / n)

    draws = rng.uniform(-1.0, 1.0, size=(n, 3))
    hit = cp_mask(draws[:, 0], draws[:, 1], draws[:, 2])
    neg = hit & (draws[:, 2] < 0.0)
    total, total_err = rate_err(int(hit.sum()))
    negative, negative_err = rate_err(int(neg.sum()))
    positive, positive_err = rate_err(int(hit.sum()) - int(neg.sum()))
    return VolumeEstimate(total, total_err, negative, negative_err,
                          positive, positive_err, n, seed)


@dataclass(frozen=True)
class BrokenPCParams:
    """Phase covariance minimally broken: the rotation block carries two radii.

    xy block [[lambda1 cos, -lambda1 sin], [lambda2 sin, lambda2 cos]];
    lambda2 = lambda1 restores the covariant family.
    """

    lambda1: float
    lambda2: float
    theta: float
    lambda3: float
    tau3: float

    def transfer(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, self.lambda1 * c, -self.lambda1 * s, 0.0],
            [0.0, self.lambda2 * s, self.lambda2 * c, 0.0],
            [self.tau3, 0.0, 0.0, self.lambda3],
        ])


def eigenvalues_pc(p: PCParams) -> np.ndarray:
    """Multiset {1, lambda1 e^{+-i theta}, lambda3}; tau3 never enters."""
    rot = p.lambda1 * np.exp(1j * p.theta)
    return np.array([1.0, rot, np.conj(rot), p.lambda3], dtype=complex)


def eigenvalues_broken(b: BrokenPCParams) -> np.ndarray:
    """Multiset {1, mu+, mu-, lambda3} with mu+ mu- = lambda1 lambda2.

    mu+- = [(l1+l2) cos theta +- sqrt((l1+l2)^2 cos^2 theta - 4 l1 l2)]/2,
    real when the discriminant is nonnegative.
    """
    trace = (b.lambda1 + b.lambda2) * math.cos(b.theta)
    disc = trace * trace - 4.0 * b.lambda1 * b.lambda2
    root = np.sqrt(complex(disc))
    return np.array([1.0, (trace + root) / 2.0, (trace - root) / 2.0,
                     b.lambda3], dtype=complex)


def broken_uniform_sample(rng: np.random.Generator) -> BrokenPCParams:
    """Uniform draw of the broken family, CP-certified through the Choi test.

    (lambda1, lambda2, tau3, lambda3) from [-1, 1]^4 and theta uniform;
    there is no closed inequality set here, so acceptance is
    choi_check >= -1e-9 on the assembled transfer matrix.
    """
    while True:
        l1, l2, t3, l3 = rng.uniform(-1.0, 1.0, size=4)
        cand = BrokenPCParams(lambda1=float(l1), lambda2=float(l2),
                              theta=_uniform_theta(rng),
                              lambda3=float(l3), tau3=float(t3))
        if choi_check(cand.transfer()) >= -1e-9:
            return cand


def trunc_gauss_sample(mu: float, sigma: float, a: float, b: float,
                       rng: np.random.Generator) -> float:
    """Two-sided truncated Gaussian on [a, b] by inverse CDF.

    When the whole interval sits beyond 6 sigma from mu the CDF endpoints
    collide in floating point, so a tail rejection sampler (shifted
    exponential proposal) takes over.
    """
    if a >= b:
        raise ValueError("need a < b")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    alpha = (a - mu) / sigma
    beta = (b - mu) / sigma
    if alpha > 6.0 or beta < -6.0:
        # mirror the lower tail onto the upper one
        flip = beta < 0.0
        lo, hi = (-beta, -alpha) if flip else (alpha, beta)
        lam = (lo + math.sqrt(lo * lo + 4.0)) / 2.0
        while True:
            z = lo + rng.exponential(1.0 / lam)
            if z <= hi and rng.uniform() <= math.exp(-0.5 * (z - lam) ** 2):
                return mu + sigma * (-z if flip else z)
    fa, fb = ndtr(alpha), ndtr(beta)
    u = rng.uniform(fa, fb)
    x = mu + sigma * float(ndtri(u))
    return min(max(x, a), b)


def time_grid(t_ref: float, t_max: float, n_steps: int) -> np.ndarray:
    """Geometric grid from t_ref/10 (where sigma(t) is largest) to t_max."""
    if t_max <= t_ref / 10.0:
        raise ValueError("t_max must exceed t_ref/10")
    return np.geomspace(t_ref / 10.0, t_max, n_steps)


@dataclass(frozen=True)
class MeasureSpec:
    """Trajectory-measure parameters around a steady channel.

    Means usually come from a SteadyChannel (from_steady); sigma(t) =
    (C/n)(t_ref/t) shrinks the truncated Gaussians toward them. tau3_rule
    picks the tau3 interval at each step: 'symmetric' uses
    |tau3| <= 1 - |lambda3| (always CP-safe), 'signed' additionally
    restricts tau3 to the sign of mu_tau3.
    """

    mu_lambda3: float
    mu_tau3: float
    t_ref: float
    n: int
    times: tuple = field(default=())
    mu_lambda1: float = 0.0
    C: float = 1.0
    tau3_rule: str = "symmetric"

    def __post_init__(self):
        if self.t_ref <= 0:
            raise ValueError("t_ref must be positive")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.tau3_rule not in _TAU3_RULES:
            raise ValueError(f"tau3_rule must be one of {_TAU3_RULES}")
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValueError("times must be non-empty")
        if times[0] < self.t_ref / 10.0 * (1.0 - 1e-12):
            raise ValueError("grid must start at or after t_ref/10")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def from_steady(cls, steady, t_ref: float, times, C: float = 1.0,
                    tau3_rule: str = "symmetric") -> "MeasureSpec":
        return cls(mu_lambda3=float(steady.lambda3), mu_tau3=float(steady.tau3),
                   t_ref=t_ref, n=steady.n, times=tuple(times), C=C,
                   tau3_rule=tau3_rule)

    def sigma(self, t: float) -> float:
        if t <= 0:
            raise ValueError("sigma(t) needs t > 0")
        return (self.C / self.n) * (self.t_ref / t)


def trajectory_sample(spec: MeasureSpec, seed: int) -> list:
    """One trajectory: a PCParams per grid time, nested draws lambda3 ->
    tau3 -> lambda1 from truncated Gaussians of width sigma(t).

    Every emitted triple is completely positive by construction. theta is
    not part of the construction and is set to 0.
    """
    out = []
    for k, t in enumerate(spec.times):
        rng = _sample_rng(seed, k)
        s = spec.sigma(t)
        l3 = trunc_gauss_sample(spec.mu_lambda3, s, -1.0, 1.0, rng)
        lim = 1.0 - abs(l3)
        if spec.tau3_rule == "signed" and lim > 0.0:
            a, b = (0.0, lim) if spec.mu_tau3 >= 0.0 else (-lim, 0.0)
        else:
            a, b = -lim, lim
        t3 = trunc_gauss_sample(spec.mu_tau3, s, a, b, rng) if lim > 0.0 else 0.0
        top = 0.5 * math.sqrt(max((1.0 + l3) ** 2 - t3 * t3, 0.0))
        l1 = trunc_gauss_sample(spec.mu_lambda1, s, 0.0, top, rng) if top > 0.0 else 0.0
        if not cp_contains(l1, t3, l3):
            raise AssertionError("nested truncation emitted a non-CP triple")
        out.append(PCParams(lambda1=l1, theta=0.0, lambda3=l3, tau3=t3))
    return out
