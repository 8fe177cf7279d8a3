"""Measures over phase-covariant qubit channels.

Geometry of the completely positive region in (lambda1, tau3, lambda3),
uniform and truncated-Gaussian sampling over it, eigenvalue statistics of
the sampled maps (including a minimally broken family with lambda2 !=
lambda1), Monte Carlo volume estimates, and the time-dependent trajectory
construction whose width shrinks as sigma(t) = (C/N)(1/t), t in units of t_J.
BrokenPCParams, like reduced.PCParams, gives one transfer matrix or a stack,
so each rejection sampler certifies a block of candidates in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disorder import SampleStreams
from .qlinalg import NumericalError
# cp_contains is the CP predicate of reduced (floats or arrays) under this module's name
from .reduced import PCParams, choi_check, cp_ok as cp_contains

_TAU3_RULES = ("symmetric", "signed")
_TWO_PI = 2.0 * math.pi
# candidates drawn and certified at once by the rejection samplers, and
# rows drawn at once by volume_mc; neither changes a draw or an estimate
_BLOCK = 8
_VOLUME_CHUNK = 2**16
MIN_VOLUME_SAMPLES = 10**5
# bounds of a broken candidate's draws: (lambda1, lambda2, tau3, lambda3), theta
_BROKEN_LOW = np.array([-1.0, -1.0, -1.0, -1.0, 0.0])
_BROKEN_HIGH = np.array([1.0, 1.0, 1.0, 1.0, _TWO_PI])
# first time of every trajectory grid, in t_J: sigma(t) is largest there
T_FIRST = 0.1


def _uniform_theta(rng: np.random.Generator) -> float:
    # uniform on (-pi, pi]
    return math.pi - float(rng.uniform(0.0, _TWO_PI))


def _rewind(rng: np.random.Generator, state: dict, skip: int):
    """Put rng back at state, then past skip doubles.

    Restoring the whole state and drawing through the Generator is exact
    for any bit generator: each double is one next_double, and a pending
    32-bit value (which PCG64.advance would clear) is kept.
    """
    rng.bit_generator.state = state
    if skip:
        rng.random(skip)


def uniform_sample(rng: np.random.Generator) -> PCParams:
    """Uniform draw from the CP solid, theta uniform on (-pi, pi].

    Rejection from the bounding box [-1, 1]^3; the sign of the lambda1 draw
    is folded away (the map depends on lambda1 only through the rotation
    block, and we keep lambda1 >= 0). Each candidate is one
    rng.uniform(-1, 1, size=3) call and theta is drawn after acceptance.
    Candidates are drawn _BLOCK at a time and tested in order, as Python
    floats, by cp_contains (its verdict on a float is the one it gives
    inside an array); the generator is then put just past the first
    accepted one, so the stream, and every draw, is the one a
    candidate-by-candidate loop makes.
    """
    while True:
        state = rng.bit_generator.state
        block = rng.uniform(-1.0, 1.0, size=(_BLOCK, 3)).tolist()
        for k, (l1, t3, l3) in enumerate(block):
            if cp_contains(l1, t3, l3):
                _rewind(rng, state, 3 * (k + 1))
                return PCParams(lambda1=abs(l1), theta=_uniform_theta(rng),
                                lambda3=l3, tau3=t3)


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
    if n < MIN_VOLUME_SAMPLES:
        raise ValueError(f"n must be at least {MIN_VOLUME_SAMPLES}")
    rng = np.random.default_rng(seed)
    box = 8.0

    def rate_err(k):
        p = k / n
        return box * p, box * math.sqrt(p * (1.0 - p) / n)

    # row chunks of the one n x 3 draw: same rows, integer counts, flat memory
    hits = negs = 0
    for start in range(0, n, _VOLUME_CHUNK):
        rows = rng.uniform(-1.0, 1.0, size=(min(_VOLUME_CHUNK, n - start), 3))
        hit = cp_contains(rows[:, 0], rows[:, 1], rows[:, 2])
        hits += int(hit.sum())
        negs += int((hit & (rows[:, 2] < 0.0)).sum())
    total, total_err = rate_err(hits)
    negative, negative_err = rate_err(negs)
    positive, positive_err = rate_err(hits - negs)
    return VolumeEstimate(total, total_err, negative, negative_err,
                          positive, positive_err, n, seed)


@dataclass(frozen=True)
class BrokenPCParams:
    """Phase covariance minimally broken: the rotation block carries two radii.

    xy block [[lambda1 cos, -lambda1 sin], [lambda2 sin, lambda2 cos]];
    lambda2 = lambda1 restores the covariant family. Fields are floats, or
    equal-shape arrays for a block of candidates.
    """

    lambda1: float
    lambda2: float
    theta: float
    lambda3: float
    tau3: float

    def transfer(self) -> np.ndarray:
        """The transfer matrix, shape (..., 4, 4) for parameters of shape (...)."""
        c, s = np.cos(self.theta), np.sin(self.theta)
        m = np.zeros(np.shape(c) + (4, 4))
        m[..., 0, 0] = 1.0
        m[..., 1, 1], m[..., 1, 2] = self.lambda1 * c, -self.lambda1 * s
        m[..., 2, 1], m[..., 2, 2] = self.lambda2 * s, self.lambda2 * c
        m[..., 3, 0], m[..., 3, 3] = self.tau3, self.lambda3
        return m


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
    choi_check >= -1e-9 on the assembled transfer matrix. Each candidate is
    one rng.uniform(-1, 1, size=4) call and one _uniform_theta. Candidates
    are certified _BLOCK at a time by one stacked choi_check; the first
    accepted one is then drawn again by those calls, so the stream, and
    every draw, is the one a candidate-by-candidate loop makes.
    """
    while True:
        state = rng.bit_generator.state
        # row j holds candidate j's five scalar draws, in stream order
        l1, l2, t3, l3, theta = rng.uniform(_BROKEN_LOW, _BROKEN_HIGH, size=(_BLOCK, 5)).T
        block = BrokenPCParams(lambda1=l1, lambda2=l2, theta=math.pi - theta,
                               lambda3=l3, tau3=t3)
        hits = np.flatnonzero(choi_check(block.transfer()) >= -1e-9)
        if hits.size:
            _rewind(rng, state, 5 * int(hits[0]))
            l1, l2, t3, l3 = rng.uniform(-1.0, 1.0, size=4)
            return BrokenPCParams(lambda1=float(l1), lambda2=float(l2),
                                  theta=_uniform_theta(rng),
                                  lambda3=float(l3), tau3=float(t3))


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
    from scipy.special import ndtr, ndtri  # lazy: scipy.special is slow to import

    fa, fb = ndtr(alpha), ndtr(beta)
    u = rng.uniform(fa, fb)
    x = mu + sigma * float(ndtri(u))
    return min(max(x, a), b)


def time_grid(t_max: float, n_steps: int) -> np.ndarray:
    """Geometric grid of n_steps times from T_FIRST to t_max."""
    if t_max <= T_FIRST:
        raise ValueError(f"t_max must exceed {T_FIRST}")
    return np.geomspace(T_FIRST, t_max, n_steps)


@dataclass(frozen=True)
class MeasureSpec:
    """Trajectory-measure parameters around a steady channel.

    Means usually come from a SteadyChannel (from_steady); sigma(t) =
    (C/n)(1/t), t in units of t_J, shrinks the truncated Gaussians toward
    them, and toward lambda1 = 0, where every steady channel has it.
    tau3_rule picks the tau3 interval at each step: 'symmetric' uses
    |tau3| <= 1 - |lambda3| (always CP-safe), 'signed' additionally
    restricts tau3 to the sign of mu_tau3.
    """

    mu_lambda3: float
    mu_tau3: float
    n: int
    times: tuple = field(default=())
    C: float = 1.0
    tau3_rule: str = "symmetric"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.tau3_rule not in _TAU3_RULES:
            raise ValueError(f"tau3_rule must be one of {_TAU3_RULES}")
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValueError("times must be non-empty")
        if times[0] < T_FIRST * (1.0 - 1e-12):
            raise ValueError(f"grid must start at or after {T_FIRST}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def from_steady(cls, steady, times, C: float = 1.0,
                    tau3_rule: str = "symmetric") -> "MeasureSpec":
        return cls(mu_lambda3=float(steady.lambda3), mu_tau3=float(steady.tau3),
                   n=steady.n, times=tuple(times), C=C, tau3_rule=tau3_rule)

    def sigma(self, t: float) -> float:
        if t <= 0:
            raise ValueError("sigma(t) needs t > 0")
        return (self.C / self.n) * (1.0 / t)


def trajectory_sample(spec: MeasureSpec, seed: int) -> list:
    """One trajectory: a PCParams per grid time, nested draws lambda3 ->
    tau3 -> lambda1 from truncated Gaussians of width sigma(t).

    Every emitted triple is completely positive by construction. theta is
    not part of the construction and is set to 0.
    """
    out = []
    streams = SampleStreams(seed)
    for k, t in enumerate(spec.times):
        rng = streams.at(k)
        s = spec.sigma(t)
        l3 = trunc_gauss_sample(spec.mu_lambda3, s, -1.0, 1.0, rng)
        lim = 1.0 - abs(l3)
        if spec.tau3_rule == "signed" and lim > 0.0:
            a, b = (0.0, lim) if spec.mu_tau3 >= 0.0 else (-lim, 0.0)
        else:
            a, b = -lim, lim
        t3 = trunc_gauss_sample(spec.mu_tau3, s, a, b, rng) if lim > 0.0 else 0.0
        top = 0.5 * math.sqrt(max((1.0 + l3) ** 2 - t3 * t3, 0.0))
        l1 = trunc_gauss_sample(0.0, s, 0.0, top, rng) if top > 0.0 else 0.0
        if not cp_contains(l1, t3, l3):
            raise NumericalError("nested truncation emitted a non-CP triple")
        out.append(PCParams(lambda1=l1, theta=0.0, lambda3=l3, tau3=t3))
    return out
