"""Measures over phase-covariant qubit channels.

Geometry of the completely positive region in (lambda1, tau3, lambda3),
uniform and truncated-Gaussian sampling over it, eigenvalue statistics of
the sampled maps (including a minimally broken family with lambda2 !=
lambda1), Monte Carlo volume estimates, and the time-dependent trajectory
construction whose width shrinks as sigma(t) = (C/N)(1/t), t in units of t_J.
The rejection samplers draw one candidate at a time from the generator's raw
doubles; the broken family is pruned by its closed-form Choi margin
(broken_cp_margin) and every accepted draw is certified by choi_check. The
volume draws its raw doubles in fixed row chunks, mapped as rng.uniform maps
them, into one reused column buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import ensemble
from .disorder import SampleStreams
from .network import t_scale
from .qlinalg import NumericalError, Result, check_count
# cp_contains is the CP predicate of reduced (floats or arrays) under this module's name
from .reduced import PCParams, choi_check, cp_ok as cp_contains

_TAU3_RULES = ("symmetric", "signed")
_TWO_PI = 2.0 * math.pi
_SQRT1_2 = math.sqrt(0.5)
_inv_cdf = NormalDist().inv_cdf  # the standard normal's inverse CDF (Wichura's AS241)
# rows drawn at once by volume_mc; the chunk changes no draw or estimate
_VOLUME_CHUNK = 2**14
MIN_VOLUME_SAMPLES = 10**5
# broken_uniform_sample accepts at choi_check >= _CHOI_FLOOR; a candidate
# whose closed-form margin lies more than _MARGIN_BAND below it is rejected
# without the Choi test (the two agree to 1e-14, tests/test_measure.py)
_CHOI_FLOOR = -1e-9
_MARGIN_BAND = 1e-13
# first time of every trajectory grid, in t_J: sigma(t) is largest there
T_FIRST = 0.1


def _uniform_theta(rng: np.random.Generator) -> float:
    # uniform on (-pi, pi]: pi - rng.uniform(0, 2 pi), which numpy computes
    # as 0 + 2 pi u from the raw double u
    return math.pi - (0.0 + _TWO_PI * rng.random())


def uniform_sample(rng: np.random.Generator) -> PCParams:
    """Uniform draw from the CP solid, theta uniform on (-pi, pi].

    Rejection from the bounding box [-1, 1]^3; the sign of the lambda1 draw
    is folded away (the map depends on lambda1 only through the rotation
    block, and we keep lambda1 >= 0). Each candidate is three raw doubles u,
    mapped to -1 + 2u as rng.uniform(-1, 1) maps them (the same draws and
    the same generator state), and tested as Python floats by cp_contains;
    theta is drawn after acceptance.
    """
    while True:
        u1, u2, u3 = rng.random(3).tolist()
        l1, t3, l3 = -1.0 + 2.0 * u1, -1.0 + 2.0 * u2, -1.0 + 2.0 * u3
        if cp_contains(l1, t3, l3):
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


# the CP solid's exact volumes over [-1, 1]^3, in total and by the sign of lambda3
VOLUME_EXACT = {"total": 16.0 / 9.0, "negative": math.pi / 6.0}
VOLUME_EXACT["positive"] = VOLUME_EXACT["total"] - VOLUME_EXACT["negative"]
VOLUME_PULL_LIMIT = 3.0  # volume_check passes where every |pull| is below this


def volume_mc(n: int, seed: int) -> VolumeEstimate:
    """Hit-or-miss volume of the CP solid over [-1, 1]^3, split by sign(lambda3).

    The exact values are 16/9 in total, of which pi/6 lies at lambda3 < 0.
    Each row is three raw doubles u mapped to -1 + 2u, the values of
    rng.uniform(-1, 1, (n, 3)), drawn in chunks of _VOLUME_CHUNK rows and
    counted by cp_contains.
    """
    if n < MIN_VOLUME_SAMPLES:
        raise ValueError(f"n must be at least {MIN_VOLUME_SAMPLES}")
    rng = np.random.default_rng(seed)
    box = 8.0

    def rate_err(k):
        p = k / n
        return box * p, box * math.sqrt(p * (1.0 - p) / n)

    # row chunks of the one n x 3 draw, as contiguous columns of one reused
    # buffer: same rows, integer counts, flat memory. 2u is exact, so
    # -1 + 2u is the value rng.uniform(-1, 1) returns for u
    block = np.empty((3, _VOLUME_CHUNK))
    hits = negs = 0
    for start in range(0, n, _VOLUME_CHUNK):
        m = min(_VOLUME_CHUNK, n - start)
        cols = block[:, :m]
        np.multiply(rng.random((m, 3)).T, 2.0, out=cols)
        cols -= 1.0
        l1, t3, l3 = cols
        hit = cp_contains(l1, t3, l3)
        hits += np.count_nonzero(hit)
        negs += np.count_nonzero(hit & (l3 < 0.0))
    total, total_err = rate_err(hits)
    negative, negative_err = rate_err(negs)
    positive, positive_err = rate_err(hits - negs)
    return VolumeEstimate(total, total_err, negative, negative_err,
                          positive, positive_err, n, seed)


def volume_check(samples: int, seed: int) -> Result:
    """volume_mc(samples, seed) against VOLUME_EXACT: each region's pull, and
    `pass` where every |pull| is below VOLUME_PULL_LIMIT. A statistical
    check: a failed pull is reported in the diagnostics, not a failure."""
    v = volume_mc(samples, seed)
    regions = ("total", "negative", "positive")
    est = [getattr(v, region) for region in regions]
    err = [getattr(v, region + "_err") for region in regions]
    pulls = {region: (e - VOLUME_EXACT[region]) / s if s > 0 else 0.0
             for region, e, s in zip(regions, est, err)}
    columns = [list(regions), est, err, [VOLUME_EXACT[r] for r in regions], list(pulls.values())]
    header = ("region", "estimate", "stderr", "exact", "pull")
    return Result({"data.csv": (header, columns)}, {
        "estimate": v.as_dict(),
        "pulls": pulls,
        "pass": bool(all(abs(p) < VOLUME_PULL_LIMIT for p in pulls.values())),
    })


@dataclass(frozen=True)
class BrokenPCParams:
    """Phase covariance minimally broken: the rotation block carries two radii.

    xy block [[lambda1 cos, -lambda1 sin], [lambda2 sin, lambda2 cos]];
    lambda2 = lambda1 restores the covariant family. Fields are floats, or
    equal-shape arrays for a stack of transfer matrices.
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


def broken_cp_margin(lambda1: float, lambda2: float, tau3: float,
                     lambda3: float) -> float:
    """Minimum Choi eigenvalue of the broken family, in closed form.

    The Choi matrix splits into two 2x2 blocks, on |00>, |11> and on
    |01>, |10>, with eigenvalues (1 + l3 +- hypot(t3, l1 + l2))/4 and
    (1 - l3 +- hypot(t3, l1 - l2))/4. theta drops out: a z-rotation of the
    input is a unitary pre-composition, which leaves the spectrum alone.
    """
    return 0.25 * min(1.0 + lambda3 - math.hypot(tau3, lambda1 + lambda2),
                      1.0 - lambda3 - math.hypot(tau3, lambda1 - lambda2))


def broken_uniform_sample(rng: np.random.Generator) -> BrokenPCParams:
    """Uniform draw of the broken family, CP-certified through the Choi test.

    (lambda1, lambda2, tau3, lambda3) from [-1, 1]^4 and theta uniform:
    five raw doubles per candidate, mapped as uniform_sample and
    _uniform_theta map theirs. Acceptance is choi_check >= -1e-9 on the
    assembled transfer matrix. A candidate whose broken_cp_margin lies
    more than 1e-13 below -1e-9 is rejected without it; any other gets one
    choi_check, which decides it. A Choi rejection of a margin more than
    1e-13 above -1e-9 means the two disagree and raises NumericalError.
    """
    while True:
        u1, u2, u3, u4, u5 = rng.random(5).tolist()
        l1, l2 = -1.0 + 2.0 * u1, -1.0 + 2.0 * u2
        t3, l3 = -1.0 + 2.0 * u3, -1.0 + 2.0 * u4
        margin = broken_cp_margin(l1, l2, t3, l3)
        if margin < _CHOI_FLOOR - _MARGIN_BAND:
            continue
        theta = math.pi - (0.0 + _TWO_PI * u5)  # as _uniform_theta maps its double
        cand = BrokenPCParams(lambda1=l1, lambda2=l2, theta=theta, lambda3=l3, tau3=t3)
        if choi_check(cand.transfer()) >= _CHOI_FLOOR:
            return cand
        if margin > _CHOI_FLOOR + _MARGIN_BAND:
            raise NumericalError(f"Choi test rejects a broken candidate whose "
                                 f"closed-form margin is {margin:.3e}")


def trunc_gauss_sample(mu: float, sigma: float, a: float, b: float,
                       rng: np.random.Generator) -> float:
    """Two-sided truncated Gaussian on [a, b] by inverse CDF: one
    rng.uniform draw between the normal CDF 0.5 erfc(-x/sqrt 2) (math.erfc)
    at the standardised ends, mapped back by statistics.NormalDist().inv_cdf.
    A draw of exactly 0 or 1, which inv_cdf refuses, maps to a or b.

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
    # 0.5 erfc(-x/sqrt 2), not NormalDist().cdf: its 1 + erf form loses the lower tail
    u = rng.uniform(0.5 * math.erfc(-alpha * _SQRT1_2), 0.5 * math.erfc(-beta * _SQRT1_2))
    if not 0.0 < u < 1.0:
        return a if u <= 0.0 else b
    return min(max(mu + sigma * _inv_cdf(u), a), b)


def trajectory_sigma(c: float, n: int, t: float) -> float:
    """sigma(t) = (c/n)(1/t), t in t_J: the trajectory's width, which falls in t."""
    return (c / n) * (1.0 / t)


def time_grid(t_max_tj: float, steps: int) -> np.ndarray:
    """Geometric grid of `steps` times from T_FIRST to t_max_tj."""
    if t_max_tj <= T_FIRST:
        raise ValueError(f"t_max_tj: must exceed {T_FIRST}, got {t_max_tj}")
    check_count(steps, "steps")
    return np.geomspace(T_FIRST, t_max_tj, steps)


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
        if self.tau3_rule not in _TAU3_RULES:
            raise ValueError(f"tau3_rule must be one of {_TAU3_RULES}")
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValueError("times must be non-empty")
        if times[0] < T_FIRST * (1.0 - 1e-12):
            raise ValueError(f"grid must start at or after {T_FIRST}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if not (math.isfinite(trajectory_sigma(self.C, self.n, times[0]))
                and trajectory_sigma(self.C, self.n, times[-1]) > 0.0):  # NaN fails too
            raise ValueError(f"C: must keep sigma(t) = (C/n)/t finite and > 0, got {self.C}")
        object.__setattr__(self, "times", times)

    @classmethod
    def from_steady(cls, steady, times, C: float = 1.0,
                    tau3_rule: str = "symmetric") -> "MeasureSpec":
        return cls(mu_lambda3=float(steady.lambda3), mu_tau3=float(steady.tau3),
                   n=steady.n, times=tuple(times), C=C, tau3_rule=tau3_rule)

    def sigma(self, t: float) -> float:
        if t <= 0:
            raise ValueError("sigma(t) needs t > 0")
        return trajectory_sigma(self.C, self.n, t)


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


def measure_series(spec, z, steady, t_max_tj: float, steps: int, c: float, tau3_rule: str,
                   seed: int, scatter_samples: int, overlay: bool) -> Result:
    """trajectory_sample at `steps` times to t_max_tj around `steady`, the
    exact running average of `spec` from z at those times if `overlay`, and
    scatter_samples eigenvalue draws of each family."""
    times_tj = time_grid(t_max_tj, steps)
    mspec = MeasureSpec.from_steady(steady, times=tuple(times_tj), C=c, tau3_rule=tau3_rule)
    traj = trajectory_sample(mspec, seed)  # refuses non-CP triples itself

    header = ["t_over_tref", "lambda3", "tau3", "lambda1"]
    columns = [times_tj.tolist(), [p.lambda3 for p in traj], [p.tau3 for p in traj],
               [p.lambda1 for p in traj]]
    if overlay:
        # the exact running average at the trajectory's own times
        running = ensemble.SpectralAverage(spec, z)(times_tj * t_scale(spec.j_perp))
        header += ["lambda3_timeavg", "tau3_timeavg"]
        columns += [running[:, 3, 3].tolist(), running[:, 3, 0].tolist()]
    tables = {"data.csv": (header, columns)}

    if scatter_samples > 0:
        rng = np.random.default_rng(seed)
        evs = []  # per draw: the phase-covariant triple, then the broken one
        for _ in range(scatter_samples):
            evs += eigenvalues_pc(uniform_sample(rng))[1:].tolist()
            evs += eigenvalues_broken(broken_uniform_sample(rng))[1:].tolist()
        tables["eigenvalues.csv"] = (("family", "which", "re", "im"), [
            (["pc"] * 3 + ["broken"] * 3) * scatter_samples,
            ["rot+", "rot-", "l3", "mu+", "mu-", "l3"] * scatter_samples,
            [ev.real for ev in evs], [ev.imag for ev in evs]])
    return Result(tables, {
        "mu_lambda3": mspec.mu_lambda3, "mu_tau3": mspec.mu_tau3,
        "sigma_first": mspec.sigma(times_tj[0]),
        "sigma_last": mspec.sigma(times_tj[-1]),
        "all_cp": True,
    })
