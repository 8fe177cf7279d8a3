"""Measures over phase-covariant qubit channels.

Geometry of the completely positive region in (lambda1, tau3, lambda3),
uniform and truncated-Gaussian sampling over it, eigenvalue statistics of
the sampled maps (including a minimally broken family with lambda2 !=
lambda1), Monte Carlo volume estimates, and the time-dependent trajectory
construction whose width shrinks as sigma(t) = (C/N)(1/t), t in units of t_J.
The rejection samplers draw one candidate at a time from the generator's raw
doubles; the broken family is pruned by its closed-form Choi margin
(broken_cp_margin) and every accepted draw is certified by choi_check.
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

    # row chunks of the one n x 3 draw, read as contiguous columns: same
    # rows, integer counts, flat memory
    hits = negs = 0
    for start in range(0, n, _VOLUME_CHUNK):
        rows = rng.uniform(-1.0, 1.0, size=(min(_VOLUME_CHUNK, n - start), 3))
        l1, t3, l3 = rows.T.copy()
        hit = cp_contains(l1, t3, l3)
        hits += np.count_nonzero(hit)
        negs += np.count_nonzero(hit & (l3 < 0.0))
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
    """Two-sided truncated Gaussian on [a, b] by inverse CDF (_ndtr and
    _ndtri, equal to scipy.special's ndtr and ndtri bit for bit).

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
    u = rng.uniform(_ndtr(alpha), _ndtr(beta))
    x = mu + sigma * _ndtri(u)
    return min(max(x, a), b)


# Normal CDF and its inverse on Python floats: a port of Cephes' ndtr.c and
# ndtri.c (Cephes Math Library, Copyright 1984-2000 Stephen L. Moshier), the
# algorithms behind scipy.special.ndtr and ndtri. Same coefficient tables and
# the same Horner order as Cephes' polevl (p1evl: leading coefficient 1, not
# stored), unrolled per table, so every result equals scipy's bit for bit
# (tests/test_measure.py).

# erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8, R(x)/S(x) for x >= 8
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
# erf(x) = x T(x^2)/U(x^2) for |x| <= 1
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)

# ndtri: y - 1/2 for |y - 1/2| < 1/2 - e^-2 (P0/Q0); with z = sqrt(-2 log y),
# 2 <= z < 8 (P1/Q1) and 8 <= z < 64 (P2/Q2)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT1_2 = 0.70710678118654752440


def _erfc(x: float) -> float:
    # for x >= sqrt(1/2), the only arguments _ndtr passes (Cephes' erfc also
    # takes x < 0, as 2 - erfc(-x))
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0  # underflow
    z = math.exp(z)
    if x < 8.0:
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = _ERFC_P
        q1, q2, q3, q4, q5, q6, q7, q8 = _ERFC_Q
        p = (((((((p0 * x + p1) * x + p2) * x + p3) * x + p4) * x + p5) * x + p6) * x
             + p7) * x + p8
        q = (((((((x + q1) * x + q2) * x + q3) * x + q4) * x + q5) * x + q6) * x
             + q7) * x + q8
    else:
        r0, r1, r2, r3, r4, r5 = _ERFC_R
        s1, s2, s3, s4, s5, s6 = _ERFC_S
        p = ((((r0 * x + r1) * x + r2) * x + r3) * x + r4) * x + r5
        q = (((((x + s1) * x + s2) * x + s3) * x + s4) * x + s5) * x + s6
    return (z * p) / q  # 0.0 when it underflows, as Cephes returns


def _erf(x: float) -> float:
    # for |x| < 1, the only arguments _ndtr and _erfc pass; Cephes' -erf(-x)
    # for x < 0 equals this expression bit for bit
    z = x * x
    t0, t1, t2, t3, t4 = _ERF_T
    u1, u2, u3, u4, u5 = _ERF_U
    return (x * ((((t0 * z + t1) * z + t2) * z + t3) * z + t4)
            / (((((z + u1) * z + u2) * z + u3) * z + u4) * z + u5))


def _ndtr(a: float) -> float:
    """Standard normal CDF, Cephes ndtr (equal to scipy.special.ndtr)."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF, Cephes ndtri (equal to
    scipy.special.ndtri): -inf at 0, inf at 1, nan outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        p0, p1, p2, p3, p4 = _NDTRI_P0
        q1, q2, q3, q4, q5, q6, q7, q8 = _NDTRI_Q0
        p = (((p0 * y2 + p1) * y2 + p2) * y2 + p3) * y2 + p4
        q = (((((((y2 + q1) * y2 + q2) * y2 + q3) * y2 + q4) * y2 + q5) * y2 + q6) * y2
             + q7) * y2 + q8
        x = y + y * (y2 * p / q)
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = _NDTRI_P1 if x < 8.0 else _NDTRI_P2
    q1, q2, q3, q4, q5, q6, q7, q8 = _NDTRI_Q1 if x < 8.0 else _NDTRI_Q2
    p = (((((((p0 * z + p1) * z + p2) * z + p3) * z + p4) * z + p5) * z + p6) * z
         + p7) * z + p8
    q = (((((((z + q1) * z + q2) * z + q3) * z + q4) * z + q5) * z + q6) * z
         + q7) * z + q8
    x = x0 - z * p / q
    return -x if negate else x


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
