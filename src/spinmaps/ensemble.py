"""Averages of reduced maps: over network sites, over time, and over a
staggered-quench ensemble of clusters.

Phase-covariant maps are closed under convex combination, so the entry-wise
mean of transfer matrices is again a valid (and physically meaningful)
channel. Long-time averages of the closed-form families settle on steady
channels whose lambda3/tau3 are polynomials in the elementary symmetric
functions e_k of the environment z values with exact rational coefficients;
those tables live here. `SpectralAverage` gives exact maps and running
averages, of one site or the site average, from one eigendecomposition; its
infinite-time limit is the diagonal ensemble, which the tables reproduce.
Residual oscillations around the steady values decay like t_J/(N t). The bounding constant c, the sup of
|delta| N t/t_J past an onset, comes from `converged_fluctuations` as a
converged number: its tail grid is refined until doubling it moves c by less
than 1% and the grid maximum is certified within 1% of the sup.

Times are absolute throughout; callers divide by network.t_scale(J_perp)
when they want t/t_J units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .network import NetworkSpec, build_hamiltonian, isotropic
from .qlinalg import HERM_TOL, PAULI_AXES, HermitianEvolver, NumericalError, embed, pauli
from .reduced import _env_inputs, transfer_from_unitary

# Default field-to-coupling ratio used when a "generic" (incommensurate)
# uniform field is needed: irrational, so the precession phase never locks
# to the coupling frequencies and the time-averaged lambda1 vanishes.
GENERIC_H_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


def esym(z, k: int):
    """Elementary symmetric polynomial e_k of the values z.

    Stable one-pass recurrence (coefficients of prod(x + z_i)), no subset
    enumeration. e_0 = 1. Exact when fed Fractions or ints; floats stay
    floats.
    """
    vals = tuple(z)
    if not 0 <= k <= len(vals):
        raise ValueError(f"k={k} out of range for {len(vals)} values")
    e = [1] + [0] * k
    for v in vals:
        for j in range(k, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[k]


def network_average(maps) -> np.ndarray:
    """Entry-wise mean of m transfer matrices, or of m equal-shape stacks:
    (m, ..., 4, 4) gives (..., 4, 4)."""
    stack = np.asarray(list(maps), dtype=float)
    if stack.size == 0:
        raise ValueError("need at least one map to average")
    if stack.ndim < 3 or stack.shape[-2:] != (4, 4):
        raise ValueError(f"expected shape (m, ..., 4, 4), got {stack.shape}")
    return stack.mean(axis=0)


def time_average(times, transfers) -> np.ndarray:
    """Running trapezoidal mean of a transfer-matrix series.

    times must be a uniform grid starting at 0; entry k of the result is
    (1/t_k) * integral_0^{t_k} of the series. Entry 0 is the series head.
    The averaged transverse block is read off as lambda1_bar =
    hypot(avg[1, 1], avg[2, 1]); averaging never mixes the z sector in.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(transfers, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need a 1-d time grid with at least 2 points")
    if t[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    dt = np.diff(t)
    if np.any(dt <= 0) or np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
        raise ValueError("time grid must be uniform and increasing")
    if y.shape != (t.size, 4, 4):
        raise ValueError(f"expected transfers of shape ({t.size}, 4, 4), got {y.shape}")
    segments = 0.5 * (y[1:] + y[:-1]) * dt[:, None, None]
    out = np.empty_like(y)
    out[0] = y[0]
    out[1:] = np.cumsum(segments, axis=0) / t[1:, None, None]
    return out


def network_series(spec: NetworkSpec, z, times) -> np.ndarray:
    """Site-averaged transfer matrix at each time in `times`, shape (T, 4, 4).

    z lists all N site polarizations in absolute site order; each site is focal
    once, the others its diagonal environment. One unitary per time; only
    `steady` still uses it, as time_average(times, network_series(...)).
    """
    n = spec.n
    z = [float(v) for v in z]
    if len(z) != n:
        raise ValueError(f"need {n} site values, got {len(z)}")
    envs = [[(0.0, 0.0, z[k]) for k in range(n) if k != s] for s in range(n)]
    evolver = HermitianEvolver(build_hamiltonian(spec))
    out = np.empty((len(times), 4, 4))
    for k, t in enumerate(times):
        u = evolver.unitary(t)
        out[k] = network_average([transfer_from_unitary(u, s, envs[s]) for s in range(n)])
    return out


# Spectral terms whose whole 4x4 amplitude stays below this are dropped:
# charge conservation makes most eigenpair amplitudes vanish up to roundoff.
_AMPLITUDE_FLOOR = 1e-15
# Complex weights evaluated per block of horizons (bounds the working memory).
_WEIGHTS_PER_BLOCK = 1 << 20
# Gaps below this fraction of max(1, spectral width) count as degenerate.
_DEGEN_TOL = 1e-9


class SpectralAverage:
    """Exact maps and running averages of the transfer matrix averaged over
    `sites` (default: all N; sites=(0,) is site 0 alone).

    One eigendecomposition H = sum_k E_k |k><k| writes every entry as
    sum_{k,l} C_kl e^{-i w_kl t} with gaps w_kl = E_k - E_l; C takes 16 * 4^N
    complex numbers (16 MB at N=8). Its running mean over [0, T] is then
    sum_{k,l} C_kl (1 - e^{-i w_kl T}) / (i w_kl T): no unitary per time, no
    grid and no quadrature error. Gaps within _DEGEN_TOL * max(1, spectral
    width) of 0 count as degenerate and get weight 1 at every T; together
    they make up `limit`, the infinite-time (diagonal-ensemble) channel.

    z lists all N site polarizations in absolute site order; each site in
    `sites` is focal once, with the others as its diagonal environment. The
    non-degenerate terms are kept once per pair k < l: `gaps` (G,) and
    `amplitudes` (G, 4, 4) complex, so that `maps` (the instantaneous map) is
    limit + 2 Re sum_g amplitudes[g] e^{-i gaps[g] t}.
    """

    def __init__(self, spec: NetworkSpec, z, sites=None):
        n = spec.n
        z = [float(v) for v in z]
        if len(z) != n:
            raise ValueError(f"need {n} site values, got {len(z)}")
        sites = range(n) if sites is None else tuple(sites)
        if not sites or any(not 0 <= s < n for s in sites):
            raise ValueError(f"sites must be a non-empty subset of 0..{n - 1}, got {sites}")
        evolver = HermitianEvolver(build_hamiltonian(spec))
        energies, modes = evolver.energies, evolver.modes

        coef = np.zeros(modes.shape + (4, 4), dtype=complex)
        for site in sites:
            env = [(0.0, 0.0, z[s]) for s in range(n) if s != site]
            outs = np.stack([modes.conj().T @ embed(pauli(ax), site, n) @ modes
                             for ax in PAULI_AXES])
            ins = np.stack([modes.conj().T @ op @ modes
                            for op in _env_inputs(n, site, env)])
            # 0.5 tr(sigma_i U X_j U^dag) = 0.5 sum_kl (O_i)_lk (X_j)_kl e^{-i w_kl t}
            coef += np.einsum("ilk,jkl->klij", outs, ins)
        coef *= 0.5 / len(sites)

        gaps = energies[:, None] - energies[None, :]
        self._degen_tol = _DEGEN_TOL * max(1.0, float(np.ptp(energies)))
        degenerate = np.abs(gaps) <= self._degen_tol
        limit = coef[degenerate].sum(axis=0)
        if not np.max(np.abs(limit.imag)) <= HERM_TOL:  # NaN fails too
            raise NumericalError("time-averaged map has complex transfer entries")
        pairs = np.triu(~degenerate, k=1)
        pairs &= np.max(np.abs(coef), axis=(2, 3)) > _AMPLITUDE_FLOOR
        self.limit = limit.real.copy()
        self.gaps = gaps[pairs]
        self.amplitudes = coef[pairs]

    def _series(self, times, weight) -> np.ndarray:
        """limit + 2 Re sum_g weight(t gaps[g]) amplitudes[g] at each t in `times`."""
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or np.any(t < 0.0):
            raise ValueError("times must be a 1-d array of values >= 0")
        flat = self.amplitudes.reshape(-1, 16)
        out = np.empty((t.size, 4, 4))
        block = max(1, _WEIGHTS_PER_BLOCK // max(1, self.gaps.size))
        for a in range(0, t.size, block):
            x = np.multiply.outer(t[a:a + block], self.gaps)
            out[a:a + block] = self.limit + 2.0 * (weight(x) @ flat).real.reshape(-1, 4, 4)
        return out

    def __call__(self, times) -> np.ndarray:
        """Running averages (1/T) int_0^T, shape (len(times), 4, 4); T = 0
        gives the map at t = 0. The weight (1 - e^{-ix}) / (ix) stays finite at x = 0."""
        return self._series(times, lambda x: np.exp(-0.5j * x) * np.sinc(x / (2.0 * np.pi)))

    def maps(self, times) -> np.ndarray:
        """Instantaneous maps at each time in `times`, shape (len(times), 4, 4)."""
        return self._series(times, lambda x: np.exp(-1j * x))

    def curvature(self) -> np.ndarray:
        """Entry-wise bound 2 sum_w w |sum_{g: |gaps[g]| = w} amplitudes[g]| on
        the rate of change of the instantaneous map, i.e. on |d^2/dT^2 (T avg(T))|.
        Gaps equal within the tolerance of `limit` are one frequency w, their
        largest: eigenpairs at equal gaps cancel where a symmetry pins an entry."""
        order = np.argsort(np.abs(self.gaps), kind="stable")
        freqs = np.abs(self.gaps[order])
        starts = np.flatnonzero(np.diff(freqs, prepend=-np.inf) > self._degen_tol)
        summed = np.add.reduceat(self.amplitudes[order], starts, axis=0)
        top = np.maximum.reduceat(freqs, starts)
        return 2.0 * np.einsum("g,gij->ij", top, np.abs(summed))


# ---------------------------------------------------------------------------
# Steady channels
# ---------------------------------------------------------------------------

_F = Fraction

# lambda3_inf = a_0 + sum_k a_k e_k / C(N, k) over even k >= 2;
# tau3_inf = (1 - a_0) e_1 / N - sum_k a_k e_{k+1} / C(N, k+1).
_STEADY_COMPLETE = {
    3: {0: _F(5, 9)},
    4: {0: _F(7, 16), 2: _F(3, 16)},
    5: {0: _F(7, 15), 2: _F(16, 75)},
    6: {0: _F(59, 144), 2: _F(5, 12), 4: _F(-5, 48)},
}
_STEADY_RING5 = {0: _F(71, 225), 2: _F(2, 45)}
# Ring N=4 does not fit the pattern: the e_2 term is corrected by the two
# antipodal pairs, and the e_3 term enters with the opposite sign.
_STEADY_RING4 = {0: _F(7, 16), 2: _F(3, 16)}


@dataclass(frozen=True)
class SteadyChannel:
    """Late-time network-and-time-averaged channel: lambda1 -> 0, z sector
    fixed by exact rational polynomials in the environment e_k."""

    n: int
    coeffs: dict
    lambda3: float
    tau3: float
    lambda3_exact: Fraction
    tau3_exact: Fraction
    e1: Fraction  # sum of the z values

    def constraint_ok(self) -> bool:
        """tau +/- lambda = +/-1 must hold exactly at z_i all +/-1."""
        if self.e1 == self.n:
            return self.tau3_exact + self.lambda3_exact == 1
        if self.e1 == -self.n:
            return self.tau3_exact - self.lambda3_exact == -1
        return True


def _general_steady(n: int, coeffs: dict, e):
    lam = coeffs[0]
    tau = (1 - coeffs[0]) * e[1] / n
    for k, a_k in coeffs.items():
        if k == 0:
            continue
        lam = lam + a_k * e[k] / math.comb(n, k)
        tau = tau - a_k * e[k + 1] / math.comb(n, k + 1)
    return lam, tau


class UnsupportedNetwork(ValueError):
    """A network that no closed form or exact steady table covers."""


def steady_table(spec: NetworkSpec) -> dict:
    """The rational coefficient table of the network `spec`.

    Tables exist for the complete graph with N = 3..6 (the 3-ring among
    them), the ring with N = 4, and the ring with N = 5 at the isotropic
    point J_par = J_perp, each with exchange (J_perp != 0: without it
    nothing relaxes). Any other network raises UnsupportedNetwork.
    """
    if spec.j_perp == 0:
        raise UnsupportedNetwork("no steady table without exchange (J_perp = 0)")
    family, n = spec.family, spec.n
    if family == "complete" and n in _STEADY_COMPLETE:
        return _STEADY_COMPLETE[n]
    if family == "ring" and n == 4:
        return _STEADY_RING4
    if family == "ring" and n == 5:
        if not isotropic(spec.j_perp, spec.j_par):
            raise UnsupportedNetwork("ring N=5 steady table holds at the isotropic point only")
        return _STEADY_RING5
    raise UnsupportedNetwork(f"no steady table for ({family}, N={n})")


def steady_channel(spec: NetworkSpec, z) -> SteadyChannel:
    """Steady-channel values of a network that has a steady_table.

    z lists all N site polarizations (absolute site order; for the N=4 ring
    the antipodal pairs are (z[0], z[2]) and (z[1], z[3])). Arithmetic runs
    in exact rationals.
    """
    coeffs = steady_table(spec)
    n = spec.n
    zf = [Fraction(v) for v in z]
    if len(zf) != n:
        raise ValueError(f"need {n} site values, got {len(zf)}")
    e = [esym(zf, k) for k in range(n + 1)]

    if spec.family == "ring" and n == 4:
        pair_corr = e[2] - 4 * (zf[0] * zf[2] + zf[1] * zf[3])
        lam = coeffs[0] + coeffs[2] * pair_corr / 6
        tau = (1 - coeffs[0]) * e[1] / 4 + _F(1, 16) * e[3] / 4
    else:
        lam, tau = _general_steady(n, coeffs, e)

    return SteadyChannel(
        n=n,
        coeffs=dict(coeffs),
        lambda3=float(lam),
        tau3=float(tau),
        lambda3_exact=lam,
        tau3_exact=tau,
        e1=e[1],
    )


# ---------------------------------------------------------------------------
# Fluctuations around the steady channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FluctuationSeries:
    """Relative deviations of running averages from their steady values.

    delta's are (avg - steady)/steady when the steady value is nonzero
    (normalized flag True), absolute deviations otherwise. c_* is the
    bounding constant: sup of |delta| * N * t/t_J over the tail
    t > onset * t_J, so |delta| <= c t_J/(N t) there.

    c_* is a converged sup, read off the exact running average on a tail
    grid of `points_per_tj` points per t_J. `rel_change` is the larger
    relative move of the two constants when that grid was last doubled, and
    `sup_gap` bounds how far, relative to c_*, the true sup can lie above
    the grid maximum.
    """

    t_over_tj: np.ndarray
    delta_lambda3: np.ndarray
    delta_tau3: np.ndarray
    c_lambda3: float
    c_tau3: float
    lambda3_normalized: bool
    tau3_normalized: bool
    n: int
    onset: float
    points_per_tj: float
    rel_change: float
    sup_gap: float


def _deviation(series, steady_exact, steady_float):
    if steady_exact == 0:
        return series.copy(), False
    return (series - steady_float) / steady_float, True


def _bound_constants(t_over_tj, avg, steady: SteadyChannel):
    """(c_lambda3, c_tau3): max of |delta| * N * t/t_J over the samples."""
    d_lam, _ = _deviation(avg[:, 3, 3], steady.lambda3_exact, steady.lambda3)
    d_tau, _ = _deviation(avg[:, 3, 0], steady.tau3_exact, steady.tau3)
    scale = steady.n * t_over_tj
    return (float(np.max(np.abs(d_lam) * scale)),
            float(np.max(np.abs(d_tau) * scale)))


# Relative tolerance to which fluctuation constants are converged, and the
# most grid doublings spent on reaching it (the tail grid is evaluated whole,
# so this also caps its memory at 64x that of the starting grid).
FLUCT_RTOL = 0.01
_MAX_DOUBLINGS = 6


def _rel_change(new: float, old: float) -> float:
    if new == old:
        return 0.0
    return abs(new - old) / max(abs(new), abs(old))


def _rel_excess(slack: float, value: float) -> float:
    if slack == 0.0:
        return 0.0
    return slack / value if value > 0.0 else math.inf


def converged_fluctuations(average: SpectralAverage, steady: SteadyChannel,
                           t_j: float, times,
                           onset: float = 20.0) -> FluctuationSeries:
    """Fluctuation series on `times` with bounding constants converged in
    the grid step.

    The deltas are those of the exact running average at `times`, a uniform
    grid from 0 whose last point is the horizon. c_* is the sup over
    [onset * t_J, horizon] (the closure of the tail; the average is
    continuous, so the sup is the same), read off a uniform tail grid that
    starts at the step of `times` and is doubled until c_* is converged:

    - doubling the grid moved neither constant by FLUCT_RTOL or more, and
    - the grid maximum is certified within FLUCT_RTOL of the sup. |delta| t
      is |h(t)| / |steady| with |h''| <= K = average.curvature(), so between
      two grid points |h| exceeds the larger endpoint by at most K dt^2/8.

    The doubling test alone can stop early: refined grids contain the
    coarse ones, and on a nearly periodic envelope they can keep missing
    the same peak. After _MAX_DOUBLINGS without convergence the result is
    returned as it stands, with rel_change or sup_gap >= FLUCT_RTOL, and
    the caller decides.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2 or t[0] != 0.0:
        raise ValueError("times must be a 1-d grid from t = 0 with at least 2 points")
    if t_j <= 0:
        raise ValueError("t_j must be positive")
    if not np.any(t / t_j > onset):
        raise ValueError(f"series ends before the onset {onset} t_J; extend the grid")
    avg = average(t)
    d_lam, lam_norm = _deviation(avg[:, 3, 3], steady.lambda3_exact, steady.lambda3)
    d_tau, tau_norm = _deviation(avg[:, 3, 0], steady.tau3_exact, steady.tau3)
    horizon, start = float(t[-1]), onset * t_j
    segments = max(1, math.ceil((horizon - start) / (t[1] - t[0]) - 1e-9))
    scale_l3 = abs(steady.lambda3) if lam_norm else 1.0
    scale_t3 = abs(steady.tau3) if tau_norm else 1.0
    curv = average.curvature()
    # how far |delta| N t/t_J can rise above its grid maximum, per dt^2
    excess = (steady.n * curv[3, 3] / (8.0 * t_j * scale_l3),
              steady.n * curv[3, 0] / (8.0 * t_j * scale_t3))
    consts = change = None
    for level in range(_MAX_DOUBLINGS + 1):
        if level:
            segments *= 2
        grid = np.linspace(start, horizon, segments + 1)
        new = _bound_constants(grid / t_j, average(grid), steady)
        if consts is not None:
            change = max(_rel_change(a, b) for a, b in zip(new, consts))
        consts = new
        step = (horizon - start) / segments
        gap = max(_rel_excess(e * step * step, c) for e, c in zip(excess, consts))
        if change is not None and change < FLUCT_RTOL and gap < FLUCT_RTOL:
            break
    return FluctuationSeries(
        t_over_tj=t / t_j, delta_lambda3=d_lam, delta_tau3=d_tau,
        c_lambda3=consts[0], c_tau3=consts[1], lambda3_normalized=lam_norm,
        tau3_normalized=tau_norm, n=steady.n, onset=onset,
        points_per_tj=segments * t_j / (horizon - start), rel_change=change, sup_gap=gap)


# ---------------------------------------------------------------------------
# Staggered-quench ensemble
# ---------------------------------------------------------------------------


def quench_demo(average: SpectralAverage, schedule, t_eval: float, t_j: float) -> np.ndarray:
    """Cluster-averaged 4x4 reduced map of a staggered-quench ensemble.

    One identical cluster per switch-on time in `schedule`, each idle until
    its own switch-on and then driven by its Hamiltonian; `average` is the
    cluster's SpectralAverage of site 0, the focal site, and t_j its exchange
    time. The pre-quench segment only rotates the focal spin about z and
    leaves its diagonal partners untouched, so each cluster contributes
    average.maps at its elapsed time t_eval - t_on, or the identity while
    its quench lies ahead. Over a window much longer than t_J the result
    approaches the running average average([t_eval]) of one always-on
    cluster, up to O(t_J/window) discretization.
    """
    schedule = np.asarray(schedule, dtype=float)
    if schedule.ndim != 1 or schedule.size == 0:
        raise ValueError("schedule must list one switch-on time per cluster")
    window = float(schedule.max() - schedule.min())
    if schedule.size > 1 and window < t_j:
        warnings.warn(
            "switch-on times span less than one t_J; the cluster average "
            "will not resemble a time average", stacklevel=2)
    elapsed = t_eval - schedule
    maps = average.maps(np.maximum(elapsed, 0.0))
    maps[elapsed <= 0.0] = np.eye(4)  # quench still in the future for these clusters
    return maps.mean(axis=0)
