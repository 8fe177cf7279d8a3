"""Averages of reduced maps: over network sites, over time, and over a
staggered-quench ensemble of clusters.

Phase-covariant maps are closed under convex combination, so the entry-wise
mean of transfer matrices is again a valid (and physically meaningful)
channel. Long-time averages settle on steady channels whose lambda3 and
tau3 are exact polynomials in the site z values, one table each, of the form
{orbit: coefficient}: a coefficient multiplies the mean of prod_{i in S} z_i
over the site subsets S of one orbit of the network's symmetry (all
k-subsets, named k, or a ring orbit, named by its smallest member). Those
tables live here, the complete graph's derived at any N from its
collective-spin blocks. `SpectralAverage` gives exact maps and running
averages from eigenpairs, the dense engine's or a closed form's; its
infinite-time limit is the diagonal ensemble, which the tables reproduce.
Residual oscillations around the steady values decay like t_J/(N t). The
bounding constant c, the sup of |delta| N t/t_J past an onset, comes from
`converged_fluctuations` as a converged number: its tail grid is refined
until doubling it moves c by less than 1% and the grid maximum is certified
within 1% of the sup.

Times are absolute throughout; callers divide by network.t_scale(J_perp)
when they want t/t_J units.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import reduced
from .network import NetworkSpec, build_hamiltonian, isotropic, norm_bound, t_scale
from .qlinalg import (HERM_TOL, PAULI_AXES, HermitianEvolver, NumericalError, Result,
                      check_count, embed, pauli, roundoff_budget)
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


def uniform_grid(t_j: float, span_tj: float, points_per_tj: float, name: str = "t_max_tj"):
    """round(span_tj points_per_tj) + 1 even times from 0 to span_tj t_J; a
    count no array holds raises ValueError naming `name` and points_per_tj."""
    check_count(span_tj * points_per_tj, f"{name} * points_per_tj")
    return np.linspace(0.0, span_tj * t_j, int(round(span_tj * points_per_tj)) + 1)


_BUDGET_MARGIN = 4  # how far under its tolerance the budget of steady or fluct must lie


def _averaging_grid(spec, horizon_tj, points_per_tj, tol, name, command, onset_tj=None):
    """(t_J, grid to horizon_tj, budget eps ||H|| t_max) of a steady or fluct
    run: 2 points at least, and for fluct one past onset_tj. UnsupportedNetwork
    where the budget is not below tol/_BUDGET_MARGIN, tol named `name`."""
    t_j = t_scale(spec.j_perp)
    times = uniform_grid(t_j, horizon_tj, points_per_tj, "horizon_tj")
    if times.size < 2:
        raise ValueError(f"horizon_tj: must exceed half a grid step, got {horizon_tj}")
    if onset_tj is not None and not np.any(times / t_j > onset_tj):
        raise ValueError(f"onset_tj: must be below horizon_tj, got {onset_tj}")
    budget = roundoff_budget(norm_bound(spec), float(times[-1]))
    if not budget < tol / _BUDGET_MARGIN:
        raise UnsupportedNetwork(
            f"roundoff budget eps ||H|| t_max = {budget:.2e}, set by n, h, j_perp, j_par and "
            f"horizon_tj, is not below {name}/{_BUDGET_MARGIN} = {tol / _BUDGET_MARGIN:g}: "
            f"{command} cannot hold its {name} {tol:g} here")
    return t_j, times, budget


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


# Spectral terms whose 4x4 amplitude has a norm below this are dropped:
# charge conservation makes most eigenpair amplitudes vanish up to roundoff.
_AMPLITUDE_FLOOR = 1e-15
# Complex weights evaluated per block of horizons (bounds the working memory).
_WEIGHTS_PER_BLOCK = 1 << 20
# Gaps within this times max(1, spectral width) of each other are one frequency.
_GAP_ROUNDOFF = 16 * np.finfo(float).eps
# Gaps below this fraction of max(1, spectral width) count as degenerate.
_DEGEN_TOL = 1e-9


class SpectralAverage:
    """Exact maps and running averages of a transfer matrix given over
    eigenpairs, sum_{k,l} C_kl e^{-i (E_k - E_l) t}.

    The constructor is the dense engine: one eigendecomposition of spec's H,
    the map averaged over `sites` (default all N; (0,) is site 0 alone), each
    focal once with the others, of polarizations z in site order, as its
    diagonal environment; C takes 16 * 4^N complex numbers (16 MB at N=8).
    from_eigenpairs takes blocks of eigenpairs, as `analytic` derives them.

    Both reduce the terms once, to `gaps` (G,) <= 0 and `amplitudes` (G, 4,
    4): maps(t) = 2 Re sum_g amplitudes[g] e^{-i gaps[g] t}, and the running
    mean over [0, T] weighs each term by (1 - e^{-i g T}) / (i g T), with no
    grid and no quadrature error. Two tolerances, times max(1, spectral
    width): gaps within _GAP_ROUNDOFF of each other differ by roundoff and
    are one frequency, at their mean; gaps within _DEGEN_TOL of 0 make up
    `limit`, the infinite-time (diagonal-ensemble) channel, and decide
    nothing else: maps and running averages keep every resolved gap.
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
        modes = evolver.modes
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
        self._reduce(evolver.energies[None], coef[None])

    @classmethod
    def from_eigenpairs(cls, energies, coef) -> "SpectralAverage":
        """The value of blocks of eigenpairs: energies (B, K) and coef[b, k, l]
        (B, K, K, 4, 4) the C_kl of block b, Hermitian; only k <= l is read."""
        average = cls.__new__(cls)
        average._reduce(np.asarray(energies, dtype=float), np.ascontiguousarray(coef, complex))
        return average

    def _reduce(self, energies, coef):
        diagonal = np.einsum("bkkij->ij", coef)  # the levels' own terms, at gap 0
        if not np.max(np.abs(diagonal.imag)) <= HERM_TOL:  # NaN fails too
            raise NumericalError("time-averaged map has complex transfer entries")
        parts = coef.view(float).reshape(coef.shape[:3] + (32,))
        pairs = np.flatnonzero(np.triu(np.einsum("bklp,bklp->bkl", parts, parts)
                                       > _AMPLITUDE_FLOOR ** 2, k=1))
        # a pair k < l stands for (l, k) too, at -g with the conjugate amplitude, so
        # 2 Re counts it twice: flipped to g <= 0, and the levels' own terms halved
        gaps = np.append((energies[:, :, None] - energies[:, None, :]).ravel()[pairs], 0.0)
        amps = np.concatenate([coef.reshape(-1, 4, 4)[pairs], [0.5 * diagonal]])
        np.conjugate(amps, out=amps, where=(gaps > 0.0)[:, None, None])
        order = np.argsort(np.abs(gaps), kind="stable")
        gaps, amps = -np.abs(gaps[order]), amps[order]
        width = max(1.0, float(np.ptp(energies)))
        starts = np.flatnonzero(np.diff(gaps, prepend=np.inf) < -_GAP_ROUNDOFF * width)
        self.gaps = np.add.reduceat(gaps, starts) / np.diff(starts, append=gaps.size)
        self.amplitudes = np.add.reduceat(amps, starts, axis=0)
        degenerate = np.abs(self.gaps) <= _DEGEN_TOL * width
        self.limit = 2.0 * self.amplitudes[degenerate].sum(axis=0).real

    def _series(self, times, weight) -> np.ndarray:
        """2 Re sum_g weight(t gaps[g]) amplitudes[g] at each t in `times`, a
        time or an array of times: shape np.shape(times) + (4, 4)."""
        t = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise ValueError("times must be finite values >= 0")
        out = np.empty((t.size, 16))
        block = max(1, _WEIGHTS_PER_BLOCK // self.gaps.size)
        for a in range(0, t.size, block):
            x = np.multiply.outer(t.ravel()[a:a + block], self.gaps)
            out[a:a + block] = 2.0 * (weight(x) @ self.amplitudes.reshape(-1, 16)).real
        return out.reshape(t.shape + (4, 4))

    def __call__(self, times) -> np.ndarray:
        """Running averages (1/T) int_0^T at each horizon T in `times`; T = 0
        gives the map at t = 0. The weight (1 - e^{-ix}) / (ix) stays finite at x = 0."""
        return self._series(times, lambda x: np.exp(-0.5j * x) * np.sinc(x / (2.0 * np.pi)))

    def maps(self, times) -> np.ndarray:
        """Instantaneous maps at each time in `times`."""
        return self._series(times, lambda x: np.exp(-1j * x))

    def curvature(self) -> np.ndarray:
        """Entry-wise bound 2 sum_g |gaps[g]| |amplitudes[g]| on the rate of
        change of the instantaneous map, i.e. on |d^2/dT^2 (T avg(T))|."""
        return 2.0 * np.einsum("g,gij->ij", np.abs(self.gaps), np.abs(self.amplitudes))


# ---------------------------------------------------------------------------
# Steady channels
# ---------------------------------------------------------------------------

_F = Fraction

# (lambda3_inf, tau3_inf) of the rings, as {orbit: coefficient} (steady_tables)
_STEADY_RING = {
    4: ({0: _F(7, 16), 2: _F(3, 16), (0, 2): _F(-1, 4)}, {1: _F(9, 16), 3: _F(1, 16)}),
    5: ({0: _F(71, 225), 2: _F(2, 45)}, {1: _F(154, 225), 3: _F(-2, 45)}),
}


@functools.cache
def collective_blocks(n: int) -> tuple:
    """The blocks of one focal site on the complete graph of n sites, exact.

    There H = 2h S_z + J_perp (S^2 - S_z^2) + J_par S_z^2 + const, with
    levels E(J, M) = J_perp J(J+1) + (J_par - J_perp) M^2 + 2hM (Dicke,
    Phys. Rev. 93, 99 (1954)). H and the focal Paulis commute with the
    partners' permutations, so the partners' diagonal state can be averaged
    over them: every basis state with `up` of the n - 1 partners up gets
    P(up) / C(n-1, up), P the Poisson-binomial law of that count. Split by
    partner spin J', with d(J') copies, and M' = up - (n-1)/2, the focal
    spin up or down couples to J = J' +- 1/2 at total M = M' +- 1/2.

    One entry (up, weight, J', u, v) per (J', M'): weight = d(J') / C(n-1,
    up), and u, v the squared Clebsch-Gordan weights (J' +- M + 1/2) /
    (2J' + 1) of J = J' + 1/2 in |up>|J', M'> and in |down>|J', M'>.
    """
    m = n - 1
    blocks = []
    for two_j in range(m, -1, -2):
        j, low = _F(two_j, 2), (m - two_j) // 2  # low: the fewest partners up at spin J'
        copies = math.comb(m, low) - (math.comb(m, low - 1) if low else 0)
        for up in range(low, m - low + 1):
            mp = up - _F(m, 2)
            blocks.append((up, _F(copies, math.comb(m, up)), j,
                           (j + mp + 1) / (2 * j + 1), (j - mp + 1) / (2 * j + 1)))
    return tuple(blocks)


@functools.cache
def _complete_table(n: int) -> tuple:
    """The complete graph's (lambda3_inf, tau3_inf) tables, from the time-
    independent part of the z block: the focal spin flips at the one gap
    J_perp (2J'+1) != 0 per block, so a block keeps 1 - 2 (u(1-u) + v(1-v))
    of lambda3 and 2 (v(1-v) - u(1-u)) of tau3. At uniform polarization x,
    orbit k's mean is x^k: its coefficient is the block sum's x^k one."""
    polys = ([_F(0)] * n, [_F(0)] * n)
    for up, weight, _, u, v in collective_blocks(n):
        law = [weight * math.comb(n - 1, up)]
        # times ((1 + x)/2)^up ((1 - x)/2)^(n-1-up): the binomial law at x
        for sign in [1] * up + [-1] * (n - 1 - up):
            law = [(a + sign * b) / 2 for a, b in zip(law + [0], [0] + law)]
        flip_up, flip_down = u * (1 - u), v * (1 - v)
        for poly, kept in zip(polys, (1 - 2 * (flip_up + flip_down), 2 * (flip_down - flip_up))):
            poly[:] = [a + kept * b for a, b in zip(poly, law)]
    return tuple({k: a for k, a in enumerate(poly) if a} for poly in polys)


@dataclass(frozen=True)
class SteadyChannel:
    """Late-time network-and-time-averaged channel: lambda1 -> 0, z sector
    fixed by exact polynomials in the environment z (see steady_tables)."""

    n: int
    coeffs: dict  # the lambda3_inf table
    tau3_coeffs: dict  # the tau3_inf table
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


def _orbit_mean(orbit, z):
    """Mean of prod_{i in S} z_i over the site subsets S of one orbit: all
    k-subsets for orbit = k, else the images of the sites `orbit` under the
    ring's 2N rotations and reflections."""
    n = len(z)
    if isinstance(orbit, int):
        return esym(z, orbit) / _F(math.comb(n, orbit))
    return sum(math.prod(z[(r + s * i) % n] for i in orbit)
               for r in range(n) for s in (1, -1)) / _F(2 * n)


class UnsupportedNetwork(ValueError):
    """A network that no closed form or exact steady table covers."""


def steady_tables(spec: NetworkSpec) -> tuple:
    """The exact (lambda3_inf, tau3_inf) of the network `spec`, each a
    polynomial {orbit: coefficient} whose terms are coefficient times
    _orbit_mean: orbit k is all k-subsets, and any other ring orbit is named
    by its smallest member. The form is complete, since both values are
    multi-affine in z and invariant under the graph's automorphisms.

    Tables exist for the complete graph at every N (the 3-ring among them),
    derived from collective_blocks, the ring with N = 4, and the ring with
    N = 5 at the isotropic point J_par = J_perp, each with exchange
    (J_perp != 0: without it nothing relaxes). Any other network raises
    UnsupportedNetwork.
    """
    if spec.j_perp == 0:
        raise UnsupportedNetwork("no steady table without exchange (J_perp = 0)")
    family, n = spec.family, spec.n
    if family == "complete":
        return _complete_table(n)
    if family == "ring" and n == 5 and not isotropic(spec.j_perp, spec.j_par):
        raise UnsupportedNetwork("ring N=5 steady table holds at the isotropic point only")
    if family == "ring" and n in _STEADY_RING:
        return _STEADY_RING[n]
    raise UnsupportedNetwork(f"no steady table for ({family}, N={n})")


def steady_table(spec: NetworkSpec) -> dict:
    """The lambda3_inf table of steady_tables(spec), SteadyChannel.coeffs."""
    return steady_tables(spec)[0]


def steady_channel(spec: NetworkSpec, z) -> SteadyChannel:
    """Steady-channel values of a network that has steady_tables, in exact
    rationals: lambda3 and tau3 are each their table's sum of coefficient
    times _orbit_mean at the N site polarizations z (absolute site order),
    each |z| <= 1.
    """
    tables = steady_tables(spec)
    n = spec.n
    zf = [Fraction(v) for v in z]
    if len(zf) != n:
        raise ValueError(f"need {n} site values, got {len(zf)}")
    for site, v in enumerate(zf):
        if abs(v) > 1:
            raise ValueError(f"site {site}: |z| = {v} exceeds 1")
    lam, tau = (sum(c * _orbit_mean(orbit, zf) for orbit, c in table.items())
                for table in tables)
    return SteadyChannel(
        n=n,
        coeffs=dict(tables[0]),
        tau3_coeffs=dict(tables[1]),
        lambda3=float(lam),
        tau3=float(tau),
        lambda3_exact=lam,
        tau3_exact=tau,
        e1=esym(zf, 1),
    )


def steady_series(spec: NetworkSpec, z, steady: SteadyChannel, horizon_tj: float,
                  points_per_tj: float, tol: float) -> Result:
    """The running site average of `spec` from the site polarizations z to
    horizon_tj (network_series, time_average), against its steady channel:
    it fails where lambda3 or tau3 at the horizon is tol or more away."""
    t_j, times, _ = _averaging_grid(spec, horizon_tj, points_per_tj, tol, "tol", "steady")
    fixed = reduced.fixed_point(reduced.PCParams(0.0, 0.0, steady.lambda3, steady.tau3))
    series = network_series(spec, z, times)
    running = reduced.fit_pc(time_average(times, series))
    l3s, t3s, l1s = running.lambda3.tolist(), running.tau3.tolist(), running.lambda1.tolist()

    num_l3, num_t3, num_l1 = l3s[-1], t3s[-1], l1s[-1]
    diff_l3 = abs(num_l3 - steady.lambda3)
    diff_t3 = abs(num_t3 - steady.tau3)

    columns = [(times / t_j).tolist(), l3s, t3s, l1s]
    diagnostics = {
        "exact": {
            "lambda3": steady.lambda3, "tau3": steady.tau3,
            "lambda3_fraction": str(steady.lambda3_exact),
            "tau3_fraction": str(steady.tau3_exact),
            "coeffs": {str(k): str(v) for k, v in steady.coeffs.items()},
            "tau3_coeffs": {str(k): str(v) for k, v in steady.tau3_coeffs.items()},
        },
        "numeric": {"lambda3": num_l3, "tau3": num_t3, "lambda1": num_l1},
        "abs_diff": {"lambda3": diff_l3, "tau3": diff_t3},
        "constraint_ok": steady.constraint_ok(),
        # late-time invariant Bloch z and inverse temperature (null: infinite)
        "fixed_point": {"a_star": fixed.a_star, "degenerate": fixed.degenerate,
                        "beta_star": None if math.isinf(fixed.beta_star) else fixed.beta_star},
        "horizon_tj": horizon_tj,
        "tol": tol,
        "pass": bool(diff_l3 < tol and diff_t3 < tol),
    }
    header = ("t_over_tj", "lambda3_avg", "tau3_avg", "lambda1_avg")
    return Result({"data.csv": (header, columns)}, diagnostics,
                  None if diagnostics["pass"] else
                  f"horizon too short: |diff| = ({diff_l3:.2e}, {diff_t3:.2e}) > tol {tol}")


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
    converged: bool  # rel_change and sup_gap both below FLUCT_RTOL


def _deviations(avg, steady: SteadyChannel):
    """[(delta, scale)] of lambda3 and tau3 in averages avg: (avg - steady) /
    steady and |steady| where steady is nonzero, else avg itself and 1."""
    return [((avg[:, 3, j] - value) / value, abs(value)) if exact else (avg[:, 3, j].copy(), 1.0)
            for j, exact, value in ((3, steady.lambda3_exact, steady.lambda3),
                                    (0, steady.tau3_exact, steady.tau3))]


# Relative tolerance to which fluctuation constants are converged, and the
# most grid doublings spent on reaching it (the tail grid is evaluated whole,
# so this also caps its memory at 64x that of the starting grid).
FLUCT_RTOL = 0.01
_MAX_DOUBLINGS = 6


def _rel_change(new: float, old: float, floor: float) -> float:
    if new <= floor and old <= floor:  # both roundoff; NaN fails
        return 0.0
    return abs(new - old) / max(new, old)


def _rel_excess(slack: float, value: float, floor: float) -> float:
    if slack == 0.0 or value + slack <= floor:
        return 0.0
    return slack / value if value > 0.0 else math.inf


def converged_fluctuations(average: SpectralAverage, steady: SteadyChannel,
                           t_j: float, times, onset: float = 20.0,
                           roundoff: float = 0.0) -> FluctuationSeries:
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

    Both tests see roundoff: `roundoff` bounds the error of the average, so
    a constant is uncertain by its floor N (horizon/t_J) roundoff, over
    |steady| where delta is relative; constants at or below it compare as
    equal, and one whose certified bound stays under it has no sup gap.

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
    (d_lam, scale_l3), (d_tau, scale_t3) = _deviations(average(t), steady)
    horizon, start = float(t[-1]), onset * t_j
    segments = max(1, math.ceil((horizon - start) / (t[1] - t[0]) - 1e-9))
    curv = average.curvature()
    # how far |delta| N t/t_J can rise above its grid maximum, per dt^2, and
    # the roundoff floor of each constant
    excess = [steady.n * curv[3, j] / (8.0 * t_j * s) for j, s in ((3, scale_l3), (0, scale_t3))]
    floors = [steady.n * horizon / t_j * roundoff / s for s in (scale_l3, scale_t3)]
    consts = change = None
    for level in range(_MAX_DOUBLINGS + 1):
        if level:
            segments *= 2
        grid = np.linspace(start, horizon, segments + 1)
        new = [float(np.max(np.abs(d) * (steady.n * (grid / t_j))))
               for d, _ in _deviations(average(grid), steady)]
        if consts is not None:
            change = max(map(_rel_change, new, consts, floors))
        consts = new
        step = (horizon - start) / segments
        gap = max(_rel_excess(e * step * step, c, f) for e, c, f in zip(excess, consts, floors))
        converged = bool(change is not None and change < FLUCT_RTOL and gap < FLUCT_RTOL)
        if converged:
            break
    return FluctuationSeries(
        t_over_tj=t / t_j, delta_lambda3=d_lam, delta_tau3=d_tau,
        c_lambda3=consts[0], c_tau3=consts[1], lambda3_normalized=steady.lambda3_exact != 0,
        tau3_normalized=steady.tau3_exact != 0, n=steady.n, onset=onset,
        points_per_tj=segments * t_j / (horizon - start), rel_change=change, sup_gap=gap,
        converged=converged)


def fluct_series(spec: NetworkSpec, z, steady: SteadyChannel, horizon_tj: float,
                 points_per_tj: float, onset_tj: float) -> Result:
    """converged_fluctuations of `spec` from the site polarizations z around
    its steady channel, to horizon_tj: it fails where the constants are not
    converged to FLUCT_RTOL."""
    t_j, times, budget = _averaging_grid(spec, horizon_tj, points_per_tj, FLUCT_RTOL, "rtol",
                                         "fluct", onset_tj)
    series = converged_fluctuations(SpectralAverage(spec, z), steady, t_j, times,
                                    onset=onset_tj, roundoff=budget)
    columns = [series.t_over_tj.tolist(), series.delta_lambda3.tolist(),
               series.delta_tau3.tolist()]
    diagnostics = {
        "c_lambda3": series.c_lambda3,
        "c_tau3": series.c_tau3,
        "lambda3_normalized": series.lambda3_normalized,
        "tau3_normalized": series.tau3_normalized,
        "onset_tj": series.onset,
        "n": series.n,
        "steady": {"lambda3": steady.lambda3, "tau3": steady.tau3},
        "sup_points_per_tj": series.points_per_tj,
        "rel_change": series.rel_change,
        "sup_gap": series.sup_gap,
        "rtol": FLUCT_RTOL,
        "converged": series.converged,
    }
    header = ("t_over_tj", "delta_lambda3", "delta_tau3")
    return Result({"data.csv": (header, columns)}, diagnostics,
                  None if series.converged else
                  f"fluctuation constants not converged: doubling change "
                  f"{series.rel_change:.2e}, sup gap {series.sup_gap:.2e} "
                  f"(rtol {FLUCT_RTOL}); start finer with --points-per-tj")


# ---------------------------------------------------------------------------
# Staggered-quench ensemble
# ---------------------------------------------------------------------------


def quench_demo(average: SpectralAverage, schedule, t_eval: float) -> np.ndarray:
    """Cluster-averaged 4x4 reduced map of a staggered-quench ensemble.

    One identical cluster per switch-on time in `schedule`, each idle until
    its own switch-on and then driven by its Hamiltonian; `average` is the
    cluster's SpectralAverage of site 0, the focal site. The pre-quench
    segment only rotates the focal spin about z and leaves its diagonal
    partners untouched, so each cluster contributes average.maps at its
    elapsed time t_eval - t_on, or the identity while its quench lies
    ahead. Over a window much longer than t_J the result approaches the
    running average average([t_eval]) of one always-on cluster, up to
    O(t_J/window) discretization.
    """
    schedule = np.asarray(schedule, dtype=float)
    if schedule.ndim != 1 or schedule.size == 0:
        raise ValueError("schedule must list one switch-on time per cluster")
    elapsed = t_eval - schedule
    maps = average.maps(np.maximum(elapsed, 0.0))
    maps[elapsed <= 0.0] = np.eye(4)  # quench still in the future for these clusters
    return maps.mean(axis=0)


def quench_series(spec: NetworkSpec, z, n_cl: int, window_tj: float, t_eval_tj: float,
                  schedule: str, seed: int, warn=lambda reason: None) -> Result:
    """quench_demo of n_cl clusters switched on over window_tj, evenly or
    iid uniform from `seed` (schedule "staggered" or "random"), against the
    exact running average of site 0 in one always-coupled cluster. Calls
    warn(reason) where the switch-on times of two or more clusters span
    less than one t_J, too little for the average to resemble a time
    average."""
    t_j = t_scale(spec.j_perp)
    check_count(n_cl, "n_cl")
    if schedule == "staggered":
        starts = np.linspace(0.0, window_tj * t_j, n_cl)
    else:
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, window_tj * t_j, n_cl)
    if n_cl > 1 and starts.max() - starts.min() < t_j:
        warn("switch-on times span less than one t_J; the cluster average "
             "will not resemble a time average")
    t_eval = t_eval_tj * t_j
    average = SpectralAverage(spec, z, sites=(0,))
    cluster_avg = quench_demo(average, starts, t_eval)
    reference = average([t_eval])[0]

    diff = np.abs(cluster_avg - reference)
    columns = [[str(i) for i in range(4) for _ in range(4)], [str(jj) for jj in range(4)] * 4]
    columns += [m.ravel().tolist() for m in (cluster_avg, reference, diff)]
    header = ("row", "col", "cluster_avg", "time_avg", "abs_diff")
    return Result({"data.csv": (header, columns)}, {
        "max_abs_diff": float(diff.max()),
        "n_cl": n_cl, "window_tj": window_tj, "t_eval_tj": t_eval_tj,
        "schedule": schedule, "t_j": t_j,
    })
