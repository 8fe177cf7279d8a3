"""Single-qubit dynamical maps extracted from global unitary evolution.

The reduced map of a focal site is Lambda_i(t)[rho] =
tr_env[U(t) (rho tensor rho_env) U(t)^dag]; its Pauli transfer matrix is the
working representation. A phase-covariant map has the pattern

    [ 1       0           0        0   ]
    [ 0   l1 cos(th)  -l1 sin(th)  0   ]
    [ 0   l1 sin(th)   l1 cos(th)  0   ]
    [ t3      0           0        l3  ]

with l1 >= 0 and th in (-pi, pi]. Complete positivity of that pattern is
equivalent to

    |l3| + |t3| <= 1   and   4 l1^2 + t3^2 <= (1 + l3)^2,

and choi_check provides the pattern-free certificate (minimum eigenvalue of
the reconstructed Choi operator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qlinalg import (
    PAULI_AXES,
    PAULI_STACK,
    HermitianEvolver,
    density_of,
    kron_all,
    partial_trace_keep,
    pauli,
    transfer_readout,
)


@dataclass(frozen=True)
class PCParams:
    """Phase-covariant channel parameters plus the off-pattern residual."""

    lambda1: float
    theta: float
    lambda3: float
    tau3: float
    residual: float = 0.0

    def transfer(self) -> np.ndarray:
        c, s = self.lambda1 * np.cos(self.theta), self.lambda1 * np.sin(self.theta)
        return np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, c, -s, 0.0],
                [0.0, s, c, 0.0],
                [self.tau3, 0.0, 0.0, self.lambda3],
            ]
        )


@dataclass(frozen=True)
class ABDecomp:
    """Co-rotating-frame split of the transverse sector: l1 = sqrt(a^2+b^2)."""

    alpha: float
    beta: float

    @property
    def phi(self) -> float:
        return float(np.arctan2(self.beta, self.alpha))

    @property
    def lambda1(self) -> float:
        return float(np.hypot(self.alpha, self.beta))


@dataclass(frozen=True)
class FixedPoint:
    """Affine fixed point of the z-sector; degenerate marks l3 = 1, t3 = 0
    where every diagonal state is fixed."""

    a_star: float
    beta_star: float
    degenerate: bool = False


def cp_ok(lambda1: float, tau3: float, lambda3: float, tol: float = 0.0) -> bool:
    """Complete-positivity inequalities for the phase-covariant pattern.

    The sign of lambda1 does not enter. At tol 0, measure.cp_mask evaluates
    the same float expressions over arrays, so the two agree bit for bit
    even on the boundary (rewriting an inequality, e.g. moving tau3^2
    across, flips knife-edge cases).
    """
    return (
        abs(lambda3) + abs(tau3) <= 1.0 + tol
        and 4.0 * lambda1**2 + tau3**2 <= (1.0 + lambda3) ** 2 + tol
    )


def _env_inputs(n: int, site: int, env_blochs):
    """Full-register input operators: focal Pauli tensored with the env state."""
    env_blochs = list(env_blochs)
    if len(env_blochs) != n - 1:
        raise ValueError(f"need {n - 1} environment Bloch vectors, got {len(env_blochs)}")
    env_iter = iter(env_blochs)
    factors = [None] * n
    for k in range(n):
        if k != site:
            factors[k] = density_of([next(env_iter)])
    inputs = []
    for ax in PAULI_AXES:
        factors[site] = pauli(ax)
        inputs.append(kron_all(factors))
    return inputs


def _transfer_entries(u: np.ndarray, inputs, site: int) -> np.ndarray:
    u_dag = u.conj().T
    return transfer_readout([partial_trace_keep(u @ op @ u_dag, site) for op in inputs])


def transfer_from_unitary(u: np.ndarray, site: int, env_blochs) -> np.ndarray:
    """Transfer matrix of the map induced by an explicit global unitary.

    Covers evolutions that are not exp(-iHt) of a single Hamiltonian, e.g.
    piecewise-constant schedules composed from several propagators.
    """
    n = u.shape[0].bit_length() - 1
    return _transfer_entries(u, _env_inputs(n, site, env_blochs), site)


class MapExtractor:
    """Reduced dynamical map of one focal site against a fixed environment.

    Diagonalizes H once; each time point costs one unitary assembly and four
    partial traces. env_blochs lists the Bloch vectors of the other n-1
    sites in site order (the focal site skipped).
    """

    def __init__(self, h_mat: np.ndarray, site: int, env_blochs):
        dim = h_mat.shape[0]
        n = dim.bit_length() - 1
        self.n, self.site = n, site
        self.evolver = HermitianEvolver(h_mat)
        self.inputs = _env_inputs(n, site, env_blochs)

    def transfer(self, t: float) -> np.ndarray:
        return _transfer_entries(self.evolver.unitary(t), self.inputs, self.site)


def fit_pc(transfer: np.ndarray) -> PCParams:
    """Read phase-covariant parameters off a transfer matrix.

    The residual is the largest absolute deviation from the pattern: the
    entries that must vanish, |T00 - 1|, and the rotation-block asymmetries
    |Txx - Tyy| and |Txy + Tyx|. It reports non-covariance, never raises.
    """
    t = np.asarray(transfer, dtype=float)
    lambda1 = float(np.hypot(t[1, 1], t[2, 1]))
    theta = float(np.arctan2(t[2, 1], t[1, 1]))
    deviations = [
        abs(t[0, 0] - 1.0),
        abs(t[0, 1]),
        abs(t[0, 2]),
        abs(t[0, 3]),
        abs(t[1, 0]),
        abs(t[2, 0]),
        abs(t[1, 3]),
        abs(t[2, 3]),
        abs(t[3, 1]),
        abs(t[3, 2]),
        abs(t[1, 1] - t[2, 2]),
        abs(t[1, 2] + t[2, 1]),
    ]
    return PCParams(
        lambda1=lambda1,
        theta=theta,
        lambda3=float(t[3, 3]),
        tau3=float(t[3, 0]),
        residual=float(max(deviations)),
    )


def is_phase_covariant(transfer: np.ndarray, tol: float = 1e-8) -> bool:
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return fit_pc(transfer).residual <= tol


_CHOI_BASIS = 0.25 * np.array([[np.kron(si, sj.T) for sj in PAULI_STACK]
                               for si in PAULI_STACK])


def choi_matrix(transfer: np.ndarray) -> np.ndarray:
    """Choi operator (map acting on the first tensor factor) of a qubit map.

    C = (1/4) sum_ij T[i, j] sigma_i tensor sigma_j^T, normalized to unit
    trace for trace-preserving maps.
    """
    return np.tensordot(transfer, _CHOI_BASIS, 2)


def choi_check(transfer: np.ndarray) -> float:
    """Minimum Choi eigenvalue; >= -1e-9 certifies complete positivity."""
    return float(np.linalg.eigvalsh(choi_matrix(transfer))[0])


def fixed_point(p: PCParams) -> FixedPoint:
    """Invariant Bloch z and effective inverse temperature of the channel.

    a* = t3/(1 - l3); beta* = log[2/(1 - a*)], infinite at a* = 1. The
    l3 = 1, t3 = 0 ray is degenerate (identity z-dynamics) and tagged
    rather than rejected since every map passes through it at t = 0.
    """
    if p.lambda3 == 1.0:
        if p.tau3 == 0.0:
            return FixedPoint(a_star=0.0, beta_star=np.log(2.0), degenerate=True)
        raise ValueError("lambda3 = 1 with tau3 != 0 admits no fixed point")
    a_star = p.tau3 / (1.0 - p.lambda3)
    beta_star = np.inf if a_star >= 1.0 else float(np.log(2.0 / (1.0 - a_star)))
    return FixedPoint(a_star=float(a_star), beta_star=beta_star)


def ab_decompose(transfer: np.ndarray, h: float, t: float) -> ABDecomp:
    """Undo the free precession 2ht from the transverse block.

    alpha = Txx cos(2ht) + Tyx sin(2ht), beta = Tyx cos(2ht) - Txx sin(2ht);
    rebuilding Txx = alpha cos - beta sin and Tyx = beta cos + alpha sin is
    exact, and theta = 2ht + atan2(beta, alpha).
    """
    c, s = np.cos(2.0 * h * t), np.sin(2.0 * h * t)
    txx, tyx = float(transfer[1, 1]), float(transfer[2, 1])
    return ABDecomp(alpha=txx * c + tyx * s, beta=tyx * c - txx * s)
