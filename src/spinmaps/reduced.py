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
the reconstructed Choi operator). fit_pc and choi_check read one map or a
whole (..., 4, 4) stack, and cp_ok floats or arrays, each through one code
path.
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
    """Phase-covariant channel parameters plus the off-pattern residual. The
    parameters are floats, or equal-shape arrays for a channel per time or
    per matrix of a stack."""

    lambda1: float
    theta: float
    lambda3: float
    tau3: float
    residual: float = 0.0

    def transfer(self) -> np.ndarray:
        """The transfer matrix, shape (..., 4, 4) for parameters of shape (...)."""
        c, s = self.lambda1 * np.cos(self.theta), self.lambda1 * np.sin(self.theta)
        m = np.zeros(np.shape(c) + (4, 4))
        m[..., 0, 0] = 1.0
        m[..., 1, 1] = m[..., 2, 2] = c
        m[..., 1, 2], m[..., 2, 1] = -s, s
        m[..., 3, 0], m[..., 3, 3] = self.tau3, self.lambda3
        return m


@dataclass(frozen=True)
class FixedPoint:
    """Affine fixed point of the z-sector; degenerate marks l3 = 1, t3 = 0
    where every diagonal state is fixed."""

    a_star: float
    beta_star: float
    degenerate: bool = False


def cp_ok(lambda1, tau3, lambda3, tol: float = 0.0):
    """Complete-positivity inequalities for the phase-covariant pattern.

    Takes floats or equal-shape arrays (then returns a boolean array). The
    sign of lambda1 does not enter. Squares are products x*x, which numpy
    also uses for an array's x**2, so a float and the same float in an
    array get the same verdict even on the boundary (rewriting an
    inequality, e.g. moving tau3^2 across, flips knife-edge cases).
    """
    return ((abs(lambda3) + abs(tau3) <= 1.0 + tol)
            & (4.0 * (lambda1 * lambda1) + tau3 * tau3
               <= (1.0 + lambda3) * (1.0 + lambda3) + tol))


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
    return transfer_readout(partial_trace_keep(np.stack([u @ op @ u_dag for op in inputs]), site))


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


# the entries a phase-covariant transfer matrix has at zero, then (0, 0),
# (1, 1) and (1, 2), which fit_pc shifts into deviations
_RESIDUAL_ROWS = [0, 0, 0, 1, 2, 1, 2, 3, 3, 0, 1, 1]
_RESIDUAL_COLS = [1, 2, 3, 0, 0, 3, 3, 1, 2, 0, 1, 2]


def fit_pc(transfer: np.ndarray) -> PCParams:
    """Read phase-covariant parameters off a transfer matrix or a stack.

    A (4, 4) matrix gives float fields, a (..., 4, 4) stack fields of
    shape (...), each entry the reading of its own matrix. The residual is
    the largest absolute deviation from the pattern: the entries that must
    vanish, |T00 - 1|, and the rotation-block asymmetries |Txx - Tyy| and
    |Txy + Tyx|. It reports non-covariance, never raises.
    """
    t = np.array(transfer, dtype=float)  # a copy: lambda3 and tau3 are views of it
    dev = t[..., _RESIDUAL_ROWS, _RESIDUAL_COLS]
    dev[..., -3] -= 1.0
    dev[..., -2] -= t[..., 2, 2]
    dev[..., -1] += t[..., 2, 1]
    fields = (np.hypot(t[..., 1, 1], t[..., 2, 1]), np.arctan2(t[..., 2, 1], t[..., 1, 1]),
              t[..., 3, 3], t[..., 3, 0], np.abs(dev).max(axis=-1))
    return PCParams(*(map(float, fields) if t.ndim == 2 else fields))


# row 4i + j is (1/4) sigma_i tensor sigma_j^T, flattened
_CHOI_BASIS = 0.25 * np.array([np.kron(si, sj.T).ravel()
                               for si in PAULI_STACK for sj in PAULI_STACK])


def choi_matrix(transfer: np.ndarray) -> np.ndarray:
    """Choi operator (map acting on the first tensor factor) of a qubit map.

    C = (1/4) sum_ij T[i, j] sigma_i tensor sigma_j^T, normalized to unit
    trace for trace-preserving maps. A (..., 4, 4) stack of transfer
    matrices gives the (..., 4, 4) stack of their Choi operators.
    """
    t = np.asarray(transfer)
    return (t.reshape(*t.shape[:-2], 16) @ _CHOI_BASIS).reshape(*t.shape[:-2], 4, 4)


def choi_check(transfer: np.ndarray):
    """Minimum Choi eigenvalue; >= -1e-9 certifies complete positivity.

    A float for one transfer matrix, an array of shape (...) for a
    (..., 4, 4) stack.
    """
    low = np.linalg.eigvalsh(choi_matrix(transfer))[..., 0]
    return float(low) if low.ndim == 0 else low


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
