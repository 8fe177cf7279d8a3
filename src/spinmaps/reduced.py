"""Single-qubit dynamical maps extracted from global unitary evolution.

The reduced map of a focal site is Lambda_i(t)[rho] =
tr_env[U(t) (rho tensor rho_env) U(t)^dag]; its Pauli transfer matrix is the
working representation. transfer_from_unitary reads that definition off
the environment's diagonal band: in the partners' eigenbases rho_env is
diagonal, so each input sigma_j tensor rho_env is zero away from the
environment diagonal and only the d/2 column groups of U with equal
environment bits enter, as d/2 Gram matrices of size 4x4 (4 d^2
multiply-adds). z-polarized partners need no change of basis; a transverse
partner first rotates U's columns on its qubit by one 2x2 product.
MapExtractor uses that rho_env is a product state: with R the
product of the partners' square roots (I at the focal site),
rho tensor rho_env = R (rho tensor I) R, so the map is
tr_env[V (rho tensor I) V^dag] with V = U(t) R, the square-root
purification of the environment, read off a 4x4 Gram matrix of V.
z-polarized partners (the class whose maps are phase-covariant) have
diagonal roots: R is then a column scale of U(t) and costs O(d^2); only
transverse partners take the dense product.
A phase-covariant map has the pattern

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

import math
from dataclasses import dataclass

import numpy as np

from .qlinalg import (
    PAULI_AXES,
    PAULI_STACK,
    SI,
    HermitianEvolver,
    bloch_vector,
    density_of,
    kron_all,
    partial_trace_keep,  # unused here: bench/tracing.py patches it
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


def _partners(n: int, site: int, env_blochs) -> list:
    """The n - 1 partner Bloch vectors of focal `site`, checked."""
    env_blochs = list(env_blochs)
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for n={n}")
    if len(env_blochs) != n - 1:
        raise ValueError(f"need {n - 1} environment Bloch vectors, got {len(env_blochs)}")
    return env_blochs


def _env_inputs(n: int, site: int, env_blochs):
    """Full-register input operators: focal Pauli tensored with the env state,
    left partners (x) sigma_j (x) right partners, dense (SpectralAverage's;
    transfer_from_unitary reads only their environment-diagonal band)."""
    partners = _partners(n, site, env_blochs)
    left, right = density_of(partners[:site]), density_of(partners[site:])
    return [kron_all([left, pauli(ax), right]) for ax in PAULI_AXES]


def _eigen_weights(bloch):
    """One partner as rho = W diag(p) W^dag: the weight row p, shape (1, 2),
    and the 2x2 unitary W of its eigenvectors, None for x = y = 0.

    A z-polarized partner is diagonal already: p = ((1 + z)/2, (1 - z)/2)
    with the entries density_of writes. Any other partner has
    p = ((1 + r)/2, (1 - r)/2), r the Bloch norm, and W's columns are the
    eigenvectors of n . sigma for n = (sin th cos ph, sin th sin ph, cos th):
    (cos th/2, e^{i ph} sin th/2) and (-e^{-i ph} sin th/2, cos th/2).
    """
    x, y, z = bloch_vector(bloch)
    if x == 0.0 and y == 0.0:
        return np.array([[0.5 * (1.0 + z), 0.5 * (1.0 - z)]]), None
    transverse, r = math.hypot(x, y), math.hypot(x, y, z)
    half = 0.5 * math.atan2(transverse, z)
    c, s, e = math.cos(half), math.sin(half), complex(x, y) / transverse
    w = np.array([[c, -e.conjugate() * s], [e * s, c]])
    return np.array([[0.5 * (1.0 + r), 0.5 * (1.0 - r)]]), w


def transfer_from_unitary(u: np.ndarray, site: int, env_blochs) -> np.ndarray:
    """Transfer matrix of the map induced by an explicit global operator u.

    Each partner is written as rho_k = W_k diag(p_k) W_k^dag; a transverse
    partner's W_k rotates u's columns on its qubit (one 2x2 contraction),
    a z-polarized one needs none. The inputs are then diagonal on the
    environment: K_j[c, (x, c', y)] = left[x] sigma_j[c, c'] right[y], shape
    (2, d), from the weight rows left and right of the partners before and
    after the focal site. With rows of u indexed (m, a), a the focal bit,
    and columns (x, c, y), the image of sigma_j is
    out_j[a, b] = sum P[(a, b), (c, x, c', y)] K_j[c, (x, c', y)], where
    P = sum_m u[(m, a), (x, c, y)] conj(u[(m, b), (x, c', y)]) reads only
    the environment-diagonal band: d/2 Gram matrices of 4 x d/2 blocks (one
    batched product, 4 d^2 multiply-adds), then one (4, 2d) @ (2d, 4)
    product. Nothing assumes u is unitary, so evolutions that are not
    exp(-iHt) of a single Hamiltonian work, e.g. piecewise-constant
    schedules composed from several propagators.
    """
    d = u.shape[0]
    n = d.bit_length() - 1
    rows = []
    for k, bloch in enumerate(_partners(n, site, env_blochs)):
        weights, w = _eigen_weights(bloch)
        rows.append(weights)
        if w is not None:
            q = k + (k >= site)  # the partner's qubit
            u = np.einsum("rxcy,cb->rxby", u.reshape(d, 2**q, 2, -1), w).reshape(d, d)
    left, right = kron_all(rows[:site]), kron_all(rows[site:])
    inputs = np.stack([kron_all([left, sigma, right]) for sigma in PAULI_STACK])
    lo, hi = 2**site, 2 ** (n - 1 - site)
    # rows (mx, a, my), columns (x, c, y) -> band[(x, y), (a, c), (mx, my)]
    band = u.reshape(lo, 2, hi, lo, 2, hi).transpose(3, 5, 1, 4, 0, 2).reshape(d // 2, 4, -1)
    gram = band @ band.conj().transpose(0, 2, 1)
    p = gram.reshape(lo, hi, 2, 2, 2, 2).transpose(2, 4, 3, 0, 5, 1).reshape(4, -1)
    return transfer_readout((p @ inputs.reshape(4, -1).T).T.reshape(4, 2, 2))


def _sqrt_density(bloch) -> np.ndarray:
    """Principal square root of one partner's 2x2 density matrix.

    sqrt(rho) = (rho + s I) / sqrt(tr rho + 2 s) with s = sqrt(det rho);
    det rho is clipped at 0, so pure partners (|r| = 1, and norms inside
    density_of's slack) give the rank-1 root rho itself.
    """
    rho = density_of([bloch])
    s = np.sqrt(max((rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real, 0.0))
    return (rho + s * SI) / np.sqrt(rho.trace().real + 2.0 * s)


# row 4j + 2a + b, column 8a + 4c + 2b + d holds sigma_j[c, d]: the Gram
# matrix G[(a, c), (b, d)] flattened and read against it gives the images
# out_j[a, b] = sum_cd G[(a, c), (b, d)] sigma_j[c, d]
_GRAM_IMAGES = np.zeros((4, 2, 2, 2, 2, 2, 2), dtype=complex)
_GRAM_IMAGES[:, [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], :, [0, 1, 0, 1]] = PAULI_STACK
_GRAM_IMAGES = _GRAM_IMAGES.reshape(16, 16)
_GRAM_IMAGES.flags.writeable = False


class MapExtractor:
    """Reduced dynamical map of one focal site against a fixed environment.

    The environment is a product state rho_env = R^2, R the product of the
    partners' principal square roots, so sigma_j tensor rho_env =
    R (sigma_j tensor I) R, with I at the focal site in R. The image of
    sigma_j is then tr_env[V (sigma_j tensor I) V^dag] with V = U(t) R, the
    square-root purification of the environment. With the focal row and
    column bits of V moved to the front, V becomes A of shape (4, 4^n / 4);
    its Gram matrix G = A A^dag gives every image at once:
    out_j[a, b] = sum_{c, c'} G[(a, c), (b, c')] sigma_j[c, c'], one
    product of the fixed (16, 16) table _GRAM_IMAGES with G's 16 entries.

    When every partner has x = y = 0 (z-polarized, as in every network
    `maps` runs), each root is diagonal and so is R: the extractor keeps
    R's real diagonal as `scale` (and `root` is None), and V = U(t) * scale
    scales U's columns, byte for byte the dense product. A transverse
    partner keeps the dense R as `root` and V = U(t) @ R.

    Evolves with the caller's HermitianEvolver, so extractors of several
    sites share one eigendecomposition of H; each time point costs one
    unitary assembly, the column scale (or the product with R) and the 4x4
    Gram matrix. env_blochs lists the Bloch vectors of the other n-1 sites
    in site order (the focal site skipped).
    """

    def __init__(self, evolver: HermitianEvolver, site: int, env_blochs):
        n = evolver.modes.shape[0].bit_length() - 1
        partners = _partners(n, site, env_blochs)
        roots = [_sqrt_density(v) for v in partners]
        factors = roots[:site] + [SI] + roots[site:]
        self.n, self.site = n, site
        self.evolver = evolver
        self._split = (2**site, 2, 2 ** (n - 1 - site)) * 2
        if all(v[0] == 0.0 and v[1] == 0.0 for v in partners):
            # R's diagonal in kron_all's fold order: the same products of
            # nonnegative reals, so the same bytes
            self.root = None
            self.scale = np.ones(1)
            for root in factors:
                self.scale = np.multiply.outer(self.scale, root.diagonal().real).ravel()
        else:
            self.root = kron_all(factors)

    def transfer(self, t: float) -> np.ndarray:
        u = self.evolver.unitary(t)
        v = u * self.scale if self.root is None else u @ self.root
        # rows (x, a, y) and columns (z, c, w) -> A[(a, c), (x, y, z, w)]
        a = v.reshape(self._split).transpose(1, 4, 0, 2, 3, 5).reshape(4, -1)
        gram = a @ a.conj().T
        return transfer_readout((_GRAM_IMAGES @ gram.reshape(16)).reshape(4, 2, 2))


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
