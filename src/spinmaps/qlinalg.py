"""Dense multi-qubit operator utilities sized for small registers (N <= 8).

Conventions fixed here and used everywhere else:

- Computational basis index = big-endian bit string, site 0 is the most
  significant bit. Bit value 1 is the Z-eigenvalue -1 state (z_signs).
- Transfer matrices are real 4x4 in the Pauli basis (1, X, Y, Z) with
  entries L[i, j] = tr(sigma_i L(sigma_j)) / 2.

Everything is a pure function on immutable arrays; dimensions stay <= 256
so dense eigendecomposition is exact to roundoff and nothing needs sparsity.
What every pipeline shares lives here too: its Result, InvariantError, the
roundoff_budget and check_count.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

SI = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULI = {"0": SI, "x": SX, "y": SY, "z": SZ}
PAULI_AXES = ("0", "x", "y", "z")
PAULI_STACK = np.stack([SI, SX, SY, SZ])
PAULI_STACK.flags.writeable = False

HERM_TOL = 1e-10


class NumericalError(ValueError):
    """A numerical invariant failed inside the library (not bad user input)."""


class InvariantError(RuntimeError):
    """A run's invariant failed, such as a CP violation: the run stops."""


class Result(NamedTuple):
    """A pipeline's CSV tables by file name, each (header, columns), its
    diagnostics object, and its failed verdict (None where every check passed)."""

    tables: dict
    diagnostics: dict
    failure: str | None = None


def roundoff_budget(norm: float, t_max: float) -> float:
    """eps norm t_max, the absolute error of the phases e^{-iEt} at |E| <= norm
    up to t_max, in Python floats: an overflow gives inf, without a warning."""
    return math.ulp(1.0) * norm * t_max  # ulp(1) is the double epsilon


MAX_DOUBLES = np.iinfo(np.intp).max // 8  # numpy refuses more bytes than an intp counts


def check_count(count, name: str):
    """ValueError naming `name` where `count` doubles exceed MAX_DOUBLES."""
    if not count <= MAX_DOUBLES:
        raise ValueError(f"{name}: {count:.3g} values, more than one array can hold")


def pauli(axis: str) -> np.ndarray:
    """Single-qubit Pauli matrix for axis in {'0','x','y','z'}."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


# the fold's seed; read-only, since kron_all never hands it out
_ONE = np.ones((1, 1), dtype=complex)
_ONE.flags.writeable = False


def kron_all(ops) -> np.ndarray:
    """Tensor product of a sequence of 2-D matrices, first factor most significant.

    Each step is the broadcast product np.kron computes for 2-D operands,
    without its per-call shape set-up: reshape views of the running product
    and the factor (ndarrays are not passed through np.asarray again), folded
    left to right from the shared read-only seed [[1+0j]], whose own step is
    a plain 2-D product. The products and their order are the np.kron
    fold's, so the result is byte-identical to it, signed zeros included.
    Every result is a fresh array; an empty sequence gives a copy of the
    seed.
    """
    out = _ONE
    for op in ops:
        if not isinstance(op, np.ndarray):
            op = np.asarray(op)
        a, b = op.shape
        if out is _ONE:  # the seed's products need no 4-D broadcast
            out = _ONE * op
        else:
            r, c = out.shape
            out = (out.reshape(r, 1, c, 1) * op.reshape(1, a, 1, b)).reshape(r * a, c * b)
    return _ONE.copy() if out is _ONE else out


def z_signs(n: int) -> np.ndarray:
    """(2**n, n) Z eigenvalues of the basis: [s, i] is +1 where site i of state s is 0, else -1."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at `site` in an n-qubit register."""
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for n={n}")
    return kron_all(op if k == site else SI for k in range(n))


def bloch_vector(v) -> tuple:
    """One Bloch vector as floats (x, y, z), refused (ValueError) when its
    norm exceeds 1 beyond a 1e-12 slack or it holds a NaN: it describes no
    state."""
    x, y, z = (float(c) for c in v)
    if not x * x + y * y + z * z <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError(f"Bloch vector {(x, y, z)} has norm > 1")
    return x, y, z


def density_of(sites) -> np.ndarray:
    """Product density matrix from per-site Bloch vectors (x, y, z).

    Each factor is (1 + x X + y Y + z Z)/2, written entry by entry with the
    bytes of that Pauli sum, signed zeros included (x + 0.0 and 0.0 - y are
    the sum's +0 where x or y is a zero). Bloch norms above 1 and NaN
    components are refused (bloch_vector) since they do not describe states.
    """
    factors = []
    for v in sites:
        x, y, z = bloch_vector(v)
        factors.append(np.array([
            [0.5 * (1.0 + z), complex(0.5 * (x + 0.0), 0.5 * (0.0 - y))],
            [complex(0.5 * (x + 0.0), 0.5 * (y + 0.0)), 0.5 * (1.0 - z)]]))
    return kron_all(factors)


def partial_trace_keep(rho: np.ndarray, site: int) -> np.ndarray:
    """Trace out every qubit except `site`, returning its 2x2 state.

    rho is one (dim, dim) matrix or a stack (m, dim, dim) of them; a stack
    gives (m, 2, 2), each slice bit-identical to its own call.
    """
    if rho.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {rho.shape}")
    dim = rho.shape[-1]
    n = dim.bit_length() - 1
    if rho.shape[-2] != dim or 2**n != dim:
        raise ValueError("density matrix dimension is not a power of 2")
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for n={n}")
    # Take the environment diagonal (no arithmetic), then add environment
    # qubits pairwise, last qubit first: the summation order of one np.trace
    # per qubit, so results stay bit-identical to that reference.
    lo, hi = 2**site, 2 ** (n - 1 - site)
    stack = rho.reshape(-1, lo, 2, hi, lo, 2, hi)
    d = np.einsum("mxayxby->mxyab", stack).reshape(len(stack), -1, 2, 2)
    while d.shape[1] > 1:
        d = d[:, 0::2] + d[:, 1::2]
    return d[:, 0] if rho.ndim == 3 else d[0, 0]


class HermitianEvolver:
    """Unitary evolution generated by a fixed Hermitian matrix.

    Diagonalizes once, then serves e^{-iHt} for any finite t (NaN and +-inf
    raise ValueError). This keeps a whole time grid at one eigendecomposition
    instead of one expm per point.

    unitary keeps the last matrix it assembled, as one (key, u) tuple, and
    assembles anew only for a different t. The key is the exact bits of t
    as a float, so 0.0 and -0.0 are different keys. Callers that ask for
    the same t in a row, as the MapExtractor of every site of `maps` does
    at each time, share one assembly. The returned array is read-only,
    since every one of them holds the same object.

    The conjugate transpose of the modes is taken once, here: every
    assembly multiplies by the same transposed view of one conjugated copy,
    the layout (and so the BLAS call) of an inline modes.conj().T.
    """

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=complex)
        if not np.max(np.abs(h - h.conj().T)) <= HERM_TOL:  # NaN fails too
            raise NumericalError("generator is not Hermitian")
        self.energies, self.modes = np.linalg.eigh(h)
        self._modes_h = self.modes.conj().T
        self._last = (None, None)

    def unitary(self, t: float) -> np.ndarray:
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"time t={t} is not finite")
        key = t.hex()  # exact: distinct floats, signed zeros included, give distinct keys
        last_key, u = self._last
        if key != last_key:
            phases = np.exp(-1j * self.energies * t)
            u = (self.modes * phases) @ self._modes_h
            u.flags.writeable = False
            self._last = (key, u)
        return u


# row 4i + j, column 4j + 2b + a holds sigma_i[a, b]: outs flattened in
# (j, b, a) order read against it gives sum_ab sigma_i[a, b] outs[j][b, a]
_READOUT = np.zeros((4, 4, 4, 2, 2), dtype=complex)
_READOUT[:, range(4), range(4)] = PAULI_STACK.transpose(0, 2, 1)[:, None]
_READOUT = _READOUT.reshape(16, 16)
_READOUT.flags.writeable = False


def transfer_readout(outs) -> np.ndarray:
    """Real transfer matrix from the images outs[j] of the Paulis (1, X, Y, Z).

    outs is (4, 2, 2), or its 16 entries flattened in (j, a, b) order, which
    the map kernels pass straight from their last product. L[i, j] =
    tr(sigma_i outs[j]) / 2, one product of the fixed (16, 16) table
    _READOUT (entries 0, +-1, +-i, the Pauli entries as stored) with the 16
    image entries, then the factor 0.5, applied in place. Each entry sums
    two products by +-1 or +-i, which are exact, so the result is
    byte-identical to 0.5 * einsum("iab,jba->ij", PAULI_STACK, outs).
    Imaginary residue beyond HERM_TOL means the map is not
    Hermiticity-preserving and raises NumericalError.
    """
    if not isinstance(outs, np.ndarray):
        outs = np.asarray(outs)
    m = _READOUT @ outs.reshape(16)
    m *= 0.5
    if not abs(m.imag).max() <= HERM_TOL:  # NaN fails too
        raise NumericalError("map is not Hermiticity-preserving (complex transfer entries)")
    return m.real.reshape(4, 4).copy()
