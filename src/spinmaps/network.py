"""Spin-network Hamiltonians and their charge/translation block structure.

Supported topologies:

- ring: nearest-neighbour XXZ on a cycle,
    H = h sum Z_i + (J_perp/2) sum (X_i X_{i+1} + Y_i Y_{i+1})
      + (J_par/2) sum Z_i Z_{i+1},  indices mod N.
- complete: the same interaction on every unordered pair i < j.
- xx_pairs: disjoint two-qubit clusters,
    H = sum_pairs [h1 Z_1 + h2 Z_2 + (J/2)(X_1 X_2 + Y_1 Y_2)].

An isotropic (XXX) cluster J sum_{i<j} (XX + YY + ZZ), as in the quench
ensemble, is the complete graph with J_perp = J_par = 2J.

All topologies conserve the charge Q = sum Z_i; ring and complete also
commute with the cyclic left shift T. Block diagonalization proceeds in two
stages: sort the basis by charge sector q (q = number of 0-bits, so
Q = 2q - N), then Fourier-transform each translation orbit. The blocked
eigensystem is an optimization whose correctness is defined by agreement
with dense diagonalization; tests enforce that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .qlinalg import SX, SY, SZ, embed, kron_all

TOPOLOGIES = ("ring", "complete", "xx_pairs")


def t_scale(j_perp: float) -> float:
    """Characteristic oscillation time 2*pi/|J_perp| of the coupled network."""
    if j_perp == 0:
        raise ValueError("t_scale undefined for J_perp = 0")
    return 2.0 * np.pi / abs(j_perp)


@dataclass(frozen=True)
class PairSpec:
    """One disjoint XX pair: fields h1, h2 and hopping j."""

    h1: float
    h2: float
    j: float


@dataclass(frozen=True)
class NetworkSpec:
    topology: str
    n: int
    h: float = 0.0
    j_perp: float = 1.0
    j_par: float = 0.0
    pairs: tuple = ()

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "ring" and self.n < 3:
            raise ValueError("ring needs N >= 3")
        if self.n < 2:
            raise ValueError("N >= 2 required")
        if self.topology == "xx_pairs":
            if not self.pairs:
                raise ValueError("xx_pairs needs at least one PairSpec")
            if self.n != 2 * len(self.pairs):
                raise ValueError("xx_pairs total qubit count must be 2 * len(pairs)")

    def to_json(self) -> str:
        doc = {
            "topology": self.topology,
            "n": self.n,
            "h": self.h,
            "j_perp": self.j_perp,
            "j_par": self.j_par,
            "pairs": [{"h1": p.h1, "h2": p.h2, "j": p.j} for p in self.pairs],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "NetworkSpec":
        doc = json.loads(text)
        pairs = tuple(PairSpec(p["h1"], p["h2"], p["j"]) for p in doc.get("pairs") or ())
        return NetworkSpec(
            topology=doc["topology"],
            n=doc["n"],
            h=doc.get("h", 0.0),
            j_perp=doc.get("j_perp", 1.0),
            j_par=doc.get("j_par", 0.0),
            pairs=pairs,
        )


def _two_site(op_a, op_b, i, j, n):
    return embed(op_a, i, n) @ embed(op_b, j, n)


def _xxz_bond(i, j, n, j_perp, j_par):
    return 0.5 * j_perp * (
        _two_site(SX, SX, i, j, n) + _two_site(SY, SY, i, j, n)
    ) + 0.5 * j_par * _two_site(SZ, SZ, i, j, n)


def charge_operator(n: int) -> np.ndarray:
    return sum(embed(SZ, i, n) for i in range(n))


def parity_operator(n: int) -> np.ndarray:
    return kron_all([SZ] * n)


def build_hamiltonian(spec: NetworkSpec) -> np.ndarray:
    """Dense Hamiltonian of the network."""
    n = spec.n
    dim = 2**spec.n
    h_mat = np.zeros((dim, dim), dtype=complex)
    if spec.topology != "xx_pairs":
        h_mat += spec.h * charge_operator(n)

    if spec.topology == "ring":
        for i in range(n):
            h_mat += _xxz_bond(i, (i + 1) % n, n, spec.j_perp, spec.j_par)
    elif spec.topology == "complete":
        for i in range(n):
            for j in range(i + 1, n):
                h_mat += _xxz_bond(i, j, n, spec.j_perp, spec.j_par)
    elif spec.topology == "xx_pairs":
        for p_idx, pair in enumerate(spec.pairs):
            a, b = 2 * p_idx, 2 * p_idx + 1
            h_mat += pair.h1 * embed(SZ, a, n) + pair.h2 * embed(SZ, b, n)
            h_mat += _xxz_bond(a, b, n, pair.j, 0.0)
    return h_mat


# ---------------------------------------------------------------------------
# Symmetry blocks
# ---------------------------------------------------------------------------


def shift_left(s: int, n: int) -> int:
    """Cyclic left shift of an n-bit string (site 0 = most significant bit)."""
    mask = (1 << n) - 1
    return ((s << 1) & mask) | (s >> (n - 1))


def translation_matrix(n: int) -> np.ndarray:
    """Permutation matrix of the cyclic left shift T, T^n = identity."""
    dim = 2**n
    t_mat = np.zeros((dim, dim))
    for s in range(dim):
        t_mat[shift_left(s, n), s] = 1.0
    return t_mat


def charge_of(s: int, n: int) -> int:
    """Charge sector q = number of 0-bits of the basis index."""
    return n - bin(s).count("1")


def excitation_permutation(n: int):
    """Basis order sorted by (q, binary value); returns (order, sector slices).

    `order[new] = old`: applying it to the computational basis puts all
    q = 0 states first, then q = 1, etc., each sector sorted by integer
    value. Sector dimensions are the binomial coefficients C(n, q).
    """
    states = sorted(range(2**n), key=lambda s: (charge_of(s, n), s))
    order = np.array(states)
    slices = {}
    start = 0
    for q in range(n + 1):
        d = sum(1 for s in states if charge_of(s, n) == q)
        slices[q] = slice(start, start + d)
        start += d
    return order, slices


@dataclass(frozen=True)
class FourierBlock:
    """Translation-diagonal subspace with charge q and shift eigenvalue
    exp(2*pi*i*a/n). Columns of `vectors` are indexed by the orbit
    representatives in `reps` (ascending)."""

    q: int
    a: int
    reps: tuple
    vectors: np.ndarray = field(repr=False)


def _orbits(n: int, q: int):
    """Translation orbits in the charge-q sector as (rep, period) pairs."""
    seen = set()
    out = []
    for s in range(2**n):
        if charge_of(s, n) != q or s in seen:
            continue
        orbit = [s]
        t = shift_left(s, n)
        while t != s:
            orbit.append(t)
            t = shift_left(t, n)
        seen.update(orbit)
        out.append((min(orbit), len(orbit)))
    out.sort()
    return out


def fourier_blocks(n: int, q: int) -> list[FourierBlock]:
    """Orthonormal Fourier bases of the charge-q sector, one block per a.

    Each orbit of period R contributes one state to every a divisible by
    n/R: |F_a> = R^{-1/2} sum_j exp(-i j 2pi a/n) T^j |rep>. These satisfy
    T|F_a> = exp(+2pi i a/n)|F_a>.
    """
    if not 0 <= q <= n:
        raise ValueError(f"charge {q} out of range for n={n}")
    dim = 2**n
    per_a = {a: ([], []) for a in range(n)}
    for rep, period in _orbits(n, q):
        sites = [rep]
        for _ in range(period - 1):
            sites.append(shift_left(sites[-1], n))
        for a in range(n):
            if (a * period) % n != 0:
                continue
            vec = np.zeros(dim, dtype=complex)
            for j, s in enumerate(sites):
                vec[s] = np.exp(-2j * np.pi * a * j / n) / np.sqrt(period)
            cols, reps = per_a[a]
            cols.append(vec)
            reps.append(rep)
    blocks = []
    for a in range(n):
        cols, reps = per_a[a]
        if cols:
            blocks.append(FourierBlock(q, a, tuple(reps), np.array(cols).T))
    return blocks


def blocked_eigensystem(spec: NetworkSpec):
    """Eigenvalues and eigenvectors assembled from the (q, a) blocks.

    Within each block the projected Hamiltonian is Hermitian and small;
    eigh orders its levels ascending, which, together with the (q, a) block
    order, makes the output deterministic. Returns (energies, modes,
    labels) with labels[l] = (q, a, index within block).
    """
    if spec.topology not in ("ring", "complete"):
        raise ValueError("blocked eigensystem applies to ring/complete topologies")
    h_mat = build_hamiltonian(spec)
    energies, columns, labels = [], [], []
    for q in range(spec.n + 1):
        for block in fourier_blocks(spec.n, q):
            h_block = block.vectors.conj().T @ h_mat @ block.vectors
            w, v = np.linalg.eigh(h_block)
            vecs = block.vectors @ v
            for k in range(len(w)):
                energies.append(w[k])
                columns.append(vecs[:, k])
                labels.append((q, block.a, k))
    return np.array(energies), np.array(columns).T, labels
