"""Dense Hamiltonians of small XXZ spin networks.

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
commute with the cyclic left shift of the sites. Hamiltonians are dense:
at N <= 6 the eigendecomposition costs far less than the build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qlinalg import SX, SY, SZ, embed, kron_all  # kron_all: patched by bench/tracing.py

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


def _two_site(op_a, op_b, i, j, n):
    return embed(op_a, i, n) @ embed(op_b, j, n)


def _xxz_bond(i, j, n, j_perp, j_par):
    return 0.5 * j_perp * (
        _two_site(SX, SX, i, j, n) + _two_site(SY, SY, i, j, n)
    ) + 0.5 * j_par * _two_site(SZ, SZ, i, j, n)


def charge_operator(n: int) -> np.ndarray:
    return sum(embed(SZ, i, n) for i in range(n))


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
