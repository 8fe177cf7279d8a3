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
commute with the cyclic left shift of the sites. The ring of 4 is the
complete bipartite graph K_{2,2} between the sublattices {0, 2} and {1, 3}.
A network is its field and its bond list, NetworkSpec.bonds; H is dense,
written from the bits of the basis index (Sandvik, arXiv:1101.3281, sec. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qlinalg import kron_all, z_signs  # kron_all unused here: bench/tracing.py patches it

TOPOLOGIES = ("ring", "complete", "xx_pairs")


def t_scale(j_perp: float) -> float:
    """Characteristic oscillation time 2*pi/|J_perp| of the coupled network."""
    if j_perp == 0:
        raise ValueError("t_scale undefined for J_perp = 0")
    return 2.0 * np.pi / abs(j_perp)


def isotropic(j_perp: float, j_par: float) -> bool:
    """Whether J_par = J_perp to 1e-12 relative; ring N=5's steady table holds there only."""
    return abs(j_par - j_perp) <= 1e-12 * max(1.0, abs(j_perp), abs(j_par))


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
            raise ValueError(f"n: a ring needs N >= 3, got {self.n}")
        if self.n < 2:
            raise ValueError(f"n: N >= 2 required, got {self.n}")
        if self.topology == "xx_pairs":
            if not self.pairs:
                raise ValueError("topology: xx_pairs needs at least one PairSpec")
            if self.n != 2 * len(self.pairs):
                raise ValueError("xx_pairs total qubit count must be 2 * len(pairs)")

    @property
    def family(self) -> str:
        """The topology whose closed forms and steady tables cover the
        network: the 3-ring is the 3-clique."""
        return "complete" if self.topology == "ring" and self.n == 3 else self.topology

    @property
    def bonds(self) -> tuple:
        """(i, j, J_perp, J_par) per coupled pair, in the order H sums them: (i, i+1 mod N)
        on the ring, every i < j on the complete graph, (2k, 2k+1, j, 0) for XX pair k."""
        if self.topology == "xx_pairs":
            return tuple((2 * k, 2 * k + 1, p.j, 0.0) for k, p in enumerate(self.pairs))
        pairs = ([(i, (i + 1) % self.n) for i in range(self.n)] if self.topology == "ring"
                 else [(i, j) for i in range(self.n) for j in range(i + 1, self.n)])
        return tuple((i, j, self.j_perp, self.j_par) for i, j in pairs)


def norm_bound(spec: NetworkSpec) -> float:
    """||H|| <= N|h| + sum over bonds of |J_perp| + |J_par|/2, in Python floats."""
    return spec.n * abs(spec.h) + sum(abs(jp) + abs(jz) / 2 for _, _, jp, jz in spec.bonds)


def build_hamiltonian(spec: NetworkSpec) -> np.ndarray:
    """Dense H: the field plus (J_par/2) z_i z_j per bond on the diagonal, and
    J_perp where bits i and j differ, at the index with both flipped. Summed
    in the order of the embedded-Pauli sum (field, then bonds), so H holds
    that sum's bytes."""
    z = z_signs(spec.n)
    site_bit = np.argmin(z, axis=0)  # first state with site i at -1: site i's bit
    diag = np.zeros(len(z))
    if spec.topology == "xx_pairs":
        for k, pair in enumerate(spec.pairs):
            diag += pair.h1 * z[:, 2 * k] + pair.h2 * z[:, 2 * k + 1]
    else:
        diag += spec.h * z.sum(axis=1)
    h_mat = np.zeros((len(z), len(z)), dtype=complex)
    for i, j, j_perp, j_par in spec.bonds:
        diag += 0.5 * j_par * (z[:, i] * z[:, j])
        hop = np.flatnonzero(z[:, i] != z[:, j])
        h_mat[hop, hop ^ site_bit[i] ^ site_bit[j]] += j_perp
    np.fill_diagonal(h_mat, diag)
    return h_mat
