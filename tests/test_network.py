import numpy as np
import pytest

from spinmaps.network import NetworkSpec, PairSpec, build_hamiltonian, t_scale
from spinmaps.qlinalg import SX, SY, SZ, embed, z_signs

RING4 = NetworkSpec(topology="ring", n=4, h=0.3, j_perp=1.0, j_par=0.7)
CC5 = NetworkSpec(topology="complete", n=5, h=-0.2, j_perp=0.9, j_par=0.4)


# complete N=2..7 and ring N=3..7 at five coupling sets, and 1-3 XX pairs
COUPLINGS = [(0.31, 1.0, 0.6), (-0.3, 1.0, 0.0), (-0.0, -0.7, -2.0), (0.37, 0.9, 0.45),
             (0.2, -0.7, 1.0)]
PAIRS = [PairSpec(1.0, 0.5, 0.8), PairSpec(-0.3, 0.2, 1.2), PairSpec(0.1, -0.0, -0.7)]
SPECS = ([NetworkSpec(topology, n, h, j_perp, j_par) for h, j_perp, j_par in COUPLINGS
          for topology, sizes in (("complete", range(2, 8)), ("ring", range(3, 8)))
          for n in sizes]
         + [NetworkSpec("xx_pairs", 2 * k, pairs=tuple(PAIRS[:k])) for k in (1, 2, 3)])


def comm(a, b):
    return a @ b - b @ a


def embedded_pauli_hamiltonian(spec):
    """Reference: the sum of embedded Pauli products, field first, then
    (J_perp/2)(X_i X_j + Y_i Y_j) + (J_par/2) Z_i Z_j for each bond."""
    n = spec.n
    h_mat = np.zeros((2**n, 2**n), dtype=complex)

    def bond(i, j, j_perp, j_par):
        def two(op):
            return embed(op, i, n) @ embed(op, j, n)
        return 0.5 * j_perp * (two(SX) + two(SY)) + 0.5 * j_par * two(SZ)

    if spec.topology == "xx_pairs":
        for k, pair in enumerate(spec.pairs):
            h_mat += pair.h1 * embed(SZ, 2 * k, n) + pair.h2 * embed(SZ, 2 * k + 1, n)
            h_mat += bond(2 * k, 2 * k + 1, pair.j, 0.0)
        return h_mat
    h_mat += spec.h * sum(embed(SZ, i, n) for i in range(n))
    pairs = ([(i, (i + 1) % n) for i in range(n)] if spec.topology == "ring"
             else [(i, j) for i in range(n) for j in range(i + 1, n)])
    for i, j in pairs:
        h_mat += bond(i, j, spec.j_perp, spec.j_par)
    return h_mat


def cyclic_shift(n):
    """Permutation matrix of the cyclic left shift of n sites (site 0 is the
    most significant bit)."""
    dim = 2**n
    t = np.zeros((dim, dim))
    for s in range(dim):
        t[((s << 1) & (dim - 1)) | (s >> (n - 1)), s] = 1.0
    return t


def test_t_scale():
    assert t_scale(2.0) == np.pi
    assert t_scale(-2.0) == np.pi
    with pytest.raises(ValueError):
        t_scale(0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(topology="tree", n=3)
    with pytest.raises(ValueError):
        NetworkSpec(topology="ring", n=2)
    with pytest.raises(ValueError):
        NetworkSpec(topology="xx_pairs", n=4)  # pairs missing
    with pytest.raises(ValueError):
        NetworkSpec(topology="xx_pairs", n=3, pairs=(PairSpec(1.0, 0.5, 1.0),))


def test_bonds_list_every_coupled_pair_in_summation_order():
    for n in range(3, 8):
        ring = NetworkSpec("ring", n, j_perp=0.9, j_par=0.4).bonds
        assert ring == tuple((i, (i + 1) % n, 0.9, 0.4) for i in range(n))
        complete = NetworkSpec("complete", n, j_perp=0.9, j_par=0.4).bonds
        assert len(complete) == n * (n - 1) // 2
        assert complete == tuple((i, j, 0.9, 0.4) for i in range(n) for j in range(i + 1, n))
    pairs = NetworkSpec("xx_pairs", 4, pairs=tuple(PAIRS[:2])).bonds
    assert pairs == ((0, 1, 0.8, 0.0), (2, 3, 1.2, 0.0))


def test_build_hamiltonian_is_byte_identical_to_embedded_pauli_sum():
    assert len(SPECS) == 58
    for spec in SPECS:
        got, want = build_hamiltonian(spec), embedded_pauli_hamiltonian(spec)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), spec


def test_hamiltonians_are_hermitian_and_conserve_charge():
    for spec in (RING4, CC5):
        h = build_hamiltonian(spec)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        charge = np.diag(z_signs(spec.n).sum(axis=1))
        assert np.max(np.abs(comm(h, charge))) < 1e-12


def test_ring_commutes_with_translation_but_generic_complete_state_check():
    h = build_hamiltonian(RING4)
    t = cyclic_shift(4)
    for k in range(4):  # T moves every site one step, cyclically
        assert np.array_equal(t @ embed(SX, k, 4) @ t.T, embed(SX, (k - 1) % 4, 4))
    assert np.max(np.abs(comm(h, t))) < 1e-12
    # complete graph is invariant under every permutation, in particular T
    assert np.max(np.abs(comm(build_hamiltonian(CC5), cyclic_shift(5)))) < 1e-12


def test_ring3_equals_complete3():
    ring = NetworkSpec(topology="ring", n=3, h=0.2, j_perp=1.1, j_par=-0.3)
    cc = NetworkSpec(topology="complete", n=3, h=0.2, j_perp=1.1, j_par=-0.3)
    assert np.max(np.abs(build_hamiltonian(ring) - build_hamiltonian(cc))) < 1e-12


def test_xx_pairs_block_structure():
    spec = NetworkSpec(topology="xx_pairs", n=4,
                       pairs=(PairSpec(1.0, 0.5, 0.8), PairSpec(-0.3, 0.2, 1.2)))
    h = build_hamiltonian(spec)
    # no uniform field term; the two pair blocks must not talk to each other
    one = NetworkSpec(topology="xx_pairs", n=2, pairs=(PairSpec(1.0, 0.5, 0.8),))
    two = NetworkSpec(topology="xx_pairs", n=2, pairs=(PairSpec(-0.3, 0.2, 1.2),))
    want = np.kron(build_hamiltonian(one), np.eye(4)) + np.kron(
        np.eye(4), build_hamiltonian(two))
    assert np.max(np.abs(h - want)) < 1e-12


@pytest.mark.parametrize("topology, n, h, j_perp, j_par", [
    ("ring", 4, 0.3, 1.0, 0.7), ("complete", 5, -0.2, 0.9, 0.4),
    # Ising-dominated: the J_par terms carry the spectrum
    ("ring", 4, 0.0, 0.01, 10.0), ("complete", 3, 0.0, 0.0, -4.0), ("ring", 5, 2.0, -1.0, 0.0),
])
def test_norm_bound_bounds_the_spectrum(topology, n, h, j_perp, j_par):
    from spinmaps.network import norm_bound

    spec = NetworkSpec(topology=topology, n=n, h=h, j_perp=j_perp, j_par=j_par)
    bonds = len(spec.bonds)
    assert norm_bound(spec) == pytest.approx(n * abs(h) + bonds * (abs(j_perp) + abs(j_par) / 2),
                                             rel=1e-14)
    assert np.abs(np.linalg.eigvalsh(build_hamiltonian(spec))).max() <= norm_bound(spec) + 1e-12
