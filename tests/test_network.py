import numpy as np
import pytest

from spinmaps.network import NetworkSpec, PairSpec, build_hamiltonian, charge_operator, t_scale
from spinmaps.qlinalg import SX, embed

RING4 = NetworkSpec(topology="ring", n=4, h=0.3, j_perp=1.0, j_par=0.7)
CC5 = NetworkSpec(topology="complete", n=5, h=-0.2, j_perp=0.9, j_par=0.4)


def comm(a, b):
    return a @ b - b @ a


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


def test_hamiltonians_are_hermitian_and_conserve_charge():
    for spec in (RING4, CC5):
        h = build_hamiltonian(spec)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(comm(h, charge_operator(spec.n)))) < 1e-12


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
