import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmaps.network import (
    NetworkSpec,
    PairSpec,
    blocked_eigensystem,
    build_hamiltonian,
    charge_of,
    charge_operator,
    excitation_permutation,
    fourier_blocks,
    shift_left,
    t_scale,
    translation_matrix,
)

RING4 = NetworkSpec(topology="ring", n=4, h=0.3, j_perp=1.0, j_par=0.7)
CC5 = NetworkSpec(topology="complete", n=5, h=-0.2, j_perp=0.9, j_par=0.4)


def comm(a, b):
    return a @ b - b @ a


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


def test_spec_json_roundtrip():
    spec = NetworkSpec(topology="xx_pairs", n=4,
                       pairs=(PairSpec(1.0, 0.5, 1.0), PairSpec(0.2, 0.1, 0.4)))
    assert NetworkSpec.from_json(spec.to_json()) == spec


def test_hamiltonians_are_hermitian_and_conserve_charge():
    for spec in (RING4, CC5):
        h = build_hamiltonian(spec)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(comm(h, charge_operator(spec.n)))) < 1e-12


def test_ring_commutes_with_translation_but_generic_complete_state_check():
    h = build_hamiltonian(RING4)
    t = translation_matrix(4)
    assert np.max(np.abs(comm(h, t))) < 1e-12
    # complete graph is invariant under every permutation, in particular T
    assert np.max(np.abs(comm(build_hamiltonian(CC5), translation_matrix(5)))) < 1e-12


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


@given(st.integers(3, 6), st.integers(0, 2**6 - 1))
def test_shift_left_preserves_charge(n, s):
    s %= 2**n
    assert charge_of(shift_left(s, n), n) == charge_of(s, n)
    # n applications come back around
    out = s
    for _ in range(n):
        out = shift_left(out, n)
    assert out == s


def test_excitation_permutation_sectors():
    order, slices = excitation_permutation(4)
    assert sorted(order.tolist()) == list(range(16))
    import math
    for q in range(5):
        sl = slices[q]
        assert sl.stop - sl.start == math.comb(4, q)
        assert all(charge_of(int(s), 4) == q for s in order[sl])


def test_fourier_blocks_are_orthonormal_shift_eigenvectors():
    n = 5
    t = translation_matrix(n)
    for q in range(n + 1):
        for block in fourier_blocks(n, q):
            v = block.vectors
            gram = v.conj().T @ v
            assert np.max(np.abs(gram - np.eye(v.shape[1]))) < 1e-12
            phase = np.exp(2j * np.pi * block.a / n)
            assert np.max(np.abs(t @ v - phase * v)) < 1e-12


def test_blocked_eigensystem_matches_dense():
    for spec in (RING4, CC5):
        energies, modes, labels = blocked_eigensystem(spec)
        h = build_hamiltonian(spec)
        # eigen-equation residual, not just the spectrum
        assert np.max(np.abs(h @ modes - modes * energies)) < 1e-9
        dense = np.linalg.eigvalsh(h)
        assert np.max(np.abs(np.sort(energies) - dense)) < 1e-9
        assert len(labels) == 2**spec.n
