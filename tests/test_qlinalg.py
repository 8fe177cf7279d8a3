import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmaps.qlinalg import (
    HermitianEvolver,
    NumericalError,
    PAULI_STACK,
    SI,
    SX,
    SY,
    SZ,
    density_of,
    embed,
    kron_all,
    partial_trace_keep,
    pauli,
    transfer_readout,
)

RNG = np.random.default_rng(7)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def test_pauli_algebra():
    assert np.allclose(pauli("x") @ pauli("y"), 1j * pauli("z"))
    assert np.allclose(pauli("y") @ pauli("z"), 1j * pauli("x"))
    for ax in "xyz":
        assert np.allclose(pauli(ax) @ pauli(ax), SI)
    with pytest.raises(ValueError):
        pauli("w")


def test_kron_all_ordering():
    # first factor is the most significant bit: |0><0| x Z acts on site 1
    op = kron_all([SI, SZ])
    assert op[0, 0] == 1 and op[1, 1] == -1 and op[2, 2] == 1 and op[3, 3] == -1


def test_embed_matches_kron():
    assert np.allclose(embed(SX, 0, 2), np.kron(SX, SI))
    assert np.allclose(embed(SX, 1, 2), np.kron(SI, SX))
    with pytest.raises(ValueError):
        embed(SX, 2, 2)


def test_density_of_refuses_long_bloch():
    with pytest.raises(ValueError):
        density_of([(0.9, 0.9, 0.0)])


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
def test_diagonal_state_is_a_state(zs):
    rho = density_of([(0.0, 0.0, z) for z in zs])
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_partial_trace_recovers_factor():
    blochs = [(0.3, -0.2, 0.4), (0.0, 0.0, -0.8), (0.1, 0.5, 0.2)]
    rho = density_of(blochs)
    for site, (x, y, z) in enumerate(blochs):
        red = partial_trace_keep(rho, site)
        want = 0.5 * (SI + x * SX + y * SY + z * SZ)
        assert np.max(np.abs(red - want)) < 1e-12


def sequential_partial_trace(rho, site):
    """Reference: one np.trace per environment qubit, last qubit first."""
    n = rho.shape[0].bit_length() - 1
    t = rho.reshape((2,) * (2 * n))
    for k in range(n - 1, -1, -1):
        if k != site:
            t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    return t


def test_partial_trace_is_bit_identical_to_sequential_traces():
    for n in range(1, 7):
        dim = 2**n
        rho = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
        for site in range(n):
            assert np.array_equal(partial_trace_keep(rho, site),
                                  sequential_partial_trace(rho, site))
    for bad in (np.eye(3), np.eye(6), np.ones((4, 2))):
        with pytest.raises(ValueError):
            partial_trace_keep(bad, 0)
    for site in (-1, 2):
        with pytest.raises(ValueError):
            partial_trace_keep(np.eye(4), site)


def test_evolver_is_unitary_and_composes():
    h = random_hermitian(8, RNG)
    ev = HermitianEvolver(h)
    u1, u2 = ev.unitary(0.3), ev.unitary(0.7)
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(8))) < 1e-12
    assert np.max(np.abs(u1 @ u2 - ev.unitary(1.0))) < 1e-12
    assert np.max(np.abs(ev.unitary(0.0) - np.eye(8))) < 1e-12


def test_evolver_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianEvolver(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_transfer_readout_identity_and_unitary():
    assert np.allclose(transfer_readout(PAULI_STACK), np.eye(4))
    # conjugation by exp(-i phi Z / 2): rotation block about z by angle phi
    phi = 0.8
    u = np.array([[np.exp(-0.5j * phi), 0], [0, np.exp(0.5j * phi)]])
    t = transfer_readout([u @ m @ u.conj().T for m in PAULI_STACK])
    assert abs(t[1, 1] - np.cos(phi)) < 1e-12
    assert abs(t[2, 1] - np.sin(phi)) < 1e-12
    assert abs(t[3, 3] - 1.0) < 1e-12


def test_transfer_readout_rejects_non_hermiticity_preserving():
    with pytest.raises(NumericalError):
        transfer_readout(1j * PAULI_STACK)
