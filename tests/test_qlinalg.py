import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmaps.qlinalg import (
    HERM_TOL,
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
    z_signs,
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


def test_z_signs_are_the_diagonals_of_embedded_z():
    for n in range(1, 6):
        z = z_signs(n)
        assert z.shape == (2**n, n)
        for site in range(n):
            assert np.array_equal(z[:, site], embed(SZ, site, n).diagonal().real)


def test_kron_all_ordering():
    # first factor is the most significant bit: |0><0| x Z acts on site 1
    op = kron_all([SI, SZ])
    assert op[0, 0] == 1 and op[1, 1] == -1 and op[2, 2] == 1 and op[3, 3] == -1


def kron_fold(ops):
    """Reference: np.kron folded left to right from [[1+0j]]."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def test_kron_all_is_byte_identical_to_np_kron_fold():
    signed = np.array([[-0.0, 1.0], [0.5, -0.0]])
    cases = [
        [RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)) for _ in range(4)],
        [RNG.normal(size=(2, 2)) for _ in range(3)],  # real factors
        [signed, SZ, signed, -0.0 * SX],  # signed zeros survive
        [np.array([[2.5 - 0j]]), SY, np.array([[-0.0 + 1j]])],  # 1x1 factors
        [RNG.normal(size=(2, 3)), RNG.normal(size=(1, 2)) + 1j, RNG.normal(size=(3, 1))],
        [],
    ]
    for ops in cases:
        got, want = kron_all(ops), kron_fold(ops)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # embed passes a generator
    got = kron_all(SX if k == 1 else SI for k in range(3))
    assert got.tobytes() == kron_fold([SI, SX, SI]).tobytes()


def test_kron_all_returns_fresh_writeable_arrays():
    # the empty product is a fresh [[1+0j]]: writing into one result changes
    # neither a later empty product nor any later fold
    first = kron_all([])
    assert first.tobytes() == np.array([[1.0 + 0j]]).tobytes() and first.flags.writeable
    first[0, 0] = 7.0
    assert kron_all([])[0, 0] == 1.0 and kron_all([SZ]).tobytes() == kron_fold([SZ]).tobytes()
    assert kron_all([]) is not kron_all([])
    single = kron_all([SX])
    assert single.flags.writeable and not np.shares_memory(single, SX)
    single[:] = 3.0
    assert kron_all([SX]).tobytes() == kron_fold([SX]).tobytes()


def test_embed_matches_kron():
    assert np.allclose(embed(SX, 0, 2), np.kron(SX, SI))
    assert np.allclose(embed(SX, 1, 2), np.kron(SI, SX))
    with pytest.raises(ValueError):
        embed(SX, 2, 2)


def test_density_of_refuses_long_bloch():
    with pytest.raises(ValueError):
        density_of([(0.9, 0.9, 0.0)])


def test_density_of_is_byte_identical_to_pauli_sum():
    # signed zeros count: x = y = 0, z = +-1 and -0.0 components
    rng = np.random.default_rng(3)
    vs = rng.normal(size=(20000, 3))
    vs /= np.maximum(1.0, np.linalg.norm(vs, axis=1))[:, None]
    edges = [(x, y, z) for x in (0.0, -0.0, 0.6) for y in (0.0, -0.0, -0.8)
             for z in (1.0, -1.0, 0.0, -0.0) if x * x + y * y + z * z <= 1.0]
    for x, y, z in [tuple(map(float, v)) for v in vs] + edges:
        want = 0.5 * (SI + x * SX + y * SY + z * SZ)
        assert density_of([(x, y, z)]).tobytes() == want.tobytes()
    blochs = edges[:4]
    assert density_of(blochs).tobytes() == kron_all(
        [0.5 * (SI + x * SX + y * SY + z * SZ) for x, y, z in blochs]).tobytes()


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
    # one matrix and a stack of them, compared as bytes so signed zeros count
    for n in range(1, 7):
        dim = 2**n
        stack = RNG.normal(size=(3, dim, dim)) + 1j * RNG.normal(size=(3, dim, dim))
        stack[1, ::3] *= -0.0
        for site in range(n):
            want = np.stack([sequential_partial_trace(rho, site) for rho in stack])
            assert partial_trace_keep(stack, site).tobytes() == want.tobytes()
            for rho, w in zip(stack, want):
                assert partial_trace_keep(rho, site).tobytes() == w.tobytes()
    for bad in (np.eye(3), np.eye(6), np.ones((4, 2)), np.ones(4),
                np.ones((2, 4, 2)), np.ones((2, 3, 3)), np.ones((2, 2, 4, 4))):
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


def test_evolver_keeps_the_last_unitary():
    # the kept matrix is the one a fresh evolver assembles for the same t, over
    # repeats, switches back, signed zeros and both float types
    h = random_hermitian(8, np.random.default_rng(11))
    ev = HermitianEvolver(h)
    sequence = [0.7, 0.7, 1.3, 0.7, 0.0, -0.0, 0.0, np.float64(1.3), 1.3, np.float64(0.7)]
    for t in sequence:
        u = ev.unitary(t)
        assert u.tobytes() == HermitianEvolver(h).unitary(t).tobytes()
        assert ev.unitary(t) is u
        assert not u.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0.0
    # a matrix handed out earlier stays as it was after a new t
    earlier = ev.unitary(0.7)
    kept = earlier.copy()
    ev.unitary(2.9)
    assert earlier.tobytes() == kept.tobytes()
    # 0.0 and -0.0 are different keys: each is assembled from its own t
    # (the sequence above held each to its own fresh result)
    assert ev.unitary(-0.0) is not ev.unitary(0.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, np.float64(np.nan)])
def test_evolver_refuses_non_finite_times(t):
    # bad input, not a library fault
    ev = HermitianEvolver(random_hermitian(4, np.random.default_rng(12)))
    with pytest.raises(ValueError, match="not finite") as caught:
        ev.unitary(t)
    assert not isinstance(caught.value, NumericalError)


def test_evolver_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianEvolver(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("skew, refused", [(1e-6, True), (1e-12, False)])
def test_evolver_hermiticity_tolerance_edge(skew, refused):
    # an anti-Hermitian part far above roundoff is refused; one at roundoff is not
    h = random_hermitian(8, np.random.default_rng(3))
    h[0, 1] += skew
    h[1, 0] -= skew
    if refused:
        with pytest.raises(NumericalError, match="not Hermitian"):
            HermitianEvolver(h)
    else:
        HermitianEvolver(h)


def test_evolver_refuses_nan_generator():
    # a NaN residue compares False against any tolerance: the guard must fail on it
    with pytest.raises(NumericalError, match="not Hermitian"):
        HermitianEvolver(np.array([[0.0, np.nan], [np.nan, 1.0]]))


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


@pytest.mark.parametrize("residue, refused", [(1e-6, True), (1e-12, False)])
def test_transfer_readout_imaginary_residue_edge(residue, refused):
    outs = (1.0 + 1j * residue) * PAULI_STACK
    if refused:
        with pytest.raises(NumericalError, match="Hermiticity-preserving"):
            transfer_readout(outs)
    else:
        assert np.array_equal(transfer_readout(outs), np.eye(4))


def test_transfer_readout_refuses_nan_images():
    with pytest.raises(NumericalError, match="Hermiticity-preserving"):
        transfer_readout(np.full((4, 2, 2), np.nan + 0j))


def test_transfer_readout_is_byte_identical_to_einsum():
    # accepted inputs: random complex stacks of Hermitian images plus a
    # residue below HERM_TOL, and stacks whose entries come from signed
    # zeros, +-1, subnormals and other exact values, with the two
    # off-diagonal real parts equal up to the sign of a zero
    rng = np.random.default_rng(29)
    a, b = rng.normal(size=(2, 2, 3000, 4, 2, 2))
    hermitian = (a[0] + 1j * a[1]) + (a[0] + 1j * a[1]).conj().transpose(0, 1, 3, 2)
    residue = 1e-12 * (b[0] + 1j * b[1])
    re = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 5e-324, -1e-320], size=(20000, 4, 2, 2))
    re[..., 1, 0] = np.where(re[..., 0, 1] == 0.0, rng.choice([0.0, -0.0], size=(20000, 4)),
                             re[..., 0, 1])
    im = rng.choice([0.0, -0.0, 5e-324, -1e-320], size=(20000, 4, 2, 2))
    for outs in [*(hermitian + residue), *(re + 1j * im)]:
        want = 0.5 * np.einsum("iab,jba->ij", PAULI_STACK, outs)
        assert np.max(np.abs(want.imag)) <= HERM_TOL
        assert transfer_readout(outs).tobytes() == want.real.tobytes()
    # rejected inputs: random complex stacks, refused exactly when the einsum
    # reading has imaginary residue beyond HERM_TOL
    c = rng.normal(size=(2, 500, 4, 2, 2))
    for outs in c[0] + 1j * c[1]:
        want = 0.5 * np.einsum("iab,jba->ij", PAULI_STACK, outs)
        assert np.max(np.abs(want.imag)) > HERM_TOL
        with pytest.raises(NumericalError):
            transfer_readout(outs)


def test_roundoff_budget_and_array_count_limits():
    from spinmaps.qlinalg import MAX_DOUBLES, check_count, roundoff_budget

    assert roundoff_budget(3.0, 2.0) == np.finfo(float).eps * 3.0 * 2.0
    assert roundoff_budget(1e300, 1e300) == math.inf  # a Python float: no warning
    check_count(MAX_DOUBLES, "steps")
    for count in (MAX_DOUBLES + 1, 1e300, math.inf):
        with pytest.raises(ValueError, match=r"^steps: "):
            check_count(count, "steps")
