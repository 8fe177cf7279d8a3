import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st

from spinmaps.network import NetworkSpec, build_hamiltonian
from spinmaps.qlinalg import (PAULI_AXES, HermitianEvolver, density_of, kron_all,
                              partial_trace_keep, pauli)
from spinmaps.reduced import (
    MapExtractor,
    PCParams,
    choi_check,
    choi_matrix,
    cp_ok,
    fit_pc,
    fixed_point,
    transfer_from_unitary,
)

RNG = np.random.default_rng(11)

CC3 = HermitianEvolver(build_hamiltonian(NetworkSpec(topology="complete", n=3, h=0.37,
                                                     j_perp=1.0, j_par=0.4)))

unit_floats = st.floats(-1.0, 1.0)


def random_env(n, rng, diagonal=True):
    if diagonal:
        return [(0.0, 0.0, float(z)) for z in rng.uniform(-1, 1, n - 1)]
    vs = rng.normal(size=(n - 1, 3))
    vs /= np.maximum(1.0, np.linalg.norm(vs, axis=1))[:, None] * 1.2
    return [tuple(v) for v in vs]


def test_reduced_map_is_identity_at_t0():
    env = random_env(3, RNG)
    assert np.max(np.abs(MapExtractor(CC3, 0, env).transfer(0.0) - np.eye(4))) < 1e-12


def partner_sets(n, rng):
    """Diagonal, transverse and pure environments of n - 1 partners: mixed z,
    random vectors inside the ball, z = +-1 and unit-norm tilted vectors
    (rank-1 square roots)."""
    tilted = rng.normal(size=(n - 1, 3))
    tilted /= np.linalg.norm(tilted, axis=1)[:, None]
    return [random_env(n, rng),
            random_env(n, rng, diagonal=False),
            [(0.0, 0.0, float(z)) for z in rng.choice([-1.0, 1.0], n - 1)],
            [tuple(v) for v in tilted]]


def test_extractor_matches_one_shot_and_unitary_path():
    for n in range(2, 7):
        h = build_hamiltonian(NetworkSpec(topology="ring" if n >= 3 else "complete", n=n,
                                          h=0.37, j_perp=1.0, j_par=0.6))
        for site in range(n):
            for env in partner_sets(n, RNG):
                ex = MapExtractor(HermitianEvolver(h), site, env)
                for t in (0.3, 1.7):
                    m1 = ex.transfer(t)
                    m2 = MapExtractor(HermitianEvolver(h), site, env).transfer(t)
                    m3 = transfer_from_unitary(ex.evolver.unitary(t), site, env)
                    assert np.max(np.abs(m1 - m2)) < 1e-12
                    assert np.max(np.abs(m1 - m3)) < 1e-12


def test_transfer_from_unitary_matches_trace_loop():
    # one partial trace per Pauli input and one np.trace per entry; the
    # Heisenberg-picture kernel sums in another order, so roundoff only
    for n in range(2, 7):
        h = build_hamiltonian(NetworkSpec(topology="ring" if n >= 3 else "complete", n=n,
                                          h=0.37, j_perp=1.0, j_par=0.6))
        u = MapExtractor(HermitianEvolver(h), 0, random_env(n, RNG)).evolver.unitary(1.3)
        for site in range(n):
            env = random_env(n, RNG, diagonal=False)
            envs = iter(env)
            rest = [density_of([next(envs)]) if k != site else None for k in range(n)]
            want = np.empty((4, 4), dtype=complex)
            for j, aj in enumerate(PAULI_AXES):
                op = kron_all([pauli(aj) if k == site else f for k, f in enumerate(rest)])
                out = partial_trace_keep(u @ op @ u.conj().T, site)
                for i, ai in enumerate(PAULI_AXES):
                    want[i, j] = 0.5 * np.trace(pauli(ai) @ out)
            assert np.max(np.abs(transfer_from_unitary(u, site, env) - want.real)) <= 1e-14


def test_transfer_from_unitary_of_composed_propagators():
    # a piecewise-constant schedule U = U2 U1 under two different Hamiltonians,
    # against scipy's expm, np.kron inputs and the partial trace
    rng = np.random.default_rng(19)
    for n in range(3, 6):
        h1 = build_hamiltonian(NetworkSpec(topology="ring", n=n, h=0.37, j_perp=1.0, j_par=0.6))
        h2 = build_hamiltonian(NetworkSpec(topology="complete", n=n, h=-0.8, j_perp=0.7,
                                           j_par=1.3))
        u = scipy.linalg.expm(-2.1j * h2) @ scipy.linalg.expm(-0.9j * h1)
        for site in range(n):
            env = random_env(n, rng, diagonal=False)
            rest = [density_of([b]) for b in env]
            rest.insert(site, None)
            want = np.empty((4, 4))
            for j, aj in enumerate(PAULI_AXES):
                op = np.ones((1, 1))
                for k, f in enumerate(rest):
                    op = np.kron(op, pauli(aj) if k == site else f)
                out = partial_trace_keep(u @ op @ u.conj().T, site)
                want[:, j] = [0.5 * np.trace(pauli(ai) @ out).real for ai in PAULI_AXES]
            assert np.max(np.abs(transfer_from_unitary(u, site, env) - want)) <= 1e-12


def test_reduced_maps_preserve_trace_and_are_cp():
    for _ in range(10):
        env = random_env(3, RNG, diagonal=False)
        t = float(RNG.uniform(0, 8))
        m = MapExtractor(CC3, 0, env).transfer(t)
        assert np.max(np.abs(m[0] - np.array([1, 0, 0, 0]))) < 1e-12
        assert choi_check(m) >= -1e-9


def test_phase_covariance_diagonal_env_only():
    diag = random_env(3, RNG)
    assert fit_pc(MapExtractor(CC3, 0, diag).transfer(1.1)).residual <= 1e-8
    tilted = [(0.6, 0.0, 0.2), (0.0, 0.0, 0.5)]
    assert not fit_pc(MapExtractor(CC3, 0, tilted).transfer(1.1)).residual <= 1e-8


@given(unit_floats, st.floats(-np.pi, np.pi), unit_floats, unit_floats)
def test_fit_pc_roundtrip(l1, th, l3, t3):
    p = PCParams(lambda1=abs(l1), theta=th, lambda3=l3, tau3=t3)
    q = fit_pc(p.transfer())
    assert q.residual < 1e-12
    assert abs(q.lambda1 - p.lambda1) < 1e-12
    assert abs(q.lambda3 - p.lambda3) < 1e-12
    assert abs(q.tau3 - p.tau3) < 1e-12
    if p.lambda1 > 1e-9:
        # theta is only defined when the rotation block is nonzero
        d = (q.theta - p.theta) % (2 * np.pi)
        assert min(d, 2 * np.pi - d) < 1e-9


PC_FIELDS = ("lambda1", "theta", "lambda3", "tau3", "residual")


def test_fit_pc_over_a_stack_equals_pointwise_calls():
    # covariant maps, maps against a tilted environment and arbitrary
    # matrices, so every field, the residual included, is read off-pattern too
    diag = MapExtractor(CC3, 0, random_env(3, RNG))
    tilted = MapExtractor(CC3, 1, [(0.6, 0.0, 0.2), (0.0, 0.0, 0.5)])
    stack = np.array([[diag.transfer(t), tilted.transfer(t), RNG.normal(size=(4, 4))]
                      for t in np.linspace(0.0, 6.0, 13)])  # (T, S, 4, 4)
    for maps in (stack[:, 1], stack):
        whole = fit_pc(maps)
        points = [fit_pc(m) for m in maps.reshape(-1, 4, 4)]
        for field in PC_FIELDS:
            got = getattr(whole, field)
            assert got.shape == maps.shape[:-2]
            want = np.array([getattr(p, field) for p in points]).reshape(got.shape)
            assert got.tobytes() == want.tobytes(), field
    one = fit_pc(stack[4, 1])
    assert all(type(getattr(one, field)) is float for field in PC_FIELDS)


def test_fit_pc_residual_reads_every_off_pattern_deviation():
    base = PCParams(lambda1=0.4, theta=0.7, lambda3=0.2, tau3=-0.3).transfer()
    assert fit_pc(base).residual == 0.0
    for i in range(4):
        for j in range(4):
            m = base.copy()
            m[i, j] += 0.5
            # T30 and T33 are tau3 and lambda3; every other entry is constrained
            want = 0.0 if (i, j) in ((3, 0), (3, 3)) else 0.5
            assert fit_pc(m).residual == pytest.approx(want, abs=1e-15), (i, j)


@given(unit_floats, unit_floats, unit_floats)
@example(0.0, 1.0, 1e-10)  # outside CP by 2.5e-11: cp_ok rejects, choi_check accepts
def test_cp_ok_agrees_with_choi(l1, t3, l3):
    p = PCParams(lambda1=abs(l1), theta=0.9, lambda3=l3, tau3=t3)
    ineq = cp_ok(p.lambda1, p.tau3, p.lambda3, tol=1e-12)
    choi = choi_check(p.transfer()) >= -1e-9
    # The Choi matrix of the pattern has eigenvalues (1 - l3 +- t3)/4 and
    # (1 + l3 +- r)/4 with r = hypot(t3, 2 l1), so the exact CP margin is
    # m = min(1 - l3 - |t3|, 1 + l3 - r)/4. cp_ok's slacks g1 = 1 - |l3| - |t3|
    # and g2 = (1 + l3)^2 - r^2 are negative exactly when m is. Outside CP
    # (m < 0), choi_check still accepts down to m = -1e-9 and cp_ok down to
    # min(g1, g2) = -1e-12, each up to roundoff (eigvalsh is within 4e-16 of
    # m here), so only there may the two disagree.
    r = np.hypot(t3, 2.0 * l1)
    margin = min(1.0 - l3 - abs(t3), 1.0 + l3 - r) / 4.0
    slack = min(1.0 - abs(l3) - abs(t3), (1.0 + l3) ** 2 - r**2)
    in_band = margin < 0 and (margin >= -1e-9 - 1e-14 or slack >= -1e-12 - 1e-14)
    assume(not in_band)
    assert ineq == choi


def test_choi_matrix_of_identity():
    c = choi_matrix(np.eye(4))
    # maximally entangled projector, trace one
    assert abs(np.trace(c) - 1.0) < 1e-12
    vals = np.linalg.eigvalsh(c)
    assert np.max(np.abs(vals - np.array([0, 0, 0, 1.0]))) < 1e-12


def kron_sum_choi(transfer):
    """Reference: C = (1/4) sum_ij T[i, j] sigma_i tensor sigma_j^T."""
    return sum(0.25 * transfer[i, j] * np.kron(pauli(ai), pauli(aj).T)
               for i, ai in enumerate(PAULI_AXES)
               for j, aj in enumerate(PAULI_AXES))


def test_choi_matrix_matches_kron_sum_definition():
    # generic transfers: neither trace-preserving nor phase-covariant
    for t in RNG.uniform(-1.0, 1.0, size=(200, 4, 4)):
        assert np.max(np.abs(choi_matrix(t) - kron_sum_choi(t))) < 1e-15


def test_choi_check_on_a_stack_matches_per_matrix_calls():
    stack = RNG.uniform(-1.0, 1.0, size=(2, 9, 4, 4))
    assert np.array_equal(choi_matrix(stack)[1, 4], choi_matrix(stack[1, 4]))
    for block in stack:
        low = choi_check(block)
        assert low.shape == (9,)
        each = np.array([choi_check(t) for t in block])
        assert isinstance(choi_check(block[0]), float)
        assert np.max(np.abs(low - each)) <= 1e-15
    assert choi_check(stack).shape == (2, 9)


def test_fixed_point_values():
    fp = fixed_point(PCParams(0.2, 0.0, 0.5, 0.25))
    assert abs(fp.a_star - 0.5) < 1e-12
    assert abs(fp.beta_star - np.log(4.0)) < 1e-12
    assert not fp.degenerate
    assert fixed_point(PCParams(0.0, 0.0, 1.0, 0.0)).degenerate
    with pytest.raises(ValueError):
        fixed_point(PCParams(0.0, 0.0, 1.0, 0.3))
    # a* -> 1 gives infinite effective inverse temperature
    assert fixed_point(PCParams(0.0, 0.0, 0.5, 0.5)).beta_star == np.inf


def test_transfer_entries_reject_bad_env_count():
    with pytest.raises(ValueError):
        MapExtractor(CC3, 0, [(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        transfer_from_unitary(np.eye(8), 0, [(0.0, 0.0, 1.0)] * 3)
    for site in (-1, 3):  # a focal site outside the register
        with pytest.raises(ValueError):
            MapExtractor(CC3, site, [(0.0, 0.0, 1.0)] * 2)
        with pytest.raises(ValueError):
            transfer_from_unitary(np.eye(8), site, [(0.0, 0.0, 1.0)] * 2)
