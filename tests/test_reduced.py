import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st

from spinmaps.network import NetworkSpec, build_hamiltonian, t_scale
from spinmaps.qlinalg import (PAULI_AXES, PAULI_STACK, SI, HermitianEvolver, density_of,
                              kron_all, partial_trace_keep, pauli)
from spinmaps.reduced import (
    MapExtractor,
    _sqrt_density,
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


def dense_einsum_transfer(u, site, env):
    """The map as read before the column scale and the fixed tables: V = U R
    with the dense root product R, then two einsums over its Gram matrix."""
    n = u.shape[0].bit_length() - 1
    roots = [_sqrt_density(v) for v in env]
    v = u @ kron_all(roots[:site] + [SI] + roots[site:])
    lo, hi = 2**site, 2 ** (n - 1 - site)
    a = v.reshape(lo, 2, hi, lo, 2, hi).transpose(1, 4, 0, 2, 3, 5).reshape(4, -1)
    gram = (a @ a.conj().T).reshape(2, 2, 2, 2)
    outs = np.einsum("acbd,jcd->jab", gram, PAULI_STACK)
    return (0.5 * np.einsum("iab,jba->ij", PAULI_STACK, outs)).real


def test_extractor_is_byte_identical_to_dense_product_and_einsums():
    """Diagonal partners (mixed z, z = +-1 with zero root entries, z = +-0.0)
    take the column scale, transverse ones the dense product; both equal the
    dense-product, two-einsum kernel byte for byte at t = 0 and on the
    ed-maps grid. At t = 1e-300 the Gram entries underflow, where the two
    may differ by subnormals, so that time is bounded at 1e-300."""
    rng = np.random.default_rng(23)
    times = np.linspace(0.0, 4 * t_scale(1.0), 81)
    for n in range(2, 7):
        h = build_hamiltonian(NetworkSpec(topology="ring" if n >= 3 else "complete", n=n,
                                          h=0.37, j_perp=1.0, j_par=0.6))
        evolver = HermitianEvolver(h)
        for site in range(n):
            sets = {"mixed": random_env(n, rng),
                    "pure": [(0.0, 0.0, z) for z in rng.choice([-1.0, 1.0], n - 1)],
                    "zero": [(0.0, 0.0, z) for z in rng.choice([-0.0, 0.0], n - 1)],
                    "transverse": random_env(n, rng, diagonal=False)}
            for name, env in sets.items():
                ex = MapExtractor(evolver, site, env)
                assert (ex.root is None) == (name != "transverse"), name
                for t in times:
                    want = dense_einsum_transfer(evolver.unitary(t), site, env)
                    assert ex.transfer(t).tobytes() == want.tobytes(), (n, site, name, t)
                want = dense_einsum_transfer(evolver.unitary(1e-300), site, env)
                assert np.max(np.abs(ex.transfer(1e-300) - want)) <= 1e-300


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


def dense_heisenberg_transfer(u, site, env):
    """The kernel the band read replaced: four dense inputs sigma_j tensor
    rho_env against the blocks N_ab = U_a^T conj(U_b) of u's rows split by
    the focal bit, in one (4, d^2) @ (d^2, 4) product."""
    d = u.shape[0]
    left, right = density_of(env[:site]), density_of(env[site:])
    inputs = np.stack([kron_all([left, sigma, right]) for sigma in PAULI_STACK]).reshape(4, -1)
    rows = u.reshape(2**site, 2, -1, d)
    u0, u1 = rows[:, 0].reshape(-1, d), rows[:, 1].reshape(-1, d)
    n01 = u0.T @ u1.conj()
    blocks = np.stack([u0.T @ u0.conj(), n01, n01.conj().T, u1.T @ u1.conj()])
    outs = (inputs @ blocks.reshape(4, -1).T).reshape(4, 2, 2)
    return (0.5 * np.einsum("iab,jba->ij", PAULI_STACK, outs)).real


def test_transfer_from_unitary_matches_dense_kernel():
    """The band read equals the dense Heisenberg kernel to roundoff for
    diagonal, signed-zero, pure and transverse partners, and for a u that is
    not unitary."""
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        d = 2**n
        h = build_hamiltonian(NetworkSpec(topology="ring" if n >= 3 else "complete", n=n,
                                          h=0.37, j_perp=1.0, j_par=0.6))
        evolver = HermitianEvolver(h)
        general = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2 * d)
        ops = {"t=0": evolver.unitary(0.0), "t=1.3": evolver.unitary(1.3), "random": general}
        for site in range(n):
            sets = partner_sets(n, rng) + [
                [(0.0, 0.0, z) for z in rng.choice([-0.0, 0.0], n - 1)]]
            for env in sets:
                for name, u in ops.items():
                    got = transfer_from_unitary(u, site, env)
                    want = dense_heisenberg_transfer(u, site, env)
                    assert np.max(np.abs(got - want)) <= 1e-14, (n, site, env, name)


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


@pytest.mark.parametrize("bad", [(0.0, 0.0, np.nan), (np.nan, 0.2, 0.1),
                                 (0.0, 0.0, 1.1), (0.9, 0.9, 0.0)],
                         ids=["nan-z", "nan-transverse", "long-z", "long-transverse"])
def test_entry_points_refuse_nan_and_long_partners(bad):
    env = [(0.0, 0.0, 0.3), bad]
    with pytest.raises(ValueError, match="norm > 1"):
        density_of([bad])
    for site in range(3):
        with pytest.raises(ValueError, match="norm > 1"):
            transfer_from_unitary(CC3.unitary(0.7), site, env)
        with pytest.raises(ValueError, match="norm > 1"):
            MapExtractor(CC3, site, env)


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
