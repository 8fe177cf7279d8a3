"""Closed-form reduced-map parameters for small XXZ networks.

Families covered, all against diagonal (Bloch-z) environments:

- cc_params: complete graph, any N >= 2, full XXZ. Derived, not
  transcribed: H is a function of the collective spin, so the focal
  site's channel is a sum over blocks of four Clebsch-Gordan levels, one
  per partner spin J' and M' (ensemble.collective_blocks).
- ring_params: rings 3 <= N <= RING_ORACLE_MAX_N, full XXZ. Derived: H
  conserves the charge and commutes with the cyclic shift, so eigh of each
  (charge, momentum) block gives the eigenbasis (_ring_basis).
- xx_reduced_map / xx_unitary_components: one detuned XX pair. The full
  two-qubit channel in the Pauli basis has 70 nonzero entries taking 17
  distinct values up to sign. xx_reduced_map computes only the values the
  focal qubit's 4x4 places and writes that block straight from them, byte
  for byte the partner-weighted sum over the 16x16 channel.
  xx_unitary_components builds that 16x16 channel, the reference the tests
  hold xx_reduced_map to, from all 17 values (_xx_values, which feeds only
  this reference): a module-level table of (row, col, value slot, sign),
  built once from the Pauli labels, places them with one numpy scatter per
  call. The kernel and the reference share the expressions, not the code.
- closed_form: the transfer matrix of any NetworkSpec that a family above
  covers; the families' own checks raise UnsupportedNetwork for the rest.
- map_series: the `maps` pipeline, numeric maps held to closed_form within
  ORACLE_TOL where the roundoff budget stays under ROUNDOFF_LIMIT.

Both XXZ families hand their eigenpairs, the field on the energies, to
ensemble.SpectralAverage and read their PCParams off its maps with fit_pc:
the engine's evaluator. cc_params, ring_params and closed_form take a time
or an array of times t; closed_form loops the XX pair, built per time, over t.

Environment convention of cc_params and ring_params: env_z[k] is the
polarization of site (focal + 1 + k) mod N, i.e. the non-focal sites listed
cyclically after the focal one. The complete graph is permutation symmetric
so the order is irrelevant there; for rings it matters. closed_form takes
the ascending site order of MapExtractor and reorders.

Every formula here is cross-checked against dense map extraction (module
`reduced`) by the test suite. The ring builder shares no diagonalization
with that engine: it writes its own H from the basis bits.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from . import ensemble, network, reduced
from .ensemble import SpectralAverage, UnsupportedNetwork, collective_blocks
from .network import NetworkSpec
from .qlinalg import HermitianEvolver, InvariantError, Result, roundoff_budget
from .reduced import PCParams


def _check_env(env_z, n: int):
    env = [float(v) for v in env_z]
    if len(env) != n - 1:
        raise ValueError(f"need {n - 1} environment z values, got {len(env)}")
    for v in env:
        if not abs(v) <= 1.0 + 1e-12:  # NaN fails too
            raise ValueError(f"|z| = {abs(v)} exceeds 1")
    return env


# ---------------------------------------------------------------------------
# Complete graph
# ---------------------------------------------------------------------------


@functools.cache
def _collective_levels(n: int):
    """collective_blocks(n) as blocks of four levels, J = J' +- 1/2 at M =
    M' + 1/2 and M' - 1/2, read-only: each block's count of partners up, the
    levels' J(J+1) and M, and the coefficients (B, 4, 4, 4, 4) but for the
    partners' law. With p, q the squared Clebsch-Gordan weights of |up>|J', M'>
    and |down>|J', M'>, P_uu = sum_kl p_k p_l e^{-i w_kl t}, P_dd (q, q) and c
    (p, q), a block holds its weight times T33 = P_uu + P_dd - 1, T30 = P_uu -
    P_dd and T11 + i T21 = c*. J' = 0 has no J' - 1/2: it is at J = 1/2, weight 0."""
    up, weight, spin, u, v = (np.array(col, dtype=float) for col in zip(*collective_blocks(n)))
    j = np.stack([spin + 0.5, abs(spin - 0.5)] * 2, axis=1)
    m = (up - (n - 1) / 2.0)[:, None] + [0.5, 0.5, -0.5, -0.5]
    p = np.stack([u, 1.0 - u, 0.0 * u, 0.0 * u], axis=1)
    q = np.stack([0.0 * v, 0.0 * v, v, 1.0 - v], axis=1)
    pp, qq, pq, qp = (np.einsum("bk,bl->bkl", a, b) for a, b in ((p, p), (q, q), (p, q), (q, p)))
    level = np.eye(4) * (0.5 * (p + q))[:, :, None]
    coef = np.zeros(pp.shape + (4, 4), dtype=complex)
    coef[..., 0, 0], coef[..., 3, 3], coef[..., 3, 0] = level, pp + qq - level, pp - qq
    coef[..., 1, 1] = coef[..., 2, 2] = 0.5 * (pq + qp)
    coef[..., 2, 1] = 0.5j * (pq - qp)
    coef[..., 1, 2] = -coef[..., 2, 1]
    per_block = (-1, 1, 1, 1, 1)  # broadcast against the coefficients
    arrays = up.astype(int).reshape(per_block), j * (j + 1.0), m, coef * weight.reshape(per_block)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _collective_terms(n: int, j_perp: float, j_par: float, h: float, env) -> SpectralAverage:
    """The complete graph's focal channel: the blocks of _collective_levels
    at E(J, M) = J_perp J(J+1) + (J_par - J_perp) M^2 + 2hM, each weighted by
    the Poisson-binomial probability of its count of partners up."""
    up, jj, m, coef = _collective_levels(n)
    law = functools.reduce(np.convolve, ([(1.0 - z) / 2.0, (1.0 + z) / 2.0] for z in env),
                           np.ones(1))  # of the number of partners up
    energies = j_perp * jj + (j_par - j_perp) * m * m + 2.0 * h * m
    return SpectralAverage.from_eigenpairs(energies, coef * law[up])


def cc_params(n: int, t, j_perp: float, j_par: float, h: float, env_z) -> PCParams:
    """Closed-form channel of the complete graph, any N >= 2; fields of t's shape.

    env_z lists the N-1 non-focal polarizations; the result only depends on
    their symmetric functions, so their order does not matter here.
    """
    if n < 2:
        raise ValueError(f"the complete graph needs N >= 2, got {n}")
    env = _check_env(env_z, n)
    return reduced.fit_pc(_collective_terms(n, j_perp, j_par, h, env).maps(t))


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------


@functools.cache
def _ring_basis(n: int):
    """The ring's field-free H and its (charge, momentum) sector bases, any n >= 3.

    H conserves the charge Q = sum Z_i and commutes with the cyclic shift T,
    so the states sum_r e^{-2 pi i q r / n} T^r |s> of each shift orbit of
    basis states s, normalised, block-diagonalise it by (Q, q) (Sandvik,
    arXiv:1101.3281, sec. 4-5): one orthonormal basis per sector, its
    columns the momentum-q states of the sector's orbits.

    Returns the sector bases (2^n, sector size), the hop (J_perp = 1) and
    Ising (J_par = 1) terms, the focal (site 0) Paulis 1, x, y = i x z and z,
    each basis column's charge, and the partners' (sites 1 .. n-1) Z signs.
    Site i is bit n-1-i of the basis index, as in the engine.
    """
    dim = 1 << n
    states = np.arange(dim)
    spins = 1 - 2 * ((states[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    hop, ising = np.zeros((dim, dim)), np.zeros(dim)
    for i in range(n):
        j = (i + 1) % n
        ising += 0.5 * spins[:, i] * spins[:, j]
        flip = np.flatnonzero(spins[:, i] != spins[:, j])
        hop[flip ^ (1 << (n - 1 - i)) ^ (1 << (n - 1 - j)), flip] = 1.0
    shift = (states >> 1) | ((states & 1) << (n - 1))  # site i's spin moves to site i + 1
    sectors = {}
    for s in states:
        orbit = [s]
        while len(orbit) < n:
            orbit.append(shift[orbit[-1]])
        if min(orbit) < s:
            continue  # s is not its orbit's representative
        for q in range(n):
            mode = np.zeros(dim, dtype=complex)
            np.add.at(mode, orbit, np.exp(-2j * np.pi * q * np.arange(n) / n))
            norm = np.linalg.norm(mode)
            if norm > 0.5:  # the orbit's period admits momentum q
                sectors.setdefault((spins[s].sum(), q), []).append(mode / norm)
    bases = tuple(np.array(modes).T for modes in sectors.values())
    z = np.diag(spins[:, 0].astype(float))
    x = np.eye(dim)[states ^ (1 << (n - 1))]
    paulis = np.stack([np.eye(dim), x, 1j * x @ z, z])
    charges = np.repeat([float(charge) for charge, _ in sectors], [b.shape[1] for b in bases])
    return bases, hop, np.diag(ising), paulis, charges, spins[:, 1:]


# the couplings (j_perp, j_par) as two packed doubles: the exact bits, so
# J_par = -0.0 and 0.0 are different keys
_COUPLINGS = struct.Struct("2d")


# a maps run asks for one set of couplings at every focal site; an entry is
# 6 MB at N = 8, and 16 of them peaked at 159 MB RSS, the process included
@functools.lru_cache(maxsize=16)
def _ring_couplings(n: int, key: bytes):
    """The couplings-only part of _ring_terms, once per (n, J_perp, J_par)
    (key _COUPLINGS.pack(j_perp, j_par)): the 2^N field-free energies, their
    charges, the modes B V from eigh of each sector block B^dag H B and their
    conjugate transpose, and out[k, l, i] = 1/2 <l|sigma_i|k>. Read-only, as
    every hit returns the same arrays."""
    j_perp, j_par = _COUPLINGS.unpack(key)
    bases, hop, ising, paulis, charges, _ = _ring_basis(n)
    h = j_perp * hop + j_par * ising
    energies, vectors = zip(*(np.linalg.eigh(b.conj().T @ h @ b) for b in bases))
    energies = np.concatenate(energies)
    modes = np.concatenate([b @ v for b, v in zip(bases, vectors)], axis=1)
    modes_h = modes.conj().T
    out = 0.5 * (modes_h @ paulis @ modes).transpose(2, 1, 0)
    for array in (energies, charges, modes, modes_h, out):
        array.flags.writeable = False
    return energies, charges, modes, modes_h, out


def _ring_terms(n: int, j_perp: float, j_par: float, h: float, env) -> SpectralAverage:
    """Ring n's focal channel as a SpectralAverage: C_kl[i, j] = 1/2
    <l|sigma_i|k> <k|sigma_j (x) rho_env|l> over the eigenstates k, l, at
    the energies plus h Q. Only the in-operator sandwiches depend on the
    partners and are built per call; the rest comes from _ring_couplings."""
    energies, charges, modes, modes_h, out = _ring_couplings(n, _COUPLINGS.pack(j_perp, j_par))
    _, _, _, paulis, _, partners = _ring_basis(n)
    weights = np.prod((1.0 + partners * env) / 2.0, axis=1)  # the partners' diagonal state
    ins = (modes_h @ (paulis * weights) @ modes).transpose(1, 2, 0)
    coef = np.empty((1,) + ins.shape + (4,), dtype=complex)  # C order: the reduction copies others
    np.multiply(out[..., :, None], ins[..., None, :], out=coef[0])
    return SpectralAverage.from_eigenpairs([energies + h * charges], coef)


# the largest ring ring_params serves: a _ring_couplings entry grows 4x per
# site, and at N = 9 a full cache of 24 MB entries would hold 384 MB
RING_ORACLE_MAX_N = 8


def ring_params(n: int, t, j_perp: float, j_par: float, h: float, env_z) -> PCParams:
    """Closed-form channel of the ring, 3 <= N <= RING_ORACLE_MAX_N, full XXZ;
    fields of t's shape. env_z[k] is the polarization of site (focal + 1 + k) mod N."""
    if not 3 <= n <= RING_ORACLE_MAX_N:
        raise UnsupportedNetwork(f"no closed form for (ring, N={n}): "
                                 f"the ring oracle covers 3 <= N <= {RING_ORACLE_MAX_N}")
    env = _check_env(env_z, n)
    return reduced.fit_pc(_ring_terms(n, j_perp, j_par, h, env).maps(t))


# ---------------------------------------------------------------------------
# Detuned XX pair
# ---------------------------------------------------------------------------


def xx_eigenparams(h1: float, h2: float, j: float):
    """(h12, omega12, phi12) of one XX pair.

    h12 is the mean field, omega12 = sgn(delta) sqrt(delta^2 + j^2) with
    delta = h1 - h2 and sgn(0) = +1, and phi12 = atan2(sgn(delta) j, |delta|).
    The signs are paired so that cos(phi12) sin(omega12 t) equals
    (delta/w) sin(w t) with w unsigned, which is what the channel components
    actually contain; flipping delta negates both omega12 and phi12.
    """
    delta = h1 - h2
    w = math.hypot(delta, j)
    sgn = -1.0 if delta < 0 else 1.0
    return (h1 + h2) / 2.0, sgn * w, math.atan2(sgn * j, abs(delta))


_AXIS_INDEX = {"0": 0, "x": 1, "y": 2, "z": 3}


def _k2(label: str) -> int:
    return 4 * _AXIS_INDEX[label[0]] + _AXIS_INDEX[label[1]]


# The nonzero entries of the XX-pair channel: (value slot, sign, (row, col)
# label pairs). A label pairs the first-site axis with the second-site axis;
# the slots are the values xx_unitary_components computes, in this order.
_XX_SLOT_NAMES = ("one", "r", "s_rot", "p", "q", "f", "e", "1-z_ex", "z_ex", "g",
                  "k", "d_minus", "d_plus", "xx_xx", "xx_yy", "xy_xy", "xy_yx")
_XX_ENTRIES = (
    ("one", 1, ("00", "00"), ("zz", "zz")),
    # Transverse sector of one site against identity/z on the other.
    ("r", 1, ("0x", "0x"), ("0y", "0y"), ("zx", "zx"), ("zy", "zy")),
    ("s_rot", 1, ("0y", "0x"), ("zy", "zx")),
    ("s_rot", -1, ("0x", "0y"), ("zx", "zy")),
    ("p", 1, ("x0", "x0"), ("y0", "y0"), ("xz", "xz"), ("yz", "yz")),
    ("q", 1, ("y0", "x0"), ("yz", "xz")),
    ("q", -1, ("x0", "y0"), ("xz", "yz")),
    # Transverse exchange between the sites.
    ("f", 1, ("0x", "xz"), ("0y", "yz"), ("x0", "zx"), ("xz", "0x"),
     ("y0", "zy"), ("yz", "0y"), ("zx", "x0"), ("zy", "y0")),
    ("e", 1, ("0x", "yz"), ("x0", "zy"), ("xz", "0y"), ("zx", "y0")),
    ("e", -1, ("0y", "xz"), ("y0", "zx"), ("yz", "0x"), ("zy", "x0")),
    # z exchange.
    ("1-z_ex", 1, ("z0", "z0"), ("0z", "0z")),
    ("z_ex", 1, ("z0", "0z"), ("0z", "z0")),
    ("g", 1, ("xx", "z0"), ("yy", "z0"), ("z0", "xx"), ("z0", "yy")),
    ("g", -1, ("0z", "xx"), ("0z", "yy"), ("xx", "0z"), ("yy", "0z")),
    ("k", 1, ("0z", "xy"), ("xy", "z0"), ("yx", "0z"), ("z0", "yx")),
    ("k", -1, ("0z", "yx"), ("xy", "0z"), ("yx", "z0"), ("z0", "xy")),
    # Two-transverse sector.
    ("d_minus", 1, ("xy", "xx"), ("yy", "yx")),
    ("d_minus", -1, ("xx", "xy"), ("yx", "yy")),
    ("d_plus", 1, ("yx", "xx"), ("yy", "xy")),
    ("d_plus", -1, ("xx", "yx"), ("xy", "yy")),
    ("xx_xx", 1, ("xx", "xx"), ("yy", "yy")),
    ("xx_yy", 1, ("xx", "yy"), ("yy", "xx")),
    ("xy_xy", 1, ("xy", "xy"), ("yx", "yx")),
    ("xy_yx", 1, ("xy", "yx"), ("yx", "xy")),
)


def _xx_table():
    """Index arrays (row, col, value slot, sign), one element per nonzero entry."""
    table = [(_k2(row), _k2(col), _XX_SLOT_NAMES.index(name), float(sign))
             for name, sign, *pairs in _XX_ENTRIES for row, col in pairs]
    rows, cols, slots, signs = zip(*table)
    return np.array(rows), np.array(cols), np.array(slots), np.array(signs)


_XX_ROWS, _XX_COLS, _XX_SLOTS, _XX_SIGNS = _xx_table()


def _xx_values(t: float, h12: float, omega12: float, phi12: float) -> tuple:
    """The 17 distinct values of the XX-pair channel, in _XX_SLOT_NAMES order.

    The value source of the 16x16 reference xx_unitary_components only;
    xx_reduced_map computes the values it places with these expressions.
    """
    a = 2.0 * h12 * t
    b = omega12 * t
    c, s = math.cos(phi12), math.sin(phi12)
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    sin2a, sin2b = math.sin(2.0 * a), math.sin(2.0 * b)
    z_ex = s * s * sb * sb
    return (
        1.0,
        cb * ca + c * sb * sa,  # r
        cb * sa - c * sb * ca,  # s_rot
        cb * ca - c * sb * sa,  # p
        cb * sa + c * sb * ca,  # q
        s * sa * sb,  # f
        s * sb * ca,  # e
        1.0 - z_ex,
        z_ex,
        c * s * sb * sb,  # g
        0.5 * s * sin2b,  # k
        0.5 * (sin2a - c * sin2b),  # d_minus
        0.5 * (sin2a + c * sin2b),  # d_plus
        ca * ca - c * c * sb * sb,  # xx_xx
        sa * sa - c * c * sb * sb,  # xx_yy
        ca * ca - sb * sb,  # xy_xy
        sb * sb - sa * sa,  # xy_yx
    )


def xx_unitary_components(t: float, h12: float, omega12: float,
                          phi12: float) -> np.ndarray:
    """Full 16x16 Pauli transfer matrix of the XX-pair unitary channel.

    Row/column index 4*i + j pairs the first-site axis i with the
    second-site axis j, axes ordered (identity, x, y, z). The result is
    orthogonal; 70 entries are nonzero. The distinct values are computed
    once and scattered into place through the _XX_ENTRIES table; a sign of
    -1 multiplies exactly, so each entry is the negated value bit for bit.
    It is the reference the reduced maps of xx_reduced_map are tested
    against.
    """
    values = np.array(_xx_values(t, h12, omega12, phi12))
    m = np.zeros((16, 16))
    m[_XX_ROWS, _XX_COLS] = values[_XX_SLOTS] * _XX_SIGNS
    return m


def xx_reduced_map(t: float, pair_params, env_bloch, which: int = 1) -> np.ndarray:
    """Reduced 4x4 map of one member of an XX pair.

    pair_params is the triple (h12, omega12, phi12), as xx_eigenparams
    returns it and disorder.PairEig holds it; env_bloch = (x, y, z) is the
    state of the traced-out partner. which selects the surviving site. The
    partner's transverse components feed the map's phase-covariance-breaking
    entries; a diagonal partner (x = y = 0) leaves a phase-covariant map.

    The 4x4 block is written directly from the channel values it places,
    computed here with _xx_values' expressions: p, q and g for which=1; r,
    s_rot and -g in their slots for which=2; f, e, z_ex, 1 - z_ex and k for
    both. It equals, byte for byte, the partner-weighted sum over the 16x16
    xx_unitary_components. Each `+ 0.0` turns a -0.0 (a vanishing rotation
    at t = 0, or a zero product with a diagonal partner) into the +0.0 that
    sum gives; p (or r) has a nonzero cos * cos term and is never -0.0.
    """
    h12, omega12, phi12 = pair_params
    x, y, z = map(float, env_bloch)
    if not x * x + y * y + z * z <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError("environment Bloch vector has norm > 1")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    a = 2.0 * h12 * t
    b = omega12 * t
    c, s = math.cos(phi12), math.sin(phi12)
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    if which == 1:
        p, q, g = cb * ca - c * sb * sa, cb * sa + c * sb * ca, c * s * sb * sb
    else:  # r, s_rot and -g of _xx_values
        p, q, g = cb * ca + c * sb * sa, cb * sa - c * sb * ca, -(c * s * sb * sb)
    f = s * sa * sb
    e = s * sb * ca
    z_ex = s * s * sb * sb
    k = 0.5 * s * math.sin(2.0 * b)
    return np.fromiter((
        1.0, 0.0, 0.0, 0.0,
        0.0, p, -q + 0.0, f * x + e * y + 0.0,
        0.0, q + 0.0, p, -e * x + f * y + 0.0,
        z_ex * z + 0.0, g * x - k * y + 0.0, k * x + g * y + 0.0, 1.0 - z_ex,
    ), float, 16).reshape(4, 4)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def closed_form(spec: NetworkSpec, site: int, env_blochs, t) -> np.ndarray:
    """Closed-form transfer of `site`, shape np.shape(t) + (4, 4) for a time
    or an array of times t.

    Takes MapExtractor's arguments: the partners' Bloch vectors in ascending
    site order, the focal site skipped. The complete graph and the 3-ring go
    to cc_params, other rings to ring_params (diagonal partners only), one
    call for all of t; xx_pairs go to xx_reduced_map of the site's pair, one
    call per time. A network that no family covers raises UnsupportedNetwork.
    """
    env = list(env_blochs)
    if len(env) != spec.n - 1:
        raise ValueError(f"need {spec.n - 1} partner Bloch vectors, got {len(env)}")
    if not 0 <= site < spec.n:
        raise ValueError(f"site must be in 0..{spec.n - 1}, got {site}")
    if spec.topology == "xx_pairs":
        pair = spec.pairs[site // 2]
        eig = xx_eigenparams(pair.h1, pair.h2, pair.j)
        # the partner is env[site] for an even site and env[site - 1] for an odd one
        return np.reshape([xx_reduced_map(tk, eig, env[site - site % 2], which=site % 2 + 1)
                           for tk in np.ravel(t)], np.shape(t) + (4, 4))
    if any(b[0] or b[1] for b in env):
        raise ValueError("the XXZ closed forms need diagonal partners (x = y = 0)")
    params = cc_params if spec.family == "complete" else ring_params
    env_z = [b[2] for b in env[site:] + env[:site]]
    return params(spec.n, t, spec.j_perp, spec.j_par, spec.h, env_z).transfer()


ORACLE_TOL = 1e-9  # how far maps may be from their closed form
# the roundoff budget eps max|E| t_max below which ORACLE_TOL holds with a 4x margin
ROUNDOFF_LIMIT = 2.5e-10
CP_TOL = 1e-9  # the slack of map_series' CP gate
COVARIANCE_TOL = 1e-8  # the residual below which map_series reports phase_covariant


def map_series(spec: NetworkSpec, envs: dict, t_j: float, t_max_tj: float,
               points_per_tj: float, warn=lambda reason: None) -> Result:
    """Maps of each site of `envs` ({site: partner Bloch vectors}) and their
    average, to t_max_tj. A CP violation raises InvariantError; the check
    fails beyond ORACLE_TOL from the closed form, or calls warn(reason) where
    none exists. UnsupportedNetwork where eps max|E| t_max >= ROUNDOFF_LIMIT."""
    times = ensemble.uniform_grid(t_j, t_max_tj, points_per_tj)
    evolver = HermitianEvolver(network.build_hamiltonian(spec))
    # the phases e^{-iEt} of both sides carry an absolute error of about eps |E| t
    budget = roundoff_budget(float(np.abs(evolver.energies).max()), float(times[-1]))
    if not budget < ROUNDOFF_LIMIT:
        options = "h1, h2, j" if spec.topology == "xx_pairs" else "h, j_perp, j_par"
        raise UnsupportedNetwork(
            f"roundoff budget eps max|E| t_max = {budget:.2e}, set by {options} and t_max_tj, "
            f"is not below {ROUNDOFF_LIMIT:g}: maps cannot hold {ORACLE_TOL:g} here")
    extractors = [reduced.MapExtractor(evolver, s, env) for s, env in envs.items()]
    try:
        oracle = np.stack([closed_form(spec, s, env, times) for s, env in envs.items()])
        analytic_reason = None
    except UnsupportedNetwork as exc:
        oracle, analytic_reason = None, str(exc)
        warn(analytic_reason)

    # maps[i, k]: site i at times[k]; the last row is their network average
    maps = np.empty((len(extractors) + 1, times.size, 4, 4))
    for k, t in enumerate(times):
        for i, extractor in enumerate(extractors):
            maps[i, k] = extractor.transfer(t)
    maps[-1] = ensemble.network_average(maps[:-1])
    p = reduced.fit_pc(maps)
    labels = [str(s) for s in envs] + ["avg"]
    bad = np.argwhere(~reduced.cp_ok(p.lambda1, p.tau3, p.lambda3, tol=CP_TOL).T)
    if bad.size:  # the first failure in row order: by time, sites before the average
        k, i = bad[0]
        at = f"t={times[k] / t_j:.3f} t_J"
        if labels[i] == "avg":
            raise InvariantError(f"CP violation in network average at {at}")
        raise InvariantError(
            f"CP violation at {at}, site {labels[i]}: (l1={float(p.lambda1[i, k])}, "
            f"tau3={float(p.tau3[i, k])}, l3={float(p.lambda3[i, k])})")

    # rows by time, then by label
    columns = [np.repeat(times / t_j, len(labels)).tolist(), labels * times.size]
    columns += [c.T.ravel().tolist() for c in (p.lambda1, p.theta, p.lambda3, p.tau3, p.residual)]
    max_resid = float(p.residual[:-1].max())
    analytic_check = None if oracle is None else {
        "max_abs_err": float(np.max(np.abs(oracle - maps[:-1])))}

    header = ("t_over_tj", "site", "lambda1", "theta", "lambda3", "tau3", "residual")
    return Result({"data.csv": (header, columns)}, {
        "phase_covariant": bool(max_resid < COVARIANCE_TOL),
        "max_residual": max_resid,
        "analytic_check": analytic_check,
        "analytic_skip_reason": analytic_reason,
        "roundoff_budget": budget,
        "t_j": t_j,
    }, None if analytic_check is None or analytic_check["max_abs_err"] <= ORACLE_TOL else
        f"closed form and numeric maps disagree: max_abs_err "
        f"{analytic_check['max_abs_err']:.2e} > {ORACLE_TOL:g}")
