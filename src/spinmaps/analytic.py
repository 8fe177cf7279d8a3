"""Closed-form reduced-map parameters for small XXZ networks.

Families covered, all against diagonal (Bloch-z) environments:

- cc_params: complete graph, N = 3..6, full XXZ, every parameter.
- ring_params: ring N = 4 (full XXZ, every parameter) and ring N = 5 at the
  isotropic point J_par = J_perp (lambda3/tau3 only; the transverse sector
  has no closed form there and is returned as NaN).
- xx_reduced_map / xx_unitary_components: one detuned XX pair. The full
  two-qubit channel in the Pauli basis has 70 nonzero entries taking 17
  distinct values up to sign. xx_reduced_map writes the focal qubit's 4x4
  straight from those values, byte for byte the partner-weighted sum over
  the 16x16 channel. xx_unitary_components builds that 16x16 channel, the
  reference the tests hold xx_reduced_map to: a module-level table of
  (row, col, value slot, sign), built once from the Pauli labels, places
  the values with one numpy scatter per call.
- closed_form: the transfer matrix of any NetworkSpec that a family above
  covers; the families' own checks raise UnsupportedNetwork for the rest.

cc_params, ring_params and closed_form take a time or an array of times t,
one code path for both; closed_form loops the XX pair, built per time, over t.

Environment convention of cc_params and ring_params: env_z[k] is the
polarization of site (focal + 1 + k) mod N, i.e. the non-focal sites listed
cyclically after the focal one. The complete graph is permutation symmetric
so the order is irrelevant there; for rings it matters. closed_form takes
the ascending site order of MapExtractor and reorders.

alpha/beta are the transverse components with the free precession removed:
lambda1 = hypot(alpha, beta) and theta = 2 h t + atan2(beta, alpha), wrapped
to (-pi, pi] to match what fit_pc reads off a transfer matrix.

Every formula here is cross-checked against dense map extraction (module
`reduced`) by the test suite. Where the implemented coefficients depart
from the source tables they were transcribed from, the departure is
recorded in TRANSCRIPTION_NOTES.md with its printed reading, implemented
reading and evidence; the one wholesale re-derivation is the ring N=4
alpha/beta table, whose source could not be repaired term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .ensemble import UnsupportedNetwork, esym
from .network import NetworkSpec, isotropic
from .reduced import PCParams


def _check_env(env_z, n: int):
    env = [float(v) for v in env_z]
    if len(env) != n - 1:
        raise ValueError(f"need {n - 1} environment z values, got {len(env)}")
    for v in env:
        if abs(v) > 1.0 + 1e-12:
            raise ValueError(f"|z| = {abs(v)} exceeds 1")
    return env


def _assemble(lam3, tau3, alpha, beta, h, t):
    phase = 2.0 * h * t + np.arctan2(beta, alpha)
    return PCParams(lambda1=np.hypot(alpha, beta), theta=np.arctan2(np.sin(phase), np.cos(phase)),
                    lambda3=lam3, tau3=tau3)


# ---------------------------------------------------------------------------
# Complete graph, N = 3..6
# ---------------------------------------------------------------------------


def _cc3(t, jp, jz, env):
    e1 = esym(env, 1)
    pz = esym(env, 2)
    c3 = np.cos(3.0 * jp * t)
    lam3 = (5.0 + 4.0 * c3) / 9.0
    tau3 = (2.0 / 9.0) * e1 * (1.0 - c3)
    wa = (2.0 * jz - 2.0 * jp) * t
    wb = (2.0 * jz + jp) * t
    alpha = ((1.0 - pz) * (7.0 + 2.0 * c3)
             + (1.0 + pz) * (3.0 * np.cos(wa) + 6.0 * np.cos(wb))) / 18.0
    beta = e1 * (3.0 * np.sin(wa) + 6.0 * np.sin(wb)) / 18.0
    return lam3, tau3, alpha, beta


def _cc4(t, jp, jz, env):
    e1, e2, e3 = (esym(env, k) for k in (1, 2, 3))
    c2, c4 = np.cos(2.0 * jp * t), np.cos(4.0 * jp * t)
    lam3 = (7 / 16 + c2 / 4 + 5 * c4 / 16) + (1 / 16 - c2 / 12 + c4 / 48) * e2
    tau3 = (3 / 16 - c2 / 12 - 5 * c4 / 48) * e1 - (3 / 16 - c2 / 4 + c4 / 16) * e3
    # Oscillations of the transverse sector.
    w = np.multiply.outer([3 * (jp - jz), jp + 3 * jz, jp - jz,
                           3 * jp + jz, 5 * jp - jz, jp + jz], t)
    cw, sw = np.cos(w), np.sin(w)
    a0 = (cw[0] / 16 + 3 * cw[1] / 16 + 3 * cw[2] / 8
          + 3 * cw[3] / 32 + cw[4] / 32 + cw[5] / 4)
    a2 = (cw[0] / 16 + 3 * cw[1] / 16 - cw[2] / 8
          - cw[3] / 32 - cw[4] / 96 - cw[5] / 12)
    b1 = (-sw[0] / 16 + 3 * sw[1] / 16 - sw[2] / 8
          + sw[3] / 32 - sw[4] / 96 + sw[5] / 12)
    b3 = (-sw[0] / 16 + 3 * sw[1] / 16 + 3 * sw[2] / 8
          - 3 * sw[3] / 32 + sw[4] / 32 - sw[5] / 4)
    return lam3, tau3, a0 + a2 * e2, b1 * e1 + b3 * e3


def _cc5(t, jp, jz, env):
    e1, e2, e3, e4 = (esym(env, k) for k in (1, 2, 3, 4))
    c3, c5 = np.cos(3.0 * jp * t), np.cos(5.0 * jp * t)
    lam3 = (7 / 15 + c3 / 3 + c5 / 5) + (8 / 225 - c3 / 18 + c5 / 50) * e2
    tau3 = ((2 / 15 - c3 / 12 - c5 / 20) * e1
            - (4 / 75 - c3 / 12 + 3 * c5 / 100) * e3)
    w = np.multiply.outer([3 * jp + 2 * jz, 4 * (jp - jz), 7 * jp - 2 * jz,
                           2 * (jp - jz), jp + 2 * jz, jp + 4 * jz], t)
    cw, sw = np.cos(w), np.sin(w)
    a0 = (157 / 600 + c3 / 12 + 3 * c5 / 100 + 3 * cw[0] / 50 + cw[1] / 40
          + cw[2] / 100 + 9 * cw[3] / 50 + cw[4] / 4 + cw[5] / 10)
    a2 = -(157 / 1800 + c3 / 36 + c5 / 100 - cw[1] / 40 - cw[5] / 10)
    a4 = (157 / 600 + c3 / 12 + 3 * c5 / 100 + cw[5] / 10 - cw[4] / 4
          - 3 * cw[0] / 50 - cw[2] / 100 - 9 * cw[3] / 50 + cw[1] / 40)
    b1 = (3 * sw[0] / 100 - sw[1] / 40 - sw[2] / 200 - 9 * sw[3] / 100
          + sw[4] / 8 + sw[5] / 10)
    b3 = -(3 * sw[0] / 100 + sw[1] / 40 - sw[2] / 200 - 9 * sw[3] / 100
           + sw[4] / 8 - sw[5] / 10)
    return lam3, tau3, a0 + a2 * e2 + a4 * e4, b1 * e1 + b3 * e3


# N=6 transverse oscillation frequencies, shared by all partial components.
_CC6_A = np.array([
    [5 / 96, 1 / 96, 3 / 16, 25 / 288, 1 / 288, 1 / 48,
     3 / 32, 5 / 32, 5 / 16, 1 / 32, 1 / 96, 5 / 144],
    [5 / 96, 1 / 96, 3 / 80, 5 / 288, 1 / 1440, -1 / 240,
     -3 / 160, -1 / 32, -1 / 16, -1 / 160, -1 / 480, 1 / 144],
    [5 / 96, 1 / 96, -9 / 80, -5 / 96, -1 / 480, 1 / 240,
     3 / 160, 1 / 32, 1 / 16, 1 / 160, 1 / 480, -1 / 48],
])
_CC6_B = np.array([
    [5 / 96, -1 / 96, 9 / 80, -5 / 96, -1 / 480, 1 / 240,
     3 / 160, 1 / 32, -1 / 16, -1 / 160, -1 / 480, 1 / 48],
    [5 / 96, -1 / 96, -3 / 80, 5 / 288, 1 / 1440, -1 / 240,
     -3 / 160, -1 / 32, 1 / 16, 1 / 160, 1 / 480, -1 / 144],
    [5 / 96, -1 / 96, -3 / 16, 25 / 288, 1 / 288, 1 / 48,
     3 / 32, 5 / 32, -5 / 16, -1 / 32, -1 / 96, -5 / 144],
])


def _cc6(t, jp, jz, env):
    e1, e2, e3, e4, e5 = (esym(env, k) for k in (1, 2, 3, 4, 5))
    c2, c4, c6 = np.cos(np.multiply.outer([2.0 * jp, 4.0 * jp, 6.0 * jp], t))
    lam3 = ((59 / 144 + 5 * c2 / 32 + 5 * c4 / 16 + 35 * c6 / 288)
            + (1 / 24 - c2 / 32 - c4 / 40 + 7 * c6 / 480) * e2
            - (1 / 48 - c2 / 32 + c4 / 80 - c6 / 480) * e4)
    tau3 = ((17 / 144 - c2 / 32 - c4 / 16 - 7 * c6 / 288) * e1
            - (1 / 24 - c2 / 32 - c4 / 40 + 7 * c6 / 480) * e3
            + (5 / 48 - 5 * c2 / 32 + c4 / 16 - c6 / 96) * e5)
    w = np.multiply.outer([jp + 5 * jz, 5 * (jp - jz), jp + 3 * jz, 3 * (jp - jz),
                           9 * jp - 3 * jz, 5 * jp + jz, 3 * jp + jz, jp + jz,
                           jp - jz, 5 * jp - jz, 7 * jp - jz, 3 * (jp + jz)], t)
    ca = np.tensordot(_CC6_A, np.cos(w), axes=1)
    sb = np.tensordot(_CC6_B, np.sin(w), axes=1)
    alpha = ca[0] + ca[1] * e2 + ca[2] * e4
    beta = sb[0] * e1 + sb[1] * e3 + sb[2] * e5
    return lam3, tau3, alpha, beta


_CC_EVALUATORS = {3: _cc3, 4: _cc4, 5: _cc5, 6: _cc6}


def cc_params(n: int, t, j_perp: float, j_par: float, h: float, env_z) -> PCParams:
    """Closed-form channel of the complete graph, N = 3..6; fields of t's shape.

    env_z lists the N-1 non-focal polarizations; the result only depends on
    their symmetric functions, so their order does not matter here.
    """
    if n not in _CC_EVALUATORS:
        raise UnsupportedNetwork(f"no closed form for complete N={n}")
    env = _check_env(env_z, n)
    t = np.asarray(t, dtype=float)
    lam3, tau3, alpha, beta = _CC_EVALUATORS[n](t, j_perp, j_par, env)
    return _assemble(lam3, tau3, alpha, beta, h, t)


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------


def _ring4_l3t3(t, jp, jz, env):
    s1, s2, s3 = env
    jx = math.sqrt(jz * jz + 8.0 * jp * jp)
    c2, c4 = np.cos(2.0 * jp * t), np.cos(4.0 * jp * t)
    cc = np.cos(jz * t) * np.cos(jx * t)
    ss = 0.0 if jx == 0.0 else (jz / jx) * np.sin(jz * t) * np.sin(jx * t)
    lam3 = ((7 / 16 + c2 / 4 + c4 / 16 + cc / 4 + ss / 4)
            + (1 / 16 + c4 / 16 - cc / 8 - ss / 8) * (s1 * s2 + s2 * s3)
            - (3 / 16 - c2 / 4 + c4 / 16) * (s1 * s3))
    tau3 = ((1 / 16 - c2 / 4 - c4 / 16 + cc / 4 + ss / 4) * (s1 * s2 * s3)
            + (3 / 16 - c4 / 16 - cc / 8 - ss / 8) * (s1 + s3)
            + (3 / 16 - c2 / 4 + c4 / 16) * s2)
    return lam3, tau3


# Transverse sector of the N=4 ring: alpha rows attach cos(w t) to the even
# environment monomials {1, s1 s2, s2 s3, s1 s3}, beta rows attach sin(w t)
# to the odd ones {s1, s2, s3, s1 s2 s3}. Frequencies are signed,
# w = m1 J_perp + m2 J_par + m3 J_cross with J_cross = sqrt(J_par^2 + 8 J_perp^2),
# and each coefficient is r0 + r1 (J_par/J_cross) + r2 (J_perp/J_cross), the
# ratio J_par/J_cross keeping the sign of J_par.
_RING4_AB_ROWS = (
    ("a", "1", 0, 0, 0, "1/4", "0", "0"),
    ("a", "s1s3", 0, 0, 0, "-1/4", "0", "0"),
    ("a", "1", -2, -1, 1, "3/64", "1/64", "1/8"),
    ("a", "s1s2", -2, -1, 1, "-1/64", "1/64", "-1/16"),
    ("a", "s1s3", -2, -1, 1, "-1/64", "-3/64", "0"),
    ("a", "s2s3", -2, -1, 1, "-1/64", "1/64", "-1/16"),
    ("a", "1", 0, 2, 0, "3/16", "0", "0"),
    ("a", "s1s2", 0, 2, 0, "1/16", "0", "0"),
    ("a", "s1s3", 0, 2, 0, "3/16", "0", "0"),
    ("a", "s2s3", 0, 2, 0, "1/16", "0", "0"),
    ("a", "1", -2, 1, 1, "3/64", "-1/64", "1/8"),
    ("a", "s1s2", -2, 1, 1, "-1/64", "-1/64", "-1/16"),
    ("a", "s1s3", -2, 1, 1, "-1/64", "3/64", "0"),
    ("a", "s2s3", -2, 1, 1, "-1/64", "-1/64", "-1/16"),
    ("a", "1", 2, -2, 0, "3/32", "0", "0"),
    ("a", "s1s2", 2, -2, 0, "1/32", "0", "0"),
    ("a", "s1s3", 2, -2, 0, "3/32", "0", "0"),
    ("a", "s2s3", 2, -2, 0, "1/32", "0", "0"),
    ("a", "1", 2, 0, 0, "1/8", "0", "0"),
    ("a", "s1s3", 2, 0, 0, "-1/8", "0", "0"),
    ("a", "1", 0, -1, 1, "1/32", "-1/32", "0"),
    ("a", "s1s2", 0, -1, 1, "-1/32", "1/32", "0"),
    ("a", "s1s3", 0, -1, 1, "1/32", "-1/32", "0"),
    ("a", "s2s3", 0, -1, 1, "-1/32", "1/32", "0"),
    ("a", "1", 2, 2, 0, "3/32", "0", "0"),
    ("a", "s1s2", 2, 2, 0, "1/32", "0", "0"),
    ("a", "s1s3", 2, 2, 0, "3/32", "0", "0"),
    ("a", "s2s3", 2, 2, 0, "1/32", "0", "0"),
    ("a", "1", 0, 1, 1, "1/32", "1/32", "0"),
    ("a", "s1s2", 0, 1, 1, "-1/32", "-1/32", "0"),
    ("a", "s1s3", 0, 1, 1, "1/32", "1/32", "0"),
    ("a", "s2s3", 0, 1, 1, "-1/32", "-1/32", "0"),
    ("a", "1", 2, -1, 1, "3/64", "1/64", "-1/8"),
    ("a", "s1s2", 2, -1, 1, "-1/64", "1/64", "1/16"),
    ("a", "s1s3", 2, -1, 1, "-1/64", "-3/64", "0"),
    ("a", "s2s3", 2, -1, 1, "-1/64", "1/64", "1/16"),
    ("a", "1", 2, 1, 1, "3/64", "-1/64", "-1/8"),
    ("a", "s1s2", 2, 1, 1, "-1/64", "-1/64", "1/16"),
    ("a", "s1s3", 2, 1, 1, "-1/64", "3/64", "0"),
    ("a", "s2s3", 2, 1, 1, "-1/64", "-1/64", "1/16"),
    ("b", "s1", -2, -1, 1, "-1/64", "1/64", "-1/16"),
    ("b", "s2", -2, -1, 1, "-1/64", "-3/64", "0"),
    ("b", "s3", -2, -1, 1, "-1/64", "1/64", "-1/16"),
    ("b", "s1s2s3", -2, -1, 1, "3/64", "1/64", "1/8"),
    ("b", "s1", 0, 2, 0, "3/16", "0", "0"),
    ("b", "s2", 0, 2, 0, "1/16", "0", "0"),
    ("b", "s3", 0, 2, 0, "3/16", "0", "0"),
    ("b", "s1s2s3", 0, 2, 0, "1/16", "0", "0"),
    ("b", "s1", -2, 1, 1, "1/64", "1/64", "1/16"),
    ("b", "s2", -2, 1, 1, "1/64", "-3/64", "0"),
    ("b", "s3", -2, 1, 1, "1/64", "1/64", "1/16"),
    ("b", "s1s2s3", -2, 1, 1, "-3/64", "1/64", "-1/8"),
    ("b", "s1", 2, -2, 0, "-3/32", "0", "0"),
    ("b", "s2", 2, -2, 0, "-1/32", "0", "0"),
    ("b", "s3", 2, -2, 0, "-3/32", "0", "0"),
    ("b", "s1s2s3", 2, -2, 0, "-1/32", "0", "0"),
    ("b", "s1", 0, -1, 1, "-1/32", "1/32", "0"),
    ("b", "s2", 0, -1, 1, "1/32", "-1/32", "0"),
    ("b", "s3", 0, -1, 1, "-1/32", "1/32", "0"),
    ("b", "s1s2s3", 0, -1, 1, "1/32", "-1/32", "0"),
    ("b", "s1", 2, 2, 0, "3/32", "0", "0"),
    ("b", "s2", 2, 2, 0, "1/32", "0", "0"),
    ("b", "s3", 2, 2, 0, "3/32", "0", "0"),
    ("b", "s1s2s3", 2, 2, 0, "1/32", "0", "0"),
    ("b", "s1", 0, 1, 1, "1/32", "1/32", "0"),
    ("b", "s2", 0, 1, 1, "-1/32", "-1/32", "0"),
    ("b", "s3", 0, 1, 1, "1/32", "1/32", "0"),
    ("b", "s1s2s3", 0, 1, 1, "-1/32", "-1/32", "0"),
    ("b", "s1", 2, -1, 1, "-1/64", "1/64", "1/16"),
    ("b", "s2", 2, -1, 1, "-1/64", "-3/64", "0"),
    ("b", "s3", 2, -1, 1, "-1/64", "1/64", "1/16"),
    ("b", "s1s2s3", 2, -1, 1, "3/64", "1/64", "-1/8"),
    ("b", "s1", 2, 1, 1, "1/64", "1/64", "-1/16"),
    ("b", "s2", 2, 1, 1, "1/64", "-3/64", "0"),
    ("b", "s3", 2, 1, 1, "1/64", "1/64", "-1/16"),
    ("b", "s1s2s3", 2, 1, 1, "-3/64", "1/64", "1/8"),
)

_RING4_MONOMIALS = ("1", "s1s2", "s2s3", "s1s3", "s1", "s2", "s3", "s1s2s3")
_RING4_IS_ALPHA = np.array([row[0] == "a" for row in _RING4_AB_ROWS])
_RING4_MONO = np.array([_RING4_MONOMIALS.index(row[1]) for row in _RING4_AB_ROWS])
_RING4_FREQ = np.array([row[2:5] for row in _RING4_AB_ROWS], dtype=float)
_RING4_COEF = np.array([[float(Fraction(r)) for r in row[5:]] for row in _RING4_AB_ROWS])


def _ring4_ab(t, jp, jz, env):
    s1, s2, s3 = env
    jx = math.sqrt(jz * jz + 8.0 * jp * jp)
    if jx == 0.0:
        return np.ones_like(t), np.zeros_like(t)  # free precession only
    monomials = np.array([1.0, s1 * s2, s2 * s3, s1 * s3, s1, s2, s3, s1 * s2 * s3])
    weights = (_RING4_COEF @ [1.0, jz / jx, jp / jx]) * monomials[_RING4_MONO]
    phases = np.multiply.outer(_RING4_FREQ @ [jp, jz, jx], t)
    return (np.tensordot(weights[_RING4_IS_ALPHA], np.cos(phases[_RING4_IS_ALPHA]), axes=1),
            np.tensordot(weights[~_RING4_IS_ALPHA], np.sin(phases[~_RING4_IS_ALPHA]), axes=1))


# Ring N=5 at the isotropic point: all oscillations live at eight fixed
# multiples of J_perp. Partial components are (constant, eight cosine
# coefficients) in the frequency order below.
_R5 = math.sqrt(5.0)
_RING5_FREQ = np.array([
    (3.0 - _R5) / 2.0, (5.0 - _R5) / 2.0, 3.0 * (_R5 - 1.0) / 2.0, _R5,
    (3.0 + _R5) / 2.0, (5.0 + _R5) / 2.0, 2.0 * _R5, 3.0 * (1.0 + _R5) / 2.0,
])
_RING5_L0000 = (71 / 225, np.array([
    13 / 90, 1 / 10, 1 / 45, 32 / 225, 13 / 90, 1 / 10, 2 / 225, 1 / 45]))
_RING5_LZZ00 = (0.0, np.array([
    (6 * _R5 - 25) / 900, 1 / 100, -_R5 / 450, 2 / 45,
    -(6 * _R5 + 25) / 900, 1 / 100, -2 / 225, _R5 / 450]))
_RING5_LZ0Z0 = (0.0, np.array([
    -(6 * _R5 + 25) / 900, 1 / 100, _R5 / 450, 2 / 45,
    (6 * _R5 - 25) / 900, 1 / 100, -2 / 225, -_R5 / 450]))
_RING5_L0ZZ0 = (1 / 45, np.array([
    (3 * _R5 - 5) / 300, (1 - _R5) / 100, -(5 - _R5) / 450, 0.0,
    -(3 * _R5 + 5) / 300, (1 + _R5) / 100, 1 / 75, -(5 + _R5) / 450]))
_RING5_LZ00Z = (1 / 45, np.array([
    -(3 * _R5 + 5) / 300, (1 + _R5) / 100, -(5 + _R5) / 450, 0.0,
    (3 * _R5 - 5) / 300, (1 - _R5) / 100, 1 / 75, -(5 - _R5) / 450]))
_RING5_TZ000 = (77 / 450, np.array([
    -(13 - 3 * _R5) / 360, -(1 - _R5) / 40, -(1 - _R5) / 180, -8 / 225,
    -(13 + 3 * _R5) / 360, -(1 + _R5) / 40, -1 / 450, -(1 + _R5) / 180]))
_RING5_T0Z00 = (77 / 450, np.array([
    -(13 + 3 * _R5) / 360, -(1 + _R5) / 40, -(1 + _R5) / 180, -8 / 225,
    -(13 - 3 * _R5) / 360, -(1 - _R5) / 40, -1 / 450, -(1 - _R5) / 180]))
_RING5_TZZZ0 = (-1 / 90, np.array([
    (65 - 3 * _R5) / 1800, -(3 + _R5) / 200, (5 + 3 * _R5) / 900, -2 / 45,
    (65 + 3 * _R5) / 1800, -(3 - _R5) / 200, 1 / 450, (5 - 3 * _R5) / 900]))
_RING5_TZ0ZZ = (-1 / 90, np.array([
    (65 + 3 * _R5) / 1800, -(3 - _R5) / 200, (5 - 3 * _R5) / 900, -2 / 45,
    (65 - 3 * _R5) / 1800, -(3 + _R5) / 200, 1 / 450, (5 + 3 * _R5) / 900]))


def _ring5_l3t3(t, jp, env):
    s1, s2, s3, s4 = env
    cw = np.cos(np.multiply.outer(_RING5_FREQ, jp * t))

    def ev(part):
        const, coefs = part
        return const + np.tensordot(coefs, cw, axes=1)

    lam3 = (ev(_RING5_L0000)
            + ev(_RING5_LZZ00) * (s1 * s2 + s3 * s4)
            + ev(_RING5_LZ0Z0) * (s1 * s3 + s2 * s4)
            + ev(_RING5_L0ZZ0) * (s2 * s3)
            + ev(_RING5_LZ00Z) * (s1 * s4))
    tau3 = (ev(_RING5_TZ000) * (s1 + s4)
            + ev(_RING5_T0Z00) * (s2 + s3)
            + ev(_RING5_TZZZ0) * (s1 * s2 * s3 + s2 * s3 * s4)
            + ev(_RING5_TZ0ZZ) * (s1 * s3 * s4 + s1 * s2 * s4))
    return lam3, tau3


def ring_params(n: int, t, j_perp: float, j_par: float, h: float, env_z) -> PCParams:
    """Closed-form channel of the ring (N=4; N=5 isotropic); fields of t's shape.

    env_z[k] is the polarization of ring site (focal + 1 + k) mod N; the
    order matters. For N=5 only the z sector is known in closed form, so
    lambda1 and theta come back NaN.
    """
    env = _check_env(env_z, n)
    t = np.asarray(t, dtype=float)
    if n == 4:
        lam3, tau3 = _ring4_l3t3(t, j_perp, j_par, env)
        alpha, beta = _ring4_ab(t, j_perp, j_par, env)
        return _assemble(lam3, tau3, alpha, beta, h, t)
    if n == 5:
        if not isotropic(j_perp, j_par):
            raise UnsupportedNetwork("ring N=5 closed form needs J_par = J_perp")
        lam3, tau3 = _ring5_l3t3(t, j_perp, env)
        return _assemble(lam3, tau3, *np.full((2,) + t.shape, np.nan), h, t)  # alpha, beta open
    raise UnsupportedNetwork(f"no closed form for (ring, N={n})")


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
    """The 17 distinct values of the XX-pair channel, in _XX_SLOT_NAMES order."""
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

    The 4x4 block is written directly from the channel values: it equals,
    byte for byte, the partner-weighted sum over the 16x16
    xx_unitary_components. Each `+ 0.0` turns a -0.0 (a vanishing rotation
    at t = 0, or a zero product with a diagonal partner) into the +0.0 that
    sum gives; p (or r) has a nonzero cos * cos term and is never -0.0.
    """
    h12, omega12, phi12 = pair_params
    x, y, z = map(float, env_bloch)
    if x * x + y * y + z * z > 1.0 + 1e-12:
        raise ValueError("environment Bloch vector has norm > 1")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    _, r, s_rot, p, q, f, e, z_stay, z_ex, g, k, *_ = _xx_values(t, h12, omega12, phi12)
    if which == 2:
        p, q, g = r, s_rot, -g
    return np.fromiter((
        1.0, 0.0, 0.0, 0.0,
        0.0, p, -q + 0.0, f * x + e * y + 0.0,
        0.0, q + 0.0, p, -e * x + f * y + 0.0,
        z_ex * z + 0.0, g * x - k * y + 0.0, k * x + g * y + 0.0, z_stay,
    ), float, 16).reshape(4, 4)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def closed_form(spec: NetworkSpec, site: int, env_blochs, t) -> np.ndarray:
    """Closed-form transfer of `site`, shape np.shape(t) + (4, 4) for a time
    or an array of times t, NaN where the family leaves an entry open.

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
