"""Closed-form reduced-map parameters for small XXZ networks.

Families covered, all against diagonal (Bloch-z) environments:

- cc_params: complete graph, N = 3..6, full XXZ, every parameter.
- ring_params: ring N = 4 (full XXZ, every parameter) and ring N = 5 at the
  isotropic point J_par = J_perp (lambda3/tau3 only; the transverse sector
  has no closed form there and is returned as NaN).
- xx_unitary_components / xx_reduced_map: one detuned XX pair, including the
  full two-qubit channel in the Pauli basis.

Environment convention: env_z[k] is the polarization of site
(focal + 1 + k) mod N, i.e. the non-focal sites listed cyclically after the
focal one. The complete graph is permutation symmetric so the order is
irrelevant there; for rings it matters.

alpha/beta are the transverse components with the free precession removed:
lambda1 = hypot(alpha, beta) and theta = 2 h t + atan2(beta, alpha), wrapped
to (-pi, pi] to match what fit_pc reads off a transfer matrix.

Every formula here is cross-checked against dense map extraction (module
`reduced`) by the test suite. Where the implemented coefficients depart
from the source tables they were transcribed from, the departure is listed
in TRANSCRIPTION_FIXES (and described in TRANSCRIPTION_NOTES.md); the one
wholesale re-derivation is the ring N=4 alpha/beta table, whose source
could not be repaired term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensemble import esym
from .reduced import ABDecomp, PCParams


@dataclass(frozen=True)
class TranscriptionFix:
    """One documented departure of the implementation from its source table."""

    family: str
    quantity: str
    printed: str
    implemented: str
    evidence: str


TRANSCRIPTION_FIXES = (
    TranscriptionFix(
        family="complete N=3",
        quantity="alpha/beta",
        printed="oscillation at (J_par + 2 J_perp) t",
        implemented="oscillation at (2 J_par + J_perp) t",
        evidence="dense-map check at generic couplings agrees to 3e-15 after "
                 "the change; both readings coincide at J_par = J_perp",
    ),
    TranscriptionFix(
        family="complete N=4",
        quantity="alpha/beta",
        printed="coefficients attached to the (3 J_perp + J_par) and "
                "(J_perp + 3 J_par) oscillations",
        implemented="the two coefficient sets interchanged, uniformly in all "
                    "four partial components",
        evidence="fit against dense maps at two coupling pairs, residual 3e-14",
    ),
    TranscriptionFix(
        family="ring N=4",
        quantity="lambda3",
        printed="pair-correlation group contains a bare cos(4 J_perp t)",
        implemented="(1/16) cos(4 J_perp t)",
        evidence="restores lambda3 = 1 at t = 0; dense-map agreement 1e-15",
    ),
    TranscriptionFix(
        family="ring N=4",
        quantity="alpha/beta",
        printed="partial components failing their own t = 0 identities "
                "(constant part 3/4, a malformed angle-times-time factor)",
        implemented="re-derived 76-term table with exact rational "
                    "coefficients in J_par/J_cross and J_perp/J_cross",
        evidence="dense-map agreement 3e-15 at four coupling pairs "
                 "including J_par = 0 and J_par < 0",
    ),
    TranscriptionFix(
        family="ring N=5 (isotropic)",
        quantity="lambda3 partial z00z",
        printed="final term +((5 - sqrt5)/450) cos(3 (1 + sqrt5)/2 J t)",
        implemented="same term with a minus sign",
        evidence="t = 0 sum of the printed partial is (10 - 2 sqrt5)/450, not "
                 "0; the sign flip restores it and matches dense maps to 1e-15",
    ),
    TranscriptionFix(
        family="ring N=5 (isotropic)",
        quantity="tau3 partial z0zz",
        printed="final term +(2/45) cos(sqrt5 J t)",
        implemented="same term with a minus sign",
        evidence="t = 0 sum of the printed partial is 80/900, not 0; the sign "
                 "flip restores it and matches dense maps to 1e-15",
    ),
    TranscriptionFix(
        family="xx pair",
        quantity="two channel components",
        printed="row labels pair (xx|0z) with itself and (yx|0z) with (yx|z0)",
        implemented="the (xx, z0) and (yx, 0z) components carry those values",
        evidence="orthogonality of the assembled 16x16 transfer matrix and "
                 "dense two-qubit checks",
    ),
)


def _wrap_angle(x: float) -> float:
    return math.atan2(math.sin(x), math.cos(x))


def _check_env(env_z, n: int):
    env = [float(v) for v in env_z]
    if len(env) != n - 1:
        raise ValueError(f"need {n - 1} environment z values, got {len(env)}")
    for v in env:
        if abs(v) > 1.0 + 1e-12:
            raise ValueError(f"|z| = {abs(v)} exceeds 1")
    return env


def _assemble(lam3, tau3, alpha, beta, h, t):
    theta = _wrap_angle(2.0 * h * t + math.atan2(beta, alpha))
    pc = PCParams(lambda1=math.hypot(alpha, beta), theta=theta,
                  lambda3=float(lam3), tau3=float(tau3))
    return pc, ABDecomp(alpha=float(alpha), beta=float(beta))


# ---------------------------------------------------------------------------
# Complete graph, N = 3..6
# ---------------------------------------------------------------------------


def _cc3(t, jp, jz, env):
    e1 = esym(env, 1)
    pz = esym(env, 2)
    c3 = math.cos(3.0 * jp * t)
    lam3 = (5.0 + 4.0 * c3) / 9.0
    tau3 = (2.0 / 9.0) * e1 * (1.0 - c3)
    wa = (2.0 * jz - 2.0 * jp) * t
    wb = (2.0 * jz + jp) * t
    alpha = ((1.0 - pz) * (7.0 + 2.0 * c3)
             + (1.0 + pz) * (3.0 * math.cos(wa) + 6.0 * math.cos(wb))) / 18.0
    beta = e1 * (3.0 * math.sin(wa) + 6.0 * math.sin(wb)) / 18.0
    return lam3, tau3, alpha, beta


def _cc4(t, jp, jz, env):
    e1, e2, e3 = (esym(env, k) for k in (1, 2, 3))
    c2, c4 = math.cos(2.0 * jp * t), math.cos(4.0 * jp * t)
    lam3 = (7 / 16 + c2 / 4 + 5 * c4 / 16) + (1 / 16 - c2 / 12 + c4 / 48) * e2
    tau3 = (3 / 16 - c2 / 12 - 5 * c4 / 48) * e1 - (3 / 16 - c2 / 4 + c4 / 16) * e3
    # Oscillations of the transverse sector.
    w = np.array([3 * (jp - jz), jp + 3 * jz, jp - jz,
                  3 * jp + jz, 5 * jp - jz, jp + jz]) * t
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
    c3, c5 = math.cos(3.0 * jp * t), math.cos(5.0 * jp * t)
    lam3 = (7 / 15 + c3 / 3 + c5 / 5) + (8 / 225 - c3 / 18 + c5 / 50) * e2
    tau3 = ((2 / 15 - c3 / 12 - c5 / 20) * e1
            - (4 / 75 - c3 / 12 + 3 * c5 / 100) * e3)
    w = np.array([3 * jp + 2 * jz, 4 * (jp - jz), 7 * jp - 2 * jz,
                  2 * (jp - jz), jp + 2 * jz, jp + 4 * jz]) * t
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
    c2 = math.cos(2.0 * jp * t)
    c4 = math.cos(4.0 * jp * t)
    c6 = math.cos(6.0 * jp * t)
    lam3 = ((59 / 144 + 5 * c2 / 32 + 5 * c4 / 16 + 35 * c6 / 288)
            + (1 / 24 - c2 / 32 - c4 / 40 + 7 * c6 / 480) * e2
            - (1 / 48 - c2 / 32 + c4 / 80 - c6 / 480) * e4)
    tau3 = ((17 / 144 - c2 / 32 - c4 / 16 - 7 * c6 / 288) * e1
            - (1 / 24 - c2 / 32 - c4 / 40 + 7 * c6 / 480) * e3
            + (5 / 48 - 5 * c2 / 32 + c4 / 16 - c6 / 96) * e5)
    w = np.array([jp + 5 * jz, 5 * (jp - jz), jp + 3 * jz, 3 * (jp - jz),
                  9 * jp - 3 * jz, 5 * jp + jz, 3 * jp + jz, jp + jz,
                  jp - jz, 5 * jp - jz, 7 * jp - jz, 3 * (jp + jz)]) * t
    ca = _CC6_A @ np.cos(w)
    sb = _CC6_B @ np.sin(w)
    alpha = ca[0] + ca[1] * e2 + ca[2] * e4
    beta = sb[0] * e1 + sb[1] * e3 + sb[2] * e5
    return lam3, tau3, alpha, beta


_CC_EVALUATORS = {3: _cc3, 4: _cc4, 5: _cc5, 6: _cc6}


def cc_params(n: int, t: float, j_perp: float, j_par: float, h: float,
              env_z, focal: int = 0):
    """Closed-form (PCParams, ABDecomp) for the complete graph, N = 3..6.

    env_z lists the N-1 non-focal polarizations; the result only depends on
    their symmetric functions, so the order (and `focal`, kept for interface
    symmetry with ring_params) does not matter here.
    """
    if n not in _CC_EVALUATORS:
        raise ValueError(f"no closed form for the complete graph with N={n}")
    env = _check_env(env_z, n)
    lam3, tau3, alpha, beta = _CC_EVALUATORS[n](t, j_perp, j_par, env)
    return _assemble(lam3, tau3, alpha, beta, h, t)


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------


def _ring4_l3t3(t, jp, jz, env):
    s1, s2, s3 = env
    jx = math.sqrt(jz * jz + 8.0 * jp * jp)
    c2, c4 = math.cos(2.0 * jp * t), math.cos(4.0 * jp * t)
    cc = math.cos(jz * t) * math.cos(jx * t)
    ss = 0.0 if jx == 0.0 else (jz / jx) * math.sin(jz * t) * math.sin(jx * t)
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

_RING4_AB = tuple(
    (kind, mono, float(m1), float(m2), float(m3),
     float(Fraction(r0)), float(Fraction(r1)), float(Fraction(r2)))
    for kind, mono, m1, m2, m3, r0, r1, r2 in _RING4_AB_ROWS
)


def _ring4_ab(t, jp, jz, env):
    s1, s2, s3 = env
    jx = math.sqrt(jz * jz + 8.0 * jp * jp)
    if jx == 0.0:
        return 1.0, 0.0  # free precession only
    u, v = jz / jx, jp / jx
    mono_a = {"1": 1.0, "s1s2": s1 * s2, "s2s3": s2 * s3, "s1s3": s1 * s3}
    mono_b = {"s1": s1, "s2": s2, "s3": s3, "s1s2s3": s1 * s2 * s3}
    alpha = beta = 0.0
    for kind, mono, m1, m2, m3, r0, r1, r2 in _RING4_AB:
        w = m1 * jp + m2 * jz + m3 * jx
        coef = r0 + r1 * u + r2 * v
        if kind == "a":
            alpha += coef * math.cos(w * t) * mono_a[mono]
        else:
            beta += coef * math.sin(w * t) * mono_b[mono]
    return alpha, beta


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
    cw = np.cos(_RING5_FREQ * (jp * t))

    def ev(part):
        const, coefs = part
        return const + float(coefs @ cw)

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


def _anisotropic(j_perp: float, j_par: float) -> bool:
    """Whether J_par != J_perp; ring N=5 is solved only at the isotropic point."""
    scale = max(1.0, abs(j_perp), abs(j_par))
    return abs(j_par - j_perp) > 1e-12 * scale


def ring_params(n: int, t: float, j_perp: float, j_par: float, h: float,
                env_z, focal: int = 0):
    """Closed-form ring parameters: (PCParams, ABDecomp) for N=4, and
    (PCParams, None) for N=5 at the isotropic point.

    env_z[k] is the polarization of ring site (focal + 1 + k) mod N; the
    order matters. For N=5 only the z sector is known in closed form, so
    lambda1 and theta come back NaN and the ABDecomp slot is None.
    """
    env = _check_env(env_z, n)
    if n == 4:
        lam3, tau3 = _ring4_l3t3(t, j_perp, j_par, env)
        alpha, beta = _ring4_ab(t, j_perp, j_par, env)
        return _assemble(lam3, tau3, alpha, beta, h, t)
    if n == 5:
        if _anisotropic(j_perp, j_par):
            raise ValueError(
                "ring N=5 is only available at the isotropic point J_par = J_perp")
        lam3, tau3 = _ring5_l3t3(t, j_perp, env)
        pc = PCParams(lambda1=float("nan"), theta=float("nan"),
                      lambda3=float(lam3), tau3=float(tau3))
        return pc, None
    raise ValueError(f"no closed form for the ring with N={n}")


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


def xx_unitary_components(t: float, h12: float, omega12: float,
                          phi12: float) -> np.ndarray:
    """Full 16x16 Pauli transfer matrix of the XX-pair unitary channel.

    Row/column index 4*i + j pairs the first-site axis i with the
    second-site axis j, axes ordered (identity, x, y, z). The result is
    orthogonal; 70 entries are nonzero.
    """
    a = 2.0 * h12 * t
    b = omega12 * t
    c, s = math.cos(phi12), math.sin(phi12)
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)

    m = np.zeros((16, 16))

    def put(value, *pairs):
        for row, col in pairs:
            m[_k2(row), _k2(col)] = value

    put(1.0, ("00", "00"), ("zz", "zz"))
    # Transverse sector of one site against identity/z on the other.
    r = cb * ca + c * sb * sa
    s_rot = cb * sa - c * sb * ca
    put(r, ("0x", "0x"), ("0y", "0y"), ("zx", "zx"), ("zy", "zy"))
    put(s_rot, ("0y", "0x"), ("zy", "zx"))
    put(-s_rot, ("0x", "0y"), ("zx", "zy"))
    p = cb * ca - c * sb * sa
    q = cb * sa + c * sb * ca
    put(p, ("x0", "x0"), ("y0", "y0"), ("xz", "xz"), ("yz", "yz"))
    put(q, ("y0", "x0"), ("yz", "xz"))
    put(-q, ("x0", "y0"), ("xz", "yz"))
    # Transverse exchange between the sites.
    f = s * sa * sb
    put(f, ("0x", "xz"), ("0y", "yz"), ("x0", "zx"), ("xz", "0x"),
        ("y0", "zy"), ("yz", "0y"), ("zx", "x0"), ("zy", "y0"))
    e = s * sb * ca
    put(e, ("0x", "yz"), ("x0", "zy"), ("xz", "0y"), ("zx", "y0"))
    put(-e, ("0y", "xz"), ("y0", "zx"), ("yz", "0x"), ("zy", "x0"))
    # z exchange.
    z_ex = s * s * sb * sb
    put(1.0 - z_ex, ("z0", "z0"), ("0z", "0z"))
    put(z_ex, ("z0", "0z"), ("0z", "z0"))
    g = c * s * sb * sb
    put(g, ("xx", "z0"), ("yy", "z0"), ("z0", "xx"), ("z0", "yy"))
    put(-g, ("0z", "xx"), ("0z", "yy"), ("xx", "0z"), ("yy", "0z"))
    k = 0.5 * s * math.sin(2.0 * b)
    put(k, ("0z", "xy"), ("xy", "z0"), ("yx", "0z"), ("z0", "yx"))
    put(-k, ("0z", "yx"), ("xy", "0z"), ("yx", "z0"), ("z0", "xy"))
    # Two-transverse sector.
    d_minus = 0.5 * (math.sin(2.0 * a) - c * math.sin(2.0 * b))
    put(d_minus, ("xy", "xx"), ("yy", "yx"))
    put(-d_minus, ("xx", "xy"), ("yx", "yy"))
    d_plus = 0.5 * (math.sin(2.0 * a) + c * math.sin(2.0 * b))
    put(d_plus, ("yx", "xx"), ("yy", "xy"))
    put(-d_plus, ("xx", "yx"), ("xy", "yy"))
    put(ca * ca - c * c * sb * sb, ("xx", "xx"), ("yy", "yy"))
    put(sa * sa - c * c * sb * sb, ("xx", "yy"), ("yy", "xx"))
    put(ca * ca - sb * sb, ("xy", "xy"), ("yx", "yx"))
    put(sb * sb - sa * sa, ("xy", "yx"), ("yx", "xy"))
    return m


def xx_reduced_map(t: float, pair_params, env_bloch, which: int = 1) -> np.ndarray:
    """Reduced 4x4 map of one member of an XX pair.

    pair_params is (h12, omega12, phi12) (or anything with those
    attributes); env_bloch = (x, y, z) is the state of the traced-out
    partner. which selects the surviving site. The partner's transverse
    components feed the map's phase-covariance-breaking entries; a diagonal
    partner (x = y = 0) leaves a phase-covariant map.
    """
    if hasattr(pair_params, "h12"):
        h12, omega12, phi12 = pair_params.h12, pair_params.omega12, pair_params.phi12
    else:
        h12, omega12, phi12 = pair_params
    x, y, z = (float(v) for v in env_bloch)
    if x * x + y * y + z * z > 1.0 + 1e-12:
        raise ValueError("environment Bloch vector has norm > 1")
    weights = np.array([1.0, x, y, z])
    u4 = xx_unitary_components(t, h12, omega12, phi12).reshape(4, 4, 4, 4)
    if which == 1:
        return np.einsum("ilk,k->il", u4[:, 0, :, :], weights)
    if which == 2:
        return np.einsum("iml,m->il", u4[0, :, :, :], weights)
    raise ValueError("which must be 1 or 2")
