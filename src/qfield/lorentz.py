"""Four-vector arithmetic on Python floats: Minkowski products, the
on-shell energy omega, the on-shell, mass, spin and finite-matrix checks,
Lorentz boost rows and the Dirac spinor basis.  Each rule is stated here
once; the dirac, propagator and scattering layers call it.

Metric signature (+,-,-,-).  A four-vector is any indexable of four
numbers (a tuple, a list or a numpy array); nothing here needs numpy.
"""
from __future__ import annotations

import cmath
import math

from .errors import (NonFiniteInputError, NumericOverflowError, OffShellError,
                     SuperluminalError, ZeroMassError, finite)

ONSHELL_RTOL = 1e-10
MIN_NORMAL = 2.0 ** -1022  # below it a float is subnormal and loses bits


def minkowski_dot(p, k) -> float:
    """p.k in the metric (+,-,-,-), for tuples, lists and arrays alike."""
    return p[0] * k[0] - p[1] * k[1] - p[2] * k[2] - p[3] * k[3]


def omega(kvec, m: float) -> float:
    """sqrt(|kvec|^2 + m^2), summed left to right on Python floats."""
    kx, ky, kz = map(float, kvec)
    m = float(m)
    return math.sqrt(kx * kx + ky * ky + kz * kz + m * m)


def _check_onshell(p, m: float):
    """OffShellError unless |p^2 - m^2| <= 1e-10 max(m^2, p0^2) and p0 > 0.
    Where that scale is not a normal float, or the test fails, it is
    repeated on p and m divided by a power of two near their largest
    modulus, an exact scaling, so that a leg whose squares under- or
    overflow is still judged; where p^2 - m^2 overflows too, the error
    reports the scaled deviation times its power of two."""
    p0, p1, p2, p3 = p
    dev = p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3 - m * m
    p0 = float(p0)  # p0 * p0 is inf, not an exception, where it overflows
    scale = p0 * p0 if p0 * p0 > m * m else m * m  # max(m^2, p0^2)
    # so that nan or inf fails too (q and n below are under 1 in modulus)
    if not (MIN_NORMAL <= scale < math.inf
            and abs(dev) <= ONSHELL_RTOL * scale):
        e = math.frexp(max(map(abs, (*p, m))))[1]
        q, n = [math.ldexp(x, -e) for x in p], math.ldexp(m, -e)
        scaled = minkowski_dot(q, q) - n * n
        if not abs(scaled) <= ONSHELL_RTOL * max(n * n, q[0] * q[0]) < 1.0:
            for x in (*p, m):
                finite(x, "p and m")
            judged = dev if math.isfinite(dev) else f"{scaled} * 2**{2 * e}"
            raise OffShellError(f"p^2 - m^2 = {judged} for m = {m}")
    if p0 <= 0:
        raise OffShellError("p0 must be positive")


def _finite_rows(rows, what: str, m: float):
    """rows, a sequence of tuples; NumericOverflowError where an entry is
    not finite."""
    if not all(map(cmath.isfinite, sum(rows, ()))):
        raise NumericOverflowError(f"{what} overflows at m={m}")
    return rows


def _check_spin(r: int):
    if r not in (1, 2):
        raise ValueError(f"spin index must be 1 or 2, got {r}")


def _check_mass(m: float):
    if not 0.0 < m < math.inf:  # so that a nan mass fails too
        finite(m, "m")
        raise ZeroMassError(f"need m > 0, got {m}")


def _check_nonnegative_mass(m: float) -> float:
    """m; NonFiniteInputError for nan or inf, ValueError below 0."""
    if not 0.0 <= m < math.inf:  # so that a nan mass fails too
        finite(m, "m")
        raise ValueError("need m >= 0")
    return m


def _reduced_spinor(p, m: float, r: int) -> tuple:
    """u_r(p)/sqrt((E+m)/2m) of an on-shell leg: (chi_r, s sigma.p chi_r),
    s = 1/(E+m), chi_1 = (1, 0), chi_2 = (0, 1) (Dirac basis), entries at
    most 1 in modulus (v_r swaps the halves); ValueError unless r is 1, 2."""
    p0, p1, p2, p3 = p
    s = 1.0 / (p0 + m)  # a product by s, as numpy divides a complex by E+m
    if s < MIN_NORMAL:  # E + m nears or passes overflow, so s loses bits:
        h = p0 * 0.5 + m * 0.5  # divide by (E + m)/2, then halve
        p1, p2, p3, s = p1 / h, p2 / h, p3 / h, 0.5
    if r == 1:
        return 1.0, 0.0, p3 * s, complex(p1, p2) * s
    _check_spin(r)
    return 0.0, 1.0, complex(p1, -p2) * s, -p3 * s


def boost_rows(beta) -> tuple:
    """Rows of the Lorentz boost with velocity beta, as float 4-tuples:

        L00 = gamma,  L0i = Li0 = gamma beta_i,
        Lij = delta_ij + k beta_i beta_j,  k = gamma^2/(1 + gamma),

    which takes (m, 0) to (gamma m, gamma m beta); k is (gamma - 1)/beta^2
    without the division.  SuperluminalError if |beta| >= 1,
    NonFiniteInputError for a nan component."""
    bx, by, bz = map(float, beta)
    b2 = bx * bx + by * by + bz * bz
    # compare |beta| itself, as the error reports it: b2 = 1 - 2^-53 has
    # sqrt 1.0
    if not math.sqrt(b2) < 1.0:  # so that a nan component fails too
        if math.isnan(b2):  # an infinite component is superluminal
            raise NonFiniteInputError(f"beta = {(bx, by, bz)} must be finite")
        raise SuperluminalError(f"|beta| = {math.sqrt(b2)} >= 1")
    g = 1.0 / math.sqrt(1.0 - b2)
    k = g * g / (1.0 + g)
    return ((g, g * bx, g * by, g * bz),
            (g * bx, 1.0 + k * (bx * bx), k * (bx * by), k * (bx * bz)),
            (g * by, k * (by * bx), 1.0 + k * (by * by), k * (by * bz)),
            (g * bz, k * (bz * bx), k * (bz * by), 1.0 + k * (bz * bz)))
