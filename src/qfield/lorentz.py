"""Four-vector arithmetic on Python floats: Minkowski products, the
on-shell energy omega, the on-shell, mass and spin checks, Lorentz boost
rows and the Dirac spinor basis.  Each rule is stated here once; the
dirac, propagator and scattering layers call it.

Metric signature (+,-,-,-).  A four-vector is any indexable of four
numbers (a tuple, a list or a numpy array); nothing here needs numpy.
"""
from __future__ import annotations

import math

from .errors import (NonFiniteInputError, OffShellError, SuperluminalError,
                     ZeroMassError, finite)

ONSHELL_RTOL = 1e-10


def minkowski_dot(p, k) -> float:
    """p.k in the metric (+,-,-,-), for tuples, lists and arrays alike."""
    return p[0] * k[0] - p[1] * k[1] - p[2] * k[2] - p[3] * k[3]


def mass2(p) -> float:
    return minkowski_dot(p, p)


def omega(kvec, m: float) -> float:
    """sqrt(|kvec|^2 + m^2), summed left to right on Python floats."""
    kx, ky, kz = map(float, kvec)
    m = float(m)
    return math.sqrt(kx * kx + ky * ky + kz * kz + m * m)


def _check_onshell(p, m: float):
    """OffShellError unless |p^2 - m^2| <= 1e-10 max(1, m^2, p0^2) and
    p0 > 0.  Where that test fails, it is repeated on p and m divided by a
    power of two near their largest modulus, an exact scaling, so that a
    leg whose p0^2 overflows is still judged."""
    dev = abs(mass2(p) - m * m)
    p0 = float(p[0])  # p0 * p0 is inf, not an exception, where it overflows
    scale = max(1.0, abs(m * m), p0 * p0)
    # written so that a nan component or mass, or an infinite scale (where
    # inf <= inf would hold), fails the test too
    if not dev <= ONSHELL_RTOL * scale < math.inf:
        e = math.frexp(max(map(abs, (*p, m))))[1]
        q, n = [math.ldexp(x, -e) for x in p], math.ldexp(m, -e)
        # each of q and n is below 1 in modulus, so the scale is 1
        if not abs(mass2(q) - n * n) <= ONSHELL_RTOL:
            for x in (*p, m):
                finite(x, "p and m")
            raise OffShellError(f"p^2 - m^2 = {mass2(p) - m * m} for m = {m}")
    if p0 <= 0:
        raise OffShellError("p0 must be positive")


def _check_spin(r: int):
    if r not in (1, 2):
        raise ValueError(f"spin index must be 1 or 2, got {r}")


def _check_mass(m: float):
    if not 0.0 < m < math.inf:  # so that a nan mass fails too
        finite(m, "m")
        raise ZeroMassError(f"need m > 0, got {m}")


def reduced_spinor(p, m: float, r: int) -> tuple:
    """u_r(p)/sqrt((E+m)/2m) in the Dirac representation, (chi_r, s sigma.p
    chi_r), s = 1/(E+m), chi_1 = (1, 0), chi_2 = (0, 1), entries at most 1
    in modulus (v_r swaps the halves); ValueError for r other than 1, 2."""
    p0, p1, p2, p3 = p
    s = 1.0 / (p0 + m)  # a product by s, as numpy divides a complex by E+m
    if r == 1:
        return 1.0, 0.0, p3 * s, complex(p1, p2) * s
    _check_spin(r)
    return 0.0, 1.0, complex(p1, -p2) * s, -p3 * s


def subluminal_beta(beta) -> tuple:
    """(beta as a float 3-tuple, |beta|^2); SuperluminalError if |beta| >= 1."""
    bx, by, bz = map(float, beta)
    b2 = bx * bx + by * by + bz * bz
    # compare |beta| itself, as the error reports it: b2 = 1 - 2^-53 has
    # sqrt 1.0
    if not math.sqrt(b2) < 1.0:  # so that a nan component fails too
        if math.isnan(b2):  # an infinite component is superluminal
            raise NonFiniteInputError(f"beta = {(bx, by, bz)} must be finite")
        raise SuperluminalError(f"|beta| = {math.sqrt(b2)} >= 1")
    return (bx, by, bz), b2


def boost_rows(beta) -> tuple:
    """Rows of the Lorentz boost with velocity beta, as float 4-tuples:

        L00 = gamma,  L0i = Li0 = gamma beta_i,
        Lij = delta_ij + (gamma - 1) beta_i beta_j / beta^2,

    which takes (m, 0) to (gamma m, gamma m beta)."""
    beta, b2 = subluminal_beta(beta)
    if b2 == 0.0:
        return ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    bx, by, bz = beta
    g = 1.0 / math.sqrt(1.0 - b2)
    k = (g - 1.0) / b2
    return ((g, g * bx, g * by, g * bz),
            (g * bx, 1.0 + k * (bx * bx), k * (bx * by), k * (bx * bz)),
            (g * by, k * (by * bx), 1.0 + k * (by * by), k * (by * bz)),
            (g * bz, k * (bz * bx), k * (bz * by), 1.0 + k * (bz * bz)))
