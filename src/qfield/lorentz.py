"""Four-vector arithmetic on Python floats: Minkowski products, the
on-shell energy omega, the on-shell, mass, spin and finite-matrix checks,
Lorentz boost rows, the Dirac spinor basis and the two mass-scaled
matrices, (d + pslash)/2m (``_slash_rows``) and k k/m^2 (``_kk_over_m2``).
Each rule is stated here once; the dirac, propagator and scattering layers
call it.  Where a float's range edge matters, the inputs are first taken
by an exact power of two to the scale of one of them (``_at_scale``).

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


# the upper triangle of a symmetric 4x4 matrix, row by row: entries 00, 01,
# 02, 03, 11, 12, 13, 22, 23, 33; here of the metric
_METRIC_UPPER = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, -1.0, 0.0, -1.0)


def _at_scale(x: float, values) -> tuple:
    """(e, [v 2^-e for v in values]), where x 2^-e lies in [0.5, 1) for a
    positive finite x (e = 0 at x = 0, inf or nan).  Each product is
    exact where it is a normal float, inf where it overflows (never
    OverflowError) and rounded once where it is subnormal."""
    e = math.frexp(x)[1]
    if e > -1023:  # 2^-e is a float (down to 2^-1024, exact)
        f = 2.0 ** -e
        return e, [v * f for v in values]
    # x < 2^-1023: 2^-e overflows, so scale up by it in two exact steps
    return e, [v * 2.0 ** 1023 * 2.0 ** (-e - 1023) for v in values]


def minkowski_dot(p, k) -> float:
    """p.k in the metric (+,-,-,-), for two indexables of four numbers
    (tuples, lists and arrays alike), as four products summed left to
    right.  No input is checked: a non-finite component, or a product that
    overflows, gives inf or nan, and a product that underflows is lost."""
    return p[0] * k[0] - p[1] * k[1] - p[2] * k[2] - p[3] * k[3]


def omega(kvec, m: float) -> float:
    """sqrt(|kvec|^2 + m^2), summed left to right on Python floats, for
    three numbers kvec and a number m that float() converts.  No input is
    checked: a nan gives nan, an infinite input or a square or sum that
    overflows gives inf, and a square that underflows is lost
    (omega((1e-200, 0, 0), 0.0) is 0.0); callers check what they need."""
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
        e, (*q, n) = _at_scale(max(map(abs, (*p, m))),
                               [float(x) for x in (*p, m)])
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
    most 1 in modulus (v_r swaps the halves); ValueError unless r is 1, 2.
    Formed at the scale of E, where p_i/(E+m) is the same ratio: each entry
    is the unscaled formula's wherever that formula's intermediates and each
    p_mu 2^-e (lorentz._at_scale) are normal floats."""
    _, (p0, p1, p2, p3, m) = _at_scale(p[0], (*p, m))
    s = 1.0 / (p0 + m)  # a product by s, as numpy divides a complex by E+m
    if r == 1:
        return 1.0, 0.0, p3 * s, complex(p1, p2) * s
    _check_spin(r)
    return 0.0, 1.0, complex(p1, -p2) * s, -p3 * s


def _slash_rows(p, d: float, m: float, v: complex) -> tuple:
    """The rows of ((d I + pslash)/2m) v, pslash in the Dirac
    representation, for float p_mu, d and m > 0 and a complex v: the parts
    d +- p0, 0.0 +- p3 and 0.0 +- p1, 0.0 +- p2 of d I + pslash (so that
    each zero part is +0.0, as in numpy), each times s = 1/2m, then times
    v, as numpy multiplies complex numbers.  All of it is formed at the
    scale of m where that takes the parts down (m >= 0.5) and of 2m where
    it takes them up: s lies in (0.5, 2], a part rounds only where its
    entry is subnormal and overflows only where its entry does, and each
    entry is the one the unscaled formula gives wherever that has no
    subnormal or infinite intermediate."""
    _, (p0, p1, p2, p3, d, m) = _at_scale(max(m, min(m + m, 0.5)),
                                          (*p, d, m))
    s = 0.5 / m
    x, nx = (0.0 + p1) * s, (0.0 - p1) * s
    y, ny = (0.0 + p2) * s, (0.0 - p2) * s
    up, lo, z, nz, o = (complex((d + p0) * s) * v, complex((d - p0) * s) * v,
                        complex((0.0 + p3) * s) * v,
                        complex((0.0 - p3) * s) * v, complex(0.0 * s) * v)
    return ((up, o, nz, complex(nx, y) * v), (o, up, complex(nx, ny) * v, z),
            (z, complex(x, ny) * v, lo, o), (complex(x, y) * v, nz, o, lo))


def _kk_over_m2(k, m: float) -> tuple:
    """k_i k_j / m^2 of float k_mu and m > 0, the upper triangle row by row
    (as _METRIC_UPPER), formed at the scale of m, where m^2 lies in
    [0.25, 1): each is the one the unscaled formula gives wherever that
    formula's intermediates and k_i 2^-e, k_j 2^-e are normal floats (a
    nonzero |k_i| below 2^-1021 m loses bits at that scale), and inf where
    it overflows."""
    _, (a, b, c, d, n) = _at_scale(m, (*k, m))
    n2 = n * n
    return (a * a / n2, a * b / n2, a * c / n2, a * d / n2, b * b / n2,
            b * c / n2, b * d / n2, c * c / n2, c * d / n2, d * d / n2)


def _symmetric_rows(c) -> tuple:
    """The 4 rows of the symmetric matrix with upper triangle c, row by
    row (as _METRIC_UPPER)."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = c
    return ((c0, c1, c2, c3), (c1, c4, c5, c6), (c2, c5, c7, c8),
            (c3, c6, c8, c9))


def boost_rows(beta) -> tuple:
    """Rows of the Lorentz boost with velocity beta, as float 4-tuples:

        L00 = gamma,  L0i = Li0 = gamma beta_i,
        Lij = delta_ij + k beta_i beta_j,  k = gamma^2/(1 + gamma),

    which takes (m, 0) to (gamma m, gamma m beta); k is (gamma - 1)/beta^2
    without the division.  beta is three numbers that float() converts;
    SuperluminalError if |beta| >= 1 (an infinite component included),
    NonFiniteInputError for a nan component, and every entry is finite
    otherwise."""
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
