"""Four-vector arithmetic on Python floats: Minkowski products, the
on-shell energy omega, the on-shell, mass, spin and finite-matrix checks,
Lorentz boost rows, the Dirac spinor basis and the two mass-scaled
matrices, (d + pslash)/2m (``_slash_rows``) and k k/m^2 (``_kk_over_m2``).
Each rule is stated here once; the dirac, propagator and scattering layers
call it.  Where a float's range edge matters, the inputs are first taken
by an exact power of two to the scale of one of them (``_at_scale``, or
the factor alone, ``_scale_factor``, where a caller multiplies inline).

Metric signature (+,-,-,-).  A four-vector is any indexable of four
numbers (a tuple, a list or a numpy array); nothing here needs numpy.
"""
from __future__ import annotations

import cmath
import math
from operator import index

from .errors import (NonFiniteInputError, NumericOverflowError, OffShellError,
                     SuperluminalError, ZeroMassError, finite, finite_vector)

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


def _scale_factor(x: float, even: bool = False) -> float:
    """The float 2^-e by which a caller takes its values to the scale of x
    itself, one product each: e is _at_scale's exponent of x, rounded up
    to even where even is true (x 2^-e then lies in [0.25, 1), and
    sqrt(y 2^-e) is sqrt(y) 2^(-e/2) exactly), and at least -1022, so that
    2^-e is a float (below x = 2^-1022, x 2^-e lies under 0.5 instead, and
    each product by it is still exact).  1.0 at x = 0, inf or nan."""
    e = math.frexp(x)[1]
    if even:
        e += e & 1
    return 2.0 ** -(e if e > -1022 else -1022)


def _transfer_at_scale(p, k, f: float) -> tuple:
    """((p - k)^2 g^2, h) for float four-vectors p and k: g is the
    even-exponent _scale_factor of the largest |p_mu - k_mu|, so that each
    difference times g is exact where it is normal and the square neither
    under- nor overflows where (p - k)^2 would (it is 0 only where that is
    exactly 0 at this scale, and inf or nan where a difference overflows);
    h = sqrt(g/f), for another even-exponent factor f, is the float power
    of two that takes the square at f to it: (p f - k f)^2 = that/h^4."""
    v0, v1, v2, v3 = p[0] - k[0], p[1] - k[1], p[2] - k[2], p[3] - k[3]
    g = _scale_factor(max(abs(v0), abs(v1), abs(v2), abs(v3)), True)
    v0, v1, v2, v3 = v0 * g, v1 * g, v2 * g, v3 * g
    return v0 * v0 - v1 * v1 - v2 * v2 - v3 * v3, math.sqrt(g) / math.sqrt(f)


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


def _check_onshell(p: tuple, m: float):
    """OffShellError unless |p^2 - m^2| <= 1e-10 max(m^2, p0^2) and p0 > 0,
    for finite float p_mu and m.  Where that scale is not a normal float,
    or the test fails, it is repeated on p and m divided by a power of two
    near their largest modulus, an exact scaling, so that a leg whose
    squares under- or overflow is still judged; where p^2 - m^2 overflows
    too, the error reports the scaled deviation times its power of two."""
    p0, p1, p2, p3 = p
    dev = p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3 - m * m
    scale = p0 * p0 if p0 * p0 > m * m else m * m  # max(m^2, p0^2)
    # q and n below are under 1 in modulus
    if not (MIN_NORMAL <= scale < math.inf
            and abs(dev) <= ONSHELL_RTOL * scale):
        e, (*q, n) = _at_scale(max(map(abs, (*p, m))), (*p, m))
        scaled = minkowski_dot(q, q) - n * n
        if not abs(scaled) <= ONSHELL_RTOL * max(n * n, q[0] * q[0]) < 1.0:
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


def _check_spin(r) -> int:
    """r as an int (operator.index); ValueError unless it is 1 or 2."""
    if hasattr(r, "__index__") and index(r) in (1, 2):  # not 1.0 or None
        return index(r)
    raise ValueError(f"spin index must be 1 or 2, got {r}")


def _check_mass(m) -> float:
    """m as a float (errors.finite); ZeroMassError unless m > 0."""
    if (m := finite(m, "m")) > 0.0:
        return m
    raise ZeroMassError(f"need m > 0, got {m}")


def _check_nonnegative_mass(m) -> float:
    """m as a float (errors.finite); ValueError below 0."""
    if (m := finite(m, "m")) >= 0.0:
        return m
    raise ValueError("need m >= 0")


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
    without the division.  beta is three numbers, converted as
    errors.finite_vector converts them, except that an infinite component
    is superluminal: SuperluminalError if |beta| >= 1, and every entry is
    finite otherwise."""
    return _boost(beta)[1]


def _boost(beta) -> tuple:
    """(beta as a float 3-tuple, boost_rows(beta))."""
    beta = tuple(beta)
    try:
        bx, by, bz = finite_vector(beta, "a component of beta")
    except NonFiniteInputError:
        if all(x == x for x in beta):  # no nan: an infinite beta
            raise SuperluminalError("|beta| = inf >= 1") from None
        raise
    b2 = bx * bx + by * by + bz * bz
    # compare |beta| itself, as the error reports it: b2 = 1 - 2^-53 has
    # sqrt 1.0
    if not math.sqrt(b2) < 1.0:
        raise SuperluminalError(f"|beta| = {math.sqrt(b2)} >= 1")
    g = 1.0 / math.sqrt(1.0 - b2)
    k = g * g / (1.0 + g)
    return (bx, by, bz), (
        (g, g * bx, g * by, g * bz),
        (g * bx, 1.0 + k * (bx * bx), k * (bx * by), k * (bx * bz)),
        (g * by, k * (by * bx), 1.0 + k * (by * by), k * (by * bz)),
        (g * bz, k * (bz * bx), k * (bz * by), 1.0 + k * (bz * bz)))
