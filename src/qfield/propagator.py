"""q-deformed propagators: momentum-space forms, pole residues, and
position-space evaluation from the invariant interval.

Momentum space, scalar:

    D(k) = (1/2) [ (1+q)/(k^2-m^2) + (1-q)(k0/w)/(k^2-m^2) ],
    w = sqrt(|kvec|^2 + m^2)

equivalently (1/2w)[1/(k0-w) - q/(k0+w)]: two poles of unequal strength
1 and q.  The spinor form carries (m + pslash)/2m and swaps q -> -q in
the scalar factor; the photon/vector form is the metric (or the massive
projector) times the scalar factor.  The scalar factor, its residues and
omega (from ``lorentz``) are Python-float arithmetic, with k^2 - m^2
formed as (k0 - w)(k0 + w) so that the digits near a pole survive.

Position space depends on the invariant interval zeta^2 = r^2 - t^2
only: the positive-frequency Wightman function is m K1(m zeta)/(4 pi^2
zeta), with zeta = +i sqrt(t^2 - r^2) at timelike points (the t - i0
prescription, where it is m (Y1 + i J1)/(8 pi tau)).  z K1(z) of a real
or imaginary argument is a fixed-length expansion on Python floats: the
power series (DLMF 10.31.1, 10.8.1) at small |z|, above it a Chebyshev
series of e^z sqrt(z) K1(z), or of the Hankel modulus and phase (DLMF
10.18).  The coefficients and each expansion's error bound come from
tools/bessel_tables.py (mpmath); ``quad_error`` is that bound plus the
rounding of z and of the final exponential, and bounds the true error.
The expansions themselves are within 1e-13 relative; the rounding of
zeta adds about eps m |zeta| relative, so values are within 1e-12 of
the exact one at the float inputs for m |zeta| up to ~1e3.  The
equal-time value, the spacelike q-commutator (1-q) Delta_plus and the
q-causal propagator all come from it.

The spinor and photon matrices are 4 rows of 4 Python complex numbers,
each entry rounded as the same formula evaluated in numpy rounds it;
this module loads neither numpy nor the dirac layer.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import _bessel_tables as _tab
from .errors import (ConvergenceError, NumericOverflowError, PoleError,
                     ZeroMassError, finite)
from .lorentz import _check_mass, omega

POLE_GUARD = 1e-10

# the upper triangle of the symmetric photon tensor: index pairs, metric
_UPPER = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2),
          (2, 3), (3, 3))
_METRIC_UPPER = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, -1.0, 0.0, -1.0)


@dataclass
class PropagatorValue:
    """Propagator evaluation plus diagnostics.

    ``value`` is a complex scalar or 4 rows of 4 complex (tuples;
    numpy.array(value) is the matrix);
    ``onshell_distance`` is |k^2 - m^2|; ``quad_error`` is present only
    for position-space evaluations, where it bounds the absolute error.
    """

    value: object
    onshell_distance: float
    quad_error: float | None = None


def _scalar_factor(k0: float, w: float, q: float, kvec) -> tuple:
    """(D, |k^2 - m^2|) for Python floats k0, w = omega and q:

        k^2 - m^2 = (k0 - w)(k0 + w),
        D = (1/2) [(k0 + w) - q (k0 - w)] / w / (k^2 - m^2),

    the half-sum form with the distance to the pole and the numerator both
    taken from k0 -+ w, each rounded once, so that no digit cancels near
    either pole (tolerance: scalar_propagator_momentum).  kvec serves only
    to name a non-finite input.
    """
    d, s = k0 - w, k0 + w
    k2_m2 = d * s
    if abs(k2_m2) <= POLE_GUARD:
        raise PoleError(f"|k^2 - m^2| = {abs(k2_m2)} inside guard band")
    # Python floats: an overflow gives inf and a zero omega an exception,
    # where numpy scalars would warn before the typed error below
    try:
        val = 0.5 * ((s - q * d) / w) / k2_m2
    except ZeroDivisionError:  # omega = 0: no finite value
        val = math.inf
    if not (math.isfinite(val) and math.isfinite(k2_m2)):
        for x in (k0, *kvec):  # a non-finite input, else an overflow
            finite(x, "component of k")
        raise NumericOverflowError(
            f"propagator overflows at k0={k0}, omega={w}, q={q}")
    return val, abs(k2_m2)


def _matrix(rows: tuple, dist: float) -> PropagatorValue:
    """A 4x4 value; NumericOverflowError where an entry is not finite."""
    if not all(map(cmath.isfinite, rows[0] + rows[1] + rows[2] + rows[3])):
        raise NumericOverflowError("propagator matrix overflows")
    return PropagatorValue(rows, dist)


def scalar_propagator_momentum(k, m: float, q: float) -> PropagatorValue:
    """Momentum-space q-causal scalar propagator; 1/(k^2-m^2) at q=1.

    Tolerance, with S = (1/2w)[1/|k0 - w| + |q|/|k0 + w|] the size of the
    partial-fraction terms: within 8 eps S of
    scalar_propagator_partial_fractions at the same w, and within
    4 eps (1 + w/|k0 - w| + w/|k0 + w|) S of the exact value at the float
    inputs, the w terms being the rounding of w.  Near k0 = w, S is |D| to
    first order, so that is relative 6 eps (1 + w/|k0 - w|).
    """
    finite(m, "m")
    finite(q, "q")
    k0, *kvec = map(float, k)
    val, dist = _scalar_factor(k0, omega(kvec, m), float(q), kvec)
    return PropagatorValue(complex(val), dist)


def scalar_propagator_partial_fractions(k, m: float, q: float) -> PropagatorValue:
    """Same propagator via (1/2w)[1/(k0-w) - q/(k0+w)] (consistency form)."""
    k0, *kvec = map(float, k)
    q = float(q)
    w = omega(kvec, m)
    d, s = k0 - w, k0 + w
    if abs(d) * 2 * w <= POLE_GUARD or abs(s) * 2 * w <= POLE_GUARD:
        raise PoleError("evaluation inside guard band")
    val = (1.0 / d - q / s) / (2.0 * w)
    return PropagatorValue(complex(val), abs(d * s))


def pole_residues(kvec, m: float, q: float) -> tuple:
    """Numerically extracted residues at k0 = +-w: (1/2w, -q/2w).

    Evaluates (k0 -+ w) * D at k0 = +-w + h and Richardson-extrapolates
    h -> 0 from the steps h = 1e-3 w / 2^i, i < 5.  The physical (+w)
    residue is q-independent.

    Tolerance: each residue within 1e-14 of 1/2w relative (|q|/2w for the
    second), for w from 1e-3 up.  The steps scale with w, but the pole
    guard band |k^2 - m^2| <= POLE_GUARD does not: below w ~ 1e-3 the
    smallest step falls inside it, and the call raises PoleError naming w.
    """
    finite(m, "m")
    finite(q, "q")
    kvec = tuple(map(float, kvec))
    q = float(q)
    w = omega(kvec, m)
    if w <= 0.0:
        raise ZeroMassError("need omega > 0")

    def near(pole):
        # (k0 - pole) of the rounded k0, so D's pole cancels exactly
        def f(h):
            k0 = pole + h
            return (k0 - pole) * _scalar_factor(k0, w, q, kvec)[0]
        return f

    h0 = 1e-3 * w
    try:
        residues = (_richardson(near(w), h0), _richardson(near(-w), h0))
    except PoleError:
        raise PoleError(f"Richardson steps inside the pole guard band at "
                        f"omega={w}") from None
    if not all(map(math.isfinite, residues)):
        raise NumericOverflowError(f"pole residues overflow at m={m}, q={q}")
    return residues


def _richardson(f, h0: float) -> float:
    levels = 5
    table = [f(h0 / 2 ** i) for i in range(levels)]
    for j in range(1, levels):
        for i in range(levels - j):
            table[i] = (2 ** j * table[i + 1] - table[i]) / (2 ** j - 1)
    return table[0]


def spinor_propagator_momentum(p, m: float, q: float) -> PropagatorValue:
    """Spinor propagator: (m+pslash)/2m times the scalar factor with q -> -q.

    Reduces to (m+pslash)/(2m (p^2-m^2)) at q = -1.  The entries of
    m + pslash (Dirac representation), m +- p0, +-p3, +-(p1 +- i p2) and
    0, are multiplied by 1/2m and then by the scalar factor D as numpy
    multiplies them: numpy.array(value) is (m I + dirac.slash(p))/(2m) * D
    bit for bit, but for the sign of an entry that underflows to zero.

    Tolerance, with N = m + pslash exact at the float inputs and B the
    scalar factor's bound (scalar_propagator_momentum's, at q -> -q):
    each entry within (|N_ij|/2m)(B + (3 eps + 2 m ulp(0))|D|)
    + ulp(0)(1 + |D|) of N_ij D/2m.  The eps terms are the rounding of
    m +- p0, of 1/2m and of the two products; the ulp(0) ones count where
    1/2m (m past 2e307) or a product is subnormal.
    """
    finite(q, "q")
    _check_mass(m)
    m = float(m)
    p0, *kvec = map(float, p)
    val, dist = _scalar_factor(p0, omega(kvec, m), -float(q), kvec)
    p1, p2, p3 = kvec
    v = complex(val)  # complex * complex: the full product, as in numpy
    s = 1.0 / (2.0 * m)  # numpy divides a complex by 2m as a product by s
    # 0.0 +- p: the zero parts of m + pslash are +0.0, as in numpy
    x, nx, y, ny = [a * s for a in (0.0 + p1, 0.0 - p1, 0.0 + p2, 0.0 - p2)]
    up, lo, z, nz, o = [complex(a * s) * v
                        for a in (m + p0, m - p0, 0.0 + p3, 0.0 - p3, 0.0)]
    return _matrix(((up, o, nz, complex(nx, y) * v),
                    (o, up, complex(nx, ny) * v, z),
                    (z, complex(x, ny) * v, lo, o),
                    (complex(x, y) * v, nz, o, lo)), dist)


def photon_propagator_momentum(k, m: float, q: float) -> PropagatorValue:
    """Vector propagator: g (massless) or g - k k / m^2 (massive) times scalar;
    ValueError at m < 0, where omega (in m^2) would mix the two.

    The half-sum scalar form is used internally, so q = -1 is evaluable.
    Each entry is (g_ij - k_i k_j / m^2) D, so numpy.array(value) is
    (g - outer(k, k) / m^2) * D evaluated in numpy, bit for bit.

    Tolerance, with t = g - k k/m^2 exact at the float inputs, K_ij =
    |k_i k_j|/m^2 and B the scalar factor's bound (that of
    scalar_propagator_momentum): each entry within |t_ij| B
    + |D| (eps |t_ij| + 2 eps K_ij + ulp(0)(1 + K_ij)/m^2) + ulp(0) of
    t_ij D.  The eps terms are the rounding of k_i k_j, m^2, the quotient,
    the difference and the product; the ulp(0) ones count where k_i k_j,
    m^2 (m below 1.5e-154) or the entry is subnormal.
    """
    finite(m, "m")
    finite(q, "q")
    if m < 0.0:
        raise ValueError("need m >= 0")
    m = float(m)
    k0, *kvec = k = tuple(map(float, k))
    val, dist = _scalar_factor(k0, omega(kvec, m), float(q), kvec)
    tensor = _METRIC_UPPER
    if m > 0.0:
        m2 = m * m
        if m2 == 0.0:  # k k / m^2 is inf or nan on the whole diagonal
            raise NumericOverflowError("propagator matrix overflows")
        tensor = [g - k[i] * k[j] / m2 for g, (i, j) in zip(tensor, _UPPER)]
    v = complex(val)
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = [complex(t) * v for t in tensor]
    return _matrix(((c0, c1, c2, c3), (c1, c4, c5, c6), (c2, c5, c7, c8),
                    (c3, c6, c8, c9)), dist)


_EPS = math.ulp(1.0)
_UNDERFLOW = math.ulp(0.0)  # the absolute rounding of a subnormal result
_FOUR_PI2 = 4.0 * math.pi ** 2
_HALF_PI = 0.5 * math.pi
_THREE_QUARTER_PI = 0.75 * math.pi

# The expansions of z K1(z) (see _bessel_tables), in the order Horner's
# rule and Clenshaw's recurrence take them: highest degree first
_SERIES = tuple(zip(reversed(_tab.SERIES_A), reversed(_tab.SERIES_B)))
_SPACE_SERIES = _SERIES[-_tab.SPACE_TERMS:]
_K1_CHEB = tuple(reversed(_tab.K1_CHEB))
_HANKEL_CHEB = tuple(zip(reversed(_tab.M1_CHEB), reversed(_tab.THETA1_CHEB)))


def _series(y: float, terms) -> tuple:
    """(A(y), B(y)) of the z K1(z) series, by Horner's rule."""
    a = b = 0.0
    for ca, cb in terms:
        a = a * y + ca
        b = b * y + cb
    return a, b


def _spacelike(z: float, den: float) -> tuple:
    """(W, relative error bound) at z = m zeta, den = 4 pi^2 zeta^2."""
    if z <= _tab.SPACE_CUT:
        y = 0.25 * z * z
        a, b = _series(y, _SPACE_SERIES)
        s = 1.0 + y * (2.0 * math.log(0.5 * z) * a - b) if y else 1.0
        return s / den, _tab.SPACE_SERIES_RTOL
    # g = e^z sqrt(z) K1(z) by Clenshaw's recurrence in t = 2 cut/z - 1
    t2 = 4.0 * _tab.SPACE_CUT / z - 2.0
    b0 = b1 = 0.0
    for c in _K1_CHEB:
        b0, b1 = t2 * b0 - b1 + c, b0
    g = b0 - 0.5 * t2 * b1
    # e^{-z} z K1(z) / den as one exponential: no intermediate under- or
    # overflow (sqrt(z) g / den itself overflows at m ~ 1e300, zeta ~ 1e-150)
    lead = math.log(math.sqrt(z) * g) - math.log(den) - z
    try:
        # the bound adds the rounding of lead, which moves W by |lead| eps
        return math.exp(lead), _tab.K1_CHEB_RTOL + 4.0 * _EPS * abs(lead)
    except OverflowError:
        raise NumericOverflowError(
            f"position-space value overflows at m zeta={z}") from None


def _timelike(x: float, den: float) -> tuple:
    """(W, relative error bound) at x = m tau, den = -4 pi^2 tau^2, from
    z K1(z) = -(pi/2) x (Y1 + i J1)(x) at z = i x."""
    if x <= _tab.TIME_CUT:
        y = -0.25 * x * x
        a, b = _series(y, _SERIES)
        re, im = (1.0 + y * (2.0 * math.log(0.5 * x) * a - b),
                  math.pi * y * a) if y else (1.0, 0.0)
        return complex(re / den, im / den), _tab.TIME_SERIES_RTOL
    # sqrt(x) M1 and (theta1 - x + 3 pi/4) x by Clenshaw's recurrence in
    # t = 2 cut/x - 1
    t2 = 4.0 * _tab.TIME_CUT / x - 2.0
    b0 = b1 = d0 = d1 = 0.0
    for c, e in _HANKEL_CHEB:
        b0, b1 = t2 * b0 - b1 + c, b0
        d0, d1 = t2 * d0 - d1 + e, d0
    modulus = b0 - 0.5 * t2 * b1
    # theta1 = x + d: sin and cos of x and of d apart, so that x + d is
    # never rounded
    d = (d0 - 0.5 * t2 * d1) / x - _THREE_QUARTER_PI
    sx, cx, sd, cd = math.sin(x), math.cos(x), math.sin(d), math.cos(d)
    # Y1 + i J1 = M1 (sin theta1 + i cos theta1)
    scale = -_HALF_PI * math.sqrt(x) * modulus / den
    return (complex(scale * (sx * cd + cx * sd), scale * (cx * cd - sx * sd)),
            _tab.HANKEL_CHEB_RTOL)


def _wightman(t: float, r: float, m: float) -> tuple:
    """(W, error) for the positive-frequency Wightman function at |t|,

        W = m K1(m zeta) / (4 pi^2 zeta) = z K1(z) / (4 pi^2 zeta^2),

    z = m zeta, zeta^2 = r^2 - t^2.  Spacelike zeta = sqrt(zeta^2), where W
    is real.  Timelike zeta = +i tau, tau = sqrt(t^2 - r^2), the t - i0
    prescription, where W = m (Y1 + i J1)(m tau) / (8 pi tau).  Massless,
    W = 1/(4 pi^2 zeta^2).

    z K1(z) comes from fixed-length expansions in Python floats (tables
    and derivation in _bessel_tables): the power series of DLMF 10.31.1
    and 10.8.1 up to z = 2 spacelike and m tau = 4 timelike, above them
    Chebyshev series of e^z sqrt(z) K1(z) and of the modulus and phase of
    the Hankel function (DLMF 10.18).  The error is each expansion's bound
    (its truncation and the rounding of its evaluation), plus the rounding
    of z (W is about |z| times as sensitive to it) and of the final
    exponential, plus one subnormal unit.  NumericOverflowError where
    zeta^2, m zeta or W leaves the float range; ConvergenceError at a
    timelike point where the relative bound reaches 1 (m tau past about
    5.6e14), where W has no correct digit.
    """
    ta = abs(t)
    zeta2 = (r - ta) * (r + ta)  # a product keeps the digits near the cone
    den = _FOUR_PI2 * zeta2
    if not 0.0 < abs(den) < math.inf:
        raise NumericOverflowError(
            f"invariant interval r^2 - t^2 = {zeta2} out of range "
            f"at t={t}, r={r}")
    if m == 0.0:
        value = 1.0 / den
        return value, 4.0 * _EPS * abs(value) + _UNDERFLOW
    z = m * math.sqrt(abs(zeta2))
    if z == math.inf:
        raise NumericOverflowError(
            f"m zeta overflows at t={t}, r={r}, m={m}")
    value, rtol = (_spacelike if zeta2 > 0.0 else _timelike)(z, den)
    rounding = 4.0 * _EPS * (2.0 + 2.0 * z)
    if zeta2 < 0.0 and rtol + rounding >= 1.0:
        # spacelike, e^-z has underflowed long before
        raise ConvergenceError(
            f"no correct digit at m tau = {z} (t={t}, r={r}, m={m}): the "
            f"rounding of tau moves the phase m tau by a radian")
    return value, abs(value) * (rtol + rounding) + _UNDERFLOW


def _position_value(value, err: float) -> PropagatorValue:
    """A position-space value, which has no on-shell distance;
    NumericOverflowError where the value or its error overflowed."""
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise NumericOverflowError(
            f"position-space value {value} (error {err}) overflows")
    return PropagatorValue(value, float("nan"), err)


def delta_plus_equal_time(r: float, m: float) -> PropagatorValue:
    """Equal-time Wightman function m K1(m r)/(4 pi^2 r), the radial
    integral (1/(4 pi^2 r)) Int_0^inf dp p sin(p r) / omega(p); the
    massless limit is 1/(4 pi^2 r^2)."""
    finite(r, "r")
    finite(m, "m")
    if r <= 0.0:
        raise ValueError("need r > 0")
    if m < 0.0:
        raise ValueError("need m >= 0")
    return _position_value(*_wightman(0.0, r, m))


def spacelike_q_commutator(r: float, m: float, q: float) -> PropagatorValue:
    """Equal-time spacelike q-commutator (1-q) * Delta_plus(r).

    Zero at q = 1 (causal limit); nonzero otherwise.  The quantitative
    causality-violation probe.
    """
    finite(q, "q")
    base = delta_plus_equal_time(r, m)
    return _position_value((1.0 - q) * base.value,
                           abs(1.0 - q) * base.quad_error)


def causal_position(t: float, r: float, m: float, q: float) -> PropagatorValue:
    """q-causal propagator in position space (off the light cone).

    For t > 0 this is the positive-frequency hyperboloid integral

        I(t, r) = (1/(4 pi^2 r)) Int_0^inf dk k sin(k r) e^{-i w t} / w,

    which depends on the invariant interval only: I = m K1(m zeta) /
    (4 pi^2 zeta), zeta = sqrt(r^2 - t^2) with t -> t - i0.  For t < 0 it
    is q * conj(I(|t|, r)).  Requires r > 0 and r != |t|.
    ConvergenceError on the light cone, and inside it where m tau passes
    about 5.6e14 and the value has no correct digit (see _wightman).
    """
    for value, name in ((t, "t"), (r, "r"), (m, "m"), (q, "q")):
        finite(value, name)
    if t == 0.0:
        raise ValueError("need t != 0 (use delta_plus_equal_time)")
    if r <= 0.0:
        raise ValueError("light-cone/axis evaluation unsupported (need r > 0)")
    if m < 0.0:
        raise ValueError("need m >= 0")
    if abs(r - abs(t)) < 1e-12:
        raise ConvergenceError("evaluation on the light cone r = |t|")
    value, err = _wightman(t, r, m)
    if t < 0:
        value = q * value.conjugate()
        err = abs(q) * err
    return _position_value(complex(value), err)
