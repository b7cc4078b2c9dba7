"""q-deformed propagators: momentum-space forms, pole residues, and
position-space evaluation from the invariant interval.

Momentum space, scalar:

    D(k) = (1/2) [ (1+q)/(k^2-m^2) + (1-q)(k0/w)/(k^2-m^2) ],
    w = sqrt(|kvec|^2 + m^2)

equivalently (1/2w)[1/(k0-w) - q/(k0+w)]: two poles of unequal strength
1 and q.  The spinor form carries (m + pslash)/2m and swaps q -> -q in
the scalar factor; the photon/vector form is the metric (or the massive
projector) times the scalar factor.  The scalar factor, its residues and
omega (from ``lorentz``) are Python-float arithmetic, dividing by
k0 - w and by k0 + w in turn so that the digits near a pole survive.

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

from . import _bessel_tables as _tab
from .errors import (ConvergenceError, NumericOverflowError, PoleError,
                     Record, ZeroMassError, finite)
from .lorentz import (_METRIC_UPPER, MIN_NORMAL, _check_mass,
                      _check_nonnegative_mass, _finite_rows, _kk_over_m2,
                      _slash_rows, _symmetric_rows, omega)


class PropagatorValue(Record):
    """Propagator evaluation plus diagnostics.

    ``value`` is a complex scalar or 4 rows of 4 complex (tuples;
    numpy.array(value) is the matrix);
    ``onshell_distance`` (|k^2 - m^2|, inf where only it overflows) is set
    only in momentum space, and
    ``quad_error`` (a bound on the absolute error) only in position space.
    """

    __slots__ = _fields = ("value", "onshell_distance", "quad_error")

    def __init__(self, value, onshell_distance: float | None,
                 quad_error: float | None = None):
        self.value = value
        self.onshell_distance = onshell_distance
        self.quad_error = quad_error


def _scalar_factor(k0: float, w: float, q: float, kvec) -> tuple:
    """(D, |k^2 - m^2|) for Python floats k0, w = omega and q:

        D = (1/2) [(k0 + w) - q (k0 - w)] / w / (k0 - w) / (k0 + w),
        |k^2 - m^2| = |(k0 - w)(k0 + w)|,

    the half-sum form with the numerator and the distances to the poles
    taken from k0 -+ w, each rounded once, so that no digit cancels near
    either pole (tolerance: scalar_propagator_momentum), and D is kept
    where only k^2 - m^2 under- or overflows (the distance is then 0 or
    inf).  At w = 0 the form is 0/0 at q = 1, where D = 1/k0^2, returned
    within 2 eps, and has no finite value at any other q.  PoleError only
    at k0 = +-w exactly; kvec serves only to name a non-finite input.
    """
    d, s = k0 - w, k0 + w
    if d == 0.0 or s == 0.0:
        raise PoleError(f"k0 = {k0} is a pole, +-omega = +-{w}")
    try:  # Python floats: an overflow gives inf, a zero omega an exception
        val = 0.5 * ((s - q * d) / w) / d / s
    except ZeroDivisionError:  # w = 0: no finite value, but at q = 1
        val = (1.0 / k0) / k0 if q == 1.0 else math.inf
    if not math.isfinite(val):
        for x in (k0, *kvec):  # a non-finite input, else an overflow
            finite(x, "component of k")
        raise NumericOverflowError(
            f"propagator overflows at k0={k0}, omega={w}, q={q}")
    return val, abs(d * s)


def scalar_propagator_momentum(k, m: float, q: float) -> PropagatorValue:
    """Momentum-space q-causal scalar propagator; 1/(k^2-m^2) at q=1.

    Tolerance, with S = (1/2w)[1/|k0 - w| + |q|/|k0 + w|] the size of the
    partial-fraction terms: within 8 eps S of the float formula
    (1/(k0 - w) - q/(k0 + w)) / (2w) at the same w, and within
    4 eps (1 + w/|k0 - w| + w/|k0 + w|) S + ulp(0) of the exact value at
    the float inputs, the w terms being the rounding of w and ulp(0) that
    of a subnormal D (which the spinor and photon entries scale up).  Near
    k0 = w, S is |D| to first order, so that is relative
    6 eps (1 + w/|k0 - w|).  At w = 0 the
    value exists only at q = 1, D = 1/k0^2 within 2 eps; elsewhere there
    NumericOverflowError.  PoleError only at k0 = +-w exactly; ValueError
    at m < 0.
    """
    _check_nonnegative_mass(m)
    finite(q, "q")
    k0, *kvec = map(float, k)
    val, dist = _scalar_factor(k0, omega(kvec, m), float(q), kvec)
    return PropagatorValue(complex(val), dist)


def pole_residues(kvec, m: float, q: float) -> tuple:
    """Numerically extracted residues at k0 = +-w: (1/2w, -q/2w).

    Evaluates (k0 -+ w) * D at k0 = +-w + h and Richardson-extrapolates
    h -> 0 from the steps h = 1e-3 w / 2^i, i < 5.  The physical (+w)
    residue is q-independent.

    Tolerance: within 1e-14/2w of 1/2w and 1e-14 max(1, |q|)/2w of -q/2w
    (the second's error is absolute, about eps/2w) wherever they are
    normal: the steps are taken at w/2^n in [1, 2), and the residues
    divided by 2^n, exactly.  ValueError at m < 0,
    ZeroMassError at w = 0, NumericOverflowError where a residue overflows.
    """
    _check_nonnegative_mass(m)
    finite(q, "q")
    kvec = tuple(map(float, kvec))
    q = float(q)
    w = omega(kvec, m)
    if w <= 0.0:
        raise ZeroMassError("need omega > 0")
    unit = math.ldexp(1.0, math.frexp(w)[1] - 1)  # w / unit is in [1, 2)
    v = w / unit

    def near(pole):
        # (k0 - pole) of the rounded k0, so D's pole cancels exactly
        def f(h):
            k0 = pole + h
            return (k0 - pole) * _scalar_factor(k0, v, q, kvec)[0]
        return f

    residues = (_richardson(near(v), 1e-3 * v) / unit,
                _richardson(near(-v), 1e-3 * v) / unit)
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
    multiplies them, at the scale of m or 2m (lorentz._slash_rows):
    numpy.array(value) is (m I + dirac.slash(p))/(2m) * D bit for bit,
    signs of zeros included, wherever numpy's 1/2m and the parts and
    entries it forms are normal floats.

    Tolerance, with N = m + pslash exact at the float inputs and B the
    scalar factor's bound (scalar_propagator_momentum's, at q -> -q):
    each entry within (|N_ij|/2m)(B + 3 eps |D|) + ulp(0)(1 + |D|) of
    N_ij D/2m.  The eps terms are the rounding of m +- p0, of 1/2m and of
    the two products; the ulp(0) ones count where a part of N/2m or the
    entry is subnormal.  NumericOverflowError where an entry or a part of
    N/2m overflows.
    """
    finite(q, "q")
    _check_mass(m)
    m = float(m)
    p0, *kvec = p = tuple(map(float, p))
    val, dist = _scalar_factor(p0, omega(kvec, m), -float(q), kvec)
    # complex * complex: the full product, as in numpy
    return PropagatorValue(_finite_rows(_slash_rows(p, m, m, complex(val)),
                                        "propagator matrix", m), dist)


def photon_propagator_momentum(k, m: float, q: float) -> PropagatorValue:
    """Vector propagator: g (massless) or g - k k / m^2 (massive) times scalar;
    ValueError at m < 0, where omega (in m^2) would mix the two.

    The half-sum scalar form is used internally, so q = -1 is evaluable.
    Each entry is (g_ij - K_ij) D, K_ij = k_i k_j / m^2 formed at the scale
    of m (lorentz._kk_over_m2), so numpy.array(value) is
    (g - outer(k, k) / m^2) * D evaluated in numpy, bit for bit, wherever
    numpy's m^2, k_i k_j, quotients and entries are normal floats and no
    nonzero |k_i| is below 2^-1021 m.

    Tolerance, with t = g - k k/m^2 exact at the float inputs, K_ij =
    |k_i k_j|/m^2 and B the scalar factor's bound (that of
    scalar_propagator_momentum): each entry within |t_ij| B
    + |D| (eps |t_ij| + 2 eps K_ij + 3 ulp(0) + U_ij) + ulp(0) of t_ij D,
    U_ij = ulp(0) |k_j|/m for a factor 0 < |k_i| < 2^-1021 m (and the
    same with i and j swapped), else 0.  The eps terms are the rounding of
    k_i k_j, m^2, the quotient, the difference and the product; 3 ulp(0)
    counts where k_i k_j or K_ij is subnormal at the scale of m, U_ij
    where a factor is, and the last ulp(0) where the entry is.
    NumericOverflowError where an entry or a K_ij overflows.
    """
    m = float(_check_nonnegative_mass(m))
    finite(q, "q")
    k0, *kvec = k = tuple(map(float, k))
    val, dist = _scalar_factor(k0, omega(kvec, m), float(q), kvec)
    tensor = _METRIC_UPPER
    if m > 0.0:
        tensor = [g - x for g, x in zip(tensor, _kk_over_m2(k, m))]
    v = complex(val)
    return PropagatorValue(_finite_rows(
        _symmetric_rows([complex(t) * v for t in tensor]),
        "propagator matrix", m), dist)


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
    # no overflow: _wightman calls this with z > 2 and a normal zeta^2, so
    # den >= 4 pi^2 2^-1022 and W = z K1(z)/den <= 2 K1(2)/den ~ 3.2e305;
    # the bound adds the rounding of lead, which moves W by |lead| eps
    return math.exp(lead), _tab.K1_CHEB_RTOL + 4.0 * _EPS * abs(lead)


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
    exponential, plus one subnormal unit.  ConvergenceError first, at a
    timelike point where the relative bound reaches 1 (m tau past about
    5.6e14, tau^2 finite or not), where W has no correct digit; then
    NumericOverflowError where m zeta or W leaves the float range.  Where
    only zeta^2 leaves the normal range, W comes from t, r and m scaled by
    powers of 2, unless W, scaled to tiny zeta^2, is subnormal there.
    """
    ta = abs(t)
    zeta2 = (r - ta) * (r + ta)  # a product keeps the digits near the cone
    z = m * math.sqrt(abs(zeta2))
    if z == math.inf:  # m zeta, or only zeta^2, overflows: try the roots
        z = m * (math.sqrt(abs(r - ta)) * math.sqrt(r + ta))
        if z == math.inf and zeta2 > 0.0:
            raise NumericOverflowError(
                f"m zeta overflows at t={t}, r={r}, m={m}")
    rounding = 4.0 * _EPS * (2.0 + 2.0 * z)
    if zeta2 < 0.0 and _tab.HANKEL_CHEB_RTOL + rounding >= 1.0:
        raise ConvergenceError(
            f"no correct digit at m tau = {z} (t={t}, r={r}, m={m}): the "
            f"rounding of tau moves the phase m tau by a radian")
    den = _FOUR_PI2 * zeta2
    # a subnormal zeta^2 has lost digits, and W and z with it
    if not (MIN_NORMAL <= abs(zeta2) and abs(den) < math.inf):
        # W has mass dimension 2: W(t, r, m) = 2^-2e W(t 2^-e, r 2^-e,
        # m 2^e) at the same z, where e takes zeta^2 to within 2^+-1001
        x = math.frexp(r - ta)[1] + math.frexp(r + ta)[1]
        e = (x - max(-1000, min(x, 1000))) // 2
        if e:
            value, err = _wightman(math.ldexp(ta, -e), math.ldexp(r, -e),
                                   math.ldexp(m, e))
            # scaled up (e < 0), a subnormal value has too few digits
            if e > 0 or abs(value) >= MIN_NORMAL:
                # |e| < 600: 2^-e is exact, and so is each product unless
                # it is subnormal (the added unit) or overflows
                s = 2.0 ** -e
                value = value * s * s
                if cmath.isfinite(value):
                    return value, err * s * s + _UNDERFLOW
        raise NumericOverflowError(
            f"invariant interval r^2 - t^2 = {zeta2} out of range "
            f"at t={t}, r={r}")
    if m == 0.0:
        value = 1.0 / den
        return value, 4.0 * _EPS * abs(value) + _UNDERFLOW
    value, rtol = (_spacelike if zeta2 > 0.0 else _timelike)(z, den)
    return value, abs(value) * (rtol + rounding) + _UNDERFLOW


def _position_value(value, err: float) -> PropagatorValue:
    """A position-space value, which has no on-shell distance;
    NumericOverflowError where the value or its error overflows."""
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise NumericOverflowError(
            f"position-space value {value} (error {err}) overflows")
    return PropagatorValue(value, None, err)


def delta_plus_equal_time(r: float, m: float) -> PropagatorValue:
    """Equal-time Wightman function m K1(m r)/(4 pi^2 r), the radial
    integral (1/(4 pi^2 r)) Int_0^inf dp p sin(p r) / omega(p); the
    massless limit is 1/(4 pi^2 r^2)."""
    finite(r, "r")
    _check_nonnegative_mass(m)
    if r <= 0.0:
        raise ValueError("need r > 0")
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
    ConvergenceError on the light cone r == |t|, and inside it where m tau
    passes about 5.6e14 and the value has no correct digit (see _wightman).
    """
    for value, name in ((t, "t"), (r, "r"), (q, "q")):
        finite(value, name)
    _check_nonnegative_mass(m)
    if t == 0.0:
        raise ValueError("need t != 0 (use delta_plus_equal_time)")
    if r <= 0.0:
        raise ValueError("light-cone/axis evaluation unsupported (need r > 0)")
    if r == abs(t):
        raise ConvergenceError("evaluation on the light cone r = |t|")
    value, err = _wightman(t, r, m)
    if t < 0:
        value = q * value.conjugate()
        err = abs(q) * err
    return _position_value(complex(value), err)
