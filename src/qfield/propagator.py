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
prescription, where it is m (Y1 + i J1)/(8 pi tau)).  K1 of a real or
imaginary argument is one exp-sinh trapezoid sum over a smooth,
exponentially decaying integrand (DLMF 10.32.8) on a fixed set of nodes;
the sum at twice the step reuses every other node and bounds the error.
The equal-time value, the spacelike q-commutator (1-q) Delta_plus and the
q-causal propagator all come from it.

numpy (with the dirac layer and the nodes) is loaded on the first spinor
or photon matrix or position-space sum, not at import: the scalar
propagator and the residues never load it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (ConvergenceError, NumericOverflowError, PoleError,
                     ZeroMassError, finite)
from .lorentz import _check_mass, omega

POLE_GUARD = 1e-10

# numpy, the dirac layer and the exp-sinh rule, bound by _load_numpy where a
# matrix or a position-space sum is first built (see the module docstring)
_np = _dirac = _DE_NODES = _DE_WEIGHTS = None


def _load_numpy():
    global _np, _dirac, _DE_NODES, _DE_WEIGHTS
    from . import dirac
    _dirac = dirac
    _DE_NODES, _DE_WEIGHTS = _exp_sinh_rule()
    import numpy
    _np = numpy  # last: _np set means everything else is bound


@dataclass
class PropagatorValue:
    """Propagator evaluation plus diagnostics.

    ``value`` is a complex scalar or a 4x4 complex matrix;
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


def _finite_matrix(matrix):
    if not _np.isfinite(matrix).all():
        raise NumericOverflowError("propagator matrix overflows")
    return matrix


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

    Reduces to (m+pslash)/(2m (p^2-m^2)) at q = -1.
    """
    finite(q, "q")
    _check_mass(m)
    if _np is None:
        _load_numpy()
    np = _np
    p = np.asarray(p, dtype=float)
    k0, *kvec = p.tolist()
    val, dist = _scalar_factor(k0, omega(kvec, m), -float(q), kvec)
    with np.errstate(all="ignore"):  # _finite_matrix raises on overflow
        matrix = (m * np.eye(4) + _dirac.slash(p)) / (2.0 * m) * val
    return PropagatorValue(_finite_matrix(matrix), dist)


def photon_propagator_momentum(k, m: float, q: float) -> PropagatorValue:
    """Vector propagator: g (massless) or g - k k / m^2 (massive) times scalar;
    ValueError at m < 0, where omega (in m^2) would mix the two.

    The half-sum scalar form is used internally, so q = -1 is evaluable.
    """
    finite(m, "m")
    finite(q, "q")
    if m < 0.0:
        raise ValueError("need m >= 0")
    if _np is None:
        _load_numpy()
    np = _np
    k = np.asarray(k, dtype=float)
    k0, *kvec = k.tolist()
    val, dist = _scalar_factor(k0, omega(kvec, m), float(q), kvec)
    with np.errstate(all="ignore"):  # _finite_matrix raises on overflow
        if m > 0.0:
            tensor = _dirac.METRIC - np.outer(k, k) / (m * m)
        else:
            tensor = _dirac.METRIC
        matrix = tensor.astype(complex) * val
    return PropagatorValue(_finite_matrix(matrix), dist)


def _exp_sinh_rule() -> tuple:
    """Nodes u and weights (2 x nodes) of the exp-sinh trapezoid rule

        Int_0^inf e^{-u} u^{1/2} g(u) du ~ sum_i w_i g(u_i),
        u = exp(pi/2 sinh tau),  tau in [-5, 4] at step 1/16.

    Row 0 holds the weights at step 1/16, row 1 those of the rule at step
    1/8: every other node, at doubled weight.  Nodes whose weight
    underflows to 0 are dropped.
    """
    import numpy as np
    step = 1.0 / 16.0
    tau = np.arange(-80, 65) * step
    u = np.exp(0.5 * np.pi * np.sinh(tau))
    w = step * 0.5 * np.pi * np.cosh(tau) * u * np.sqrt(u) * np.exp(-u)
    coarse = np.where(np.arange(tau.size) % 2 == 0, 2.0 * w, 0.0)
    keep = w > 0.0
    return u[keep], np.stack([w, coarse])[:, keep]


_EPS = math.ulp(1.0)
_UNDERFLOW = math.ulp(0.0)  # the absolute rounding of a subnormal result
_FOUR_PI2 = 4.0 * math.pi ** 2


def _wightman(t: float, r: float, m: float) -> tuple:
    """(W, error) for the positive-frequency Wightman function at |t|,

        W = m K1(m zeta) / (4 pi^2 zeta),  zeta^2 = r^2 - t^2.

    Spacelike zeta = sqrt(zeta^2), where W is real.  Timelike
    zeta = +i sqrt(-zeta^2), the t - i0 prescription, where
    W = m (Y1 + i J1)(m tau) / (8 pi tau), tau = sqrt(t^2 - r^2).  Massless,
    W = 1/(4 pi^2 zeta^2).  With z = m zeta, DLMF 10.32.8 (nu = 1,
    |arg z| < pi) gives

        z K1(z) = e^{-z} Int_0^inf e^{-u} u^{1/2} (u + 2z)^{1/2} du,

    a smooth integrand that decays exponentially, summed by the exp-sinh
    rule.  The error is the distance between the sums at steps 1/16 and
    1/8, plus the rounding of z (W is about |z| times as sensitive to it)
    and of the final exponential, plus one subnormal unit.
    NumericOverflowError where zeta^2 leaves the float range or W does.
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
    if zeta2 > 0.0:
        z, log, exp = m * math.sqrt(zeta2), math.log, math.exp
    else:
        z, log, exp = 1j * m * math.sqrt(-zeta2), cmath.log, cmath.exp
    if _np is None:
        _load_numpy()
    fine, coarse = _np.dot(_DE_WEIGHTS, _np.sqrt(_DE_NODES + 2.0 * z)).tolist()
    # e^{-z} S / den as one exponential: no intermediate under- or overflow
    lead = log(fine / den) - z
    try:
        value = exp(lead)
    except OverflowError:
        raise NumericOverflowError(
            f"position-space value overflows at t={t}, r={r}, m={m}") from None
    rounding = 4.0 * _EPS * (2.0 + 2.0 * abs(z) + abs(lead))
    err = abs(value) * (abs(fine - coarse) / abs(fine) + rounding)
    return value, err + _UNDERFLOW


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
