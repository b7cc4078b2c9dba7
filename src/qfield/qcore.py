"""Basic q-numbers and q-deformed occupancy statistics.

The deformation parameter q is an ordinary float carried explicitly
through every call; nothing here restricts it to +-1.  ``basic_number``
is within a few eps at every q, |q| -> 1 included: there q^n - 1 is
formed as expm1(n log|q|), not by cancelling q^n against 1.
"""
from __future__ import annotations

import math
from operator import index

from .errors import (NegativeNormError, NumericOverflowError,
                     OccupancyPoleError, finite)

# Below x = -ln 2, e^x < |e^x - 1|, so e^x - q rounds less than expm1.
_LN2 = math.log(2.0)


def basic_number(q: float, n: int) -> float:
    """The q-deformation <n> = (q^n - 1)/(q - 1) of the integer n.

    At q = 1 returns n, the continuous limit.  Satisfies
    <n+1> - q*<n> = 1 and <0> = 0 (never -0.0).

    n is taken through operator.index: a numpy integer is accepted, and
    a non-integer n raises ValueError as a negative one does.

    Tolerance: the relative error is within 4 eps.  Where q^n > 0 and
    n ||q| - 1| <= 1, q^n - 1 is formed as expm1(n log1p(|q| - 1)), with
    no cancellation as |q| -> 1.  Elsewhere q ** n, within an ulp, is
    above 2, below 1/e or negative, so q^n - 1 loses at most a bit.

    For an n past the float range, q^n underflows for |q| < 1 and the
    value is 1/(1 - q); at q = -1 it is 0 or 1.  An int q past the float
    range, and such an n at q = 1 or |q| > 1, raise NumericOverflowError.
    """
    if type(n) is not int:  # the library's exact ints skip this
        try:
            n = index(n)
        except TypeError:  # 1.5, nan, inf, "1" or None
            raise ValueError(f"n must be a nonnegative integer, got {n!r}") \
                from None
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _basic_number(finite(q, "q"), n)


def _basic_number(q: float, n: int) -> float:
    """basic_number of a finite float q and an int n >= 0."""
    try:  # OverflowError: n is an int past the float range
        if q == 1.0:
            return float(n)
        x = abs(q) - 1.0
        # n = 1 takes q ** n, exact as q - 1 over itself; at n >= 2 the
        # test keeps |x| <= 1/2, where x is exact
        if n >= 2 and n * abs(x) <= 1.0 and (q > 0.0 or n % 2 == 0):
            num = math.expm1(n * math.log1p(x))
        else:
            try:
                num = q ** n - 1.0
            except OverflowError:
                num = math.inf
        value = num / (q - 1.0)
    except OverflowError:  # n is past the float range, and so is q^n:
        # below every float for |q| < 1, +-1 at q = -1, else overflowing
        if abs(q) < 1.0:
            return 1.0 / (1.0 - q)
        if q == -1.0:
            return float(n % 2)
        raise NumericOverflowError(f"<n>_q overflows at q={q}: n is past "
                                   "the float range") from None
    # inf where the quotient overflows
    if not math.isfinite(value):
        # q^n is past the range but the value may not be: form it as
        # q^(n-1) (1 - q^-n)/(1 - 1/q), with 1 - 1/q as (q - 1)/q
        try:
            value = q ** (n - 1) * (1.0 - q ** -n) / ((q - 1.0) / q)
        except OverflowError:
            pass
        if not math.isfinite(value):
            raise NumericOverflowError(f"<n>_q overflows at q={q}, n={n}")
    return value + 0.0  # <0>, and <even n> at q = -1, can come out -0.0


def _level_weight(q: float, n: int) -> float:
    """The weight <n>_q of a ladder step to or from level n >= 1 (fock,
    wick) at a finite float q: inf where it overflows; NegativeNormError
    where it is below 0."""
    try:
        w = _basic_number(q, n)
    except NumericOverflowError:
        return math.inf
    if w < 0.0:
        raise NegativeNormError(f"<{n}>_q = {w} < 0 at q={q}")
    return w


def q_occupancy(x: float, q: float) -> float:
    """Deformed thermal occupancy <n> = 1/(e^x - q), x = h*nu/kT.

    q = 1 reduces to Bose-Einstein, q = -1 to Fermi-Dirac, q = 0 to
    the Boltzmann factor e^(-x).  Where e^x overflows, the same value is
    e^(-x)/(1 - q e^(-x)).  OccupancyPoleError where e^x - q is exactly 0,
    NumericOverflowError where 1/(e^x - q) overflows.

    Tolerance: the relative error is within 3 eps S/|e^x - q|.  For
    x >= -ln 2, e^x - q is formed as expm1(x) + (1 - q) and
    S = |e^x - 1| + |1 - q|, a few eps wherever the two terms share a
    sign (x >= 0 and q <= 1 near the pole).  Below -ln 2 it is formed
    as e^x - q and S = e^x + |q|, a few eps unless q is near e^x.
    """
    x, q = finite(x, "x"), finite(q, "q")
    try:
        # e^x - q without the cancellation of e^x against q near x = 0
        if x < -_LN2:
            denom = math.exp(x) - q
        else:
            denom = math.expm1(x) + (1.0 - q)
    except OverflowError:
        small = math.exp(-x)
        return small / (1.0 - q * small)
    if not denom:
        raise OccupancyPoleError(f"e^x == q at x={x}, q={q}")
    value = 1.0 / denom
    if math.isinf(value):
        raise NumericOverflowError(f"1/(e^x - q) overflows at x={x}, q={q}")
    return value
