"""Basic q-numbers and q-deformed occupancy statistics.

The deformation parameter q is an ordinary float carried explicitly
through every call; nothing here restricts it to +-1.
"""
from __future__ import annotations

import math

from .errors import NumericOverflowError, OccupancyPoleError, finite

# |q - 1| below this uses the continuous limit <n> = n (avoids 0/0).
Q_UNITY_TOL = 1e-12

# Pole guard for the occupancy denominator e^x - q.
OCCUPANCY_GUARD = 1e-300


def basic_number(q: float, n: int) -> float:
    """The q-deformation <n> = (q^n - 1)/(q - 1) of the integer n.

    At q = 1 (within Q_UNITY_TOL) returns n, the continuous limit.
    Satisfies <n+1> - q*<n> = 1 and <0> = 0.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if abs(q - 1.0) < Q_UNITY_TOL:
        return float(n)
    try:
        value = (q ** n - 1.0) / (q - 1.0)
    except OverflowError:
        value = math.inf
    # numpy scalars overflow to inf where floats raise, and the division
    # can overflow where q^n does not; a non-finite q gives nan or inf.
    if not math.isfinite(value):
        finite(q, "q")
        raise NumericOverflowError(f"<n>_q overflows at q={q}, n={n}")
    return value


def q_occupancy(x: float, q: float) -> float:
    """Deformed thermal occupancy <n> = 1/(e^x - q), x = h*nu/kT.

    q = 1 reduces to Bose-Einstein, q = -1 to Fermi-Dirac, q = 0 to
    the Boltzmann factor e^(-x).  Where e^x overflows, the same value is
    e^(-x)/(1 - q e^(-x)).
    """
    finite(x, "x")
    finite(q, "q")
    try:
        denom = math.exp(x) - q
    except OverflowError:
        small = math.exp(-x)
        return small / (1.0 - q * small)
    if abs(denom) < OCCUPANCY_GUARD:
        raise OccupancyPoleError(f"e^x == q at x={x}, q={q}")
    return 1.0 / denom
