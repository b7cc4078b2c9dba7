"""q-deformed propagators: momentum-space forms, pole residues, and
position-space evaluation by oscillatory quadrature.

Momentum space, scalar:

    D(k) = (1/2) [ (1+q)/(k^2-m^2) + (1-q)(k0/w)/(k^2-m^2) ],
    w = sqrt(|kvec|^2 + m^2)

equivalently (1/2w)[1/(k0-w) - q/(k0+w)]: two poles of unequal strength
1 and q.  The spinor form carries (m + pslash)/2m and swaps q -> -q in
the scalar factor; the photon/vector form is the metric (or the massive
projector) times the scalar factor.

Position space reduces to 1-D radial integrals with a slowly decaying
oscillatory tail (integrand ~ sin(pr) at large p).  These are evaluated
by Gauss-Legendre panels between consecutive zeros of the oscillation,
whose alternating partial sums Wynn's epsilon algorithm accelerates; it
Abel-sums the non-decaying tail.  The panels go to the integrand in
batches, one (panels x nodes) grid per batch: the panels up to the first
convergence checkpoint, then the panels up to each next one.  The
epsilon table grows one anti-diagonal per partial sum and keeps only the
last two, so a checkpoint costs no rebuild.  Both give the same floats
as panel-by-panel sums with a table rebuilt at every checkpoint.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dirac import METRIC, slash
from .errors import (ConvergenceError, NumericOverflowError, PoleError,
                     ZeroMassError, finite)

POLE_GUARD = 1e-10

_GAUSS_N = 24
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_GAUSS_N)
_CHECK_EVERY = 4  # panels between Wynn checkpoints
_TINY = 1e-300    # a Wynn difference below this ends the table


@dataclass
class PropagatorValue:
    """Propagator evaluation plus diagnostics.

    ``value`` is a complex scalar or a 4x4 complex matrix;
    ``onshell_distance`` is |k^2 - m^2|; ``quad_error`` is present only
    for quadrature-based position-space evaluations.
    """

    value: object
    onshell_distance: float
    quad_error: float | None = None


def omega(kvec, m: float) -> float:
    kvec = np.asarray(kvec, dtype=float)
    return float(np.sqrt(kvec @ kvec + m * m))


def _scalar_factor(k0: float, kvec, m: float, q: float) -> tuple:
    w = omega(kvec, m)
    k2_m2 = k0 * k0 - w * w
    if abs(k2_m2) <= POLE_GUARD:
        raise PoleError(f"|k^2 - m^2| = {abs(k2_m2)} inside guard band")
    val = 0.5 * ((1.0 + q) + (1.0 - q) * (k0 / w)) / k2_m2
    if not (math.isfinite(val) and math.isfinite(k2_m2)):
        for x in (k0, *kvec):  # a non-finite input, else an overflow
            finite(x, "component of k")
        raise NumericOverflowError(
            f"propagator overflows at k0={k0}, omega={w}, q={q}")
    return val, abs(k2_m2)


def _finite_matrix(matrix: np.ndarray) -> np.ndarray:
    if not np.isfinite(matrix).all():
        raise NumericOverflowError("propagator matrix overflows")
    return matrix


def scalar_propagator_momentum(k, m: float, q: float) -> PropagatorValue:
    """Momentum-space q-causal scalar propagator; 1/(k^2-m^2) at q=1."""
    finite(m, "m")
    finite(q, "q")
    k = np.asarray(k, dtype=float)
    val, dist = _scalar_factor(k[0], k[1:], m, q)
    return PropagatorValue(complex(val), dist)


def scalar_propagator_partial_fractions(k, m: float, q: float) -> PropagatorValue:
    """Same propagator via (1/2w)[1/(k0-w) - q/(k0+w)] (consistency form)."""
    k = np.asarray(k, dtype=float)
    w = omega(k[1:], m)
    dist = abs(k[0] ** 2 - w * w)
    if abs(k[0] - w) * 2 * w <= POLE_GUARD or abs(k[0] + w) * 2 * w <= POLE_GUARD:
        raise PoleError("evaluation inside guard band")
    val = (1.0 / (k[0] - w) - q / (k[0] + w)) / (2.0 * w)
    return PropagatorValue(complex(val), dist)


def pole_residues(kvec, m: float, q: float, h0: float | None = None) -> tuple:
    """Numerically extracted residues at k0 = +-w: (1/2w, -q/2w).

    Evaluates (k0 -+ w) * D near each pole and Richardson-extrapolates
    h -> 0.  The physical (+w) residue is q-independent.
    """
    finite(m, "m")
    finite(q, "q")
    kvec = np.asarray(kvec, dtype=float)
    w = omega(kvec, m)
    if w <= 0.0:
        raise ZeroMassError("need omega > 0")
    if h0 is None:
        h0 = 1e-3 * max(w, 1.0)

    def near_plus(h):
        val, _ = _scalar_factor(w + h, kvec, m, q)
        return h * val

    def near_minus(h):
        val, _ = _scalar_factor(-w + h, kvec, m, q)
        return h * val

    residues = (_richardson(near_plus, h0), _richardson(near_minus, h0))
    if not all(map(math.isfinite, residues)):
        raise NumericOverflowError(f"pole residues overflow at m={m}, q={q}")
    return residues


def _richardson(f, h0: float, levels: int = 5) -> float:
    table = [f(h0 / 2 ** i) for i in range(levels)]
    for j in range(1, levels):
        for i in range(levels - j):
            table[i] = (2 ** j * table[i + 1] - table[i]) / (2 ** j - 1)
    return table[0]


def spinor_propagator_momentum(p, m: float, q: float) -> PropagatorValue:
    """Spinor propagator: (m+pslash)/2m times the scalar factor with q -> -q.

    Reduces to (m+pslash)/(2m (p^2-m^2)) at q = -1.
    """
    finite(m, "m")
    finite(q, "q")
    if m <= 0.0:
        raise ZeroMassError("spinor propagator needs m > 0")
    p = np.asarray(p, dtype=float)
    val, dist = _scalar_factor(p[0], p[1:], m, -q)
    matrix = (m * np.eye(4) + slash(p)) / (2.0 * m) * val
    return PropagatorValue(_finite_matrix(matrix), dist)


def photon_propagator_momentum(k, m: float, q: float) -> PropagatorValue:
    """Vector propagator: g (massless) or g - k k / m^2 (massive) times scalar.

    The half-sum scalar form is used internally, so q = -1 is evaluable.
    """
    finite(m, "m")
    finite(q, "q")
    k = np.asarray(k, dtype=float)
    val, dist = _scalar_factor(k[0], k[1:], m, q)
    if m > 0.0:
        tensor = METRIC - np.outer(k, k) / (m * m)
    else:
        tensor = METRIC
    return PropagatorValue(_finite_matrix(tensor.astype(complex) * val), dist)


class _WynnTable:
    """Wynn's epsilon table over a growing sequence of partial sums.

    Only the last two anti-diagonals are kept: ``curr[k]`` is the column-k
    entry built from the latest partial sum, ``prev[k]`` the one built
    from the sum before it.  Each new sum adds one anti-diagonal in
    O(columns) operations, through the rhombus rule

        eps_k^(j) = eps_{k-2}^(j+1) + 1 / (eps_{k-1}^(j+1) - eps_{k-1}^(j)).

    A difference below ``_TINY`` ends the table at its column (the lowest
    such column wins); an even column ending there is (numerically)
    constant and its first such entry is the exact limit.  The entries
    and the estimate are those of a full rebuild over the same sums.
    """

    def __init__(self):
        self.count = 0
        self.prev: list = []
        self.curr: list = []
        self.depth = None      # lowest column holding a tiny difference
        self.exact = None      # that column's first entry before it

    def push(self, s):
        prev = self.curr
        new = [s]
        top = len(prev) if self.depth is None else min(len(prev), self.depth)
        entry, below = s, 0.0          # eps_{k-1}^(j+1), eps_{k-2}^(j+1)
        for col, older in enumerate(prev[:top]):
            diff = entry - older
            if abs(diff) < _TINY:
                self.depth, self.exact = col, older
                break
            entry = below + 1.0 / diff
            below = older
            new.append(entry)
        self.prev, self.curr = prev, new
        self.count += 1

    def estimate(self) -> tuple:
        """(limit, error_estimate) from the sums pushed so far.

        Starts from the last partial sum, with the last step as its
        error, and takes each even column's last entry whose distance to
        the entry before it is strictly smaller than the best so far.
        """
        curr, prev = self.curr, self.prev
        if self.count < 3:
            return curr[0], float("inf")
        if self.depth is not None and self.depth % 2 == 0:
            return self.exact, 0.0
        best = curr[0]
        err = abs(curr[0] - prev[0])
        for col in range(2, min(len(curr), self.count - 1), 2):
            cand_err = abs(curr[col] - prev[col])
            if cand_err < err:
                best, err = curr[col], cand_err
        return best, err


def _partial_sums(f, period: float, start: int, stop: int, total):
    """Running totals after panels start..stop-1, continuing from ``total``.

    Panel n spans [n, n+1] * period; all panels go to ``f`` as one
    (panels x nodes) grid of Gauss-Legendre nodes.
    """
    edges = np.arange(start, stop + 1) * period
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GAUSS_X
    panels = half * np.add.reduce(_GAUSS_W * f(x), axis=1)
    panels[0] += total
    return np.add.accumulate(panels)


def oscillatory_integral(f, period: float, rel_tol: float = 1e-8,
                         max_panels: int = 500, min_panels: int = 12) -> tuple:
    """Integrate f over [0, inf) by half-period panels + epsilon acceleration.

    ``period`` is the half-period of the dominant oscillation (panel
    width); ``f`` must accept an array of any shape.  The Wynn estimate is
    checked after panel n for every n divisible by _CHECK_EVERY with
    n + 1 >= min_panels (13, 17, 21, ... panels by default).  The panels
    up to the first checkpoint go to ``f`` in one call, then each
    checkpoint's next _CHECK_EVERY panels in one call; every partial sum
    extends an incremental epsilon table (``_WynnTable``).  Returns
    (value, error_estimate) at the first checkpoint whose error is at
    most rel_tol * max(1, |value|); raises ConvergenceError if none is
    within max_panels.
    """
    table = _WynnTable()
    err = float("inf")
    total = 0.0
    start = 0
    first = max(min_panels - 1, 0)     # index of the first checkpoint panel
    first += -first % _CHECK_EVERY
    for stop in range(first + 1, max_panels + 1, _CHECK_EVERY):
        sums = _partial_sums(f, period, start, stop, total)
        # Real sums enter the table as Python floats: the same IEEE double
        # arithmetic at about half numpy's per-scalar cost.  Complex sums
        # stay numpy scalars, whose division rounds unlike Python's.
        for s in sums if np.iscomplexobj(sums) else sums.tolist():
            table.push(s)
        total, start = sums[-1], stop
        best, err = table.estimate()
        if err <= rel_tol * max(1.0, abs(best)):
            return best, err
    raise ConvergenceError(
        f"tail not stabilized after {max_panels} panels (err ~ {err})")


def _position_value(value, err: float) -> PropagatorValue:
    """A position-space value, which has no on-shell distance;
    NumericOverflowError where the value or its error overflowed."""
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise NumericOverflowError(
            f"position-space value {value} (error {err}) overflows")
    return PropagatorValue(value, float("nan"), err)


def delta_plus_equal_time(r: float, m: float,
                          rel_tol: float = 1e-8) -> PropagatorValue:
    """Equal-time Wightman function as the radial oscillatory integral

        (1/(4 pi^2 r)) Int_0^inf dp p sin(p r) / omega(p)

    Closed form m K1(m r)/(4 pi^2 r); the massless limit is 1/(4 pi^2 r^2).
    """
    finite(r, "r")
    finite(m, "m")
    if r <= 0.0:
        raise ValueError("need r > 0")
    if m < 0.0:
        raise ValueError("need m >= 0")

    def integrand(p):
        return p * np.sin(p * r) / np.sqrt(p * p + m * m)

    val, err = oscillatory_integral(integrand, np.pi / r, rel_tol)
    pref = 1.0 / (4.0 * np.pi ** 2 * r)
    return _position_value(pref * val, pref * err)


def spacelike_q_commutator(r: float, m: float, q: float,
                           rel_tol: float = 1e-8) -> PropagatorValue:
    """Equal-time spacelike q-commutator (1-q) * Delta_plus(r).

    Zero at q = 1 (causal limit); nonzero otherwise.  The quantitative
    causality-violation probe.
    """
    finite(q, "q")
    base = delta_plus_equal_time(r, m, rel_tol)
    return _position_value((1.0 - q) * base.value,
                           abs(1.0 - q) * base.quad_error)


def causal_position(t: float, r: float, m: float, q: float,
                    rel_tol: float = 1e-8) -> PropagatorValue:
    """q-causal propagator in position space (off the light cone).

    For t > 0 this is the positive-frequency hyperboloid integral

        I(t, r) = (1/(4 pi^2 r)) Int_0^inf dk k sin(k r) e^{-i w t} / w,

    for t < 0 it is q * conj(I(|t|, r)).  Requires r > 0 and r != |t|.
    """
    for value, name in ((t, "t"), (r, "r"), (m, "m"), (q, "q")):
        finite(value, name)
    if t == 0.0:
        raise ValueError("need t != 0 (use delta_plus_equal_time)")
    if r <= 0.0:
        raise ValueError("light-cone/axis evaluation unsupported (need r > 0)")
    ta = abs(t)
    if abs(r - ta) < 1e-12:
        raise ConvergenceError("evaluation on the light cone r = |t|")

    # Split sin(kr) e^{-i w t} into e^{ik(r-t)} and e^{-ik(r+t)} pieces
    # modulated by the decaying phase e^{-i(w-k)t}; each piece gets
    # panels matched to its own oscillation frequency.
    def make_piece(s, sign):
        def f(k):
            w = np.sqrt(k * k + m * m)
            g = (k / w) * np.exp(-1j * (w - k) * ta)
            return sign * g * np.exp(1j * k * s) / 2j
        return f

    val1, err1 = oscillatory_integral(make_piece(r - ta, +1.0),
                                      np.pi / abs(r - ta), rel_tol)
    val2, err2 = oscillatory_integral(make_piece(-(r + ta), -1.0),
                                      np.pi / (r + ta), rel_tol)
    pref = 1.0 / (4.0 * np.pi ** 2 * r)
    value = pref * (val1 + val2)
    err = pref * (err1 + err2)
    if t < 0:
        value = q * np.conj(value)
        err = abs(q) * err
    return _position_value(complex(value), err)
