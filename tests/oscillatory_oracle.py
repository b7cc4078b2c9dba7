"""Position space by oscillatory quadrature: the test-side oracle.

The library evaluates position-space values from the invariant interval
(a K1/Hankel closed form from power and Chebyshev series).  This module is an
independent route to the same values, the radial integrals

    Delta_plus(r)  = (1/(4 pi^2 r)) Int_0^inf dp p sin(p r) / omega(p),
    I(t, r)        = (1/(4 pi^2 r)) Int_0^inf dk k sin(k r) e^{-i w t} / w,

evaluated by Gauss-Legendre panels between consecutive zeros of the
oscillation, whose alternating partial sums Wynn's epsilon algorithm
accelerates; it Abel-sums the non-decaying tail.  The panels go to the
integrand in batches, one (panels x nodes) grid per batch: the panels up
to the first convergence checkpoint, then the panels up to each next
one.  The epsilon table grows one anti-diagonal per partial sum and
keeps only the last two, so a checkpoint costs no rebuild.

It shares no code with the library's position-space path and is right
inside the window m r <= 6, m |r - |t|| >= 0.3; outside it (large m r,
near the light cone) it can miss by far more than its error estimate.
Position-space values report the tolerance each integral stops at,
REL_TOL * max(1, |integral|), as their error: Wynn's estimate, which
decides when to stop, is not a bound (at r = 0.16687, m = 1.32254 it
reads 1.3e-11 where the value is 1.6e-10 off).
"""
import numpy as np

from qfield.errors import ConvergenceError
from qfield.propagator import PropagatorValue

_GAUSS_N = 24
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_GAUSS_N)
_CHECK_EVERY = 4  # panels between Wynn checkpoints
_TINY = 1e-300    # a Wynn difference below this ends the table
REL_TOL = 1e-8    # stopping tolerance of the position-space integrals


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


def _tolerance(val) -> float:
    return REL_TOL * max(1.0, abs(val))


def delta_plus_equal_time(r: float, m: float) -> PropagatorValue:
    """Equal-time Wightman function by the radial oscillatory integral."""

    def integrand(p):
        return p * np.sin(p * r) / np.sqrt(p * p + m * m)

    val = oscillatory_integral(integrand, np.pi / r, REL_TOL)[0]
    pref = 1.0 / (4.0 * np.pi ** 2 * r)
    return PropagatorValue(pref * val, float("nan"), pref * _tolerance(val))


def causal_position(t: float, r: float, m: float, q: float) -> PropagatorValue:
    """q-causal propagator by the hyperboloid integral I(|t|, r); for
    t < 0 it is q * conj(I(|t|, r)).  Needs r > 0 and r != |t|."""
    ta = abs(t)

    # Split sin(kr) e^{-i w t} into e^{ik(r-t)} and e^{-ik(r+t)} pieces
    # modulated by the decaying phase e^{-i(w-k)t}; each piece gets
    # panels matched to its own oscillation frequency.
    def make_piece(s, sign):
        def f(k):
            w = np.sqrt(k * k + m * m)
            g = (k / w) * np.exp(-1j * (w - k) * ta)
            return sign * g * np.exp(1j * k * s) / 2j
        return f

    val1 = oscillatory_integral(make_piece(r - ta, +1.0),
                                np.pi / abs(r - ta), REL_TOL)[0]
    val2 = oscillatory_integral(make_piece(-(r + ta), -1.0),
                                np.pi / (r + ta), REL_TOL)[0]
    pref = 1.0 / (4.0 * np.pi ** 2 * r)
    value = pref * (val1 + val2)
    err = pref * (_tolerance(val1) + _tolerance(val2))
    if t < 0:
        value = q * np.conj(value)
        err = abs(q) * err
    return PropagatorValue(complex(value), float("nan"), err)
