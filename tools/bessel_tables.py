"""Generate src/qfield/_bessel_tables.py: the expansions behind qfield's
position-space values, computed with mpmath.

    python tools/bessel_tables.py

tests/test_propagator.py reruns it and compares with the committed module.

With y = z^2/4, DLMF 10.31.1 and 10.8.1 (n = 1) share one pair of series,

    z K1(z)        = 1 + y [2 ln(z/2) A(y) - B(y)],
    (pi/2) x Y1(x) = -1 + Y [2 ln(x/2) A(-Y) - B(-Y)],    Y = x^2/4,
    (pi/2) x J1(x) = pi Y A(-Y),
    A(y) = sum_k a_k y^k,  a_k = 1 / (k! (k+1)!),
    B(y) = sum_k b_k y^k,  b_k = (psi(k+1) + psi(k+2)) a_k,

used for z <= 2 (spacelike) and x <= 4 (timelike).  Above those cuts
three Chebyshev series on t in [-1, 1] take over (DLMF 10.40.2, 10.18.3):

    e^z sqrt(z) K1(z)            in s = 2/z,
    sqrt(x) M1(x)                in s = 4/x,
    (theta1(x) - x + 3 pi/4) x    in s = 4/x,     t = 2 s - 1,

with Y1 + i J1 = M1 (sin theta1 + i cos theta1) (DLMF 10.18.4).  Each
expansion keeps the fewest terms whose truncation bound over its branch
is at most 2^-56 relative.  Next to the coefficients the module states,
per branch, the relative error bound of evaluating the kept terms in
floats: the truncation bound plus the forward rounding bound of Horner's
rule (series) or Clenshaw's recurrence (Chebyshev), both maximised over
the branch.

The timelike series alternates, and its rounding bound grows with the
cut: 9.2e-14 relative at x = 4, 1.1e-12 at x = 6, where the Chebyshev
pair would need 18 terms instead of 21.
"""
import pathlib

import mpmath as mp

TARGET = mp.mpf(2) ** -56      # truncation bound, relative
EPS = mp.mpf(2) ** -52         # ulp of 1.0, twice the unit roundoff
CHEB_NODES = 48                # interpolation points per Chebyshev fit
GRID = 400                     # points per branch for the series bounds
SPACE_CUT, TIME_CUT = 2, 4     # series up to, Chebyshev above
OUT = pathlib.Path(__file__).resolve().parents[1] / "src/qfield/_bessel_tables.py"


def series_terms(count: int) -> tuple:
    """(a_k, b_k), k < count, of A and B."""
    a = [1 / (mp.factorial(k) * mp.factorial(k + 1)) for k in range(count)]
    b = [(mp.digamma(k + 1) + mp.digamma(k + 2)) * a[k] for k in range(count)]
    return a, b


def series_bounds(x_max, timelike: bool, a, b) -> tuple:
    """(degree, relative error bound) of the series branch 0 < x <= x_max.

    At each grid point the truncation is the modulus of the omitted terms
    and the rounding a first-order forward bound: an error made at Horner's
    step k is multiplied by y^k, and rounding y, ln(z/2) and the outer
    products adds a few more, so each term's modulus counts (2k + 6) eps;
    both relative to |z K1(z)|.
    """
    grid = [x_max * mp.mpf(j) / GRID for j in range(1, GRID + 1)]
    count = len(a)

    def terms(x):
        y = x * x / 4
        log = abs(mp.log(x / 2)) * 2 + (mp.pi if timelike else 0)
        return [y ** (k + 1) * (log * a[k] + abs(b[k])) for k in range(count)]

    def size(x):  # |z K1(z)| from all len(a) terms, at mpmath precision
        z = mp.mpc(0, x) if timelike else x
        y = z * z / 4
        log = 2 * mp.log(z / 2)
        return abs(1 + y * mp.fsum((log * a[k] - b[k]) * y ** k
                                   for k in range(count)))

    cache = [(terms(x), size(x)) for x in grid]
    for degree in range(count):
        trunc = max(mp.fsum(t[degree + 1:]) / f for t, f in cache)
        if trunc <= TARGET:
            break
    else:
        raise RuntimeError("series table too short")
    rounding = max((1 + mp.fsum((2 * k + 6) * t[k] for k in range(degree + 1)))
                   / f for t, f in cache)
    return degree, trunc + EPS * rounding


def chebyshev(f) -> list:
    """Chebyshev coefficients of f on [-1, 1], by interpolation at
    CHEB_NODES first-kind nodes."""
    n = CHEB_NODES
    theta = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
    values = [f(mp.cos(th)) for th in theta]
    coeffs = [2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(values, theta)) / n
              for k in range(n)]
    coeffs[0] /= 2
    return coeffs


def tail(coeffs, keep: int):
    return mp.fsum(map(abs, coeffs[keep:]))


def shortest(coeffs, floor) -> int:
    """The fewest terms whose omitted tail is at most TARGET * floor."""
    return next(k for k in range(1, len(coeffs))
                if tail(coeffs, k) <= TARGET * floor)


def clenshaw_bound(coeffs, keep: int, floor):
    """Error bound of the first ``keep`` terms evaluated in floats by
    Clenshaw's recurrence b_k = 2t b_{k+1} - b_{k+2} + c_k, f = b_0 - t b_1,
    over ``floor``: the omitted tail, plus the rounding, to first order in
    eps.  An error e made in b_k moves f by e T_k(t), at most e, and
    |b_k| <= sum_{j >= k} (j - k + 1) |c_j|; rounding t moves f by at most
    2 eps sum k^2 |c_k|.
    """
    c = [abs(x) for x in coeffs[:keep]] + [0, 0]
    b = [mp.fsum((j - k + 1) * c[j] for j in range(k, keep)) for k in range(keep + 2)]
    rounding = EPS * (mp.fsum(2 * b[k + 1] + b[k + 2] + c[k] for k in range(keep))
                      + b[0] + b[1] + 2 * mp.fsum(k * k * c[k] for k in range(keep)))
    return (tail(coeffs, keep) + rounding) / floor


def k1_scaled(t):
    z = 2 * SPACE_CUT / (t + 1)
    return mp.exp(z) * mp.sqrt(z) * mp.besselk(1, z)


def m1_scaled(t):
    x = 2 * TIME_CUT / (t + 1)
    return mp.sqrt(x * (mp.besselj(1, x) ** 2 + mp.bessely(1, x) ** 2))


def theta1_scaled(t):
    x = 2 * TIME_CUT / (t + 1)
    phase = mp.atan2(mp.bessely(1, x), mp.besselj(1, x)) - x + 3 * mp.pi / 4
    return x * (phase - 2 * mp.pi * mp.nint(phase / (2 * mp.pi)))


def tables() -> dict:
    """Every table and bound, as Python floats and ints, by name."""
    with mp.workdps(40):
        a, b = series_terms(40)
        space = series_bounds(mp.mpf(SPACE_CUT), False, a, b)
        time = series_bounds(mp.mpf(TIME_CUT), True, a, b)
        k1 = chebyshev(k1_scaled)
        k1_floor = mp.sqrt(mp.pi / 2)       # e^z sqrt(z) K1(z) -> sqrt(pi/2)
        k1_keep = shortest(k1, k1_floor)
        m1, theta1 = chebyshev(m1_scaled), chebyshev(theta1_scaled)
        m1_floor = mp.sqrt(2 / mp.pi)       # sqrt(x) M1(x) -> sqrt(2/pi)
        # the modulus and the phase share one Clenshaw loop, so one length;
        # a phase error e / x moves W by e / x relative, and x >= TIME_CUT
        keep = max(shortest(m1, m1_floor), shortest(theta1, TIME_CUT))
        return {
            "SPACE_CUT": float(SPACE_CUT),
            "TIME_CUT": float(TIME_CUT),
            "SERIES_A": tuple(map(float, a[:time[0] + 1])),
            "SERIES_B": tuple(map(float, b[:time[0] + 1])),
            "SPACE_TERMS": space[0] + 1,
            "K1_CHEB": tuple(map(float, k1[:k1_keep])),
            "M1_CHEB": tuple(map(float, m1[:keep])),
            "THETA1_CHEB": tuple(map(float, theta1[:keep])),
            "SPACE_SERIES_RTOL": float(space[1]),
            "TIME_SERIES_RTOL": float(time[1]),
            "K1_CHEB_RTOL": float(clenshaw_bound(k1, k1_keep, k1_floor)),
            "HANKEL_CHEB_RTOL": float(clenshaw_bound(m1, keep, m1_floor)
                                      + clenshaw_bound(theta1, keep, TIME_CUT)),
        }


HEADER = '''"""Expansion coefficients and error bounds for position space.

Generated by tools/bessel_tables.py from mpmath; do not edit by hand.
See that script for the expansions and for how each bound is derived.
"""
'''


def render(table: dict) -> str:
    lines = [HEADER]
    for name, value in table.items():
        if isinstance(value, tuple):
            lines.append(f"{name} = (")
            lines += [f"    {v!r}," for v in value]
            lines.append(")")
        else:
            lines.append(f"{name} = {value!r}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    OUT.write_text(render(tables()))
