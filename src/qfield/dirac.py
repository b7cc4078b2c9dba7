"""4x4 Dirac algebra on Python floats and complex numbers, metric (+,-,-,-):
gamma matrices (Dirac representation), spinors (ubar u = 1, vbar v = -1),
projectors and the spinor boost.  A matrix is a tuple of row tuples; its
numpy.array has the bits, signs of zeros too, of the same formula in numpy,
but where numpy fuses multiply-adds (3-vector lengths, products of two
complex numbers).  Tolerances: eps = 2^-52, ulp(0) = 2^-1074, against
exact arithmetic at the float inputs."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NumericOverflowError, ZeroVectorError, finite
from .lorentz import (_check_mass, _check_onshell, _check_spin, omega,
                      reduced_spinor, subluminal_beta)

METRIC = ((1.0, 0.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0),
          (0.0, 0.0, -1.0, 0.0), (0.0, 0.0, 0.0, -1.0))


def _neg(a) -> tuple:
    return tuple(tuple(-x for x in row) for row in a)


def _blocks(a, b, c, d) -> tuple:
    """The 4x4 matrix [[a, b], [c, d]] of 2x2 blocks."""
    return (*(x + y for x, y in zip(a, b)), *(x + y for x, y in zip(c, d)))


_ID2, _ZERO2 = ((1 + 0j, 0j), (0j, 1 + 0j)), ((0j, 0j), (0j, 0j))
_SIGMA = (((0j, 1 + 0j), (1 + 0j, 0j)), ((0j, -1j), (1j, 0j)),
          ((1 + 0j, 0j), (0j, -1 + 0j)))
_GAMMA = (_blocks(_ID2, _ZERO2, _ZERO2, _neg(_ID2)),
          *(_blocks(_ZERO2, s, _neg(s), _ZERO2) for s in _SIGMA))

# Charge conjugation matrix, C = i gamma^2 gamma^0.
C_MATRIX = ((0j, 0j, 0j, -1 + 0j), (0j, 0j, 1 + 0j, 0j),
            (0j, -1 + 0j, 0j, 0j), (1 + 0j, 0j, 0j, 0j))


def gamma(mu: int) -> tuple:
    """Dirac-representation gamma matrix, mu in 0..3 (exact)."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"mu must be 0..3, got {mu}")
    return _GAMMA[mu]


def _finite_rows(rows, what: str, m: float):
    """rows; NumericOverflowError where an entry is not finite."""
    if not all(cmath.isfinite(x) for row in rows for x in row):
        raise NumericOverflowError(f"{what} overflows at m={m}")
    return rows


def slash(p) -> tuple:
    """pslash = p0 G0 - p1 G1 - p2 G2 - p3 G3 with complex products, as
    numpy forms it, exact; NonFiniteInputError for a nan or infinite p_mu."""
    p0, p1, p2, p3 = (complex(finite(float(x), "component of p")) for x in p)
    return tuple(tuple(p0 * a - p1 * b - p2 * c - p3 * d
                       for a, b, c, d in zip(*rows)) for rows in zip(*_GAMMA))


def onshell_momentum(pvec, m: float) -> tuple:
    """(p0, pvec), p0 = lorentz.omega within 1.5 eps p0 + 6e-162;
    NonFiniteInputError for nan or inf, NumericOverflowError at p0 = inf."""
    pvec = tuple(finite(float(x), "component of pvec") for x in pvec)
    return _finite_rows([(omega(pvec, finite(m, "m")), *pvec)], "p0", m)[0]


@dataclass
class DiracSpinor:
    components: tuple
    momentum: tuple
    r: int
    kind: str  # "u" or "v"

    def bar(self) -> tuple:
        """Dirac adjoint ubar = u^dagger gamma^0, exact (zero parts +0.0)."""
        c0, c1, c2, c3 = (x.conjugate() for x in self.components)
        return (c0 + 0j, c1 + 0j, 0j - c2, 0j - c3)


def _spinors(p, m: float, kind: str) -> tuple:
    """Rows r - 1: n = sqrt((E+m)/2m) times lorentz.reduced_spinor (halves
    swapped for v); NumericOverflowError where n^2 overflows."""
    m = float(m)
    _check_mass(m)
    leg = tuple(map(float, p))
    _check_onshell(leg, m)
    ratio = (leg[0] + m) / (2 * m)
    if not math.isfinite(ratio):
        raise NumericOverflowError(
            f"spinor norm overflows at E={leg[0]}, m={m}")
    n = complex(math.sqrt(ratio))
    k = 0 if kind == "u" else 2  # v swaps the halves
    # + 0j turns a -0.0 part into 0.0
    return tuple(tuple(n * (complex(x) + 0j) for x in w[k:] + w[:k])
                 for w in (reduced_spinor(leg, m, r) for r in (1, 2)))


def u_spinor(p, r: int, m: float) -> DiracSpinor:
    """Positive-energy on-shell spinor, ubar u = 1; each real and imaginary
    part within 3 eps of its modulus + n ulp(0)."""
    _check_spin(r)
    p = tuple(map(float, p))
    return DiracSpinor(_spinors(p, m, "u")[r - 1], p, r, "u")


def v_spinor(p, r: int, m: float) -> DiracSpinor:
    """Negative-energy on-shell spinor, vbar v = -1; u_spinor's tolerance."""
    _check_spin(r)
    p = tuple(map(float, p))
    return DiracSpinor(_spinors(p, m, "v")[r - 1], p, r, "v")


def charge_conjugate_spinor(s: DiracSpinor) -> DiracSpinor:
    """Map u -> v (and v -> u) via C (gamma^0)^T conj, exact, so a double
    application returns the spinor: C (gamma^0)^T is a signed permutation."""
    c0, c1, c2, c3 = (x.conjugate() for x in s.components)
    return DiracSpinor((c3 + 0j, 0j - c2, 0j - c1, c0 + 0j), s.momentum,
                       s.r, "v" if s.kind == "u" else "u")


def theta_projector(p, sign: int, m: float) -> tuple:
    """Energy projector (+-m + pslash)/2m; equals the u/v spin sums.  Each
    part within 1.5 eps of its modulus + ulp(0); NumericOverflowError where
    +-m + p0 or 1/2m overflows."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_mass(m)
    _check_onshell(p, m)
    d, s = sign * m, 0.5 / m  # numpy: (d + 0j) I + pslash, divided as complex
    return _finite_rows(tuple(tuple(
        complex((x + y * 0.0) * s, (y - x * 0.0) * s) for x, y in
        ((d * (i == j) + z.real, 0.0 + z.imag) for j, z in enumerate(row)))
        for i, row in enumerate(slash(p))), "projector", m)


def spin_sum(p, m: float, kind: str = "u") -> tuple:
    """Sum_r u ubar (or v vbar) assembled from explicit spinors, each entry
    within 8 eps (E+m)/m; NumericOverflowError where one overflows."""
    rows = _spinors(p, m, kind)
    return _finite_rows(tuple(
        tuple(g * sum((s[i] * s[j].conjugate() for s in rows), 0j)
              for j, g in enumerate((1, 1, -1, -1))) for i in range(4)),
        "spin sum", m)


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def polarization_vectors(p, m: float) -> list:
    """Massive polarizations, e.p = 0 and orthonormal: t = phat x (a trial
    axis), phat x t and (|p|, E phat)/m (the rest-frame axes at |p| = 0), the
    first two within 16 eps of exact, the last within 3 eps of its modulus +
    ulp(0); NumericOverflowError where E/m overflows."""
    _check_mass(m)
    _check_onshell(p, m)
    p0, *pvec = map(float, p)
    pmag = math.hypot(*pvec)
    if pmag == 0.0:
        return [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                (0.0, 0.0, 0.0, 1.0)]
    phat = [x / pmag for x in pvec]
    t1 = _cross(phat, (1.0, 0.0, 0.0) if abs(phat[0]) < 0.9
                else (0.0, 1.0, 0.0))
    t1 = [x / math.hypot(*t1) for x in t1]
    return _finite_rows([(0.0, *t1), (0.0, *_cross(phat, t1)),
                         (pmag / m, *(p0 / m * x for x in phat))],
                        "longitudinal polarization", m)


def polarization_sum(p, m: float) -> tuple:
    """Sum_r e^a e^b over the explicit basis, -g + p p / m^2, within
    80 eps (1 + (E/m)^2); NumericOverflowError where an entry overflows."""
    vecs = polarization_vectors(p, m)
    return _finite_rows(tuple(tuple(sum(e[i] * e[j] for e in vecs)
                                    for j in range(4)) for i in range(4)),
                        "polarization sum", m)


def polarization_sum_closed_form(p, m: float) -> tuple:
    """-g + p p / m^2 within 2 eps |p p|/m^2 + 0.5 eps |entry| + 2^-1073;
    NonFiniteInputError for a nan or infinite input, NumericOverflowError
    where p p / m^2 overflows.  p and m are first divided by 2^e ~ m."""
    _check_mass(m)
    e = math.frexp(m)[1]
    p = [math.ldexp(finite(float(x), "component of p"), -e) for x in p]
    m2 = math.ldexp(m, -e) * math.ldexp(m, -e)
    return _finite_rows(tuple(tuple(-g + a * b / m2 for g, b in zip(row, p))
                              for row, a in zip(METRIC, p)), "p p / m^2", m)


def transverse_projector(kvec) -> tuple:
    """delta_ij - k_i k_j / k^2 within 3.5 eps; NonFiniteInputError for a
    nan or infinite component.  k is first divided by 2^e ~ max |k_i|, an
    exact scaling, so that k^2 neither overflows nor underflows."""
    k = [finite(float(x), "component of kvec") for x in kvec]
    big = max(map(abs, k))
    if big == 0.0:
        raise ZeroVectorError("need |k| > 0")
    kx, ky, kz = k = [math.ldexp(x, -math.frexp(big)[1]) for x in k]
    kk = kx * kx + ky * ky + kz * kz
    return tuple(tuple((i == j) - a * b / kk for j, b in enumerate(k))
                 for i, a in enumerate(k))


def spinor_boost_matrix(beta) -> tuple:
    """Spinor boost S = cosh(eta/2) + sinh(eta/2) alpha.n, S^-1 gamma^mu S =
    L^mu_nu gamma^nu, from cosh(eta/2) = sqrt((g+1)/2), sinh(eta/2) n = g beta
    / sqrt(2(g+1)), g = 1/sqrt(1 - beta^2).  Each part within (g^2 + 4) eps
    of its modulus + ulp(0): rounding beta^2 moves 1 - beta^2 by g^2 eps."""
    (bx, by, bz), b2 = subluminal_beta(beta)
    g = 1.0 / math.sqrt(1.0 - b2)
    c = complex(math.sqrt(0.5 * (g + 1.0)))
    k = g / math.sqrt(2.0 * (g + 1.0))
    x, y, z = k * bx, k * by, k * bz
    ny, nz = 0.0 - y, 0.0 - z  # +0.0 at 0: S(0) is the identity
    return ((c, 0j, complex(z), complex(x, ny)),
            (0j, c, complex(x, y), complex(nz)),
            (complex(z), complex(x, ny), c, 0j),
            (complex(x, y), complex(nz), 0j, c))
