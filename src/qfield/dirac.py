"""4x4 Dirac algebra on Python floats and complex numbers, metric (+,-,-,-):
gamma matrices (Dirac representation), spinors (ubar u = 1, vbar v = -1),
projectors and polarization vectors.  A matrix is a tuple of row tuples; its
numpy.array has the bits, signs of zeros too, of the same formula in numpy
wherever numpy's intermediates are normal floats, but where numpy fuses
multiply-adds (3-vector lengths, products of two complex numbers).
Tolerances: eps = 2^-52, ulp(0) = 2^-1074, against exact arithmetic at the
float inputs."""
from __future__ import annotations

import math

from .errors import NumericOverflowError, Record, finite, finite_vector
from .lorentz import (_METRIC_UPPER, _check_mass, _check_onshell,
                      _check_spin, _finite_rows, _kk_over_m2, _reduced_spinor,
                      _slash_rows, _symmetric_rows, omega)

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

def gamma(mu: int) -> tuple:
    """Dirac-representation gamma matrix, mu in 0..3 (exact)."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"mu must be 0..3, got {mu}")
    return _GAMMA[mu]


def slash(p) -> tuple:
    """pslash = p0 G0 - p1 G1 - p2 G2 - p3 G3 with complex products, as
    numpy forms it, exact; NonFiniteInputError for a nan or infinite p_mu."""
    p0, p1, p2, p3 = map(complex, finite_vector(p, "component of p"))
    return tuple(tuple(p0 * a - p1 * b - p2 * c - p3 * d
                       for a, b, c, d in zip(*rows)) for rows in zip(*_GAMMA))


def onshell_momentum(pvec, m: float) -> tuple:
    """(p0, pvec), p0 = lorentz.omega within 1.5 eps p0 + 6e-162;
    NonFiniteInputError for nan or inf, NumericOverflowError at p0 = inf."""
    pvec = finite_vector(pvec, "component of pvec")
    return _finite_rows([(omega(pvec, finite(m, "m")), *pvec)], "p0", m)[0]


class DiracSpinor(Record):
    """An on-shell spinor: ``components`` (4 complex), the leg ``momentum``
    (4 floats), the spin ``r`` and ``kind`` "u" or "v"."""

    __slots__ = _fields = ("components", "momentum", "r", "kind")

    def __init__(self, components: tuple, momentum: tuple, r: int,
                 kind: str):
        self.components = components
        self.momentum = momentum
        self.r = r
        self.kind = kind

    def bar(self) -> tuple:
        """Dirac adjoint ubar = u^dagger gamma^0, exact (zero parts +0.0)."""
        c0, c1, c2, c3 = (x.conjugate() for x in self.components)
        return (c0 + 0j, c1 + 0j, 0j - c2, 0j - c3)


def _spinors(leg: tuple, m: float, kind: str) -> tuple:
    """Rows r - 1 for a float leg and m > 0: n = sqrt((E+m)/2m) times
    lorentz._reduced_spinor (halves swapped for v); OffShellError off
    shell, NumericOverflowError where n^2 overflows."""
    _check_onshell(leg, m)
    ratio = (leg[0] + m) / (2 * m)
    if not math.isfinite(ratio):  # E + m or 2m overflows: halve both
        ratio = (leg[0] * 0.5 + m * 0.5) / m
        if not math.isfinite(ratio):
            raise NumericOverflowError(
                f"spinor norm overflows at E={leg[0]}, m={m}")
    n = complex(math.sqrt(ratio))
    k = 0 if kind == "u" else 2  # v swaps the halves
    # + 0j turns a -0.0 part into 0.0
    return tuple(tuple(n * (complex(x) + 0j) for x in w[k:] + w[:k])
                 for w in (_reduced_spinor(leg, m, r) for r in (1, 2)))


def u_spinor(p, r: int, m: float) -> DiracSpinor:
    """Positive-energy on-shell spinor, ubar u = 1; each real and imaginary
    part within 3 eps of its modulus + n ulp(0).  ValueError unless the
    spin index r is 1 or 2, taken by operator.index (so 1.0 is refused)."""
    r = _check_spin(r)
    p = finite_vector(p, "component of p")
    return DiracSpinor(_spinors(p, _check_mass(m), "u")[r - 1], p, r, "u")


def charge_conjugate_spinor(s: DiracSpinor) -> DiracSpinor:
    """Map u -> v (and v -> u) via C (gamma^0)^T conj, C = i gamma^2 gamma^0,
    exact, so a double application returns the spinor: C (gamma^0)^T is a
    signed permutation.  The result keeps the spin label ``r`` of ``s``."""
    c0, c1, c2, c3 = (x.conjugate() for x in s.components)
    return DiracSpinor((c3 + 0j, 0j - c2, 0j - c1, c0 + 0j), s.momentum,
                       s.r, "v" if s.kind == "u" else "u")


def theta_projector(p, sign: int, m: float) -> tuple:
    """Energy projector (+-m + pslash)/2m, formed at the scale of m
    (lorentz._slash_rows, at v = 1); equals the u/v spin sums.  Each part
    within 1.5 eps of its modulus + ulp(0); NumericOverflowError where an
    entry overflows."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    m = _check_mass(m)
    p = finite_vector(p, "component of p")
    _check_onshell(p, m)
    return _finite_rows(_slash_rows(p, sign * m, m, 1 + 0j), "projector", m)


def spin_sum(p, m: float, kind: str = "u") -> tuple:
    """Sum_r u ubar (or v vbar) assembled from explicit spinors, each entry
    within 8 eps (E+m)/m; NumericOverflowError where one overflows."""
    m = _check_mass(m)
    rows = _spinors(finite_vector(p, "component of p"), m, kind)
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
    m = _check_mass(m)
    p0, *pvec = p = finite_vector(p, "component of p")
    _check_onshell(p, m)
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
    """-g + p p / m^2, p p / m^2 formed at the scale of m
    (lorentz._kk_over_m2), each entry within 2 eps |p_i p_j|/m^2
    + 0.5 eps |entry| + 2^-1073 + U_ij, U_ij = ulp(0) |p_j|/m for a factor
    0 < |p_i| < 2^-1021 m (and the same with i and j swapped), else 0: the
    rounding of p_i at that scale.  NonFiniteInputError for a nan or
    infinite input, NumericOverflowError where p p / m^2 overflows."""
    m = _check_mass(m)
    p = finite_vector(p, "component of p")
    return _finite_rows(_symmetric_rows(
        [-g + x for g, x in zip(_METRIC_UPPER, _kk_over_m2(p, m))]),
        "p p / m^2", m)


# numpy.random.default_rng(12345).uniform(-3, 3, 3), drawn 20 times
IDENTITY_PVECS = (
    (-1.635983865196982, -1.0994499617414828, 1.784192743996405),
    (1.0575280245058476, -0.6533426963885463, -1.0031164328016928),
    (0.5898525215231389, -1.8795948863777199, 1.0365362640877276),
    (2.6508171916196233, -1.510525712222574, 2.693286910999909),
    (1.0034247186022345, -2.4246123864353275, -0.3489620029931233),
    (2.318879515965106, 1.1847209992921321, -1.0411628155793273),
    (1.403568979980399, -1.6791902667270826, -2.510432582746751),
    (-2.040626393549715, -0.9593988902717685, -0.20884107778769412),
    (-1.4014738302553742, 1.8946584205488417, -1.840233664263033),
    (-2.2231855429367986, -2.4500114907303843, 0.5914080819894791),
    (2.128451426244008, 0.6097274501622785, 2.591930166815901),
    (1.3486881665521206, 2.1633079043597547, 2.576026809451898),
    (0.277116054494118, 2.6260377526065417, -0.030072359527054005),
    (-1.357360905060075, -0.2893277551514357, 0.990233540397182),
    (-1.0146544171976721, 2.420724040849434, -1.4575549483407941),
    (-0.9610299743380812, -1.446879608142436, -0.8673211203342839),
    (-2.9698659976972093, 0.771627264598072, -1.3057037554492903),
    (-2.5914738630723253, 0.700973863538283, -1.9420420783127794),
    (-1.1736696766824624, -0.35467913474329205, -2.0987859536237954),
    (-1.6924268214873899, -0.15400130799873324, -0.14178686951284902),
)


def identity_checks() -> list:
    """The identity battery at m = 1 over IDENTITY_PVECS, as
    (name, max_error, tolerance) triples: the anticommutators
    {G^mu, G^nu} = 2 g^mu nu, the completeness sum_r u ubar = (pslash + m)/2m,
    polarization_sum against its closed form, and the Dirac equation
    (pslash + m) v = 0 for v the charge conjugate of u."""
    def dist(a, b):  # max |a_ij - b_ij|
        return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    anti = max(abs(sum(a[i][k] * b[k][j] + b[i][k] * a[k][j] for k in range(4))
                   - 2 * METRIC[mu][nu] * (i == j))
               for mu, a in enumerate(_GAMMA) for nu, b in enumerate(_GAMMA)
               for i in range(4) for j in range(4))
    m, comp, pol, conj = 1.0, 0.0, 0.0, 0.0
    for p in (onshell_momentum(k, m) for k in IDENTITY_PVECS):
        comp = max(comp, dist(spin_sum(p, m, "u"), theta_projector(p, +1, m)))
        pol = max(pol, dist(polarization_sum(p, m),
                            polarization_sum_closed_form(p, m)))
        v = charge_conjugate_spinor(u_spinor(p, 1, m)).components
        conj = max(conj, *(abs(sum((x + m * (i == j)) * c  # (pslash + m) v
                                   for j, (x, c) in enumerate(zip(row, v))))
                           for i, row in enumerate(slash(p))))
    return [("gamma_anticommutators", anti, 1e-14),
            ("spin_sum_completeness", comp, 1e-12),
            ("polarization_sum_closed_form", pol, 1e-12),
            ("charge_conjugation_dirac_eq", conj, 1e-10)]
