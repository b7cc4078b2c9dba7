"""4x4 Dirac algebra: gamma matrices, spinors, projectors and the spinor
boost.

Metric signature (+,-,-,-), natural units.  Gamma matrices in the Dirac
representation, so rest-frame projectors come out diagonal.  Spinors are
normalized to ubar u = 1 / vbar v = -1, which makes the spin sums equal
the energy projectors (+-m + pslash)/2m exactly.  The float four-vector
rules and the spinor basis come from ``lorentz``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, ZeroVectorError, finite
from .lorentz import (_check_mass, _check_onshell, _check_spin, omega,
                      reduced_spinor, subluminal_beta)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

_ZERO2 = np.zeros((2, 2), dtype=complex)
_ID2 = np.eye(2, dtype=complex)

_GAMMA = np.empty((4, 4, 4), dtype=complex)
_GAMMA[0] = np.block([[_ID2, _ZERO2], [_ZERO2, -_ID2]])
for _i in range(3):
    _GAMMA[_i + 1] = np.block([[_ZERO2, _SIGMA[_i]], [-_SIGMA[_i], _ZERO2]])

# Charge conjugation matrix, C = i gamma^2 gamma^0.
C_MATRIX = 1j * _GAMMA[2] @ _GAMMA[0]


def gamma(mu: int) -> np.ndarray:
    """Dirac-representation gamma matrix, mu in 0..3."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"mu must be 0..3, got {mu}")
    return _GAMMA[mu].copy()


def _finite_array(x, name: str) -> np.ndarray:
    """x as a float array; NonFiniteInputError where an entry is nan or
    infinite, tested on Python floats so that numpy warns of nothing."""
    x = np.asarray(x, dtype=float)
    xs = x.tolist()
    if not all(map(math.isfinite, xs)):
        for value in xs:
            finite(value, name)
    return x


def slash(p) -> np.ndarray:
    """pslash = gamma^mu p_mu for contravariant components p;
    NonFiniteInputError for a nan or infinite component."""
    p = _finite_array(p, "component of p")
    return (p[0] * _GAMMA[0] - p[1] * _GAMMA[1]
            - p[2] * _GAMMA[2] - p[3] * _GAMMA[3])


def onshell_momentum(pvec, m: float) -> np.ndarray:
    """Four-momentum with p0 = +sqrt(|pvec|^2 + m^2), lorentz.omega;
    NonFiniteInputError for a nan or infinite component or mass,
    NumericOverflowError where p0 overflows."""
    pvec = _finite_array(pvec, "component of pvec")
    finite(m, "m")
    p0 = omega(pvec, m)
    if p0 == math.inf:
        raise NumericOverflowError(f"p0 overflows at m={m}")
    return np.array([p0, *pvec])


@dataclass
class DiracSpinor:
    components: np.ndarray
    momentum: np.ndarray
    r: int
    kind: str  # "u" or "v"

    def bar(self) -> np.ndarray:
        """Dirac adjoint row vector ubar = u^dagger gamma^0."""
        return self.components.conj() @ _GAMMA[0]


def _spinors(p, m: float, kind: str) -> np.ndarray:
    """Both spins of a leg, row r - 1: sqrt((E+m)/2m) times
    lorentz.reduced_spinor, its halves swapped for v.  NumericOverflowError
    where (E+m)/2m overflows (at a tiny m, m^2 underflows and the on-shell
    check cannot see it)."""
    # Python floats: an overflow gives inf, where numpy scalars would warn
    m = float(m)
    _check_mass(m)
    leg = np.asarray(p, dtype=float).tolist()
    _check_onshell(leg, m)
    ratio = (leg[0] + m) / (2 * m)
    if not math.isfinite(ratio):
        raise NumericOverflowError(
            f"spinor norm overflows at E={leg[0]}, m={m}")
    k = 0 if kind == "u" else 2  # v swaps the halves
    w = [x[k:] + x[:k] for x in (reduced_spinor(leg, m, r) for r in (1, 2))]
    # + 0.0 turns a -0.0 into 0.0
    return math.sqrt(ratio) * (np.array(w, dtype=complex) + 0.0)


def u_spinor(p, r: int, m: float) -> DiracSpinor:
    """Positive-energy on-shell spinor, ubar u = 1."""
    _check_spin(r)
    p = np.asarray(p, dtype=float)
    return DiracSpinor(_spinors(p, m, "u")[r - 1], p, r, "u")


def v_spinor(p, r: int, m: float) -> DiracSpinor:
    """Negative-energy on-shell spinor, vbar v = -1."""
    _check_spin(r)
    p = np.asarray(p, dtype=float)
    return DiracSpinor(_spinors(p, m, "v")[r - 1], p, r, "v")


def charge_conjugate_spinor(s: DiracSpinor) -> DiracSpinor:
    """Map u -> v (and v -> u) via C (gamma^0)^T conj.

    Double application returns the original spinor exactly
    (C (gamma^0)^T conj squares to the identity with C = i gamma^2 gamma^0).
    """
    comps = C_MATRIX @ _GAMMA[0].T @ s.components.conj()
    kind = "v" if s.kind == "u" else "u"
    return DiracSpinor(comps, s.momentum, s.r, kind)


def theta_projector(p, sign: int, m: float) -> np.ndarray:
    """Energy projector (+-m + pslash)/2m; equals the u/v spin sums."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_mass(m)
    p = np.asarray(p, dtype=float)
    _check_onshell(p.tolist(), m)  # floats: inf - inf is nan, not a warning
    return (sign * m * np.eye(4) + slash(p)) / (2 * m)


def spin_sum(p, m: float, kind: str = "u") -> np.ndarray:
    """Sum_r u ubar (or v vbar) assembled from explicit spinors."""
    return sum(np.outer(s, s.conj() @ _GAMMA[0])
               for s in _spinors(p, m, kind))


def polarization_vectors(p, m: float) -> list:
    """Three massive polarization four-vectors: e.p = 0, orthonormal."""
    _check_mass(m)
    p = np.asarray(p, dtype=float)
    _check_onshell(p.tolist(), m)  # floats: inf - inf is nan, not a warning
    pvec = p[1:]
    pmag = np.linalg.norm(pvec)
    if pmag < 1e-14:
        return [np.array([0.0, 1, 0, 0]), np.array([0.0, 0, 1, 0]),
                np.array([0.0, 0, 0, 1])]
    phat = pvec / pmag
    trial = np.array([1.0, 0, 0]) if abs(phat[0]) < 0.9 else np.array([0.0, 1, 0])
    t1 = np.cross(phat, trial)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(phat, t1)
    longitudinal = np.array([pmag / m, *(p[0] / m * phat)])
    return [np.array([0.0, *t1]), np.array([0.0, *t2]), longitudinal]


def polarization_sum(p, m: float) -> np.ndarray:
    """Sum_r e^alpha e^beta over the explicit massive basis.

    Equals -g + p p / m^2 in this metric; see the closed-form helper.
    """
    vecs = polarization_vectors(p, m)
    return sum(np.outer(e, e) for e in vecs)


def polarization_sum_closed_form(p, m: float) -> np.ndarray:
    """-g^{ab} + p^a p^b / m^2: what the explicit basis sums to;
    NonFiniteInputError for a nan or infinite component or mass,
    NumericOverflowError where p p / m^2 overflows (or m^2 underflows)."""
    _check_mass(m)
    p = _finite_array(p, "component of p")
    # the largest entry, tested first on floats so that numpy warns of nothing
    big, m2 = float(np.max(np.abs(p))), m * m
    if m2 == 0.0 or not math.isfinite(big * big / m2):
        raise NumericOverflowError(f"p p / m^2 overflows at m={m}")
    return -METRIC + np.outer(p, p) / m2


def transverse_projector(kvec) -> np.ndarray:
    """Momentum-space transverse projector delta_ij - k_i k_j / k^2;
    NonFiniteInputError for a nan or infinite component.  k is first
    divided by a power of two near its largest component, an exact
    scaling, so that k^2 neither overflows nor underflows."""
    kvec = _finite_array(kvec, "component of kvec")
    big = float(np.max(np.abs(kvec)))
    if big == 0.0:
        raise ZeroVectorError("need |k| > 0")
    kvec = np.ldexp(kvec, -math.frexp(big)[1])
    return np.eye(3) - np.outer(kvec, kvec) / float(kvec @ kvec)


def spinor_boost_matrix(beta) -> np.ndarray:
    """Spinor representation S of the boost: S^-1 gamma^mu S = L^mu_nu gamma^nu."""
    beta, b2 = subluminal_beta(beta)
    if b2 == 0.0:
        return np.eye(4, dtype=complex)
    b = np.sqrt(b2)
    eta = np.arctanh(b)
    nhat = np.array(beta) / b
    alpha_n = sum(nhat[i] * (_GAMMA[0] @ _GAMMA[i + 1]) for i in range(3))
    # exp(eta/2 alpha_n) in closed form, exact because alpha_n^2 = 1.
    return (np.cosh(0.5 * eta) * np.eye(4, dtype=complex)
            + np.sinh(0.5 * eta) * alpha_n)

