import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import k1

from qfield import dirac, propagator as prop
from qfield.errors import (ConvergenceError, NonFiniteInputError,
                           NumericOverflowError, PoleError, QFieldError,
                           ZeroMassError)
from qfield.lorentz import minkowski_dot

RNG = np.random.default_rng(77)
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
EPS = math.ulp(1.0)


def random_offshell_k(min_dist=0.1):
    while True:
        k = RNG.uniform(-3.0, 3.0, 4)
        if abs(minkowski_dot(k, k) - 1.0) > min_dist:
            return k


def test_propagator_value_is_a_value_record():
    # construction, ==, hash and repr of the old dataclass (repr text
    # recorded from it)
    pv = prop.PropagatorValue(0.25 - 1j, 0.5)
    assert (pv.value, pv.onshell_distance, pv.quad_error) == (0.25 - 1j, 0.5,
                                                              None)
    matrix = ((1j, 0j), (0j, -1j))
    kw = prop.PropagatorValue(value=matrix, onshell_distance=2.0,
                              quad_error=1e-3)
    assert kw == prop.PropagatorValue(matrix, 2.0, 1e-3)
    assert not kw != prop.PropagatorValue(matrix, 2.0, 1e-3)
    assert kw != prop.PropagatorValue(matrix, 2.0)
    assert pv != prop.PropagatorValue(0.25 - 1j, 0.5, 0.0)
    assert (pv == (0.25 - 1j, 0.5, None)) is False
    assert pv.__eq__((0.25 - 1j, 0.5, None)) is NotImplemented
    with pytest.raises(TypeError):
        hash(pv)
    assert repr(pv) == ("PropagatorValue(value=(0.25-1j), "
                        "onshell_distance=0.5, quad_error=None)")
    assert repr(kw) == ("PropagatorValue(value=((1j, 0j), (0j, (-0-1j))), "
                        "onshell_distance=2.0, quad_error=0.001)")


def test_propagator_value_compares_identical_items_as_equal():
    # a record compares the tuples of its fields, and tuple == takes an
    # identical item as equal; a position-space value has no on-shell
    # distance (None), so two calls give equal values
    pv = prop.delta_plus_equal_time(1.0, 1.0)
    assert pv == prop.delta_plus_equal_time(1.0, 1.0)
    assert pv == pv and not pv != pv
    nan = float("nan")
    assert prop.PropagatorValue(0.5, nan) == prop.PropagatorValue(0.5, nan)
    assert prop.PropagatorValue(0.5, nan, 1e-16) != prop.PropagatorValue(
        0.5, nan, 2e-16)


def test_matrix_overflow_names_the_mass():
    # the spinor and photon matrices share lorentz._finite_rows
    cases = ((prop.spinor_propagator_momentum, (10.0, 1.0, 0.0, 0.0), 1e-308),
             (prop.photon_propagator_momentum, (2.0, 1.0, 0.0, 0.0), 1e-160))
    for fn, k, m in cases:
        with pytest.raises(NumericOverflowError,
                           match=f"propagator matrix overflows at m={m}"):
            fn(k, m, 0.5)


def test_scalar_q1_reduction():
    for _ in range(50):
        k = random_offshell_k()
        pv = prop.scalar_propagator_momentum(k, 1.0, 1.0)
        assert pv.value == pytest.approx(1.0 / (minkowski_dot(k, k) - 1.0),
                                         abs=1e-12)


def test_scalar_reference_point():
    # k0 = 0, m = 1, |kvec| = 1: the k0/omega term drops, value -(1+q)/4
    for q in (0.3, 1.0, -0.5):
        pv = prop.scalar_propagator_momentum([0.0, 1.0, 0.0, 0.0], 1.0, q)
        assert pv.value == pytest.approx(-(1 + q) / 4.0, abs=1e-14)
        assert pv.onshell_distance == pytest.approx(2.0, abs=1e-14)


def test_scalar_q_minus1():
    k = np.array([0.7, 0.2, -0.4, 1.1])
    w = prop.omega(k[1:], 1.0)
    pv = prop.scalar_propagator_momentum(k, 1.0, -1.0)
    assert pv.value == pytest.approx((k[0] / w) / (minkowski_dot(k, k) - 1.0),
                                     abs=1e-13)


def test_partial_fraction_consistency():
    for q in (-1.0, -0.5, 0.3, 1.0, 1.2):
        for _ in range(40):
            k = random_offshell_k()
            v1 = prop.scalar_propagator_momentum(k, 1.0, q).value
            k0, *kvec = map(float, k)
            w = prop.omega(kvec, 1.0)
            v2 = (1.0 / (k0 - w) - q / (k0 + w)) / (2.0 * w)
            assert v1 == pytest.approx(v2, abs=1e-12)


def test_pole_guard():
    kvec = [1.0, 0.0, 0.0]
    w = prop.omega(kvec, 1.0)
    with pytest.raises(PoleError):
        prop.scalar_propagator_momentum([w, *kvec], 1.0, 0.5)


def test_pole_residues():
    for kvec, m, q in [((0.0, 0.0, 0.0), 1.0, 0.5),
                       ((1.0, 0.5, 0.0), 2.0, -0.7),
                       ((0.3, -0.2, 0.9), 0.5, 1.2)]:
        w = prop.omega(kvec, m)
        rp, rm = prop.pole_residues(kvec, m, q)
        assert rp == pytest.approx(1.0 / (2 * w), abs=1e-8)
        assert rm == pytest.approx(-q / (2 * w), abs=1e-8)


def test_near_pole_accuracy_both_poles():
    # k0 from 1e-15 w (a few ulps) to w away from +-w, on either side.  The
    # value agrees with the partial-fraction form at the same omega within
    # 8 eps of the term size S, and with the exact value at the float
    # inputs within the docstring's 4 eps (1 + w/|k0 - w| + w/|k0 + w|) S;
    # the residues within 1e-14 relative.
    import random

    import mpmath as mp
    mp.mp.dps = 40
    eps = math.ulp(1.0)
    rng = random.Random(20261018)
    for i in range(10_000):
        m = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        kvec = [rng.uniform(-3.0, 3.0) * m for _ in range(3)]
        q = rng.choice((-1.0, 0.0, 1.0, rng.uniform(-2.0, 2.0)))
        w = prop.omega(kvec, m)
        # bit for bit the left-to-right sum on Python floats
        assert w == math.sqrt(sum(x * x for x in kvec) + m * m)
        gap = w * 10 ** rng.uniform(-15, 0)
        k0 = rng.choice((w, -w)) + rng.choice((-gap, gap))
        k = [k0, *kvec]
        got = prop.scalar_propagator_momentum(k, m, q).value
        d, s = k0 - w, k0 + w
        size = (1 / abs(d) + abs(q) / abs(s)) / (2 * w)
        pf = (1.0 / d - q / s) / (2.0 * w)
        assert abs(got - pf) <= 8 * eps * size, (k, m, q)
        W = mp.sqrt(sum(mp.mpf(x) ** 2 for x in kvec) + mp.mpf(m) ** 2)
        exact = (1 / (mp.mpf(k0) - W) - q / (mp.mpf(k0) + W)) / (2 * W)
        bound = 4 * eps * (1 + w / abs(d) + w / abs(s)) * size
        assert abs(got.real - exact) <= bound and got.imag == 0.0, (k, m, q)
        if i % 10 == 0:
            rp, rm = prop.pole_residues(kvec, m, q)
            assert abs(rp - 1 / (2 * W)) <= 1e-14 / (2 * w)
            assert abs(rm + q / (2 * W)) <= 1e-14 * max(1.0, abs(q)) / (2 * w)


def test_pole_residues_log_grid():
    # the Richardson steps scale with w, so the relative error does not
    # depend on it
    import mpmath as mp
    mp.mp.dps = 40
    for i in range(-80, 31):
        m = 10 ** (i / 10)
        for q in (-0.7, 0.5, 1.2):
            rp, rm = prop.pole_residues((0.0, 0.0, 0.0), m, q)
            half = 1 / (2 * mp.sqrt(mp.mpf(m) ** 2))
            assert abs(rp - half) <= 1e-14 * half, (m, q)
            assert abs(rm + q * half) <= 1e-14 * abs(q) * half, (m, q)
        # the second residue's error is absolute, about eps/2w, so at small
        # |q| the stated bound is 1e-14 max(1, |q|)/2w, not relative to |q|
        for q in (1e-3, 1e-9):
            rp, rm = prop.pole_residues((0.0, 0.0, 0.0), m, q)
            half = 1 / (2 * mp.sqrt(mp.mpf(m) ** 2))
            assert abs(rp - half) <= 1e-14 * half, (m, q)
            assert abs(rm + q * half) <= 1e-14 * half, (m, q)


def test_residue_physical_pole_q_independent():
    # on the mass hyperboloid the propagator takes the usual form for any q
    kvec = (0.4, 0.1, -0.3)
    w = prop.omega(kvec, 1.0)
    for q in (-1.0, 0.0, 0.5, 1.0, 2.0):
        rp, _ = prop.pole_residues(kvec, 1.0, q)
        assert rp == pytest.approx(1.0 / (2 * w), abs=1e-8)


def test_retarded_like_at_q0():
    rp, rm = prop.pole_residues((0.0, 0.0, 0.0), 1.0, 0.0)
    assert rm == pytest.approx(0.0, abs=1e-8)


def test_spinor_reduction_and_structure():
    m = 1.0
    p = random_offshell_k()
    pv = prop.spinor_propagator_momentum(p, m, -1.0)
    expect = ((m * np.eye(4) + dirac.slash(p))
              / (2 * m * (minkowski_dot(p, p) - m * m)))
    assert np.max(np.abs(pv.value - expect)) <= 1e-12
    # p0 = 0 kills the second term of the scalar factor
    p0 = np.array([0.0, 1.2, 0.3, -0.4])
    q = 0.6
    pv = prop.spinor_propagator_momentum(p0, m, q)
    scalar = (1 - q) / (2 * (minkowski_dot(p0, p0) - m * m))
    expect = (m * np.eye(4) + dirac.slash(p0)) / (2 * m) * scalar
    assert np.max(np.abs(pv.value - expect)) <= 1e-13
    # trace kills pslash
    assert np.trace(pv.value) == pytest.approx(4 * scalar / 2, abs=1e-12)
    with pytest.raises(ZeroMassError):
        prop.spinor_propagator_momentum(p, 0.0, 0.5)


def test_photon_q1_reduction():
    k = random_offshell_k()
    pv = prop.photon_propagator_momentum(k, 0.0, 1.0)
    expect = METRIC / minkowski_dot(k, k)
    assert np.max(np.abs(pv.value - expect)) <= 1e-12


def test_photon_q_minus1_evaluable():
    k = np.array([0.5, 1.0, 0.0, 0.0])
    w = prop.omega(k[1:], 0.0)
    pv = prop.photon_propagator_momentum(k, 0.0, -1.0)
    expect = METRIC * (k[0] / w) / minkowski_dot(k, k)
    assert np.max(np.abs(pv.value - expect)) <= 1e-12


def test_massive_photon_projector_contraction():
    # unit-normalized contraction khat.T.khat = (1 - k^2/m^2) * scalar
    m, q = 1.0, 0.7
    k = np.array([0.3, 0.8, -0.2, 0.5])
    k2 = minkowski_dot(k, k)
    pv = prop.photon_propagator_momentum(k, m, q)
    scalar = prop.scalar_propagator_momentum(k, m, q).value
    k_lower = METRIC @ k
    contraction = k_lower @ pv.value @ k_lower / k2
    assert contraction == pytest.approx((1 - k2 / m ** 2) * scalar, abs=1e-12)



def test_massless_factor_at_zero_omega():
    """At m = 0 and kvec = 0 (omega = 0) the half-sum form is 0/0 at q = 1,
    where D = 1/k0^2 within 2 eps, for the scalar and the massless photon
    (whose 00 entry is D); at any other q no finite value exists."""
    for k0 in [s * 3.0 ** e for e in range(-320, 321, 7) for s in (1, -1)]:
        want = 1 / Fraction(k0) ** 2
        for call in (prop.scalar_propagator_momentum,
                     prop.photon_propagator_momentum):
            value = call((k0, 0.0, 0.0, 0.0), 0.0, 1.0).value
            d = complex(value if call is prop.scalar_propagator_momentum
                        else value[0][0])
            assert d.imag == 0.0
            assert abs(Fraction(d.real) - want) <= 2 * EPS * want, k0
            for q in (0.5, -1.0, 0.0, 2.0, 1e300):
                with pytest.raises(NumericOverflowError):
                    call((k0, 0.0, 0.0, 0.0), 0.0, q)
    # 1/k0^2 itself overflows
    with pytest.raises(NumericOverflowError):
        prop.scalar_propagator_momentum((1e-170, 0.0, 0.0, 0.0), 0.0, 1.0)

def test_photon_rejects_negative_mass():
    # omega takes m^2, so at m < 0 the massless tensor g would meet the
    # massive scalar factor, and the scalar factor and the residues would
    # be the |m| values; one shared check, that of position space, rejects
    # it in all three
    k = np.array([0.3, 0.2, 0.0, 0.1])
    for m in (-1.0, -1e-300):
        for call in (prop.photon_propagator_momentum,
                     prop.scalar_propagator_momentum,
                     lambda k, m, q: prop.pole_residues(k[1:], m, q)):
            with pytest.raises(ValueError, match="need m >= 0"):
                call(k, m, 0.5)


def numpy_matrix(kind, k, m, q):
    """The spinor and photon matrices as numpy formulas, the bitwise
    reference: (m + pslash)/2m and g - k k/m^2 times the scalar factor
    (at q -> -q for the spinor)."""
    k = np.asarray(k, dtype=float)
    if kind == "spinor":
        val = prop.scalar_propagator_momentum(k, m, -q).value.real
        return (m * np.eye(4) + dirac.slash(k)) / (2.0 * m) * val
    val = prop.scalar_propagator_momentum(k, m, q).value.real
    tensor = METRIC - np.outer(k, k) / (m * m) if m > 0.0 else METRIC
    return tensor.astype(complex) * val


def normal_parts(values) -> bool:
    """Whether each real and imaginary part of values is 0 or normal."""
    parts = np.concatenate([np.ravel(np.real(values)),
                            np.ravel(np.imag(values))])
    return bool(np.all((parts == 0.0) | ((np.abs(parts) >= 2.0 ** -1022)
                                         & np.isfinite(parts))))


def numpy_intermediates_normal(kind, k, m, want) -> bool:
    """Whether numpy's m^2, k_i k_j, 1/2m and entries are normal floats
    (or zeros of zero inputs), so that the numpy formula rounds each once."""
    k = np.asarray(k, dtype=float)
    with np.errstate(all="ignore"):
        if kind == "spinor":
            parts = [1.0 / (2.0 * m), (m * np.eye(4) + dirac.slash(k))
                     / (2.0 * m)]
        else:
            parts = [m * m, np.outer(k, k), np.outer(k, k) / (m * m)]
        nonzero = k[k != 0.0]
        return (normal_parts(want) and all(map(normal_parts, parts))
                and bool(np.all(np.abs(np.outer(nonzero, nonzero)) > 0.0)))


def test_matrices_are_the_numpy_formulas_bit_for_bit():
    # repr shows the sign of a zero: every entry, zeros included, is the
    # numpy formula's, on a grid with +-0.0 components and m = 0 photons;
    # each massive point also at k and m scaled by 2^n, n over +-1000, where
    # numpy's own intermediates are normal floats
    rng = np.random.default_rng(15)
    scales = np.random.default_rng(150)
    compared = scaled = 0
    for _ in range(400):
        k = [float(rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))))
             for _ in range(4)]
        q = float(rng.choice((-1.0, -0.0, 0.0, 1.0, rng.uniform(-2.0, 2.0))))
        m = float(rng.uniform(0.2, 3.0))
        points = [(k, m, 0)]
        for n in scales.integers(-1000, 1001, 3).tolist():
            points.append(([math.ldexp(x, n) for x in k], math.ldexp(m, n), n))
        for k, m, n in points:
            for kind, fn, mass in (("spinor", prop.spinor_propagator_momentum,
                                    m),
                                   ("photon", prop.photon_propagator_momentum,
                                    m),
                                   ("photon", prop.photon_propagator_momentum,
                                    0.0)):
                if n and not mass:
                    continue
                try:
                    with np.errstate(all="ignore"):
                        want = numpy_matrix(kind, k, mass, q)
                except QFieldError as e:  # a pole, or omega = 0 massless
                    if not n:
                        with pytest.raises(type(e)):
                            fn(k, mass, q)
                    continue
                if n and not numpy_intermediates_normal(kind, k, mass, want):
                    continue
                got = fn(k, mass, q).value
                assert type(got) is tuple and all(type(row) is tuple
                                                  for row in got)
                assert ([[repr(z) for z in row] for row in got]
                        == [[repr(z) for z in row] for row in want.tolist()]), \
                    (kind, k, mass, q)
                assert np.array(got).tobytes() == want.tobytes()
                compared += 1
                scaled += n != 0
    assert compared - scaled > 1000 and scaled > 1000


def test_photon_entry_where_k_i_k_j_underflows():
    # k_1 k_2 = 1e-326 underflows to 0, so the entry read -0.0, where it is
    # 7.5e281: K_12 = k_1 k_2/m^2 is formed at the scale of m
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    eps, tiny = math.ulp(1.0), math.ulp(0.0)
    k, m, q = (0.0, 1e-163, 1e-163, 0.0), 1e-152, 0.5
    got = prop.photon_propagator_momentum(k, m, q).value[1][2]
    K, M = [mp.mpf(x) for x in k], mp.mpf(m)
    W = mp.sqrt(K[1] ** 2 + K[2] ** 2 + K[3] ** 2 + M ** 2)
    d, s = K[0] - W, K[0] + W
    D = ((s - q * d) / W / (d * s)) / 2
    B = 4 * eps * (1 + W / abs(d) + W / abs(s)) * (
        (1 / abs(d) + abs(q) / abs(s)) / (2 * W))
    kk = K[1] * K[2] / M ** 2
    want = -kk * D
    assert abs(float(want) / 7.4999999999999969e+281 - 1) < 1e-16
    # the docstring's bound, with U_12 = 0 (no factor below 2^-1021 m)
    tol = kk * B + abs(D) * (eps * kk + 2 * eps * kk + 3 * tiny) + tiny
    assert abs(got.real - want) <= tol and got.imag == 0.0, got


def test_matrices_within_stated_tolerance_on_log_grid():
    # m/|k| from 1e-8 to 1e8 against mpmath at the float inputs: each entry
    # within its docstring's bound, or a typed error (near a pole)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    eps, tiny = math.ulp(1.0), math.ulp(0.0)
    rng = np.random.default_rng(1508)
    g = (1, -1, -1, -1)
    checked = raised = 0
    for ratio in 10.0 ** np.linspace(-8.0, 8.0, 33):
        for _ in range(3):
            kvec = rng.normal(size=3)
            kvec = kvec / np.linalg.norm(kvec) * 10.0 ** rng.uniform(-2, 2)
            m = float(ratio * np.linalg.norm(kvec))
            w = prop.omega(kvec, m)
            k = [float(w * rng.uniform(-3.0, 3.0)), *map(float, kvec)]
            q = float(rng.uniform(-2.0, 2.0))
            K = [mp.mpf(x) for x in k]
            M = mp.mpf(m)
            W = mp.sqrt(K[1] ** 2 + K[2] ** 2 + K[3] ** 2 + M ** 2)
            for kind in ("spinor", "photon"):
                fn = getattr(prop, f"{kind}_propagator_momentum")
                try:
                    got = fn(k, m, q).value
                except QFieldError:
                    raised += 1
                    continue
                qs = -q if kind == "spinor" else q
                d, s = K[0] - W, K[0] + W
                D = ((s - qs * d) / W / (d * s)) / 2
                size = (1 / abs(d) + abs(qs) / abs(s)) / (2 * W)
                B = 4 * eps * (1 + W / abs(d) + W / abs(s)) * size
                if kind == "spinor":
                    p0, p1, p2, p3 = K
                    N = [[M + p0, 0, -p3, mp.mpc(-p1, p2)],
                         [0, M + p0, mp.mpc(-p1, -p2), p3],
                         [p3, mp.mpc(p1, -p2), M - p0, 0],
                         [mp.mpc(p1, p2), -p3, 0, M - p0]]
                    exact = [[n * D / (2 * M) for n in row] for row in N]
                    tol = [[abs(n) / (2 * M) * (B + 3 * eps * abs(D))
                            + tiny * (1 + abs(D)) for n in row] for row in N]
                else:
                    t = [[(g[i] if i == j else 0) - K[i] * K[j] / M ** 2
                          for j in range(4)] for i in range(4)]
                    kk = [[abs(K[i] * K[j]) / M ** 2 for j in range(4)]
                          for i in range(4)]
                    exact = [[x * D for x in row] for row in t]
                    tol = [[abs(t[i][j]) * B + abs(D) * (
                                eps * abs(t[i][j]) + 2 * eps * kk[i][j]
                                + tiny * (1 + kk[i][j]) / M ** 2) + tiny
                            for j in range(4)] for i in range(4)]
                for i in range(4):
                    for j in range(4):
                        assert abs(got[i][j] - exact[i][j]) <= tol[i][j], \
                            (kind, k, m, q, i, j)
                checked += 1
    assert checked > 150 and raised < checked / 10


def test_matrices_leave_numpy_unloaded():
    script = """
import sys
from qfield import propagator
for m in (0.0, 1.3):
    propagator.photon_propagator_momentum((0.3, 0.2, 0.0, 0.1), m, 0.5)
propagator.spinor_propagator_momentum((0.3, 0.2, 0.0, 0.1), 1.3, 0.5)
assert "numpy" not in sys.modules and "qfield.dirac" not in sys.modules
print("ok")
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert res.returncode == 0 and res.stdout == "ok\n", res.stderr


# ------------------------------------------------------- position space

def test_bessel_closed_form_validated_by_independent_quadrature():
    # re-derive the closed form m K1(m r)/(4 pi^2 r) with mpmath.quadosc,
    # which shares no code with the library's z K1(z) expansions
    mp = pytest.importorskip("mpmath")
    for r, m in [(0.7, 1.0), (2.0, 0.5)]:
        f = lambda p: p * mp.sin(p * r) / mp.sqrt(p * p + m * m)
        val = mp.quadosc(f, [0, mp.inf], period=2 * mp.pi / r) / (4 * mp.pi ** 2 * r)
        closed = m * k1(m * r) / (4 * math.pi ** 2 * r)
        assert float(val) == pytest.approx(closed, rel=1e-10)


def test_delta_plus_equal_time_vs_bessel():
    for mr in np.linspace(0.1, 5.0, 20):
        got = prop.delta_plus_equal_time(float(mr), 1.0)
        closed = k1(mr) / (4 * math.pi ** 2 * mr)
        assert got.value == pytest.approx(closed, rel=1e-6)
        assert got.quad_error is not None


def test_delta_plus_massless_limit():
    r = 0.8
    got = prop.delta_plus_equal_time(r, 0.0)
    assert got.value == pytest.approx(1.0 / (4 * math.pi ** 2 * r ** 2), rel=1e-8)


def test_delta_plus_scaling():
    # value(r; m) = m^2 value(m r; 1)
    r, m = 0.9, 1.7
    v1 = prop.delta_plus_equal_time(r, m).value
    v2 = prop.delta_plus_equal_time(m * r, 1.0).value
    assert v1 == pytest.approx(m * m * v2, rel=1e-7)


def test_delta_plus_underflows_to_zero_at_huge_m_zeta():
    # m zeta = 1e150 with zeta^2 = 1e-300: the value is 0 to the float,
    # though sqrt(m zeta) / zeta^2 alone would overflow
    got = prop.delta_plus_equal_time(1e-150, 1e300)
    assert got.value == 0.0 and got.quad_error == math.ulp(0.0)


def test_delta_plus_invalid_args():
    with pytest.raises(ValueError):
        prop.delta_plus_equal_time(0.0, 1.0)
    with pytest.raises(ValueError):
        prop.delta_plus_equal_time(1.0, -1.0)


def test_refusals_at_the_edges_of_the_float_range():
    with pytest.raises(ZeroMassError, match="need omega > 0"):
        prop.pole_residues((0.0, 0.0, 0.0), 0.0, 0.5)
    # 1/2w and q/2w both overflow
    with pytest.raises(NumericOverflowError, match="pole residues overflow"):
        prop.pole_residues((0.0, 0.0, 0.0), 1e-150, 1e300)
    with pytest.raises(NumericOverflowError, match="m zeta overflows"):
        prop.delta_plus_equal_time(1e10, 1e300)
    # zeta^2 = 1e-320 is subnormal and W = 1/(4 pi^2 zeta^2) overflows
    with pytest.raises(NumericOverflowError,
                       match=r"invariant interval .* out of range"):
        prop.delta_plus_equal_time(1e-160, 0.0)


def test_spacelike_q_commutator():
    base = prop.delta_plus_equal_time(1.0, 1.0).value
    assert prop.spacelike_q_commutator(1.0, 1.0, 1.0).value == 0.0
    got = prop.spacelike_q_commutator(1.0, 1.0, 0.5)
    assert got.value == pytest.approx(0.5 * base, rel=1e-12)


def test_spacelike_commutator_mass_gap_decay():
    # magnitude falls roughly like e^{-mr} for mr >> 1
    v3 = prop.spacelike_q_commutator(3.0, 1.0, 0.5).value
    v4 = prop.spacelike_q_commutator(4.0, 1.0, 0.5).value
    assert abs(v4 / v3) < math.exp(-0.8)


def test_wightman_combination_coefficients():
    # Delta^-_q = Delta_+ - q Delta_-; at q = -1 it equals the q=1
    # "plus" combination Delta_+ + Delta_-: both fields causal at |q|=1
    minus_comb = lambda q: (1.0, -q)
    plus_comb = lambda q: (1.0, +q)
    assert minus_comb(-1.0) == plus_comb(1.0)


def test_causal_position_branches():
    m, t, r = 1.0, 0.6, 1.4
    base = prop.causal_position(t, r, m, 1.0).value
    # Feynman symmetry at q=1: t<0 equals the conjugate of t>0
    sym = prop.causal_position(-t, r, m, 1.0).value
    assert sym == pytest.approx(np.conj(base), rel=1e-7)
    # t<0 branch carries the factor q
    for q in (0.5, -0.5):
        got = prop.causal_position(-t, r, m, q).value
        assert got == pytest.approx(q * np.conj(base), rel=1e-7)


def test_causal_position_equal_time_continuity():
    m, r = 1.0, 1.0
    limit = prop.causal_position(1e-4, r, m, 0.7).value.real
    equal_time = prop.delta_plus_equal_time(r, m).value
    assert limit == pytest.approx(equal_time, rel=1e-4)


def test_causal_position_vs_independent_quadrature():
    mp = pytest.importorskip("mpmath")
    m, t, r = 1.0, 0.5, 1.5
    f = lambda k: k * mp.sin(k * r) * mp.exp(-1j * mp.sqrt(k * k + m * m) * t) \
        / mp.sqrt(k * k + m * m)
    ref = complex(mp.quadosc(f, [0, mp.inf], period=2 * mp.pi / r)) \
        / (4 * math.pi ** 2 * r)
    got = prop.causal_position(t, r, m, 1.0).value
    assert got == pytest.approx(ref, rel=1e-6)


def test_causal_position_momentum_consistency():
    # Fourier spot test of the contour reading: integrating the
    # pole-shifted momentum propagator over the real k0 line reproduces
    # the hyperboloid weight e^{-i w t}/(2 w) at coarse tolerance.
    from scipy.integrate import quad
    m, q, t = 1.0, 0.6, 0.8
    for kvec_mag in (0.5, 1.5):
        w = prop.omega([kvec_mag, 0, 0], m)
        eps = 1e-3

        def integrand(k0, part):
            val = (1.0 / (k0 - w + 1j * eps) - q / (k0 + w - 1j * eps)) / (2 * w)
            z = val * np.exp(-1j * k0 * t)
            return z.real if part == "re" else z.imag

        re, _ = quad(integrand, -120, 120, args=("re",), limit=2000)
        im, _ = quad(integrand, -120, 120, args=("im",), limit=2000)
        contour = (re + 1j * im) / (2 * np.pi)
        expect = -1j * np.exp(-1j * w * t) / (2 * w)
        assert contour == pytest.approx(expect, rel=2e-3, abs=2e-3)


def test_causal_position_invalid_args():
    with pytest.raises(ValueError):
        prop.causal_position(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        prop.causal_position(1.0, 0.0, 1.0, 0.5)
    with pytest.raises(ConvergenceError):
        prop.causal_position(1.0, 1.0, 1.0, 0.5)  # light cone r = |t|
    # m < 0 is rejected as delta_plus_equal_time rejects it
    with pytest.raises(ValueError, match="need m >= 0"):
        prop.causal_position(1.0, 2.0, -1.0, 0.5)
    with pytest.raises(ValueError, match="need m >= 0"):
        prop.delta_plus_equal_time(2.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_position_space_nonfinite_inputs_are_typed(bad):
    calls = [(prop.delta_plus_equal_time, (bad, 1.0)),
             (prop.delta_plus_equal_time, (1.0, bad)),
             (prop.spacelike_q_commutator, (1.0, 1.0, bad))]
    for i in range(4):
        args = [1.0, 1.5, 1.0, 0.5]
        args[i] = bad
        calls.append((prop.causal_position, tuple(args)))
    k = np.array([0.3, 0.2, 0.0, 0.1])
    for f in (prop.scalar_propagator_momentum, prop.spinor_propagator_momentum,
              prop.photon_propagator_momentum):
        calls += [(f, (k, bad, 0.5)), (f, (k, 1.0, bad))]
    calls += [(prop.pole_residues, (k[1:], bad, 0.5)),
              (prop.pole_residues, (k[1:], 1.0, bad))]
    for f, args in calls:
        with pytest.raises(NonFiniteInputError):
            f(*args)


def wightman_reference(t, r, m, mp):
    """W at |t| from the float inputs exactly, at mpmath's precision:
    m K1(m zeta)/(4 pi^2 zeta) spacelike, i m H1^(2)(m tau)/(8 pi tau)
    timelike, 1/(4 pi^2 zeta^2) massless."""
    t, r, m = mp.mpf(abs(t)), mp.mpf(r), mp.mpf(m)
    zeta2 = (r - t) * (r + t)
    if m == 0:
        return 1 / (4 * mp.pi ** 2 * zeta2)
    if zeta2 > 0:
        zeta = mp.sqrt(zeta2)
        return m * mp.besselk(1, m * zeta) / (4 * mp.pi ** 2 * zeta)
    tau = mp.sqrt(-zeta2)
    return 1j * m * mp.hankel2(1, m * tau) / (8 * mp.pi * tau)


def whole_domain_grid():
    """(t, r, m) with r up to 50 and m |r - |t|| from 1e-9 up, on both
    sides of the light cone and both signs of t, massless included;
    m r reaches the subnormal range and past underflow."""
    for m in (0.0, 1e-3, 0.7, 3.0, 14.7):
        for r in (1e-3, 0.1, 1.0, 7.0, 20.0, 50.0):
            yield 0.0, r, m
            for gap in (1e-9, 1e-6, 1e-3, 0.3, 3.0, 40.0):
                d = gap / m if m else gap
                for t in (r - d, r + d):
                    if t > 0.0 and abs(r - t) >= 1e-12:
                        yield t, r, m
                        yield -t, r, m


def test_position_space_whole_domain_against_bessel_closed_forms():
    # each point's reference once, checked at q on both sides of -1 and 1
    mp = pytest.importorskip("mpmath")
    qs = (0.35, -1.3, 1.9)
    points = 0
    for t, r, m in whole_domain_grid():
        with mp.workdps(30):
            want = wightman_reference(t, r, m, mp)
            if t == 0.0:
                got = [(prop.delta_plus_equal_time(r, m), want)]
                got += [(prop.spacelike_q_commutator(r, m, q), (1 - q) * want)
                        for q in qs]
            else:
                got = [(prop.causal_position(t, r, m, q),
                        want if t > 0 else q * mp.conj(want)) for q in qs]
            for pv, ref in got:
                true_err = abs(mp.mpc(pv.value) - ref)
                assert true_err <= pv.quad_error, (t, r, m, pv, complex(ref))
                if abs(ref) >= sys.float_info.min:
                    assert true_err <= 1e-12 * abs(ref), (t, r, m, pv)
                points += 1
    assert points > 1900


def test_position_space_error_covers_the_rounding_of_the_interval():
    # far inside the cone at large m the phase m tau is ~1e9 radians, and
    # the rounding of tau alone moves the value by ~1e-8 relative: more
    # than the expansions' own bound, which the bound must exceed too
    mp = pytest.importorskip("mpmath")
    for t, r, m in ((3.0, 1.0, 1e9), (50.0, 49.0, 1e8), (-7.0, 2.0, 3e8)):
        pv = prop.causal_position(t, r, m, 1.0)
        with mp.workdps(30):
            ref = wightman_reference(t, r, m, mp)
            ref = ref if t > 0 else mp.conj(ref)
            assert abs(mp.mpc(pv.value) - ref) <= pv.quad_error, (t, r, m)


def test_causal_position_without_a_correct_digit_raises():
    # at (|t|, r) = (3, 1) the relative bound is about 8 eps m tau, which
    # reaches 1 at m tau = 1/(8 eps) ~ 5.6e14: below that line the value
    # and its bound stand (5e-3 relative at m = 1e12), above it no digit
    # is right and the call raises
    mp = pytest.importorskip("mpmath")
    tau = math.sqrt(8.0)
    line = 1.0 / (8.0 * math.ulp(1.0))
    for m, bound in ((1e12, 6e-3), (0.99 * line / tau, 1.0)):
        for t in (3.0, -3.0):
            pv = prop.causal_position(t, 1.0, m, 1.0)
            with mp.workdps(30):
                ref = wightman_reference(t, 1.0, m, mp)
                ref = ref if t > 0 else mp.conj(ref)
                assert abs(mp.mpc(pv.value) - ref) <= pv.quad_error, m
            assert pv.quad_error <= bound * abs(pv.value), m
    for m in (1.01 * line / tau, 1e15, 1e17):
        for t in (3.0, -3.0):
            with pytest.raises(ConvergenceError, match="no correct digit"):
                prop.causal_position(t, 1.0, m, 1.0)
    # spacelike at the same m zeta the value has underflowed to an honest 0
    pv = prop.causal_position(1.0, 3.0, 1e15, 1.0)
    assert pv.value == 0.0 and pv.quad_error == math.ulp(0.0)
    assert prop.delta_plus_equal_time(1e-150, 1e300).value == 0.0


def test_position_space_branch_joins_on_dense_log_grids():
    # z = m zeta spacelike on [1e-8, 700] and x = m tau timelike on
    # [1e-8, 1e4], log-spaced, plus the floats around each expansion's
    # cut; zeta = tau = 1 exactly, so z and x are the float m.  Timelike
    # x up to 1e13 checks the Hankel series near s = 0, past its last
    # interpolation node
    mp = pytest.importorskip("mpmath")
    from qfield import _bessel_tables as tab

    def grid(hi, cut):
        points = {1e-8 * (hi / 1e-8) ** (i / 299) for i in range(300)}
        for rel in (1e-12, 1e-8, 1e-4, 1e-2):
            points |= {cut * (1.0 - rel), cut * (1.0 + rel)}
        return sorted(points | {cut, math.nextafter(cut, 0.0),
                                math.nextafter(cut, math.inf)})

    cases = [(0.0, 1.0, m) for m in grid(700.0, tab.SPACE_CUT)]
    cases += [(1.0, 1e-20, m) for m in grid(1e4, tab.TIME_CUT)
              + [1e5, 1e7, 1e10, 1e13]]
    for t, r, m in cases:
        pv = (prop.causal_position(t, r, m, 1.0) if t
              else prop.delta_plus_equal_time(r, m))
        with mp.workdps(30):
            want = wightman_reference(t, r, m, mp)
            true_err = abs(mp.mpc(pv.value) - want)
            assert true_err <= 1e-12 * abs(want), (t, r, m, pv)
            assert true_err <= pv.quad_error, (t, r, m, pv)


def test_expansion_tables_match_their_generator():
    # rerun tools/bessel_tables.py: the committed coefficients and bounds
    # are the ones it computes
    pytest.importorskip("mpmath")
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).parents[1] / "tools" / "bessel_tables.py"
    spec = importlib.util.spec_from_file_location("bessel_tables", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    from qfield import _bessel_tables as tab
    want = generator.tables()
    assert sorted(want) == sorted(n for n in vars(tab) if n.isupper())
    for name, value in want.items():
        assert getattr(tab, name) == pytest.approx(value, rel=1e-12, abs=0), name
