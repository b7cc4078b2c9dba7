import cmath
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import k1

import oscillatory_oracle as oracle
from qfield import dirac, propagator as prop
from qfield.errors import (ConvergenceError, NonFiniteInputError,
                           NumericOverflowError, PoleError, QFieldError,
                           ZeroMassError)
from qfield.lorentz import mass2

RNG = np.random.default_rng(77)
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def random_offshell_k(min_dist=0.1):
    while True:
        k = RNG.uniform(-3.0, 3.0, 4)
        if abs(mass2(k) - 1.0) > min_dist:
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
    # identical item as equal: a position-space value, whose
    # onshell_distance is nan, equals itself
    pv = prop.delta_plus_equal_time(1.0, 1.0)
    assert math.isnan(pv.onshell_distance)
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
        assert pv.value == pytest.approx(1.0 / (mass2(k) - 1.0), abs=1e-12)


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
    assert pv.value == pytest.approx((k[0] / w) / (mass2(k) - 1.0), abs=1e-13)


def test_partial_fraction_consistency():
    for q in (-1.0, -0.5, 0.3, 1.0, 1.2):
        for _ in range(40):
            k = random_offshell_k()
            v1 = prop.scalar_propagator_momentum(k, 1.0, q).value
            v2 = prop.scalar_propagator_partial_fractions(k, 1.0, q).value
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
    # k0 within 2 POLE_GUARD/w of +-w up to O(1) away, on either side.  The
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
        gap = w * 10 ** rng.uniform(math.log10(2 * prop.POLE_GUARD / w ** 2), 0)
        k0 = rng.choice((w, -w)) + rng.choice((-gap, gap))
        k = [k0, *kvec]
        got = prop.scalar_propagator_momentum(k, m, q).value
        d, s = k0 - w, k0 + w
        size = (1 / abs(d) + abs(q) / abs(s)) / (2 * w)
        pf = prop.scalar_propagator_partial_fractions(k, m, q).value
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
    # depend on it until the steps reach the absolute pole guard band
    import mpmath as mp
    mp.mp.dps = 40
    raised = []
    for i in range(-80, 31):
        m = 10 ** (i / 10)
        for q in (-0.7, 0.5, 1.2):
            try:
                rp, rm = prop.pole_residues((0.0, 0.0, 0.0), m, q)
            except PoleError as e:
                assert "omega=" in str(e)
                raised.append(m)
                continue
            half = 1 / (2 * mp.sqrt(mp.mpf(m) ** 2))
            assert abs(rp - half) <= 1e-14 * half, (m, q)
            assert abs(rm + q * half) <= 1e-14 * abs(q) * half, (m, q)
    assert raised and max(raised) < 1e-3


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
    expect = (m * np.eye(4) + dirac.slash(p)) / (2 * m * (mass2(p) - m * m))
    assert np.max(np.abs(pv.value - expect)) <= 1e-12
    # p0 = 0 kills the second term of the scalar factor
    p0 = np.array([0.0, 1.2, 0.3, -0.4])
    q = 0.6
    pv = prop.spinor_propagator_momentum(p0, m, q)
    scalar = (1 - q) / (2 * (mass2(p0) - m * m))
    expect = (m * np.eye(4) + dirac.slash(p0)) / (2 * m) * scalar
    assert np.max(np.abs(pv.value - expect)) <= 1e-13
    # trace kills pslash
    assert np.trace(pv.value) == pytest.approx(4 * scalar / 2, abs=1e-12)
    with pytest.raises(ZeroMassError):
        prop.spinor_propagator_momentum(p, 0.0, 0.5)


def test_photon_q1_reduction():
    k = random_offshell_k()
    pv = prop.photon_propagator_momentum(k, 0.0, 1.0)
    expect = METRIC / mass2(k)
    assert np.max(np.abs(pv.value - expect)) <= 1e-12


def test_photon_q_minus1_evaluable():
    k = np.array([0.5, 1.0, 0.0, 0.0])
    w = prop.omega(k[1:], 0.0)
    pv = prop.photon_propagator_momentum(k, 0.0, -1.0)
    expect = METRIC * (k[0] / w) / mass2(k)
    assert np.max(np.abs(pv.value - expect)) <= 1e-12


def test_massive_photon_projector_contraction():
    # unit-normalized contraction khat.T.khat = (1 - k^2/m^2) * scalar
    m, q = 1.0, 0.7
    k = np.array([0.3, 0.8, -0.2, 0.5])
    k2 = mass2(k)
    pv = prop.photon_propagator_momentum(k, m, q)
    scalar = prop.scalar_propagator_momentum(k, m, q).value
    k_lower = METRIC @ k
    contraction = k_lower @ pv.value @ k_lower / k2
    assert contraction == pytest.approx((1 - k2 / m ** 2) * scalar, abs=1e-12)


def test_photon_rejects_negative_mass():
    # omega takes m^2, so at m < 0 the massless tensor g would meet the
    # massive scalar factor; rejected as position space rejects it
    k = np.array([0.3, 0.2, 0.0, 0.1])
    for m in (-1.0, -1e-300):
        with pytest.raises(ValueError, match="need m >= 0"):
            prop.photon_propagator_momentum(k, m, 0.5)


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


def test_matrices_are_the_numpy_formulas_bit_for_bit():
    # repr shows the sign of a zero: every entry, zeros included, is the
    # numpy formula's, on a grid with +-0.0 components and m = 0 photons
    rng = np.random.default_rng(15)
    compared = 0
    for _ in range(400):
        k = [float(rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))))
             for _ in range(4)]
        q = float(rng.choice((-1.0, -0.0, 0.0, 1.0, rng.uniform(-2.0, 2.0))))
        m = float(rng.uniform(0.2, 3.0))
        for kind, fn, mass in (("spinor", prop.spinor_propagator_momentum, m),
                               ("photon", prop.photon_propagator_momentum, m),
                               ("photon", prop.photon_propagator_momentum, 0.0)):
            try:
                want = numpy_matrix(kind, k, mass, q)
            except QFieldError as e:  # a pole, or omega = 0 massless
                with pytest.raises(type(e)):
                    fn(k, mass, q)
                continue
            got = fn(k, mass, q).value
            assert type(got) is tuple and all(type(row) is tuple for row in got)
            assert ([[repr(z) for z in row] for row in got]
                    == [[repr(z) for z in row] for row in want.tolist()]), \
                (kind, k, mass, q)
            assert np.array(got).tobytes() == want.tobytes()
            compared += 1
    assert compared > 1000


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
                    tol = [[abs(n) / (2 * M) * (B + (3 * eps + 2 * M * tiny)
                                                * abs(D))
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
    # which shares no code with the panel+epsilon engine
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
    mp = pytest.importorskip("mpmath")
    q = 0.35
    points = 0
    for t, r, m in whole_domain_grid():
        with mp.workdps(30):
            want = wightman_reference(t, r, m, mp)
            if t == 0.0:
                got = [(prop.delta_plus_equal_time(r, m), want),
                       (prop.spacelike_q_commutator(r, m, q), (1 - q) * want)]
            else:
                want = want if t > 0 else q * mp.conj(want)
                got = [(prop.causal_position(t, r, m, q), want)]
            for pv, ref in got:
                true_err = abs(mp.mpc(pv.value) - ref)
                assert true_err <= pv.quad_error, (t, r, m, pv, complex(ref))
                if abs(ref) >= sys.float_info.min:
                    assert true_err <= 1e-12 * abs(ref), (t, r, m, pv)
                points += 1
    assert points > 600


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


def exp_sinh_rule() -> tuple:
    """Nodes u and weights (2 x nodes) of the exp-sinh trapezoid rule

        Int_0^inf e^{-u} u^{1/2} g(u) du ~ sum_i w_i g(u_i),
        u = exp(pi/2 sinh tau),  tau in [-5, 4] at step 1/16.

    Row 0 holds the weights at step 1/16, row 1 those of the rule at step
    1/8: every other node, at doubled weight.  Nodes whose weight
    underflows to 0 are dropped.
    """
    step = 1.0 / 16.0
    tau = np.arange(-80, 65) * step
    u = np.exp(0.5 * np.pi * np.sinh(tau))
    w = step * 0.5 * np.pi * np.cosh(tau) * u * np.sqrt(u) * np.exp(-u)
    coarse = np.where(np.arange(tau.size) % 2 == 0, 2.0 * w, 0.0)
    keep = w > 0.0
    return u[keep], np.stack([w, coarse])[:, keep]


def exp_sinh_wightman(t, r, m) -> tuple:
    """(W, error) at |t| for m > 0 off the light cone, by an independent
    route: DLMF 10.32.8,

        z K1(z) = e^{-z} Int_0^inf e^{-u} u^{1/2} (u + 2z)^{1/2} du,

    summed by the exp-sinh rule; the error is the distance between the
    sums at steps 1/16 and 1/8 plus the rounding of z and of the final
    exponential, plus one subnormal unit."""
    nodes, weights = exp_sinh_rule()
    ta = abs(t)
    zeta2 = (r - ta) * (r + ta)
    den = 4.0 * math.pi ** 2 * zeta2
    z = m * cmath.sqrt(zeta2)  # +i tau inside the cone: t - i0
    fine, coarse = np.dot(weights, np.sqrt(nodes + 2.0 * z)).tolist()
    lead = cmath.log(fine / den) - z
    value = cmath.exp(lead)
    eps = math.ulp(1.0)
    rounding = 4.0 * eps * (2.0 + 2.0 * abs(z) + abs(lead))
    return value, (abs(value) * (abs(fine - coarse) / abs(fine) + rounding)
                   + math.ulp(0.0))


def test_position_space_matches_exp_sinh_quadrature():
    # the library's expansions against the quadrature they replaced, over
    # the whole-domain grid
    for t, r, m in whole_domain_grid():
        if m == 0.0:
            continue
        pv = (prop.causal_position(t, r, m, 1.0) if t
              else prop.delta_plus_equal_time(r, m))
        value, err = exp_sinh_wightman(t, r, m)
        want = value if t >= 0 else value.conjugate()
        assert abs(pv.value - want) <= pv.quad_error + err, (t, r, m)


def test_position_space_matches_oscillatory_oracle_in_its_window():
    # The oracle is right for m r <= 6 and m |r - |t|| >= 0.3, where it
    # stops once its error is 1e-8 of max(1, |integral|): the two agree
    # within the sum of their error bounds.
    def agree(new, old):
        assert abs(new.value - old.value) <= new.quad_error + old.quad_error

    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.uniform(0.3, 2.0)
        r = rng.uniform(0.05, 6.0) / m
        agree(prop.delta_plus_equal_time(r, m),
              oracle.delta_plus_equal_time(r, m))
    for timelike in (False, True):
        for _ in range(20):
            m = rng.uniform(0.3, 2.0)
            near = rng.uniform(0.2, 3.0) / m
            gap = rng.uniform(0.3, 3.0) / m
            t, r = (near + gap, near) if timelike else (near, near + gap)
            t *= rng.choice((-1.0, 1.0))
            q = rng.uniform(-1.5, 2.0)
            agree(prop.causal_position(t, r, m, q),
                  oracle.causal_position(t, r, m, q))


# ------------------------------------- batched panels, incremental table
#
# The reference below is the panel-by-panel loop with a full rebuild of
# Wynn's epsilon table at each checkpoint, which the oracle's batched
# panels and incremental table replace; they must give identical floats.

BATCHED = oracle.oscillatory_integral


def reference_wynn_epsilon(partial_sums) -> tuple:
    s = list(partial_sums)
    n = len(s)
    if n < 3:
        return s[-1], float("inf")
    eps_prev = [0.0] * (n + 1)
    eps_curr = list(s)
    best = s[-1]
    err = abs(s[-1] - s[-2])
    col = 0
    while len(eps_curr) >= 2:
        nxt = []
        for i in range(len(eps_curr) - 1):
            diff = eps_curr[i + 1] - eps_curr[i]
            if abs(diff) < 1e-300:
                if col % 2 == 0:
                    return eps_curr[i], 0.0
                nxt = []
                break
            nxt.append(eps_prev[i + 1] + 1.0 / diff)
        if not nxt:
            break
        eps_prev, eps_curr = eps_curr, nxt
        col += 1
        if col % 2 == 0 and len(eps_curr) >= 2:
            cand_err = abs(eps_curr[-1] - eps_curr[-2])
            if cand_err < err:
                best, err = eps_curr[-1], cand_err
    return best, err


def reference_oscillatory_integral(f, period, rel_tol=1e-8, max_panels=500,
                                   min_panels=12):
    sums = []
    total = 0.0
    err = float("inf")
    for n in range(max_panels):
        lo, hi = n * period, (n + 1) * period
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total = total + half * np.sum(oracle._GAUSS_W
                                      * f(mid + half * oracle._GAUSS_X))
        sums.append(total)
        if n + 1 >= min_panels and (n % 4 == 0):
            best, err = reference_wynn_epsilon(sums)
            if err <= rel_tol * max(1.0, abs(best)):
                return best, err
    raise ConvergenceError(
        f"tail not stabilized after {max_panels} panels (err ~ {err})")


def evaluate(monkeypatch, integrator, fn, *args):
    """fn(*args) with ``integrator`` as the quadrature: (value,
    quad_error, integrand nodes evaluated)."""
    nodes = []

    def counted(f, period, rel_tol=1e-8, **kw):
        def g(x):
            nodes.append(np.size(x))
            return f(x)
        return integrator(g, period, rel_tol, **kw)

    monkeypatch.setattr(oracle, "oscillatory_integral", counted)
    pv = fn(*args)
    return pv.value, pv.quad_error, sum(nodes)


def quadrature_grid():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        m = rng.uniform(0.5, 2.0)
        yield oracle.delta_plus_equal_time, (rng.uniform(0.05, 6.4) / m, m)
    for sign in (1.0, -1.0):
        for timelike in (False, True):
            for _ in range(12):
                m = rng.uniform(0.5, 2.0)
                near = rng.uniform(0.2, 5.0) / m
                gap = rng.uniform(0.3, 3.0) / m
                t, r = (near + gap, near) if timelike else (near, near + gap)
                yield oracle.causal_position, (sign * t, r, m,
                                             rng.uniform(-1.5, 2.0))


def test_batched_quadrature_identical_to_panel_loop(monkeypatch):
    for fn, args in quadrature_grid():
        got = evaluate(monkeypatch, BATCHED, fn, *args)
        want = evaluate(monkeypatch, reference_oscillatory_integral, fn, *args)
        assert got == want, (fn.__name__, args)


def test_batched_quadrature_same_failure():
    # a divergent integrand fails at the same checkpoint with the same err
    messages = []
    for integrator in (BATCHED, reference_oscillatory_integral):
        with pytest.raises(ConvergenceError) as info:
            integrator(lambda x: x, 1.0, max_panels=60)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "60 panels" in messages[0]


def test_batched_quadrature_checkpoints_follow_min_panels():
    def f(p):
        return p * np.sin(p * 1.3) / np.sqrt(p * p + 0.25)

    for min_panels in (0, 1, 3, 12, 14, 21):
        for rel_tol in (1e-8, 1e-13):
            kw = dict(rel_tol=rel_tol, min_panels=min_panels)
            assert BATCHED(f, np.pi / 1.3, **kw) \
                == reference_oscillatory_integral(f, np.pi / 1.3, **kw)


def test_zero_integrand_stops_exactly():
    # a constant sequence of partial sums is its own limit, error 0
    assert BATCHED(np.zeros_like, 1.0) == (0.0, 0.0)


def wynn_sequences():
    rng = np.random.default_rng(5)
    k = np.arange(1, 31)
    yield np.cumsum((-1.0) ** k / k)                  # alternating, slow
    yield np.cumsum((-0.7) ** k * rng.uniform(0.5, 1.5, k.size))
    yield np.cumsum(np.exp(1j * k) / k)               # complex
    yield np.cumsum(rng.normal(size=30) + 1j * rng.normal(size=30))
    yield 1.0 - 0.5 ** k        # column 2 exactly constant (even)
    yield np.arange(30.0)       # column 1 exactly constant (odd)
    yield np.concatenate([np.cumsum((-0.5) ** k[:8]), np.full(22, 0.25)])
    yield np.concatenate([np.arange(6.0), 5.0 + np.cumsum(
        (-0.5) ** k[:24])])     # tiny column 1 early, then a live tail
    yield np.full(30, 2.5)      # constant from the start


def test_incremental_wynn_table_matches_full_rebuild():
    for seq in wynn_sequences():
        for values in (seq, seq.tolist()):
            table = oracle._WynnTable()
            for n, s in enumerate(values, 1):
                table.push(s)
                got = table.estimate()
                want = reference_wynn_epsilon(values[:n])
                assert got == want, (seq, n)


def wynn_estimate(values):
    table = oracle._WynnTable()
    for s in values:
        table.push(s)
    return table.estimate()


def test_wynn_constant_sequence_early_return():
    # the first tiny difference is in column 0: its first entry, error 0
    assert wynn_estimate((1.0, 0.5, 0.5, 0.75, 0.625)) == (0.5, 0.0)
    # tiny but nonzero: the entry before the difference is returned
    assert wynn_estimate((1.0, 2.0, 0.0, 5e-301, 3.0)) == (0.0, 0.0)


def test_wynn_estimate_needs_strictly_smaller_error():
    # column 2's candidate ties the last step's error (3.0) and is not taken
    assert wynn_estimate((0.0, 1.0, 4.0, 1.0)) == (1.0, 3.0)
    assert reference_wynn_epsilon((0.0, 1.0, 4.0, 1.0)) == (1.0, 3.0)
