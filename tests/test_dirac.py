import warnings

import numpy as np
import pytest

from qfield import dirac, lorentz
from qfield.dirac import (METRIC, charge_conjugate_spinor, gamma,
                          onshell_momentum, polarization_sum,
                          polarization_sum_closed_form, polarization_vectors,
                          slash, spin_sum, spinor_boost_matrix,
                          theta_projector, transverse_projector, u_spinor,
                          v_spinor)
from qfield.errors import (NonFiniteInputError, NumericOverflowError,
                           OffShellError, QFieldError, SuperluminalError,
                           ZeroMassError, ZeroVectorError)
from qfield.lorentz import mass2

RNG = np.random.default_rng(20240817)
M = 1.0


def random_onshell(scale=10.0):
    return onshell_momentum(RNG.uniform(-scale, scale, 3) * M, M)


def test_gamma_anticommutators():
    for mu in range(4):
        for nu in range(4):
            acomm = (np.asarray(gamma(mu)) @ gamma(nu)
                     + np.asarray(gamma(nu)) @ gamma(mu))
            expect = 2.0 * METRIC[mu][nu] * np.eye(4)
            assert np.max(np.abs(acomm - expect)) <= 1e-14


def test_gamma_traceless():
    for mu in range(4):
        assert abs(np.trace(gamma(mu))) <= 1e-14


def test_gamma_bad_index():
    with pytest.raises(ValueError):
        gamma(4)


def test_dirac_equation_and_normalization():
    p = onshell_momentum([0.3, -0.4, 1.1], M)
    for r in (1, 2):
        u = u_spinor(p, r, M)
        assert np.max(np.abs((slash(p) - M * np.eye(4)) @ u.components)) <= 1e-12
        assert complex(np.asarray(u.bar()) @ u.components) == pytest.approx(
            1.0, abs=1e-12)
        v = v_spinor(p, r, M)
        assert np.max(np.abs((slash(p) + M * np.eye(4)) @ v.components)) <= 1e-12
        assert complex(np.asarray(v.bar()) @ v.components) == pytest.approx(
            -1.0, abs=1e-12)


def test_offshell_rejected():
    with pytest.raises(OffShellError):
        u_spinor([2.0, 0.0, 0.0, 0.0], 1, M)


def test_rest_frame_spin_sum_diagonal():
    p = np.array([M, 0.0, 0.0, 0.0])
    expect = np.diag([1.0, 1.0, 0.0, 0.0])
    assert np.max(np.abs(spin_sum(p, M, "u") - expect)) <= 1e-14


def test_completeness_100_random_momenta():
    for _ in range(100):
        p = random_onshell()
        for kind, sign in (("u", +1), ("v", -1)):
            assert np.max(np.abs(np.asarray(spin_sum(p, M, kind))
                                 - theta_projector(p, sign, M))) <= 1e-12


def test_theta_projector_algebra():
    p = random_onshell(3.0)
    plus = np.asarray(theta_projector(p, +1, M))
    minus = np.asarray(theta_projector(p, -1, M))
    assert np.max(np.abs(plus + minus - np.asarray(slash(p)) / M)) <= 1e-12
    assert np.max(np.abs(plus @ minus)) <= 1e-12
    rest = np.array([M, 0.0, 0.0, 0.0])
    assert np.max(np.abs(theta_projector(rest, +1, M) - np.diag([1, 1, 0, 0]))) <= 1e-14
    with pytest.raises(ZeroMassError):
        theta_projector(p, +1, 0.0)


def test_charge_conjugation_round_trip():
    p = random_onshell(2.0)
    for r in (1, 2):
        u = u_spinor(p, r, M)
        v = charge_conjugate_spinor(u)
        assert v.kind == "v"
        assert np.max(np.abs((slash(p) + M * np.eye(4)) @ v.components)) <= 1e-12
        assert complex(np.asarray(v.bar()) @ v.components) == pytest.approx(
            -1.0, abs=1e-12)
        # double application is the identity with C = i gamma^2 gamma^0
        back = charge_conjugate_spinor(v)
        assert np.max(np.abs(np.subtract(back.components,
                                         u.components))) <= 1e-12


def test_polarization_sum_rest_frame():
    p = np.array([M, 0.0, 0.0, 0.0])
    expect = np.diag([0.0, 1.0, 1.0, 1.0])
    assert np.max(np.abs(polarization_sum(p, M) - expect)) <= 1e-14


def test_polarization_vectors_transverse_orthonormal():
    p = onshell_momentum([0.5, -1.2, 0.8], M)
    vecs = polarization_vectors(p, M)
    for e in vecs:
        assert lorentz.minkowski_dot(e, p) == pytest.approx(0.0, abs=1e-12)
    for i in range(3):
        for j in range(3):
            dot = lorentz.minkowski_dot(vecs[i], vecs[j])
            assert dot == pytest.approx(-1.0 if i == j else 0.0, abs=1e-12)


def test_polarization_sum_closed_form_100_momenta():
    # the explicit basis sums to -g + p p / m^2 in this metric (the
    # opposite overall sign of the g - pp/m^2 closed form)
    for _ in range(100):
        p = random_onshell()
        got = np.asarray(polarization_sum(p, M))
        assert np.max(np.abs(got - polarization_sum_closed_form(p, M))) <= 1e-12
        contraction = np.array([lorentz.minkowski_dot(got[:, i], p) for i in range(4)])
        assert np.max(np.abs(contraction)) <= 1e-10
    with pytest.raises(ZeroMassError):
        polarization_sum(np.array([1.0, 0, 0, 1.0]), 0.0)


def test_transverse_projector():
    P = transverse_projector([0.0, 0.0, 1.0])
    assert np.max(np.abs(P - np.diag([1.0, 1.0, 0.0]))) <= 1e-14
    k = np.array([0.4, -0.3, 1.7])
    P = np.asarray(transverse_projector(k))
    assert np.max(np.abs(P @ P - P)) <= 1e-14
    assert np.max(np.abs(P @ k)) <= 1e-14
    with pytest.raises(ZeroVectorError):
        transverse_projector([0.0, 0.0, 0.0])


def test_boost_matrix_properties():
    beta = np.array([0.1, -0.25, 0.4])
    L = np.array(lorentz.boost_rows(beta))
    p = random_onshell(2.0)
    assert mass2(L @ p) == pytest.approx(mass2(p), abs=1e-12)
    with pytest.raises(SuperluminalError):
        lorentz.boost_rows([0.0, 0.0, 1.0])


def test_boost_covariance_of_projector():
    # building the projector after boosting equals conjugating with the
    # spinor boost representation
    beta = np.array([0.3, 0.1, -0.2])
    L = np.array(lorentz.boost_rows(beta))
    S = np.asarray(spinor_boost_matrix(beta))
    for _ in range(10):
        p = random_onshell(3.0)
        lhs = theta_projector(L @ p, +1, M)
        rhs = S @ theta_projector(p, +1, M) @ np.linalg.inv(S)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_spinor_boost_takes_rest_spinor_to_moving():
    beta = np.array([0.0, 0.0, 0.6])
    S = np.asarray(spinor_boost_matrix(beta))
    L = np.array(lorentz.boost_rows(beta))
    rest = np.array([M, 0.0, 0.0, 0.0])
    u0 = u_spinor(rest, 1, M)
    up = u_spinor(L @ rest, 1, M)
    assert np.max(np.abs(S @ u0.components - up.components)) <= 1e-12


def test_spinor_boost_closed_form_matches_expm():
    # cosh(eta/2) + sinh(eta/2) alpha.n against the matrix exponential
    from scipy.linalg import expm
    rng = np.random.default_rng(7)
    alpha = [np.asarray(gamma(0)) @ gamma(i) for i in (1, 2, 3)]
    for _ in range(200):
        nhat = rng.normal(size=3)
        nhat /= np.linalg.norm(nhat)
        beta = rng.uniform(0.0, 0.99) * nhat
        eta = np.arctanh(np.linalg.norm(beta))
        want = expm(0.5 * eta * sum(n * a for n, a in zip(nhat, alpha)))
        got = spinor_boost_matrix(beta)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def reference_spinors(p, m, kind):
    """The spinor rows as built before the overflow check, for finite ones."""
    p = np.asarray(p, dtype=float)
    E = p[0]
    sigma_p = sum(p[i + 1] * np.asarray(dirac._SIGMA[i]) for i in range(3))
    norm = np.sqrt((E + m) / (2 * m))
    lower = (sigma_p / (E + m)).T + 0.0
    one = np.asarray(dirac._ID2)
    return norm * np.hstack((one, lower) if kind == "u" else (lower, one))


def test_spinor_overflow_is_typed_and_silent():
    # m^2 underflows to 0, so the leg passes the on-shell check, and
    # (E + m)/2m overflows
    cases = [([1.0, 0.0, 0.0, 1.0], 1e-310), ([2.0, 0.0, 0.0, 2.0], 5e-324)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, m in cases:
            for call in (lambda: u_spinor(p, 1, m), lambda: v_spinor(p, 2, m),
                         lambda: spin_sum(p, m, "u"),
                         lambda: spin_sum(p, m, "v")):
                with pytest.raises(NumericOverflowError):
                    call()
        # finite spinors are the rows they were, bit for bit
        for m in (1e-3, 1.0, 7.5):
            for _ in range(50):
                p = onshell_momentum(RNG.uniform(-20, 20, 3) * m, m)
                for kind, make in (("u", u_spinor), ("v", v_spinor)):
                    want = reference_spinors(p, m, kind)
                    for r in (1, 2):
                        got = np.asarray(make(p, r, m).components)
                        assert got.tobytes() == want[r - 1].tobytes()


def with_bad_entry(values, i, bad):
    out = list(values)
    out[i] = bad
    return out


def assert_rejects_nonfinite(call, vector, scalars=()):
    """call(vector, *scalars) raises NonFiniteInputError, with no warning,
    for a nan and an inf in each component of vector and in each scalar."""
    cases = [(with_bad_entry(vector, i, bad), *scalars)
             for i in range(len(vector)) for bad in (np.nan, np.inf)]
    cases += [(vector, *with_bad_entry(scalars, i, bad))
              for i in range(len(scalars)) for bad in (np.nan, np.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in cases:
            with pytest.raises(NonFiniteInputError):
                call(*args)


def test_slash_rejects_nonfinite():
    assert_rejects_nonfinite(slash, [1.5, 0.2, -0.3, 0.4])


def test_transverse_projector_rejects_nonfinite():
    assert_rejects_nonfinite(transverse_projector, [0.2, -0.3, 0.4])


def test_polarization_sum_closed_form_rejects_nonfinite():
    assert_rejects_nonfinite(polarization_sum_closed_form,
                             [1.5, 0.2, -0.3, 0.4], (M,))


def test_onshell_momentum_rejects_nonfinite():
    assert_rejects_nonfinite(onshell_momentum, [0.2, -0.3, 0.4], (M,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transverse_projector_at_extreme_magnitudes():
    # k^2 overflowed to inf at |k| = 1e200 (a nan matrix) and underflowed
    # to 0 at 1e-200 (ZeroVectorError); k is scaled by a power of two first
    for k in ([1e200, 0.0, 0.0], [1e-200, 0.0, 0.0], [-5e-324, 0.0, 0.0]):
        assert np.asarray(transverse_projector(k)).tolist() == np.diag(
            [0.0, 1.0, 1.0]).tolist()
    P = np.asarray(transverse_projector([3e200, -4e200, 0.0]))
    want = [[0.64, 0.48, 0.0], [0.48, 0.36, 0.0], [0.0, 0.0, 1.0]]
    assert np.max(np.abs(P - want)) <= 1e-15
    # an exact scaling: normal-range outputs are the unscaled formula's bits
    # (k^2 summed left to right; numpy's k @ k fuses multiply-adds)
    rng = np.random.default_rng(15)
    for _ in range(200):
        k = rng.uniform(-3.0, 3.0, 3) * 10.0 ** rng.integers(-50, 50)
        want = np.eye(3) - np.outer(k, k) / (k[0] * k[0] + k[1] * k[1]
                                            + k[2] * k[2])
        assert np.asarray(transverse_projector(k)).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dirac_overflow_is_typed():
    # these returned inf entries, after a numpy warning or silently
    with pytest.raises(NumericOverflowError):
        polarization_sum_closed_form([1e200, 0.0, 0.0, 1e200], 1.0)
    with pytest.raises(NumericOverflowError):  # m^2 underflows to 0
        polarization_sum_closed_form([1.0, 0.0, 0.0, 0.0], 1e-200)
    with pytest.raises(NumericOverflowError):
        onshell_momentum([1e200, 0.0, 0.0], 1.0)
    assert onshell_momentum([1e150, 0.0, 0.0], 1.0)[0] == 1e150


def test_onshell_check_rejects_nan():
    # nan compares false both ways, and at an infinite p0 or m the scale is
    # infinite too: the check is written so that both fail
    p = [1.0, 0.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.nan, np.inf, -np.inf):
            for leg, m in (([x, 0.0, 0.0, 0.0], 1.0), (p, x),
                           ([1.0, x, 0.0, 0.0], 1.0)):
                for call in (lambda: theta_projector(leg, 1, m),
                             lambda: polarization_vectors(leg, m),
                             lambda: u_spinor(leg, 1, m),
                             lambda: v_spinor(leg, 2, m),
                             lambda: spin_sum(leg, m, "u"),
                             lambda: spin_sum(leg, m, "v")):
                    with pytest.raises(NonFiniteInputError):
                        call()


def test_mass_check_rejects_nonfinite():
    # 0 < m < inf, written so that a nan mass fails too
    for m in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInputError):
            lorentz._check_mass(m)
    for m in (0.0, -0.0, -1.0):
        with pytest.raises(ZeroMassError):
            lorentz._check_mass(m)


def test_float_helpers_are_lorentz_objects():
    for name in ("omega", "_check_onshell", "_check_mass", "_check_spin",
                 "subluminal_beta"):
        assert getattr(dirac, name) is getattr(lorentz, name), name


def test_c_matrix_is_i_gamma2_gamma0():
    want = 1j * np.asarray(gamma(2)) @ np.asarray(gamma(0))
    assert np.asarray(dirac.C_MATRIX).tobytes() == want.tobytes()


def test_slash_and_projector_are_the_numpy_formulas_bit_for_bit():
    # signs of zeros included, on momenta with +-0.0 components
    g = [np.asarray(gamma(mu)) for mu in range(4)]
    rng = np.random.default_rng(16)
    for _ in range(200):
        pvec = [float(rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))))
                for _ in range(3)]
        m = float(rng.uniform(0.2, 3.0))
        p = np.asarray(onshell_momentum(pvec, m))
        ps = p[0] * g[0] - p[1] * g[1] - p[2] * g[2] - p[3] * g[3]
        assert np.asarray(slash(p)).tobytes() == ps.tobytes()
        for sign in (1, -1):
            want = (sign * m * np.eye(4) + ps) / (2 * m)
            got = np.asarray(theta_projector(p, sign, m))
            assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polarization_overflow_is_typed():
    # m^2 underflows, so the leg passes the on-shell check, and |p|/m
    # overflows in the longitudinal vector
    for call in (polarization_vectors, polarization_sum):
        with pytest.raises(NumericOverflowError):
            call([1.0, 1.0, 0.0, 0.0], 1e-310)


def test_polarization_sum_at_small_momentum():
    # |p| = 1e-15 is far from rest at m = 1e-20 (E/m = 1e5): the basis is
    # built from phat, not the rest-frame axes, and sums to about 1e10
    m = 1e-20
    p = onshell_momentum([0.0, 0.0, 1e-15], m)
    want = np.asarray(polarization_sum_closed_form(p, m))
    got = polarization_sum(p, m)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_onshell_check_where_p0_squared_overflows():
    # p0^2 overflows, so p^2 - m^2 is nan; the test is repeated on p / 2^e
    lorentz._check_onshell((1e155, 1e155, 0.0, 0.0), 1.0)
    with pytest.raises(OffShellError):
        lorentz._check_onshell((1e155, 0.5e155, 0.0, 0.0), 1.0)
    with pytest.raises(NonFiniteInputError):
        lorentz._check_onshell((1e155, np.nan, 0.0, 0.0), 1.0)


def test_spinor_boost_matrix_against_mpmath_log_grid():
    # |beta| log-spaced from 1e-15 up and 1 - |beta| from 1e-15 up, along
    # four directions: each part within (g^2 + 4) eps of its modulus +
    # ulp(0), g = 1/sqrt(1 - beta^2) at the float beta, or a typed error
    mp = pytest.importorskip("mpmath")
    eps, tiny = 2.0 ** -52, 2.0 ** -1074
    sizes = [10.0 ** -k for k in np.linspace(15.0, 0.3, 40)]
    sizes += [1.0 - 10.0 ** -k for k in np.linspace(0.3, 15.0, 40)]
    directions = [(0.0, 0.0, 1.0), (0.6, -0.8, 0.0), (1 / 3, 2 / 3, -2 / 3),
                  (-0.2672612419124244, 0.5345224838248488,
                   0.8017837257372732)]
    with mp.workdps(40):
        for n in directions:
            for size in sizes:
                beta = [size * x for x in n]
                try:
                    S = spinor_boost_matrix(beta)
                except QFieldError:
                    continue
                b = [mp.mpf(x) for x in beta]
                g = 1 / mp.sqrt(1 - (b[0] ** 2 + b[1] ** 2 + b[2] ** 2))
                c = mp.sqrt((g + 1) / 2)
                x, y, z = (v * g / mp.sqrt(2 * (g + 1)) for v in b)
                want = [[c, 0, z, mp.mpc(x, -y)], [0, c, mp.mpc(x, y), -z],
                        [z, mp.mpc(x, -y), c, 0], [mp.mpc(x, y), -z, 0, c]]
                tol = (float(g * g) + 4) * eps
                for got_row, want_row in zip(S, want):
                    for got, w in zip(got_row, want_row):
                        w = mp.mpc(w)
                        for part, exact in ((got.real, w.real),
                                            (got.imag, w.imag)):
                            assert abs(part - exact) <= tol * abs(exact) + tiny
