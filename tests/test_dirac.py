import math
import re
import warnings

import numpy as np
import pytest

from qfield import dirac, lorentz
from qfield.dirac import (METRIC, charge_conjugate_spinor, gamma,
                          onshell_momentum, polarization_sum,
                          polarization_sum_closed_form, polarization_vectors,
                          slash, spin_sum, theta_projector, u_spinor)
from qfield.errors import (NonFiniteInputError, NumericOverflowError,
                           OffShellError, SuperluminalError, ZeroMassError)
from qfield.lorentz import minkowski_dot

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


def test_identity_checks_within_their_tolerances():
    # the battery behind `qfield dirac check`
    checks = dirac.identity_checks()
    assert [name for name, _, _ in checks] == [
        "gamma_anticommutators", "spin_sum_completeness",
        "polarization_sum_closed_form", "charge_conjugation_dirac_eq"]
    for name, err, tol in checks:
        assert 0.0 <= err <= tol, name


def test_gamma_traceless():
    for mu in range(4):
        assert abs(np.trace(gamma(mu))) <= 1e-14


def test_gamma_bad_index():
    with pytest.raises(ValueError):
        gamma(4)


def test_dirac_spinor_is_a_value_record():
    # construction, ==, hash and repr of the old dataclass (repr text
    # recorded from it)
    comps, p = (1 + 0j, 0j, 0.5j, -0.25 + 0j), (1.0, 0.0, 0.0, 0.5)
    s = dirac.DiracSpinor(comps, p, 1, "u")
    assert (s.components, s.momentum, s.r, s.kind) == (comps, p, 1, "u")
    kw = dirac.DiracSpinor(components=comps, momentum=p, r=2, kind="v")
    assert kw == dirac.DiracSpinor(comps, p, 2, "v")
    assert not kw != dirac.DiracSpinor(comps, p, 2, "v")
    assert kw != s and s != dirac.DiracSpinor(comps, p, 1, "v")
    assert (s == (comps, p, 1, "u")) is False
    assert s.__eq__((comps, p, 1, "u")) is NotImplemented
    with pytest.raises(TypeError):
        hash(s)
    assert repr(s) == ("DiracSpinor(components=((1+0j), 0j, 0.5j, "
                       "(-0.25+0j)), momentum=(1.0, 0.0, 0.0, 0.5), r=1, "
                       "kind='u')")
    assert repr(kw) == ("DiracSpinor(components=((1+0j), 0j, 0.5j, "
                        "(-0.25+0j)), momentum=(1.0, 0.0, 0.0, 0.5), r=2, "
                        "kind='v')")
    assert u_spinor((1.0, 0.0, 0.0, 0.0), 1, 1.0) == dirac.DiracSpinor(
        (1 + 0j, 0j, 0j, 0j), (1.0, 0.0, 0.0, 0.0), 1, "u")


def test_dirac_equation_and_normalization():
    p = onshell_momentum([0.3, -0.4, 1.1], M)
    for r in (1, 2):
        u = u_spinor(p, r, M)
        assert np.max(np.abs((slash(p) - M * np.eye(4)) @ u.components)) <= 1e-12
        assert complex(np.asarray(u.bar()) @ u.components) == pytest.approx(
            1.0, abs=1e-12)
        v = charge_conjugate_spinor(u)
        assert np.max(np.abs((slash(p) + M * np.eye(4)) @ v.components)) <= 1e-12
        assert complex(np.asarray(v.bar()) @ v.components) == pytest.approx(
            -1.0, abs=1e-12)


def test_offshell_rejected():
    with pytest.raises(OffShellError):
        u_spinor([2.0, 0.0, 0.0, 0.0], 1, M)
    # on the hyperboloid, but on its negative-energy sheet
    with pytest.raises(OffShellError, match="p0 must be positive"):
        lorentz._check_onshell((-2.0, 0.0, 0.0, math.sqrt(3.0)), 1.0)


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
    with pytest.raises(ValueError, match="sign must be"):
        theta_projector(p, 0, M)


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


def test_boost_matrix_properties():
    beta = np.array([0.1, -0.25, 0.4])
    L = np.array(lorentz.boost_rows(beta))
    p = random_onshell(2.0)
    Lp = L @ p
    assert minkowski_dot(Lp, Lp) == pytest.approx(minkowski_dot(p, p),
                                                  abs=1e-12)
    with pytest.raises(SuperluminalError):
        lorentz.boost_rows([0.0, 0.0, 1.0])


def spinor_boost(beta):
    """S = expm(eta/2 alpha.n), the spinor representation of the boost by
    beta = tanh(eta) n."""
    from scipy.linalg import expm
    speed = np.linalg.norm(beta)
    alpha_n = sum(b / speed * (np.asarray(gamma(0)) @ gamma(i))
                  for i, b in enumerate(beta, 1))
    return expm(0.5 * np.arctanh(speed) * alpha_n)


def test_boost_covariance_of_projector():
    # building the projector after boosting equals conjugating with the
    # spinor boost representation
    beta = np.array([0.3, 0.1, -0.2])
    L = np.array(lorentz.boost_rows(beta))
    S = spinor_boost(beta)
    for _ in range(10):
        p = random_onshell(3.0)
        lhs = theta_projector(L @ p, +1, M)
        rhs = S @ theta_projector(p, +1, M) @ np.linalg.inv(S)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_spinor_boost_takes_rest_spinor_to_moving():
    beta = np.array([0.0, 0.0, 0.6])
    S = spinor_boost(beta)
    L = np.array(lorentz.boost_rows(beta))
    rest = np.array([M, 0.0, 0.0, 0.0])
    u0 = u_spinor(rest, 1, M)
    up = u_spinor(L @ rest, 1, M)
    assert np.max(np.abs(S @ u0.components - up.components)) <= 1e-12


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
            for call in (lambda: u_spinor(p, 1, m),
                         lambda: charge_conjugate_spinor(u_spinor(p, 1, m)),
                         lambda: spin_sum(p, m, "u"),
                         lambda: spin_sum(p, m, "v")):
                with pytest.raises(NumericOverflowError):
                    call()
        # finite spinors are the rows they were, bit for bit
        for m in (1e-3, 1.0, 7.5):
            for _ in range(50):
                p = onshell_momentum(RNG.uniform(-20, 20, 3) * m, m)
                want_u, want_v = (reference_spinors(p, m, kind)
                                  for kind in ("u", "v"))
                for r in (1, 2):
                    u = u_spinor(p, r, m)
                    assert np.asarray(u.components).tobytes() == \
                        want_u[r - 1].tobytes()
                    # C u_1 = v_2 and C u_2 = -v_1, signs of zeros too
                    v = np.asarray(charge_conjugate_spinor(u).components)
                    assert (v if r == 1 else 0 - v).tobytes() == \
                        want_v[2 - r].tobytes()


def test_spinors_and_projectors_near_e_plus_m_overflow():
    # where E + m (or 2m) overflows, or 1/(E + m) or 1/2m is subnormal,
    # the reduced spinor, the norm n^2 = (E+m)/2m and the projectors are
    # still ordinary floats: each within its stated tolerance of mpmath at
    # the float legs (the spinor basis within 1.5 eps)
    mp = pytest.importorskip("mpmath")
    eps, tiny = 2.0 ** -52, 2.0 ** -1074
    legs = [((math.hypot(1e308, 1e307), 0.0, 0.0, 1e307), 1e308),
            ((1e308, 0.0, 0.0, 0.0), 1e308),
            ((math.hypot(1e308, 3e307, 4e307), 3e307, -4e307, 0.0), 1e308),
            ((math.hypot(5e307, 1.6e308), 0.0, 0.0, 1.6e308), 5e307),
            # E/m = 2.5e308 overflows, (E + m)/2m = 1.25e308 does not
            ((1e308, 0.0, 0.0, 1e308), 0.4)]
    # and legs with E + m between 2^1022, where 1/(E + m) turns subnormal,
    # and overflow, m from 5% to 50% of it
    rng = np.random.default_rng(308)
    with mp.workdps(40):
        for total in rng.uniform(4.6e307, 1.79e308, 96).tolist():
            m = total * rng.uniform(0.05, 0.5)
            pmag = mp.sqrt(mp.mpf(total - m) ** 2 - mp.mpf(m) ** 2)
            d = rng.normal(size=3)
            pvec = [float(pmag * x) for x in (d / np.linalg.norm(d)).tolist()]
            p0 = float(mp.sqrt(sum(mp.mpf(x) ** 2 for x in (*pvec, m))))
            legs.append(((p0, *pvec), m))

    def close(got, want, tol):
        want = mp.mpc(want)
        for part, exact in ((got.real, want.real), (got.imag, want.imag)):
            assert abs(part - exact) <= tol * abs(want) + tiny, (got, want)

    with warnings.catch_warnings(), mp.workdps(40):
        warnings.simplefilter("error")
        for p, m in legs:
            P, M_ = [mp.mpf(x) for x in p], mp.mpf(m)
            s = 1 / (P[0] + M_)
            n = mp.sqrt((P[0] + M_) / (2 * M_))
            want = {1: (1, 0, P[3] * s, mp.mpc(P[1], P[2]) * s),
                    2: (0, 1, mp.mpc(P[1], -P[2]) * s, -P[3] * s)}
            for r in (1, 2):
                for got, w in zip(lorentz._reduced_spinor(p, m, r), want[r]):
                    close(complex(got), w, 1.5 * eps)
                for got, w in zip(u_spinor(p, r, m).components, want[r]):
                    close(got, n * w, 3 * eps)
                # v_r = (-1)^r C u_(3-r), its halves swapped from u_r's
                v = charge_conjugate_spinor(u_spinor(p, 3 - r, m)).components
                for got, w in zip(v[2:] + v[:2], want[r]):
                    close(got, (-1) ** r * n * w, 3 * eps)
            slash_p = [[mp.mpc(x) for x in row] for row in slash(p)]
            for sign in (1, -1):
                got = theta_projector(p, sign, m)
                for i in range(4):
                    for j in range(4):
                        w = (sign * M_ * (i == j) + slash_p[i][j]) / (2 * M_)
                        close(got[i][j], w, 1.5 * eps)
    assert np.asarray(u_spinor((1e308, 0.0, 0.0, 0.0), 1, 1e308).components
                      ).tolist() == [1, 0, 0, 0]
    # where n^2 itself overflows the error stays
    with pytest.raises(NumericOverflowError, match="spinor norm overflows"):
        u_spinor((1e300, 0.0, 0.0, 1e300), 1, 1e-10)


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


def test_polarization_sum_closed_form_rejects_nonfinite():
    assert_rejects_nonfinite(polarization_sum_closed_form,
                             [1.5, 0.2, -0.3, 0.4], (M,))


def test_onshell_momentum_rejects_nonfinite():
    assert_rejects_nonfinite(onshell_momentum, [0.2, -0.3, 0.4], (M,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dirac_overflow_is_typed():
    # these returned inf entries, after a numpy warning or silently
    with pytest.raises(NumericOverflowError):
        polarization_sum_closed_form([1e200, 0.0, 0.0, 1e200], 1.0)
    with pytest.raises(NumericOverflowError):  # m^2 underflows to 0
        polarization_sum_closed_form([1.0, 0.0, 0.0, 0.0], 1e-200)
    with pytest.raises(NumericOverflowError):  # p / 2^e overflows
        polarization_sum_closed_form([1e300, 0.0, 0.0, 1e300], 1e-300)
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
                             lambda: charge_conjugate_spinor(
                                 u_spinor(leg, 1, m)),
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
    for name in ("omega", "_check_onshell", "_check_mass", "_check_spin"):
        assert getattr(dirac, name) is getattr(lorentz, name), name


def test_c_matrix_is_i_gamma2_gamma0():
    # charge_conjugate_spinor hard-codes C (gamma^0)^T conj as a signed
    # permutation; over u spinors and their conjugates it is that product
    c = 1j * np.asarray(gamma(2)) @ np.asarray(gamma(0))
    c_g0t = c @ np.asarray(gamma(0)).T
    rng = np.random.default_rng(2)
    for _ in range(500):
        m = float(rng.uniform(0.2, 3.0))
        p = onshell_momentum(rng.uniform(-5.0, 5.0, 3) * m, m)
        for r in (1, 2):
            u = u_spinor(p, r, m)
            for s in (u, charge_conjugate_spinor(u)):
                got = np.asarray(charge_conjugate_spinor(s).components)
                assert (got == c_g0t @ np.conj(s.components)).all(), s


def test_slash_and_projector_are_the_numpy_formulas_bit_for_bit():
    # signs of zeros included, on momenta with +-0.0 components; each point
    # also at p and m scaled by 2^n, n over +-1000, where numpy's 1/2m and
    # entries are normal floats
    g = [np.asarray(gamma(mu)) for mu in range(4)]
    rng = np.random.default_rng(16)
    scales = np.random.default_rng(160)
    compared = 0
    for _ in range(200):
        pvec = [float(rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))))
                for _ in range(3)]
        m = float(rng.uniform(0.2, 3.0))
        p = np.asarray(onshell_momentum(pvec, m))
        points = [(p, m)] + [(np.ldexp(p, n), math.ldexp(m, n))
                             for n in scales.integers(-1000, 1001, 3).tolist()]
        for p, m in points:
            ps = p[0] * g[0] - p[1] * g[1] - p[2] * g[2] - p[3] * g[3]
            assert np.asarray(slash(p)).tobytes() == ps.tobytes()
            for sign in (1, -1):
                with np.errstate(all="ignore"):
                    want = (sign * m * np.eye(4) + ps) / (2 * m)
                parts = np.concatenate([want.real.ravel(), want.imag.ravel(),
                                        p, [0.5 / m]])
                if not np.all((parts == 0.0) | ((np.abs(parts) >= 2.0 ** -1022)
                                                & np.isfinite(parts))):
                    continue
                got = np.asarray(theta_projector(p, sign, m))
                assert got.tobytes() == want.tobytes(), (p, m, sign)
                compared += 1
    assert compared > 1000


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


def test_at_scale_is_exact_and_never_raises():
    # x 2^-e lies in [0.5, 1); each value times 2^-e is ldexp's float, a
    # signed inf where ldexp raises OverflowError, down to a subnormal x
    for x in (5e-324, 3e-320, 2.0 ** -1023, 2.0 ** -1022, 1e-300, 0.3, 1.0,
              1e300, 2.0 ** 1023, 1.7976931348623157e308):
        e, (y, *got) = lorentz._at_scale(x, (x, 3.0, -0.0, -1e308, 5e-324))
        assert 0.5 <= y < 1.0 and y == math.ldexp(x, -e)
        for v, z in zip((3.0, -0.0, -1e308, 5e-324), got):
            try:
                want = math.ldexp(v, -e)
            except OverflowError:
                want = math.copysign(math.inf, v)
            assert repr(z) == repr(want), (x, v)


def test_onshell_check_where_p0_squared_overflows():
    # p0^2 overflows, so p^2 - m^2 is nan; the test is repeated on p / 2^e
    lorentz._check_onshell((1e155, 1e155, 0.0, 0.0), 1.0)
    with pytest.raises(OffShellError) as info:
        lorentz._check_onshell((1e155, 0.5e155, 0.0, 0.0), 1.0)
    # the message holds the deviation judged, as a finite scaled value
    # times a power of two
    mp = pytest.importorskip("mpmath")
    text = str(info.value)
    scaled, power = re.fullmatch(r"p\^2 - m\^2 = (\S+) \* 2\*\*(\d+) "
                                 r"for m = 1\.0", text).groups()
    assert math.isfinite(float(scaled)), text
    want = mp.mpf(1e155) ** 2 - mp.mpf(0.5e155) ** 2 - 1
    assert abs(mp.ldexp(float(scaled), int(power)) / want - 1) <= 1e-15
    # a deviation that is finite keeps its plain text
    with pytest.raises(OffShellError,
                       match=r"^p\^2 - m\^2 = 2\.0 for m = 1\.0$"):
        lorentz._check_onshell((2.0, 1.0, 0.0, 0.0), 1.0)
    with pytest.raises(NonFiniteInputError):
        lorentz._check_onshell((1e155, np.nan, 0.0, 0.0), 1.0)
