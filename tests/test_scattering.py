from itertools import product

import numpy as np
import pytest

from qfield import dirac, lorentz, scattering as sc
from qfield.errors import (DegenerateTransferError, NonFiniteInputError,
                           NumericOverflowError, OffShellError, QFieldError,
                           SuperluminalError, ZeroMassError)
from qfield.lorentz import mass2, minkowski_dot

M = 1.0


def generic_kinematics():
    return sc.cm_elastic_kinematics(2.0, 1.0, M)


def current_matrix_element(out, inc, mu):
    """Spinor bilinear ubar_out gamma^mu u_in, one component at a time."""
    return complex(np.asarray(out.bar()) @ dirac.gamma(mu) @ inc.components)


def current_four_vector(out, inc):
    return np.array([current_matrix_element(out, inc, mu) for mu in range(4)])


def test_boost_examples():
    p = (M, 0.0, 0.0, 0.0)
    assert np.allclose(sc.Boost([0.0, 0.0, 0.0]).apply(p), p)
    beta = 0.6
    g = 1.0 / np.sqrt(1 - beta ** 2)
    boosted = sc.Boost([0.0, 0.0, beta]).apply(p)
    assert boosted[0] == pytest.approx(g * M, rel=1e-12)
    assert boosted[3] == pytest.approx(g * M * beta, rel=1e-12)
    q = (2.0, 0.3, -0.7, 1.1)
    b = sc.Boost([0.2, -0.4, 0.1])
    assert mass2(b.apply(q)) == pytest.approx(mass2(q), abs=1e-12)


def test_boost_superluminal():
    with pytest.raises(SuperluminalError):
        sc.Boost([0.0, 0.0, 1.0])


def test_boost_rejects_nan_velocity():
    # nan compares false both ways: the check is written so that it fails
    for build in (sc.Boost, lorentz.boost_rows, dirac.spinor_boost_matrix):
        with pytest.raises(NonFiniteInputError):
            build([np.nan, 0.0, 0.0])


def test_boost_apply_rejects_nonfinite_components():
    boost = sc.Boost([0.5, 0.0, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(4):
            p = [1.0, 0.2, 0.0, 0.1]
            p[i] = bad
            with pytest.raises(NonFiniteInputError):
                boost.apply(p)
    with pytest.raises(NumericOverflowError):
        sc.Boost([0.9, 0.0, 0.0]).apply([1.7e308, 1.7e308, 0.0, 0.0])


def test_boost_composition_along_axis():
    b1, b2 = 0.3, 0.4
    combined = (b1 + b2) / (1 + b1 * b2)
    p = (M, 0.0, 0.0, 0.0)
    two_step = sc.Boost([0, 0, b2]).apply(sc.Boost([0, 0, b1]).apply(p))
    one_step = sc.Boost([0, 0, combined]).apply(p)
    assert np.allclose(two_step, one_step, atol=1e-12)


def test_kinematics_validation():
    kin = generic_kinematics()
    for p, m in zip(kin.legs, kin.masses):
        assert abs(mass2(p) - m * m) <= 1e-10 * max(1.0, p[0] ** 2)
    with pytest.raises(OffShellError):
        sc.ProcessKinematics(
            (np.array([2.0, 0, 0, 0.5]), np.array([2.0, 0, 0, -0.5])),
            (np.array([2.0, 0, 0, 0.5]), np.array([2.0, 0, 0, -0.5])),
            (M, M, M, M))
    # at an infinite energy the on-shell scale p0^2 is infinite too
    rest = (M, 0.0, 0.0, 0.0)
    for bad in ((np.inf, 0.0, 0.0, 0.5), (-np.inf, 0.0, 0.0, 0.5)):
        with pytest.raises(NonFiniteInputError):
            sc.ProcessKinematics((bad, rest), (rest, rest), (M, M, M, M))


def test_correction_factor_photon_q1():
    assert sc.correction_factor(3.0, 2.0, [1, 0, 0], [0, 1, 0], 1.0,
                                sc.PHOTON_LINE) == pytest.approx(1.0)


def test_correction_factor_elastic_cm():
    # equal energies: F = (1+q)/2 regardless of directions
    for q in (0.3, -0.5, 1.2):
        f = sc.correction_factor(2.0, 2.0, [1, 0, 0], [0, 0, 1], q,
                                 sc.PHOTON_LINE)
        assert f == pytest.approx((1 + q) / 2, abs=1e-14)


def test_correction_factor_numeric_example():
    # (E_in - E_out)/|dp| = 0.2 at q = 0.5: 0.75 + 0.25*0.2 = 0.80
    f = sc.correction_factor(1.2, 1.0, [1.0, 0, 0], [0.0, 0, 0], 0.5,
                             sc.PHOTON_LINE)
    assert f == pytest.approx(0.80, abs=1e-14)


def test_correction_factor_electron_line_swaps_combinations():
    f = sc.correction_factor(2.0, 2.0, [1, 0, 0], [0, 0, 1], 0.5,
                             sc.ELECTRON_LINE)
    assert f == pytest.approx((1 - 0.5) / 2, abs=1e-14)


def test_correction_factor_degenerate():
    with pytest.raises(DegenerateTransferError):
        sc.correction_factor(1.0, 1.0, [1, 0, 0], [1, 0, 0], 0.5,
                             sc.PHOTON_LINE)


def test_correction_factor_rejects_nonfinite_input():
    good = [2.0, 1.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.5]
    for flavor in (sc.PHOTON_LINE, sc.ELECTRON_LINE):
        for bad in (np.nan, np.inf):
            cases = []
            for i in (0, 1, 4):
                args = list(good)
                args[i] = bad
                cases.append(args)
            for i in (2, 3):
                for j in range(3):
                    args = [*good[:2], list(good[2]), list(good[3]), good[4]]
                    args[i][j] = bad
                    cases.append(args)
            for args in cases:
                with pytest.raises(NonFiniteInputError):
                    sc.correction_factor(*args, flavor)
    # finite inputs whose transfer or ratio overflows
    with pytest.raises(NumericOverflowError):
        sc.correction_factor(2.0, 1.0, [1e308, 0, 0], [-1e308, 0, 0], 0.5,
                             sc.PHOTON_LINE)
    with pytest.raises(NumericOverflowError):
        sc.correction_factor(1e308, -1e308, [1.0, 0, 0], [0, 0, 0], 0.5,
                             sc.PHOTON_LINE)


def test_moller_rejects_unequal_leg_masses():
    # each leg on shell at its own mass: ProcessKinematics accepts it, the
    # Moller amplitudes need one mass
    m1, m2 = 1.0, 1.5
    e = 3.0
    p1, p2 = np.sqrt(e * e - m1 * m1), np.sqrt(e * e - m2 * m2)
    kin = sc.ProcessKinematics(((e, 0.0, 0.0, p1), (e, 0.0, 0.0, -p1)),
                               ((e, p2, 0.0, 0.0), (e, -p2, 0.0, 0.0)),
                               (m1, m1, m2, m2))
    with pytest.raises(OffShellError, match="one mass"):
        sc.moller_spin_summed(kin, 0.5)
    with pytest.raises(OffShellError, match="one mass"):
        sc.moller_amplitude(kin, (1, 1, 1, 1), 0.5)


def test_current_matrix_element_basics():
    p = dirac.onshell_momentum([0.4, -0.2, 0.9], M)
    u = dirac.u_spinor(p, 1, M)
    j0 = current_matrix_element(u, u, 0)
    assert j0.imag == pytest.approx(0.0, abs=1e-12)
    assert j0.real > 0
    udag_u = complex(np.conj(u.components) @ u.components)
    assert j0 == pytest.approx(udag_u, abs=1e-12)


def test_current_conservation():
    kin = generic_kinematics()
    pA, _, pC, _ = map(np.array, kin.legs)
    k = pC - pA
    for rA, rC in product((1, 2), repeat=2):
        uA = dirac.u_spinor(pA, rA, M)
        uC = dirac.u_spinor(pC, rC, M)
        J = current_four_vector(uC, uA)
        assert abs(minkowski_dot(k, J)) <= 1e-10


def test_current_rest_frame_hand_check():
    # both spinors at rest: J^mu = (delta_{r r'}, 0, 0, 0) since the
    # lower components vanish in the Dirac representation
    rest = np.array([M, 0.0, 0.0, 0.0])
    u1 = dirac.u_spinor(rest, 1, M)
    u2 = dirac.u_spinor(rest, 2, M)
    assert current_matrix_element(u1, u1, 0) == pytest.approx(1.0)
    assert current_matrix_element(u2, u1, 0) == pytest.approx(0.0, abs=1e-14)
    for mu in (1, 2, 3):
        assert current_matrix_element(u1, u1, mu) == pytest.approx(0.0, abs=1e-14)


def textbook_moller(kin, spins):
    pA, pB, pC, pD = map(np.array, kin.legs)
    rA, rB, rC, rD = spins
    uA = dirac.u_spinor(pA, rA, M)
    uB = dirac.u_spinor(pB, rB, M)
    uC = dirac.u_spinor(pC, rC, M)
    uD = dirac.u_spinor(pD, rD, M)
    direct = minkowski_dot(current_four_vector(uC, uA),
                           current_four_vector(uD, uB))
    exchange = minkowski_dot(current_four_vector(uD, uA),
                             current_four_vector(uC, uB))
    return direct / mass2(pC - pA) - exchange / mass2(pD - pA)


def test_moller_q1_is_textbook_direct_minus_exchange():
    kin = generic_kinematics()
    for spins in product((1, 2), repeat=4):
        got = sc.moller_amplitude(kin, spins, 1.0)
        assert got == pytest.approx(textbook_moller(kin, spins), abs=1e-12)


def test_moller_bracket_antisymmetry():
    kin = generic_kinematics()
    pA, pB, pC, pD = kin.legs
    swapped = sc.ProcessKinematics((pA, pB), (pD, pC), kin.masses)
    q = 0.5
    for spins in [(1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 1, 2)]:
        m1 = sc.moller_amplitude(kin, spins, q)
        rC, rD = spins[2], spins[3]
        m2 = sc.moller_amplitude(swapped, (spins[0], spins[1], rD, rC), q)
        assert m1 == pytest.approx(-m2, abs=1e-12)


def test_moller_cm_elastic_factorizes():
    # in CM both F factors are (1+q)/2, so M(q) = q (1+q)/2 * M(1)
    kin = generic_kinematics()
    spins = (1, 2, 1, 2)
    base = sc.moller_amplitude(kin, spins, 1.0)
    for q in (0.3, -0.5, 1.2):
        got = sc.moller_amplitude(kin, spins, q)
        assert got == pytest.approx(q * (1 + q) / 2 * base, abs=1e-12)


def test_moller_strict_paper_mode_changes_exchange_denominator():
    kin = generic_kinematics()
    spins = (1, 1, 1, 1)
    loose = sc.moller_amplitude(kin, spins, 0.5, strict_paper_mode=False)
    strict = sc.moller_amplitude(kin, spins, 0.5, strict_paper_mode=True)
    assert loose != pytest.approx(strict)


def test_moller_spin_summed_positive():
    kin = generic_kinematics()
    assert sc.moller_spin_summed(kin, 1.0) > 0.0


def test_annihilation_cm_factors():
    kin = sc.cm_annihilation_kinematics(2.0, 1.0, M)
    for q in (0.3, -0.5, 1.2):
        f1, f2 = sc.annihilation_correction_pair(kin, q)
        assert f1 == pytest.approx((1 - q) / 2, abs=1e-12)
        assert f2 == pytest.approx((1 - q) / 2, abs=1e-12)
    # q = -1: undeformed fermionic limit
    f1, f2 = sc.annihilation_correction_pair(kin, -1.0)
    assert f1 == pytest.approx(1.0) and f2 == pytest.approx(1.0)


def test_annihilation_boosted_factors_split():
    kin = sc.cm_annihilation_kinematics(2.0, 1.0, M)
    kb = kin.boosted(sc.Boost([0.0, 0.0, 0.5]))
    f1, f2 = sc.annihilation_correction_pair(kb, 0.5)
    assert abs(f1 - f2) > 1e-3


def test_frame_scan_q1_invariant():
    kin = generic_kinematics()
    betas = [sc.Boost([0, 0, b]) for b in (0.0, 0.25, 0.5, -0.5)]
    rows = sc.frame_scan(kin, 1.0, betas)
    values = [f for _, f1, f2 in rows for f in (f1, f2)]
    assert max(values) - min(values) <= 1e-12
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_frame_scan_q_half_golden_deviation():
    # golden value frozen from the harness: F_CA at q=0.5, beta=0.5z
    kin = generic_kinematics()
    rows = sc.frame_scan(kin, 0.5, [sc.Boost([0, 0, 0]), sc.Boost([0, 0, 0.5])])
    assert rows[0][1] == pytest.approx(0.75, abs=1e-14)
    assert rows[1][1] == pytest.approx(0.816691436854859, abs=1e-12)
    assert abs(rows[1][1] - 0.75) > 0.01


def test_frame_scan_reflection_symmetry():
    # all momenta lie in the x-z plane, so reflecting y -> -y maps the
    # boost to its negative while fixing the kinematics: F must agree
    kin = sc.cm_elastic_kinematics(2.0, np.pi / 2, M)
    rows = sc.frame_scan(kin, 0.5, [sc.Boost([0, 0.4, 0]), sc.Boost([0, -0.4, 0])])
    assert rows[0][1] == pytest.approx(rows[1][1], abs=1e-12)
    assert rows[0][2] == pytest.approx(rows[1][2], abs=1e-12)


def test_frame_scan_electron_line():
    kin = sc.cm_annihilation_kinematics(2.0, 1.0, M)
    rows = sc.frame_scan(kin, 0.5, [sc.Boost([0, 0, 0])], sc.ELECTRON_LINE)
    assert rows[0][1] == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------- the amplitude tensor reference

SPINS = tuple(product((1, 2), repeat=4))


def moller_tensor(kin, q, strict_paper_mode=False):
    """All 16 tree Moller amplitudes at once, M[rA-1, rB-1, rC-1, rD-1]:
    the spinors of both spins of each leg give the currents
    J[mu, s_out, s_in], which the metric contracts in pairs."""
    def current(out, inc):
        gam = np.asarray(dirac._GAMMA)
        return np.einsum("ai,mij,bj->mab", out.conj() @ gam[0], gam, inc)

    m = kin.masses[0]
    t_direct, t_exchange = sc._moller_transfers(kin, strict_paper_mode)
    F_CA, F_DA = sc.photon_correction_pair(kin, q)
    uA, uB, uC, uD = (np.asarray(dirac._spinors(p, m, "u")) for p in kin.legs)
    metric = np.diag(dirac.METRIC)
    with np.errstate(all="ignore"):
        direct = np.einsum("m,mca,mdb->abcd", metric,
                           current(uC, uA), current(uD, uB))
        exchange = np.einsum("m,mda,mcb->abcd", metric,
                             current(uD, uA), current(uC, uB))
        amps = q * (direct * F_CA / t_direct - exchange * F_DA / t_exchange)
    if not np.isfinite(amps).all():
        raise NumericOverflowError(f"Moller amplitudes overflow at m={m}")
    return amps


def amplitude_tolerance(kin, amps):
    """moller_amplitude's stated tolerance: 1e-14 kappa max |M|, with
    kappa = E_max^2 / (A.B)."""
    emax = max(p[0] for p in kin.legs)
    kappa = emax * emax / minkowski_dot(kin.legs[0], kin.legs[1])
    return 1e-14 * kappa * float(np.max(np.abs(amps)))


def assert_amplitudes_match(kin, q, strict, amps):
    """Each library amplitude within its stated tolerance of amps."""
    tol = amplitude_tolerance(kin, amps)
    for spins in SPINS:
        got = sc.moller_amplitude(kin, spins, q, strict)
        assert abs(got - amps[tuple(r - 1 for r in spins)]) <= tol, spins


def per_spin_moller(kin, spins, q, strict_paper_mode=False):
    """The amplitude one spin assignment at a time, from four spinors."""
    pA, pB, pC, pD = map(np.array, kin.legs)
    m = kin.masses[0]
    uA, uB, uC, uD = (dirac.u_spinor(p, r, m)
                      for p, r in zip((pA, pB, pC, pD), spins))
    t_direct = mass2(pC - pA)
    t_exchange = mass2(pB - pA if strict_paper_mode else pD - pA)
    F_CA = sc.correction_factor(pA[0], pC[0], pA[1:], pC[1:], q, sc.PHOTON_LINE)
    F_DA = sc.correction_factor(pA[0], pD[0], pA[1:], pD[1:], q, sc.PHOTON_LINE)
    direct = minkowski_dot(current_four_vector(uC, uA),
                           current_four_vector(uD, uB))
    exchange = minkowski_dot(current_four_vector(uD, uA),
                             current_four_vector(uC, uB))
    return q * (direct * F_CA / t_direct - exchange * F_DA / t_exchange)


def trace_spin_sum(kin, q, strict_paper_mode=False):
    """Sum over spins of |M|^2 by Dirac traces of (pslash + m)/2m."""
    pA, pB, pC, pD = map(np.array, kin.legs)
    m = kin.masses[0]
    a, b, c, d = (dirac.theta_projector(p, 1, m) for p in (pA, pB, pC, pD))
    g = np.array([dirac.gamma(mu) for mu in range(4)])
    low = g * np.diag(dirac.METRIC)[:, None, None]

    def tr2(x, y, gam):  # Tr[x gam^mu y gam^nu] as (mu, nu)
        return np.einsum("uij,vji->uv", x @ gam, y @ gam)

    direct = np.sum(tr2(c, a, g) * tr2(d, b, low)).real
    exchange = np.sum(tr2(d, a, g) * tr2(c, b, low)).real
    # Tr[c g^mu a g^nu d g_mu b g_nu]
    cross = np.einsum("uij,vjk,ukl,vli->", c @ g @ a, g @ d, low @ b, low).real
    t = mass2(pC - pA)
    u = mass2(pB - pA if strict_paper_mode else pD - pA)
    f1, f2 = sc.photon_correction_pair(kin, q)
    c1, c2 = q * f1 / t, q * f2 / u
    return c1 * c1 * direct + c2 * c2 * exchange - 2.0 * c1 * c2 * cross


def moller_cases():
    rng = np.random.default_rng(11)
    for i in range(24):
        m = rng.uniform(0.5, 2.0)
        kin = sc.cm_elastic_kinematics(m * rng.uniform(1.2, 3.0),
                                       rng.uniform(0.3, 2.8), m,
                                       rng.uniform(0.0, 2 * np.pi))
        if i % 3:
            kin = kin.boosted(sc.Boost(rng.uniform(-0.5, 0.5, 3)))
        yield kin, rng.uniform(-1.5, 2.0), bool(i % 2)


def test_moller_tensor_matches_per_spin_amplitudes():
    for kin, q, strict in moller_cases():
        amps = moller_tensor(kin, q, strict)
        assert amps.shape == (2, 2, 2, 2)
        scale = np.max(np.abs(amps))
        per_spin_total = 0.0
        for spins in SPINS:
            want = per_spin_moller(kin, spins, q, strict)
            per_spin_total += abs(want) ** 2
            assert abs(amps[tuple(r - 1 for r in spins)] - want) <= 1e-12 * scale
        assert_amplitudes_match(kin, q, strict, amps)
        total = sc.moller_spin_summed(kin, q, strict)
        assert total == pytest.approx(per_spin_total, rel=1e-12)
        assert total == pytest.approx(trace_spin_sum(kin, q, strict), rel=1e-12)


def test_moller_amplitude_validates_spins():
    kin = generic_kinematics()
    for spins in [(0, 1, 1, 1), (1, 1, 1, 3)]:
        with pytest.raises(ValueError):
            sc.moller_amplitude(kin, spins, 0.5)
    for r in (0, 3):
        with pytest.raises(ValueError):
            lorentz.reduced_spinor(kin.legs[0], M, r)


def test_boosted_kinematics_match_leg_by_leg_boost():
    kin = generic_kinematics()
    b = sc.Boost([0.2, -0.3, 0.4])
    kb = kin.boosted(b)
    for got, p in zip(kb.legs, kin.legs):
        assert got == b.apply(p)


def test_photon_correction_pair_is_frame_scan_row():
    kin = sc.cm_elastic_kinematics(2.0, 1.0, M)
    b = sc.Boost([0.1, 0.0, 0.4])
    (_, f1, f2), = sc.frame_scan(kin, 0.3, [b])
    assert (f1, f2) == sc.photon_correction_pair(kin.boosted(b), 0.3)


def test_superluminal_check_shared():
    for beta in ([0.0, 0.6, 0.8], [1.2, 0.0, 0.0]):
        for build in (sc.Boost, lorentz.boost_rows, dirac.spinor_boost_matrix):
            with pytest.raises(SuperluminalError):
                build(beta)


# ------------------------------------------- the closed form, whole domain

def condition_number(kin, strict_paper_mode):
    """kappa of moller_spin_summed's docstring: (E_max/m)^2 (m^2/|t| + m^2/|u|)."""
    pA, pB, pC, pD = map(np.array, kin.legs)
    m = kin.masses[0]
    t = mass2(pC - pA)
    u = mass2((pB if strict_paper_mode else pD) - pA)
    emax = max(p[0] for p in kin.legs)
    # multiplied out so that it is finite where E_max/m squared is not
    return emax * (emax / abs(t)) + emax * (emax / abs(u)), emax / m


def unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


def test_moller_spin_summed_log_grid():
    """E/m - 1 in [1e-3, 1e3], m in [1e-2, 1e2], |beta| up to 1 - 1e-6 and
    theta down to where TRANSFER_GUARD trips; q at the fermionic, trivial
    and bosonic points, inside and outside [-1, 1]; both modes.  The 16
    library amplitudes are each within their stated tolerance of the
    tensor reference."""
    direction = unit([0.3, -0.5, 0.8])
    evaluated = tripped = 0
    for x, m, speed, theta in product(np.logspace(-3, 3, 4), (1e-2, 1.0, 1e2),
                                      (0.0, 0.9, 1 - 1e-6), (2.5, 1e-2, 1e-7)):
        kin = sc.cm_elastic_kinematics(m * (1 + x), theta, m, 0.7)
        if speed:
            kin = kin.boosted(sc.Boost(speed * direction))
        for q, strict in product((-1.0, 0.0, 1.0, 0.37, 2.5, -3.0),
                                 (False, True)):
            try:
                amps = moller_tensor(kin, q, strict)
            except DegenerateTransferError:
                with pytest.raises(DegenerateTransferError):
                    sc.moller_spin_summed(kin, q, strict)
                with pytest.raises(DegenerateTransferError):
                    sc.moller_amplitude(kin, (1, 2, 2, 1), q, strict)
                tripped += 1
                continue
            assert_amplitudes_match(kin, q, strict, amps)
            got = sc.moller_spin_summed(kin, q, strict)
            kappa, emax_m = condition_number(kin, strict)
            want = float(np.sum(np.abs(amps) ** 2))
            assert abs(got - want) <= 1e-13 * kappa * want
            traced = trace_spin_sum(kin, q, strict)
            assert abs(got - traced) <= 1e-13 * kappa * emax_m ** 2 * want
            evaluated += 1
    assert evaluated > 1000 and tripped > 50


def mpmath_moller_amplitudes(kin, q, strict_paper_mode, mp):
    """The 16 amplitudes {spins: M} at the float legs in 40-digit
    arithmetic: spinors n (chi_r, sigma.p chi_r/(E+m)) and the currents
    ubar gamma^mu u from the gamma matrices entry by entry."""
    with mp.workdps(40):
        m, q = mp.mpf(kin.masses[0]), mp.mpf(q)
        legs = [[mp.mpf(x) for x in p] for p in kin.legs]
        gam = [[[mp.mpc(complex(x)) for x in row] for row in g]
               for g in dirac._GAMMA]
        sig = [[[mp.mpc(complex(x)) for x in row] for row in s]
               for s in dirac._SIGMA]

        def spinor(p, r):
            chi = (1, 0) if r == 1 else (0, 1)
            lower = [sum(p[k + 1] * sig[k][i][j] * chi[j]
                         for k in range(3) for j in range(2)) / (p[0] + m)
                     for i in range(2)]
            n = mp.sqrt((p[0] + m) / (2 * m))
            return [n * x for x in (*chi, *lower)]

        def current(out, inc):
            bar = [sum(mp.conj(out[i]) * gam[0][i][j] for i in range(4))
                   for j in range(4)]
            return [sum(bar[i] * g[i][j] * inc[j]
                        for i in range(4) for j in range(4)) for g in gam]

        def dot(p, k):
            return p[0] * k[0] - p[1] * k[1] - p[2] * k[2] - p[3] * k[3]

        def transfer(x, a):
            d = [xi - ai for xi, ai in zip(x, a)]
            return dot(d, d)

        def factor(pin, pout):
            dp = mp.sqrt(sum((a - b) ** 2 for a, b in zip(pin[1:], pout[1:])))
            return ((1 + q) + (1 - q) * (pin[0] - pout[0]) / dp) / 2

        A, B, C, D = legs
        u = [{r: spinor(p, r) for r in (1, 2)} for p in legs]
        t_direct = transfer(C, A)
        t_exchange = transfer(B if strict_paper_mode else D, A)
        c1 = q * factor(A, C) / t_direct
        c2 = q * factor(A, D) / t_exchange
        J = {(o, i): {(ro, ri): current(u[o][ro], u[i][ri])
                      for ro in (1, 2) for ri in (1, 2)}
             for o, i in ((2, 0), (3, 1), (3, 0), (2, 1))}
        return {(rA, rB, rC, rD): complex(
            c1 * dot(J[2, 0][rC, rA], J[3, 1][rD, rB])
            - c2 * dot(J[3, 0][rD, rA], J[2, 1][rC, rB]))
            for rA, rB, rC, rD in SPINS}


def test_moller_amplitude_against_mpmath():
    """On the log grid's kinematics, each of the 16 amplitudes is within
    1e-14 kappa |M|_max of M evaluated exactly at the float legs."""
    mp = pytest.importorskip("mpmath")
    direction = unit([0.3, -0.5, 0.8])
    evaluated = 0
    for i, (x, m, speed, theta) in enumerate(product(
            np.logspace(-3, 3, 4), (1e-2, 1e2), (0.0, 0.9, 1 - 1e-6),
            (2.5, 1e-2, 1e-7))):
        kin = sc.cm_elastic_kinematics(m * (1 + x), theta, m, 0.7)
        if speed:
            kin = kin.boosted(sc.Boost(speed * direction))
        q, strict = ((0.37, False), (-3.0, True), (-1.0, False))[i % 3]
        try:
            sc.moller_spin_summed(kin, q, strict)
        except DegenerateTransferError:
            continue
        want = mpmath_moller_amplitudes(kin, q, strict, mp)
        tol = amplitude_tolerance(kin, np.array(list(want.values())))
        for spins, value in want.items():
            got = sc.moller_amplitude(kin, spins, q, strict)
            assert abs(got - value) <= tol, (kin.legs, q, spins)
        evaluated += 1
    assert evaluated >= 50


def test_frame_scan_rows_near_light_speed():
    elastic = sc.cm_elastic_kinematics(3.0, 0.4, M)
    annihilation = sc.cm_annihilation_kinematics(3.0, 0.4, M)
    boosts = [sc.Boost(s * unit(v)) for s in (0.5, 0.999, 1 - 1e-6)
              for v in ([0, 0, 1], [1, 0, 0], [-0.3, 0.6, -0.7])]
    for kin, flavor, pair in (
            (elastic, sc.PHOTON_LINE, sc.photon_correction_pair),
            (annihilation, sc.ELECTRON_LINE, sc.annihilation_correction_pair)):
        for q in (-1.0, 0.5, 2.5):
            rows = sc.frame_scan(kin, q, boosts, flavor)
            for b, (beta, f1, f2) in zip(boosts, rows):
                assert beta == b.beta
                assert (f1, f2) == pair(kin.boosted(b), q)


def test_moller_spin_summed_error_parity():
    """At degenerate and extreme inputs the closed form raises what the
    amplitude tensor raises, and nothing untyped; where the tensor's
    spinors overflow it may instead return a finite sum.  The 16 library
    amplitudes raise what the closed form raises, or NumericOverflowError
    only where the sum overflows, and up to E/m = 1e180 their |M|^2 sum
    to it within its stated tolerance."""
    seen, reach = set(), 0.0
    for m, energy, theta, q, beta in product(
            (0.0, 1e-200, 1e-100, 1e-30, 1.0, 1e100),
            (1.5, 1e30, 1e100, 1e150, 1e200), (0.0, 1.0), (0.5, -3.0),
            (None, [0.0, 0.0, 0.9])):
        try:
            kin = sc.cm_elastic_kinematics(max(energy, 1.5 * m), theta, m)
            if beta:
                kin = kin.boosted(sc.Boost(beta))
        except QFieldError as exc:
            seen.add(("kinematics", type(exc)))
            continue
        try:
            amps = moller_tensor(kin, q)
            with np.errstate(over="ignore"):
                total = float(np.sum(np.abs(amps) ** 2))
            want = None if np.isfinite(total) else NumericOverflowError
        except QFieldError as exc:
            want = type(exc)
        try:
            # abs(x) * abs(x): a float ** 2 raises OverflowError
            library = sum(abs(a) * abs(a) for a in (
                sc.moller_amplitude(kin, spins, q) for spins in SPINS))
        except QFieldError as exc:
            library = type(exc)
        try:
            got = sc.moller_spin_summed(kin, q)
            assert want in (None, NumericOverflowError) and np.isfinite(got)
            kappa, emax_m = condition_number(kin, False)
            if want is None:
                assert abs(got - total) <= 1e-13 * kappa * total
            assert abs(got - library) <= 1e-13 * kappa * got
            reach = max(reach, emax_m)
        except QFieldError as exc:
            assert type(exc) is want
            assert library is want or (want is NumericOverflowError
                                       and library == np.inf)
        seen.add(("moller", want))
    assert seen >= {("kinematics", NumericOverflowError),
                    ("moller", ZeroMassError),
                    ("moller", DegenerateTransferError),
                    ("moller", NumericOverflowError), ("moller", None)}
    assert reach >= 1e179
