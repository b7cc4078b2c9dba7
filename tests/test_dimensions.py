"""Dimensional analysis of the field layers.

The theory is written in natural units and its only scale is the mass, so
scaling every mass and momentum by 2^k, and every length and time by
2^-k, scales a result of mass dimension d by 2^(k d).  A power of two
scales a binary float exactly, which makes this a cheap metamorphic test
(Chen, Cheung and Yiu, "Metamorphic testing", HKUST-CS98-01, 1998): over
k in [-500, 500] the two calls agree within the function's stated
tolerance, or raise the same error.  A point is skipped only at a k
where a scaled input leaves the float range, or where the scaled result,
or a square that omega forms, is not a normal float.
"""
import math
import sys

from qfield import dirac, lorentz, propagator as prop, scattering as sc
from qfield.errors import QFieldError
from qfield.lorentz import minkowski_dot, omega

# the order of lorentz._kk_over_m2: the upper triangle, row by row
UPPER = [(i, j) for i in range(4) for j in range(i, 4)]
EPS = sys.float_info.epsilon
TINY = math.ulp(0.0)
MIN_NORMAL = sys.float_info.min
KS = range(-500, 501)


def normal(x) -> bool:
    return MIN_NORMAL <= abs(x) < math.inf


def parts(values):
    for z in values:
        yield from (z.real, z.imag) if isinstance(z, complex) else (z,)


def flat(rows):
    return [x for row in rows for x in row]


def scaled_normal(values, shift: int) -> bool:
    """Whether each nonzero part of values times 2^shift is normal."""
    return all(x == 0.0 or -1021 <= math.frexp(x)[1] + shift <= 1024
               for x in parts(values))


def unscale(z, shift: int):
    if isinstance(z, complex):
        return complex(math.ldexp(z.real, -shift), math.ldexp(z.imag, -shift))
    return math.ldexp(z, -shift)


# ------------------------------------------------------------- the bounds
# Each returns the values of one call and an absolute bound on the error of
# each, as the function's docstring states it.

def scalar_bound(k0, kvec, m, q):
    """scalar_propagator_momentum's 4 eps (1 + w/|d| + w/|s|) S + ulp(0)."""
    w = omega(kvec, m)
    d, s = abs(k0 - w), abs(k0 + w)
    size = (1.0 / d + abs(q) / s) / (2.0 * w)
    return 4.0 * EPS * (1.0 + w / d + w / s) * size + TINY


def scalar(k, m, q):
    pv = prop.scalar_propagator_momentum(k, m, q)
    return [pv.value], [scalar_bound(k[0], k[1:], m, q)]


def spinor(k, m, q):
    """Each entry within (|N_ij|/2m)(B + 3 eps |D|) + ulp(0)(1 + |D|),
    N = m + pslash, B the scalar bound at -q."""
    pv = prop.spinor_propagator_momentum(k, m, q)
    d = abs(prop.scalar_propagator_momentum(k, m, -q).value)
    b = scalar_bound(k[0], k[1:], m, -q)
    n = [abs(x + m * (i == j)) for i, row in enumerate(dirac.slash(k))
         for j, x in enumerate(row)]
    return flat(pv.value), [x / (2 * m) * (b + 3 * EPS * d) + TINY * (1 + d)
                            for x in n]


def photon(k, m, q):
    """Each entry within |t_ij| B + |D| (eps |t_ij| + 2 eps K_ij
    + ulp(0)(1 + K_ij)/m^2) + ulp(0), t = g - k k/m^2, K_ij = |k_i k_j|/m^2
    (the docstring has 3 ulp(0) + U_ij for ulp(0)(1 + K_ij)/m^2, and U_ij
    is 0 at every point below)."""
    pv = prop.photon_propagator_momentum(k, m, q)
    d = abs(prop.scalar_propagator_momentum(k, m, q).value)
    b = scalar_bound(k[0], k[1:], m, q)
    if m > 0.0:  # K_ij as the library forms it
        kks = dict(zip(UPPER, lorentz._kk_over_m2(k, m)))
    bounds = []
    for i, a in enumerate(k):
        for j, c in enumerate(k):
            g = (i == j) * (1.0 if i == 0 else -1.0)
            if m > 0.0:
                kk = kks[min(i, j), max(i, j)]
                big, t = abs(kk), abs(g - kk)
                sub = TINY * (1 + big) / (m * m)
            else:
                t, big, sub = abs(g), 0.0, 0.0
            bounds.append(t * b + d * (EPS * t + 2 * EPS * big + sub) + TINY)
    return flat(pv.value), bounds


def residues(kvec, m, q):
    w = omega(kvec, m)
    got = prop.pole_residues(kvec, m, q)
    return list(got), [1e-14 / (2 * w), 1e-14 * abs(q) / (2 * w)]


def position(pv):
    return [pv.value], [pv.quad_error]


def spinor_of(fn):
    """Each part within 3 eps of its modulus + n ulp(0), n the norm."""
    def call(p, m, r):
        comps = fn(p, r, m).components
        norm = math.sqrt((p[0] + m) / (2 * m))
        return list(comps), [math.sqrt(2.0) * (3 * EPS * abs(c) + norm * TINY)
                             for c in comps]
    return call


def projector(p, m, sign):
    got = flat(dirac.theta_projector(p, sign, m))
    return got, [math.sqrt(2.0) * (1.5 * EPS * abs(c) + TINY) for c in got]


def spin_sum(p, m, kind):
    got = flat(dirac.spin_sum(p, m, kind))
    return got, [8 * EPS * (p[0] + m) / m] * len(got)


def polarizations(p, m):
    vecs = dirac.polarization_vectors(p, m)
    bounds = [16 * EPS] * 8 + [3 * EPS * abs(x) + TINY for x in vecs[2]]
    return flat(vecs), bounds


def polarization_sum(p, m):
    got = flat(dirac.polarization_sum(p, m))
    return got, [80 * EPS * (1 + (p[0] / m) ** 2)] * len(got)


def polarization_closed(p, m):
    got = flat(dirac.polarization_sum_closed_form(p, m))
    pp = [abs(a * b) / (m * m) for a in p for b in p]
    return got, [2 * EPS * x + 0.5 * EPS * abs(g) + 2.0 ** -1073
                 for x, g in zip(pp, got)]


def factor_bound(e_in, e_out, pin, pout, q, flavor):
    """correction_factor's 2 eps (|1 + q| + |1 - q| |r|)."""
    r = (e_in - e_out) / math.hypot(*(a - b for a, b in zip(pin, pout)))
    a, b = (1 + q, 1 - q) if flavor == sc.PHOTON_LINE else (1 - q, 1 + q)
    return 2 * EPS * (abs(a) + abs(b) * abs(r))


def factor(e_in, e_out, pin, pout, q, flavor):
    got = sc.correction_factor(e_in, e_out, pin, pout, q, flavor)
    return [got], [factor_bound(e_in, e_out, pin, pout, q, flavor)]


def cm(make):
    """make(E, theta, m)'s legs and masses, each within 2 eps E^2/(E^2 - m^2)
    + eps of it relative: the bound on |p| (scattering._cm_frame), and the
    rounding of |p| times a direction cosine."""
    def call(energy, theta, m):
        kin = make(energy, theta, m)
        got = [*flat(kin.legs), *kin.masses]
        rel = EPS * (2 / (1 - (m / energy) ** 2) + 1)
        return got, [rel * abs(x) for x in got]
    return call


def frame_scan(kin, q, boosts, flavor):
    rows = sc.frame_scan(kin, q, boosts, flavor)
    values, bounds = [], []
    for b, (beta, f1, f2) in zip(boosts, rows):
        assert beta == b.beta
        # both flavors pair the first leg with the third and the fourth
        pa, _, pc, pd = kin.boosted(b).legs
        values += [f1, f2]
        bounds += [factor_bound(pa[0], p[0], pa[1:], p[1:], q, flavor)
                   for p in (pc, pd)]
    return values, bounds


SPINS = [(a, b, c, d) for a in (1, 2) for b in (1, 2) for c in (1, 2)
         for d in (1, 2)]


def moller(kin, q, strict):
    """The 16 amplitudes, within 1e-14 E_max^2/(A.B) max|M| each."""
    amps = [sc.moller_amplitude(kin, s, q, strict) for s in SPINS]
    emax = max(p[0] for p in kin.legs)
    kappa = emax * (emax / minkowski_dot(kin.legs[0], kin.legs[1]))
    return amps, [1e-14 * kappa * max(map(abs, amps))] * len(amps)


def moller_sum(kin, q, strict):
    """Within 1e-13 (E_max/m)^2 (m^2/|t| + m^2/|u|) relative."""
    got = sc.moller_spin_summed(kin, q, strict)
    a, b, c, d = kin.legs
    emax = max(p[0] for p in kin.legs)
    kappa = 0.0
    for x in (c, b if strict else d):
        # E_max^2/|v.v| for v = x - A over its largest component, so that
        # it is finite where v.v or E_max^2 under- or overflows
        v = [xi - ai for xi, ai in zip(x, a)]
        s = max(map(abs, v))
        r, w = emax / s, [vi / s for vi in v]
        kappa += r * r / abs(minkowski_dot(w, w))
    return [got], [1e-13 * kappa * abs(got)]


def kinematics(fn):
    """fn of the ProcessKinematics of the legs and masses, built inside the
    call, so that an off-shell leg raises there."""
    def call(legs, masses, *rest):
        return fn(sc.ProcessKinematics(legs[:2], legs[2:], masses), *rest)
    return call


# ------------------------------------------------------------- the points

def leg(pvec, m):
    return dirac.onshell_momentum(pvec, m)


OMEGA = omega((0.3, -0.2, 0.9), 1.0)
NEAR_PLUS = (OMEGA + math.ldexp(OMEGA, -30), 0.3, -0.2, 0.9)  # near k0 = +w
NEAR_MINUS = (-OMEGA + math.ldexp(OMEGA, -40), 0.3, -0.2, 0.9)  # near k0 = -w
ON_POLE = (OMEGA, 0.3, -0.2, 0.9)
GENERIC = (0.3, 0.2, 0.0, 0.1)
TINY_MASS = (1e-6, 0.0, 0.0, 0.0)  # at m = 3e-6
LEG = leg((0.4, -0.2, 0.9), 1.0)
FAST = leg((3.0, 40.0, -7.0), 0.5)
REST = (1.0, 0.0, 0.0, 0.0)
OFF = (1.0, 0.0, 0.0, 0.0)  # E = m/3 at m = 3
NEAR_OFF = (LEG[0] * (1 + 1e-6), *LEG[1:])
CONE = 1.3 * (1 + 2.0 ** -30)  # r or t next to 1.3, the light cone
BOOSTS = [sc.Boost(b) for b in ((0.0, 0.0, 0.0), (0.1, 0.0, 0.4),
                                (0.0, -0.9, 0.0), (0.3, 0.5, -0.6))]


def elastic(energy, theta, m, beta=None):
    kin = sc.cm_elastic_kinematics(energy, theta, m)
    # the legs turned by 0.7 about z, out of the xz-plane
    c, s = math.cos(0.7), math.sin(0.7)
    legs = [(e, x * c - y * s, x * s + y * c, z) for e, x, y, z in kin.legs]
    kin = sc.ProcessKinematics(legs[:2], legs[2:], kin.masses)
    if beta:
        kin = kin.boosted(sc.Boost(beta))
    return [kin.legs, kin.masses]


ANNIHILATION = sc.cm_annihilation_kinematics(2.0, 1.0, 1.0)
ANNIHILATION = [ANNIHILATION.legs, ANNIHILATION.masses]
OFF_LEGS = [((2.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, -1.0),
             (2.0, 1.0, 0.0, 0.0), (2.0, -1.0, 0.0, 0.0)), (1.0,) * 4]
PIN = (1.0, 0.5, 0.2)
NEAR_PIN = (1.0 + 2.0 ** -30, 0.5, 0.2)


def abnormal_square(values) -> bool:
    return not all(x == 0.0 or normal(x * x) for x in values)


def momentum_squares(k, m, *_):
    """Whether a square omega forms, of kvec or of m, is not normal."""
    return abnormal_square((*k[1:], m))


def residue_squares(kvec, m, *_):
    return abnormal_square((*kvec, m))


# (name, mass dimension, call, arguments, the dimension of each argument,
# whether to skip the scaled arguments)
CASES = []
for k, m, q in ((GENERIC, 1.0, 0.5), (NEAR_PLUS, 1.0, 0.5),
                (NEAR_MINUS, 1.0, -0.7), (ON_POLE, 1.0, 0.5),
                (TINY_MASS, 3e-6, 0.5), (NEAR_PLUS, 1.0, -1.0)):
    for fn in (scalar, spinor, photon):
        CASES.append((fn.__name__, -2, fn, (k, m, q), (1, 1, 0),
                      momentum_squares))
# k^2 - m^2 overflows, D = 2.5e-156 does not
FAR = (1e155, 0.0, 0.0, 0.0)
CASES += [("scalar", -2, scalar, (FAR, 1.0, 0.5), (1, 1, 0),
           momentum_squares),
          ("spinor", -2, spinor, (FAR, 1.0, 0.5), (1, 1, 0),
           momentum_squares),
          ("photon", -2, photon, ((1e155, 1.0, 0.0, 0.0), 0.0, 0.5),
           (1, 1, 0), momentum_squares),
          # k0 k0 = 1e310 overflows, the 00 entry -2.5e148 does not
          ("photon", -2, photon, (FAR, 100.0, 0.5), (1, 1, 0),
           momentum_squares),
          # k0 = 1e300 leaves the float range from k = 28 on
          ("scalar", -2, scalar, ((1e300, 0.0, 0.0, 0.0), 1.0, 0.5),
           (1, 1, 0), momentum_squares)]
CASES += [("scalar", -2, scalar, (GENERIC, -1.0, 0.5), (1, 1, 0),
           momentum_squares),
          ("photon", -2, photon, ((0.5, 1.0, 0.0, 0.0), 0.0, -1.0),
           (1, 1, 0), momentum_squares)]
for kvec, m, q in (((0.0, 0.0, 0.0), 1.0, 0.5), ((1.0, 0.5, 0.0), 2.0, -0.7),
                   ((0.3, -0.2, 0.9), 0.5, 1.2), ((0.0, 0.0, 0.0), 1e-4, 0.5),
                   ((0.3, 0.0, 0.0), -1.0, 0.5)):
    CASES.append(("pole_residues", -1, residues, (kvec, m, q), (1, 1, 0),
                  residue_squares))
for t, r, m, q in ((2.0, 0.5, 1.0, 0.5), (0.5, 2.0, 1.0, -0.7),
                   (-1.3, CONE, 1.0, 0.5), (CONE, 1.3, 1.0, 1.5),
                   (-CONE, 1.3, 0.0, 0.5), (1e-13, 1e-14, 1.0, 0.5),
                   (2.0, 0.5, 0.0, 0.5), (1.0, 1.0, 1.0, 0.5),
                   (1e15, 1.0, 1.0, 0.5),
                   # zeta^2 = -1.4e309 overflows, W = -1e-305 + 2.5e-307i
                   # does not
                   (-2.0874101e157, 2.0874068e157, 2.1e-143, 0.5)):
    CASES.append(("causal_position", 2,
                  lambda *a: position(prop.causal_position(*a)),
                  (t, r, m, q), (-1, -1, 1, 0), None))
# zeta^2 = 9e-314 is subnormal: W came out 1.3e-10 relative off, past
# its bound of 6.5e-13
for r, m in ((0.7, 1.0), (0.7, 0.0), (30.0, 1.0), (3e-157, 4e157)):
    CASES += [("delta_plus_equal_time", 2,
               lambda *a: position(prop.delta_plus_equal_time(*a)),
               (r, m), (-1, 1), None),
              ("spacelike_q_commutator", 2,
               lambda *a: position(prop.spacelike_q_commutator(*a)),
               (r, m, 0.5), (-1, 1, 0), None)]
for p, m in ((LEG, 1.0), (FAST, 0.5), (REST, 1.0), (OFF, 3.0),
             (NEAR_OFF, 1.0)):
    for r in (1, 2):
        CASES += [("u_spinor", 0, spinor_of(dirac.u_spinor), (p, m, r),
                   (1, 1, 0), None),
                  ("charge_conjugate_spinor", 0,
                   spinor_of(lambda *a: dirac.charge_conjugate_spinor(
                       dirac.u_spinor(*a))), (p, m, r), (1, 1, 0), None)]
    for name, fn, extra in (("theta_projector", projector, (1,)),
                            ("theta_projector", projector, (-1,)),
                            ("spin_sum", spin_sum, ("u",)),
                            ("spin_sum", spin_sum, ("v",)),
                            ("polarization_vectors", polarizations, ()),
                            ("polarization_sum", polarization_sum, ()),
                            ("polarization_sum_closed_form",
                             polarization_closed, ())):
        CASES.append((name, 0, fn, (p, m, *extra), (1, 1) + (0,) * len(extra),
                      None))
for args in ((3.0, 2.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.5),
             (1.3, 1.3 + 1e-9, PIN, NEAR_PIN, 0.5),
             (1.3, 1.2, PIN, NEAR_PIN, -3.0),
             (1.3, 1.2, PIN, PIN, 0.5)):
    for flavor in (sc.PHOTON_LINE, sc.ELECTRON_LINE):
        CASES.append(("correction_factor", 0, factor, (*args, flavor),
                      (1, 1, 1, 1, 0, 0), None))
for kin, flavor in ((elastic(2.0, 1.0, 1.0), sc.PHOTON_LINE),
                    (elastic(2.0, 1e-6, 1.0), sc.PHOTON_LINE),
                    (ANNIHILATION, sc.ELECTRON_LINE)):
    CASES.append(("frame_scan", 0, kinematics(frame_scan),
                  (*kin, 0.5, BOOSTS, flavor), (1, 1, 0, 0, 0), None))
for kin, q, strict in ((elastic(2.0, 1.0, 1.0), 0.5, False),
                       (elastic(1.1, 2.5, 1.0, (0.3, -0.2, 0.5)), -3.0, True),
                       (elastic(2.0, 1e-6, 1.0), 0.5, False),
                       (elastic(50.0, 1e-3, 1.0, (0.0, 0.0, 0.9)), 1.5,
                        False),
                       (elastic(2.0, 0.0, 1.0), 0.5, False),
                       (OFF_LEGS, 0.5, False)):
    for name, d, fn in (("moller_amplitude", -2, moller),
                        ("moller_spin_summed", -4, moller_sum)):
        CASES.append((name, d, kinematics(fn), (*kin, q, strict),
                      (1, 1, 0, 0), None))

# E^2 - m^2 is not a normal float at the low k of the 1e-150 points, and
# cancels near threshold
for energy, theta, m in ((2.0, 1.0, 1.0), (2e-150, 1.0, 1e-150),
                         (1e-150 * (1 + 2.0 ** -20), 2.5, 1e-150),
                         (2e-150, 0.3, 0.0), (2e150, 0.5, 1e150)):
    for make in (sc.cm_elastic_kinematics, sc.cm_annihilation_kinematics):
        CASES.append((make.__name__, 1, cm(make), (energy, theta, m),
                      (1, 0, 1), None))


def scale(x, e: int):
    if e == 0:
        return x
    if isinstance(x, (tuple, list)):
        return type(x)(scale(y, e) for y in x)
    return math.ldexp(x, e)


def attempt(fn, args):
    """(values, bounds), or the type of the exception fn raised."""
    try:
        return fn(*args)
    except (QFieldError, ValueError) as exc:
        return type(exc)


def mismatch(name, d, fn, args, dims, skip) -> str | None:
    """The first k at which the scaled call breaks the scaling law."""
    base = attempt(fn, args)
    for k in KS:
        try:
            scaled = [scale(a, e * k) for a, e in zip(args, dims)]
        except OverflowError:  # ldexp past the largest float
            continue
        if skip and skip(*scaled):
            continue
        if not isinstance(base, type) and not scaled_normal(base[0], k * d):
            continue
        got = attempt(fn, scaled)
        if isinstance(base, type) or isinstance(got, type):
            if got is not base:
                return f"k={k}: {got} where k=0 gives {base}"
            continue
        for a, ta, b, tb in zip(*base, *got):
            try:
                ok = abs(a - unscale(b, k * d)) <= ta + math.ldexp(tb, -k * d)
            except OverflowError:
                ok = False
            if not ok:
                return f"k={k}: {b} * 2^{-k * d} against {a}"
    return None


def test_results_scale_with_their_mass_dimension():
    failures = {}
    for case in CASES:
        found = mismatch(*case)
        if found:
            failures.setdefault(case[0], []).append(f"{case[3]}: {found}")
    assert not failures, "\n".join(f"{name}: {msgs}"
                                   for name, msgs in failures.items())
