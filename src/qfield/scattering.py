"""Tree-level QED probes of the q-deformed propagators.

Moller scattering with a q-corrected photon exchange, e+ e- -> 2 gamma
with a q-corrected internal electron line, and boost scans exhibiting
the frame dependence of the correction factors.

The correction factors multiply the usual 1/(transfer)^2 denominators:

    photon line:    F = (1/2) [ (1+q) + (1-q) (E_in - E_out)/|dpvec| ]

written as a half-sum so q = -+1 needs no special-casing.  The electron
line's factor is the photon line's at -q, as the spinor propagator's
scalar factor is the scalar one at -q.  Energies and
3-momenta are taken in the current working frame, which is exactly what
makes the factors frame dependent for q != 1.

All of it is Python-float arithmetic on 4-tuples (``lorentz``); numpy and
``dirac`` are never loaded.  The CM constructors and
ProcessKinematics.boosted form float legs and hand them straight to the
on-shell and conservation checks, with no float-to-float conversion; the
CM constructors refuse only where E^2 overflows.  The spin-summed Moller
|M|^2 is the Dirac trace closed form in the legs' six dot products; one
spin assignment's amplitude contracts currents of the spinor basis
lorentz._reduced_spinor.
"""
from __future__ import annotations

import cmath
import math

from .errors import (DegenerateTransferError, NumericOverflowError,
                     OffShellError, Record, finite)
from .lorentz import (ONSHELL_RTOL, _at_scale, _check_mass,
                      _check_nonnegative_mass, _check_onshell, _check_spin,
                      _reduced_spinor, boost_rows, minkowski_dot)

PHOTON_LINE = "photon_line"
ELECTRON_LINE = "electron_line"


def _floats(values, name: str) -> tuple:
    """tuple(map(float, values)); NumericOverflowError for a number past the
    float range (an int), where float() raises OverflowError."""
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise NumericOverflowError(f"{name} is past the float range") \
            from None


class Boost(Record):
    """A Lorentz boost with velocity ``beta`` (a float 3-tuple once built);
    ``rows`` holds its 4x4 matrix as float 4-tuples (lorentz.boost_rows).
    Compared and printed by ``beta`` alone."""

    __slots__ = ("beta", "rows")
    _fields = ("beta",)

    def __init__(self, beta):
        self.beta = _floats(beta, "a component of beta")
        self.rows = boost_rows(self.beta)

    def apply(self, p) -> tuple:
        """The boosted four-vector, as a float 4-tuple; NonFiniteInputError
        for a non-finite component of p, NumericOverflowError where a
        boosted component overflows."""
        p0, p1, p2, p3 = p
        ((a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3),
         (d0, d1, d2, d3)) = self.rows
        out = (a0 * p0 + a1 * p1 + a2 * p2 + a3 * p3,
               b0 * p0 + b1 * p1 + b2 * p2 + b3 * p3,
               c0 * p0 + c1 * p1 + c2 * p2 + c3 * p3,
               d0 * p0 + d1 * p1 + d2 * p2 + d3 * p3)
        if not all(map(math.isfinite, out)):
            for x in p:
                finite(x, "component of p")
            raise NumericOverflowError(f"boosted four-vector {out} overflows")
        return out


class ProcessKinematics:
    """2 -> 2 kinematics with per-leg masses, validated on construction.

    ``legs`` holds the four-momenta A, B (in) and C, D (out) as float
    4-tuples, each on shell (lorentz._check_onshell), conserving
    four-momentum within 1e-10 of the larger incoming energy."""

    def __init__(self, incoming, outgoing, masses):
        self._validate(tuple(_floats(p, "a leg component")
                             for p in (*incoming, *outgoing)), tuple(masses))

    @classmethod
    def _of_float_legs(cls, legs: tuple, masses: tuple) -> "ProcessKinematics":
        """Kinematics of legs that are already float 4-tuples, checked as
        __init__ checks its converted legs."""
        return cls.__new__(cls)._validate(legs, masses)

    def _validate(self, legs: tuple, masses: tuple) -> "ProcessKinematics":
        """self, with these float 4-tuple legs checked (see the class doc)."""
        self.legs, self.masses = legs, masses
        for p, m in zip(legs, masses):
            _check_onshell(p, m)
        _check_conserved(legs)
        return self

    def boosted(self, b: Boost) -> "ProcessKinematics":
        """The legs boosted by b (Boost.apply: NumericOverflowError where a
        component overflows), then checked as on construction: OffShellError
        where a leg is off shell or four-momentum is not conserved."""
        # Boost.apply's expression term for term, so that each component is
        # the float b.apply(p) gives, formed for the four legs at once
        ((a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3),
         (d0, d1, d2, d3)) = b.rows
        ((p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3),
         (s0, s1, s2, s3)) = self.legs
        x = (a0 * p0 + a1 * p1 + a2 * p2 + a3 * p3,
             b0 * p0 + b1 * p1 + b2 * p2 + b3 * p3,
             c0 * p0 + c1 * p1 + c2 * p2 + c3 * p3,
             d0 * p0 + d1 * p1 + d2 * p2 + d3 * p3,
             a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3,
             b0 * q0 + b1 * q1 + b2 * q2 + b3 * q3,
             c0 * q0 + c1 * q1 + c2 * q2 + c3 * q3,
             d0 * q0 + d1 * q1 + d2 * q2 + d3 * q3,
             a0 * r0 + a1 * r1 + a2 * r2 + a3 * r3,
             b0 * r0 + b1 * r1 + b2 * r2 + b3 * r3,
             c0 * r0 + c1 * r1 + c2 * r2 + c3 * r3,
             d0 * r0 + d1 * r1 + d2 * r2 + d3 * r3,
             a0 * s0 + a1 * s1 + a2 * s2 + a3 * s3,
             b0 * s0 + b1 * s1 + b2 * s2 + b3 * s3,
             c0 * s0 + c1 * s1 + c2 * s2 + c3 * s3,
             d0 * s0 + d1 * s1 + d2 * s2 + d3 * s3)
        if not all(map(math.isfinite, x)):
            for p in self.legs:  # apply's error for the first bad leg
                b.apply(p)
        return ProcessKinematics._of_float_legs(
            (x[0:4], x[4:8], x[8:12], x[12:16]), self.masses)


def _check_conserved(legs: tuple):
    """OffShellError unless A + B = C + D within 1e-10 of max(a0, b0) in each
    component (nan fails); where a sum overflows, judged on the legs halved."""
    ((a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3),
     (d0, d1, d2, d3)) = legs
    t0, t1, t2, t3 = total = [(a0 + b0) - (c0 + d0), (a1 + b1) - (c1 + d1),
                              (a2 + b2) - (c2 + d2), (a3 + b3) - (c3 + d3)]
    tol = ONSHELL_RTOL * (b0 if b0 > a0 else a0)
    if not (abs(t0) <= tol >= abs(t1) and abs(t2) <= tol >= abs(t3)):
        if all(map(math.isfinite, total)):
            raise OffShellError(f"4-momentum not conserved: {total}")
        _check_conserved(tuple(tuple(0.5 * x for x in p) for p in legs))


def _cm_frame(energy: float, theta: float, m: float) -> tuple:
    """(E as a float, |p| of a leg of mass m and energy E, unit vector at
    theta in the xz-plane; its y is a zero with the sign of sin(theta)).

    |p| = sqrt(E - m) sqrt(E + m), within 1.5 eps relative of |p| at the
    float E and m (E - m is exact where m >= E/2).  ValueError unless
    E > m >= 0.  NumericOverflowError where E^2 overflows, although |p| is
    a float there: from about that E the Moller dot products overflow too
    (moller_spin_summed refuses), though |M|^2 is of order 1."""
    energy = _floats((energy,), "E")[0]
    if energy <= _check_nonnegative_mass(m):
        raise ValueError("need E > m")
    # an infinite E is refused below, as a leg that is not finite
    if energy * energy == math.inf > energy:
        raise NumericOverflowError(f"E^2 overflows at E={energy}")
    pmag = math.sqrt(energy - m) * math.sqrt(energy + m)
    # math.sin of an infinite angle raises ValueError; make it typed
    st = math.sin(finite(theta, "theta"))
    return energy, pmag, (st, st * 0.0, math.cos(theta))


def cm_elastic_kinematics(energy: float, theta: float,
                          m: float) -> ProcessKinematics:
    """Equal-mass elastic scattering in the CM frame along z, scatter by
    theta; |p| as _cm_frame forms it."""
    energy, pmag, (nx, ny, nz) = _cm_frame(energy, theta, m)
    pA = (energy, 0.0, 0.0, pmag)
    pB = (energy, 0.0, 0.0, -pmag)
    pC = (energy, pmag * nx, pmag * ny, pmag * nz)
    pD = (energy, -pmag * nx, -pmag * ny, -pmag * nz)
    return ProcessKinematics._of_float_legs((pA, pB, pC, pD), (m, m, m, m))


def cm_annihilation_kinematics(energy: float, theta: float,
                               m: float) -> ProcessKinematics:
    """e+ e- -> gamma gamma in the CM frame: massive in, massless out;
    |p| as _cm_frame forms it."""
    energy, pmag, (nx, ny, nz) = _cm_frame(energy, theta, m)
    pplus = (energy, 0.0, 0.0, pmag)
    pminus = (energy, 0.0, 0.0, -pmag)
    k1 = (energy, energy * nx, energy * ny, energy * nz)
    k2 = (energy, -energy * nx, -energy * ny, -energy * nz)
    return ProcessKinematics._of_float_legs((pplus, pminus, k1, k2),
                                            (m, m, 0.0, 0.0))


def correction_factor(E_in: float, E_out: float, pvec_in, pvec_out,
                      q: float, flavor: str) -> float:
    """q-dependent multiplicative factor on an internal line (see module
    doc; the electron line's is the photon line's at -q), within
    2 eps (|1 + q| + |1 - q| |r|) of it at the float inputs where |dpvec|
    is normal, r = (E_in - E_out)/|dpvec|; DegenerateTransferError only at
    |dpvec| = 0, ValueError for an unknown flavor, NonFiniteInputError for
    a non-finite input, NumericOverflowError where the factor overflows."""
    a1, a2, a3 = pvec_in
    b1, b2, b3 = pvec_out
    dp = math.hypot(a1 - b1, a2 - b2, a3 - b3)
    if dp == 0.0:
        raise DegenerateTransferError("vanishing 3-momentum transfer")
    ratio = (E_in - E_out) / dp
    if flavor not in (PHOTON_LINE, ELECTRON_LINE):
        raise ValueError(f"unknown flavor {flavor!r}")
    qf = q if flavor == PHOTON_LINE else -q
    value = 0.5 * ((1.0 + qf) + (1.0 - qf) * ratio)
    # an infinite transfer gives ratio 0 and a finite factor, so dp is
    # tested with the result
    if not (math.isfinite(value) and dp < math.inf):
        for x in (E_in, E_out, *pvec_in, *pvec_out, q):
            finite(x, "correction_factor input")
        raise NumericOverflowError(
            f"correction factor overflows at E_in={E_in}, E_out={E_out}")
    return value


def _correction_pair(kin: ProcessKinematics, q: float, flavor: str) -> tuple:
    """The factors of flavor on the lines from leg A to legs C and D."""
    a, _, c, d = kin.legs
    return (correction_factor(a[0], c[0], a[1:], c[1:], q, flavor),
            correction_factor(a[0], d[0], a[1:], d[1:], q, flavor))


def photon_correction_pair(kin: ProcessKinematics, q: float) -> tuple:
    """Photon-line factors (F_CA, F_DA) of the direct and exchange diagrams."""
    return _correction_pair(kin, q, PHOTON_LINE)


def _moller_transfers(kin: ProcessKinematics,
                      strict_paper_mode: bool) -> tuple:
    """(t, u) = ((C - A)^2, (D - A)^2), or (B - A)^2 for u in strict paper
    mode, after the checks the spinors make: ZeroMassError, OffShellError
    where the legs' masses differ (ProcessKinematics checked each leg on
    shell at its own mass), then DegenerateTransferError where t or u is
    exactly 0, the only transfer with no amplitude, also at the transfer
    scaled by a power of two; NumericOverflowError where t or u only
    underflows (legs below E ~ 1e-154), as 1/t and the amplitude overflow."""
    m = kin.masses[0]
    _check_mass(m)
    if kin.masses.count(m) != len(kin.masses):
        raise OffShellError(f"Moller legs need one mass, got {kin.masses}")
    (a0, a1, a2, a3), pB, (c0, c1, c2, c3), pD = kin.legs
    x0, x1, x2, x3 = pB if strict_paper_mode else pD
    tv = c0 - a0, c1 - a1, c2 - a2, c3 - a3
    uv = x0 - a0, x1 - a1, x2 - a2, x3 - a3
    t, u = minkowski_dot(tv, tv), minkowski_dot(uv, uv)
    if t == 0.0 or u == 0.0:
        for v in (tv, uv):  # judged again at 2^-e, an exact scaling
            s = _at_scale(max(map(abs, v)), v)[1]
            if minkowski_dot(s, s) == 0.0:
                raise DegenerateTransferError(
                    "vanishing squared 4-momentum transfer")
        raise NumericOverflowError(
            f"squared 4-momentum transfer underflows at m={m}: t={t}, u={u}")
    return t, u


def _current(out, inc) -> tuple:
    """ubar_out gamma^mu u_in of two lorentz._reduced_spinor 4-tuples."""
    a0, a1, b0, b1 = (x.conjugate() for x in out)
    c0, c1, d0, d1 = inc
    return (a0 * c0 + a1 * c1 + b0 * d0 + b1 * d1,
            a0 * d1 + a1 * d0 + b0 * c1 + b1 * c0,
            1j * (a1 * d0 - a0 * d1 + b1 * c0 - b0 * c1),
            a0 * d0 - a1 * d1 + b0 * c0 - b1 * c1)


def moller_amplitude(kin: ProcessKinematics, spins: tuple, q: float,
                     strict_paper_mode: bool = False) -> complex:
    """The tree Moller amplitude for spins (rA, rB, rC, rD), each 1 or 2:

        M = q [ J_CA . J_DB F_CA / t  -  J_DA . J_CB F_DA / u ]

    with J_CA = ubar_C gamma^mu u_A (ubar u = 1), t = (C - A)^2 and u =
    (D - A)^2, or (B - A)^2 in ``strict_paper_mode``.  The currents use
    lorentz._reduced_spinor; the norms sqrt(E+m)/sqrt(2m) go into F/t, F/u.

    Tolerance: 1e-14 kappa max|M| against M exactly at the float legs,
    max|M| over the 16 spin assignments, kappa = E_max^2/(A.B) with E_max
    the largest leg energy: about 1 in the CM frame, growing as gamma^2
    under a boost, where the currents cancel in the contraction.

    ValueError for a spin other than 1 or 2, then what moller_spin_summed
    raises; NumericOverflowError where t, u, M or q F/t (q F/u) times the
    four norms, about q F (E/m)^2/|t|, overflows, even where M is finite.
    """
    for r in spins:
        _check_spin(r)
    m = kin.masses[0]
    t, u = _moller_transfers(kin, strict_paper_mode)
    F_CA, F_DA = photon_correction_pair(kin, q)
    wA, wB, wC, wD = map(_reduced_spinor, kin.legs, (m,) * 4, spins)
    nA, nB, nC, nD = (math.sqrt(p[0] + m) for p in kin.legs)
    # n_out n_in / 2m >= 1: a partial product overflows only where c does
    c1 = q * F_CA * (nC * nA / (2 * m) / t * (nD * nB / (2 * m)))
    c2 = q * F_DA * (nD * nA / (2 * m) / u * (nC * nB / (2 * m)))
    amp = (c1 * minkowski_dot(_current(wC, wA), _current(wD, wB))
           - c2 * minkowski_dot(_current(wD, wA), _current(wC, wB)))
    if not (cmath.isfinite(amp) and abs(t) < math.inf and abs(u) < math.inf):
        raise NumericOverflowError(f"Moller amplitude overflows at m={m}")
    return amp


def moller_spin_summed(kin: ProcessKinematics, q: float,
                       strict_paper_mode: bool = False) -> float:
    """Sum of |M|^2 over the 16 spin assignments (no phase space).

    With ubar u = 1 each spin sum is (pslash + m)/2m, and the Dirac
    traces give, in the dot products ab, ..., cd of the legs A, B, C, D,

        direct   = 32 [cd ab + bc ad - m^2 ac - m^2 bd + 2 m^4]
        exchange = 32 [cd ab + bd ac - m^2 ad - m^2 bc + 2 m^4]
        cross    = -32 ab cd + 16 m^2 (ab + ac + ad + bc + bd + cd) - 32 m^4
        sum      = q^2 [c1^2 direct + c2^2 exchange - 2 c1 c2 cross] / (16 m^4)

    with c1 = F_CA/t and c2 = F_DA/u (see moller_amplitude).  The dot
    products are taken in units of the largest of ab, |t| and |u|, so no
    product of them overflows where the sum itself is finite.

    Tolerance: relative 1e-13 kappa against the sum of |M|^2 over the 16
    moller_amplitude values, with kappa = (E_max/m)^2 (m^2/|t| + m^2/|u|) and
    E_max the largest leg energy in the working frame; kappa is the
    condition number of the sum in the rounded legs (the float legs are on
    shell and conserve momentum only to the rounding of E_max^2).  Traces
    of the projectors multiplied out numerically round on a larger scale,
    and agree within 1e-13 kappa (E_max/m)^2.

    Raises what moller_amplitude raises, in the same order: ZeroMassError,
    OffShellError, DegenerateTransferError, then NumericOverflowError where
    the sum leaves the float range, which |M|^2 does before |M|.
    """
    m = kin.masses[0]
    t, u = _moller_transfers(kin, strict_paper_mode)
    F_CA, F_DA = photon_correction_pair(kin, q)
    a, b, c, d = kin.legs
    ab = minkowski_dot(a, b)
    scale = max(ab, abs(t), abs(u))  # >= |t| > 0
    if not math.isfinite(scale):
        raise NumericOverflowError(f"Moller dot products overflow at m={m}")
    ab, ac, ad = (ab / scale, minkowski_dot(a, c) / scale,
                  minkowski_dot(a, d) / scale)
    bc, bd, cd = (minkowski_dot(b, c) / scale, minkowski_dot(b, d) / scale,
                  minkowski_dot(c, d) / scale)
    mm = m * m / scale
    # direct/32, exchange/32 and cross/16 over scale^2
    direct = cd * ab + bc * ad - mm * (ac + bd) + 2.0 * mm * mm
    exchange = cd * ab + bd * ac - mm * (ad + bc) + 2.0 * mm * mm
    cross = -2.0 * ab * cd + mm * (ab + ac + ad + bc + bd + cd) - 2.0 * mm * mm
    qm = q / m / m  # not q^2 / m^4: m^4 underflows below m = 1e-77
    c1 = qm * F_CA / (t / scale)
    c2 = qm * F_DA / (u / scale)
    total = 2.0 * (c1 * c1 * direct + c2 * c2 * exchange - c1 * c2 * cross)
    if not math.isfinite(total):
        raise NumericOverflowError(f"Moller spin sum overflows at m={m}")
    return total


def annihilation_correction_pair(kin: ProcessKinematics, q: float) -> tuple:
    """Electron-line correction factors for the two annihilation diagrams.

    In the CM frame both reduce to (1-q)/2 for any q.
    """
    return _correction_pair(kin, q, ELECTRON_LINE)


def frame_scan(kin: ProcessKinematics, q: float, boosts: list,
               flavor: str = PHOTON_LINE) -> list:
    """Correction factors for each boosted frame.

    Rows (beta, F1, F2) in input order: (F_CA, F_DA) for the photon
    line, the two annihilation factors for the electron line.

    ValueError for an unknown flavor, before any boost; then, boost by
    boost, what ProcessKinematics.boosted raises and what
    correction_factor raises, in that order.
    """
    if flavor not in (PHOTON_LINE, ELECTRON_LINE):
        raise ValueError(f"unknown flavor {flavor!r}")
    return [(b.beta, *_correction_pair(kin.boosted(b), q, flavor))
            for b in boosts]
