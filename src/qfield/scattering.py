"""Tree-level QED probes of the q-deformed propagators.

Moller scattering with a q-corrected photon exchange, e+ e- -> 2 gamma
with a q-corrected internal electron line, and boost scans exhibiting
the frame dependence of the correction factors.

The correction factors multiply the usual 1/(transfer)^2 denominators:

    photon line:    F = (1/2) [ (1+q) + (1-q) (E_in - E_out)/|dpvec| ]
    electron line:  F = (1/2) [ (1-q) + (1+q) (E_in - E_out)/|dpvec| ]

written as half-sums so q = -+1 needs no special-casing.  Energies and
3-momenta are taken in the current working frame, which is exactly what
makes the factors frame dependent for q != 1.

The Moller amplitudes of all 16 spin assignments come from one tensor:
the spinors of both spins of each leg give the four currents
J[mu, s_out, s_in], which the metric contracts in pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import (METRIC, ONSHELL_RTOL, _check_spin, boost_matrix, gamma,
                    mass2, subluminal_beta, u_spinor)
from .errors import (DegenerateTransferError, NonFiniteInputError,
                     NumericOverflowError, OffShellError)

PHOTON_LINE = "photon_line"
ELECTRON_LINE = "electron_line"

TRANSFER_GUARD = 1e-12

_GAMMAS = np.array([gamma(mu) for mu in range(4)])
_METRIC_DIAG = np.diag(METRIC)


@dataclass
class Boost:
    beta: np.ndarray

    def __post_init__(self):
        self.beta, _ = subluminal_beta(self.beta)

    @property
    def gamma_factor(self) -> float:
        return 1.0 / np.sqrt(1.0 - float(self.beta @ self.beta))


def boost(p, b: Boost) -> np.ndarray:
    """Boost a four-vector; preserves the invariant mass."""
    return boost_matrix(b.beta) @ np.asarray(p, dtype=float)


@dataclass
class ProcessKinematics:
    """2 -> 2 kinematics with per-leg masses, validated on construction."""

    incoming: tuple
    outgoing: tuple
    masses: tuple  # (mA, mB, mC, mD)

    def __post_init__(self):
        self.incoming = tuple(np.asarray(p, dtype=float) for p in self.incoming)
        self.outgoing = tuple(np.asarray(p, dtype=float) for p in self.outgoing)
        legs = self.incoming + self.outgoing
        for p, m in zip(legs, self.masses):
            scale = max(1.0, p[0] ** 2)
            # written so that a nan or infinite leg fails the test too
            if not abs(mass2(p) - m * m) <= ONSHELL_RTOL * scale:
                if not np.isfinite(p).all():
                    raise NonFiniteInputError(f"leg {p} must be finite")
                raise OffShellError(f"leg {p} not on shell for m={m}")
        total = sum(self.incoming) - sum(self.outgoing)
        if np.max(np.abs(total)) > ONSHELL_RTOL * max(1.0, legs[0][0]):
            raise OffShellError(f"4-momentum not conserved: {total}")

    def boosted(self, b: Boost) -> "ProcessKinematics":
        # one boost matrix for all legs; einsum keeps each leg's sum
        # order equal to boost()'s matrix-vector product
        legs = np.einsum("ij,kj->ki", boost_matrix(b.beta),
                         np.array(self.incoming + self.outgoing))
        return ProcessKinematics(tuple(legs[:2]), tuple(legs[2:]),
                                 self.masses)


def _cm_frame(energy: float, theta: float, m: float, phi: float) -> tuple:
    """(|p| of a leg of mass m and energy E, unit vector at theta, phi)."""
    if m < 0.0:
        raise ValueError("need m >= 0")
    if energy <= m:
        raise ValueError("need E > m")
    try:
        pmag = np.sqrt(energy ** 2 - m ** 2)
    except OverflowError:
        raise NumericOverflowError(f"E^2 overflows at E={energy}") from None
    nhat = np.array([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi), np.cos(theta)])
    return pmag, nhat


def cm_elastic_kinematics(energy: float, theta: float, m: float,
                          phi: float = 0.0) -> ProcessKinematics:
    """Equal-mass elastic scattering in the CM frame along z, scatter by theta."""
    pmag, nhat = _cm_frame(energy, theta, m, phi)
    pA = np.array([energy, 0.0, 0.0, pmag])
    pB = np.array([energy, 0.0, 0.0, -pmag])
    pC = np.array([energy, *(pmag * nhat)])
    pD = np.array([energy, *(-pmag * nhat)])
    return ProcessKinematics((pA, pB), (pC, pD), (m, m, m, m))


def cm_annihilation_kinematics(energy: float, theta: float, m: float,
                               phi: float = 0.0) -> ProcessKinematics:
    """e+ e- -> gamma gamma in the CM frame: massive in, massless out."""
    pmag, nhat = _cm_frame(energy, theta, m, phi)
    pplus = np.array([energy, 0.0, 0.0, pmag])
    pminus = np.array([energy, 0.0, 0.0, -pmag])
    k1 = np.array([energy, *(energy * nhat)])
    k2 = np.array([energy, *(-energy * nhat)])
    return ProcessKinematics((pplus, pminus), (k1, k2), (m, m, 0.0, 0.0))


def correction_factor(E_in: float, E_out: float, pvec_in, pvec_out,
                      q: float, flavor: str) -> float:
    """q-dependent multiplicative factor on an internal line (see module doc)."""
    pvec_in = np.asarray(pvec_in, dtype=float)
    pvec_out = np.asarray(pvec_out, dtype=float)
    dp = float(np.linalg.norm(pvec_in - pvec_out))
    if dp <= TRANSFER_GUARD:
        raise DegenerateTransferError("vanishing 3-momentum transfer")
    ratio = (E_in - E_out) / dp
    if flavor == PHOTON_LINE:
        return 0.5 * ((1.0 + q) + (1.0 - q) * ratio)
    if flavor == ELECTRON_LINE:
        return 0.5 * ((1.0 - q) + (1.0 + q) * ratio)
    raise ValueError(f"unknown flavor {flavor!r}")


def photon_correction_pair(kin: ProcessKinematics, q: float) -> tuple:
    """Photon-line factors (F_CA, F_DA) of the direct and exchange diagrams."""
    pA = kin.incoming[0]
    pC, pD = kin.outgoing
    return (correction_factor(pA[0], pC[0], pA[1:], pC[1:], q, PHOTON_LINE),
            correction_factor(pA[0], pD[0], pA[1:], pD[1:], q, PHOTON_LINE))


def _current_tensor(out: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """J[mu, s_out, s_in] = ubar_out gamma^mu u_in over both spins of each leg."""
    return np.einsum("ai,mij,bj->mab", out.conj() @ _GAMMAS[0], _GAMMAS, inc)


def moller_amplitudes(kin: ProcessKinematics, q: float,
                      strict_paper_mode: bool = False) -> np.ndarray:
    """All 16 tree Moller amplitudes, M[rA-1, rB-1, rC-1, rD-1].

    M = q [ J_CA . J_DB * F_CA / t_CA  -  J_DA . J_CB * F_DA / t_DA ]
    with t the squared 4-momentum transfer.  ``strict_paper_mode``
    switches the exchange denominator to the literal (P_B - P_A)^2
    reading instead of (P_D - P_A)^2.
    """
    pA, pB = kin.incoming
    pC, pD = kin.outgoing
    m = kin.masses[0]
    uA, uB, uC, uD = (np.array([u_spinor(p, r, m).components for r in (1, 2)])
                      for p in (pA, pB, pC, pD))

    t_direct = mass2(pC - pA)
    t_exchange = mass2(pB - pA) if strict_paper_mode else mass2(pD - pA)
    if abs(t_direct) <= TRANSFER_GUARD or abs(t_exchange) <= TRANSFER_GUARD:
        raise DegenerateTransferError("vanishing squared 4-momentum transfer")

    F_CA, F_DA = photon_correction_pair(kin, q)

    direct = np.einsum("m,mca,mdb->abcd", _METRIC_DIAG,
                       _current_tensor(uC, uA), _current_tensor(uD, uB))
    exchange = np.einsum("m,mda,mcb->abcd", _METRIC_DIAG,
                         _current_tensor(uD, uA), _current_tensor(uC, uB))
    amps = q * (direct * F_CA / t_direct - exchange * F_DA / t_exchange)
    if not np.isfinite(amps).all():
        raise NumericOverflowError(f"Moller amplitudes overflow at m={m}")
    return amps


def moller_amplitude(kin: ProcessKinematics, spins: tuple, q: float,
                     strict_paper_mode: bool = False) -> complex:
    """The tree Moller amplitude for spins (rA, rB, rC, rD), each 1 or 2."""
    rA, rB, rC, rD = spins
    for r in spins:
        _check_spin(r)
    amps = moller_amplitudes(kin, q, strict_paper_mode)
    return complex(amps[rA - 1, rB - 1, rC - 1, rD - 1])


def moller_spin_summed(kin: ProcessKinematics, q: float,
                       strict_paper_mode: bool = False) -> float:
    """Sum of |M|^2 over the 16 spin assignments (no phase space)."""
    amps = moller_amplitudes(kin, q, strict_paper_mode)
    return float(np.sum(np.abs(amps) ** 2))


def annihilation_correction_pair(kin: ProcessKinematics, q: float) -> tuple:
    """Electron-line correction factors for the two annihilation diagrams.

    In the CM frame both reduce to (1-q)/2 for any q.
    """
    pplus = kin.incoming[0]
    k1, k2 = kin.outgoing
    f1 = correction_factor(pplus[0], k1[0], pplus[1:], k1[1:], q, ELECTRON_LINE)
    f2 = correction_factor(pplus[0], k2[0], pplus[1:], k2[1:], q, ELECTRON_LINE)
    return f1, f2


def frame_scan(kin: ProcessKinematics, q: float, boosts: list,
               flavor: str = PHOTON_LINE) -> list:
    """Correction factors for each boosted frame.

    Rows (beta, F1, F2) in input order: (F_CA, F_DA) for the photon
    line, the two annihilation factors for the electron line.
    """
    pairs = {PHOTON_LINE: photon_correction_pair,
             ELECTRON_LINE: annihilation_correction_pair}
    if flavor not in pairs:
        raise ValueError(f"unknown flavor {flavor!r}")
    return [(np.asarray(b.beta, dtype=float), *pairs[flavor](kin.boosted(b), q))
            for b in boosts]
