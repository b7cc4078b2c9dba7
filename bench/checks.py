"""Reference checks, run in the parent process outside any timed region.

Each ``check_<kind>`` takes an operation spec and the worker's record and
returns ``(ok, detail)``; ``detail`` carries what the per-layer metrics need
(true error against the reported ``quad_error``, Wick/Fock mismatch).

References are independent of the code path under test where one exists:
closed forms (Bessel K1, Hankel J1/Y1, residues 1/2w and -q/2w), the partial
fraction form of the propagator, Dirac matrices and Lorentz boosts written
out here, and Moller spin sums by Dirac traces.  Wick results are checked
against the program's own Fock oracle, which shares no code with the Wick
engine.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import j1, k1, y1

WICK_TOL = 1e-9        # Wick vs Fock, relative to max(1, |fock|)
QUAD_RTOL = 1e-6       # position-space quadrature, README's promise
ALGEBRA_RTOL = 1e-9    # closed-form and identity checks


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _close(got, want, rtol: float, scale: float) -> bool:
    return abs(got - want) <= rtol * scale


def _error(out) -> dict | None:
    return out if isinstance(out, dict) and "error" in out else None


# ------------------------------------------------------------------ wick

def check_wick(op: dict, rec: dict):
    """Agree to 1e-9 with the Fock oracle, or both raise a typed error."""
    got, ref = rec["out"], rec["oracle"]
    eg, er = _error(got), _error(ref)
    if eg or er:
        ok = bool(eg and er and eg["typed"] and er["typed"])
    else:
        ok = abs(_z(got) - _z(ref)) <= WICK_TOL * max(1.0, abs(_z(ref)))
    return ok, {"mismatch": not ok}


# ------------------------------------------------------------ propagators

def _omega(kvec, m: float) -> float:
    return math.sqrt(sum(x * x for x in kvec) + m * m)


def scalar_reference(k0: float, kvec, m: float, q: float) -> tuple:
    """(1/2w)[1/(k0 - w) - q/(k0 + w)], and the size of its two terms."""
    w = _omega(kvec, m)
    a, b = 1.0 / (k0 - w), q / (k0 + w)
    return (a - b) / (2.0 * w), (abs(a) + abs(b)) / (2.0 * w)


_S = [np.array([[0, 1], [1, 0]], dtype=complex),
      np.array([[0, -1j], [1j, 0]], dtype=complex),
      np.array([[1, 0], [0, -1]], dtype=complex)]
_I2, _O2 = np.eye(2), np.zeros((2, 2))
GAMMA = [np.block([[_I2, _O2], [_O2, -_I2]])] + [
    np.block([[_O2, s], [-s, _O2]]) for s in _S]
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def check_momentum(op: dict, rec: dict):
    out = rec["out"]
    if _error(out):
        return False, {}
    m, q = op["m"], op["q"]
    if op["flavor"] == "scalar":
        for k0, got in zip(op["k0"], out):
            want, size = scalar_reference(k0, op["kvec"], m, q)
            if not _close(_z(got), want, ALGEBRA_RTOL, size):
                return False, {}
        return len(out) == len(op["k0"]), {}
    k = op["k"]
    got = np.array([[_z(x) for x in row] for row in out])
    if op["flavor"] == "spinor":
        want, size = scalar_reference(k[0], k[1:], m, -q)
        slash = GAMMA[0] * k[0] - sum(GAMMA[i] * k[i] for i in (1, 2, 3))
        tensor = (m * np.eye(4) + slash) / (2.0 * m)
    else:
        want, size = scalar_reference(k[0], k[1:], m, q)
        tensor = METRIC - (np.outer(k, k) / (m * m) if m > 0 else 0.0)
    ok = np.all(np.abs(got - tensor * want)
                <= ALGEBRA_RTOL * size * (np.abs(tensor) + 1e-300))
    return bool(ok), {}


def check_pole_residues(op: dict, rec: dict):
    out = rec["out"]
    if _error(out):
        return False, {}
    w = _omega(op["kvec"], op["m"])
    want = (1.0 / (2.0 * w), -op["q"] / (2.0 * w))
    ok = all(_close(g, r, ALGEBRA_RTOL, 1.0 / (2.0 * w))
             for g, r in zip(out, want))
    return ok, {}


def wightman(t: float, r: float, m: float) -> complex:
    """Positive-frequency Wightman function for t >= 0, r != t.

    Spacelike: m K1(m s)/(4 pi^2 s), s = sqrt(r^2 - t^2).
    Timelike (t - i0): m [Y1(m s) + i J1(m s)]/(8 pi s), s = sqrt(t^2 - r^2).
    """
    if r > t:
        s = math.sqrt((r - t) * (r + t))
        return complex(m * k1(m * s) / (4.0 * math.pi ** 2 * s))
    s = math.sqrt((t - r) * (t + r))
    return m * complex(y1(m * s), j1(m * s)) / (8.0 * math.pi * s)


def quad_reference(op: dict) -> complex:
    kind = op["kind"]
    if kind == "delta_plus":
        return wightman(0.0, op["r"], op["m"])
    if kind == "commutator":
        return (1.0 - op["q"]) * wightman(0.0, op["r"], op["m"])
    w = wightman(abs(op["t"]), op["r"], op["m"])
    return w if op["t"] > 0 else op["q"] * w.conjugate()


def check_quad(op: dict, rec: dict):
    """1e-6 relative against the closed form; records whether the
    reported quad_error bounds the true error."""
    out = rec["out"]
    err = _error(out)
    if err:
        return False, {"convergence_error": err["error"] == "ConvergenceError"}
    got, want = _z(out["value"]), quad_reference(op)
    true_err = abs(got - want)
    return (true_err <= QUAD_RTOL * abs(want),
            {"honest": true_err <= out["quad_error"]})


# ------------------------------------------------------------- scattering

def boost_matrix(beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    if b2 == 0.0:
        return np.eye(4)
    g = 1.0 / math.sqrt(1.0 - b2)
    mat = np.eye(4)
    mat[0, 0] = g
    mat[0, 1:] = mat[1:, 0] = g * beta
    mat[1:, 1:] += (g - 1.0) * np.outer(beta, beta) / b2
    return mat


def _cm_legs(op: dict) -> list:
    e, th, m = op["energy"], op["theta"], op["m"]
    n = np.array([math.sin(th), 0.0, math.cos(th)])
    p = math.sqrt(e * e - m * m)
    out_mag = p if op["flavor"] == "photon_line" else e
    return [np.array([e, 0.0, 0.0, p]),
            np.array([e, *(out_mag * n)]), np.array([e, *(-out_mag * n)])]


def _projector(p: np.ndarray, m: float) -> np.ndarray:
    """Spin sum (pslash + m)/2m of spinors normalised to ubar u = 1."""
    slash = GAMMA[0] * p[0] - sum(GAMMA[i] * p[i] for i in (1, 2, 3))
    return (slash + m * np.eye(4)) / (2.0 * m)


def _mass2(p: np.ndarray) -> float:
    return float(p[0] ** 2 - p[1:] @ p[1:])


def moller_reference(op: dict) -> float:
    """Spin-summed |M|^2 by Dirac traces, in the frame boosted by beta.

    M = q [J_CA.J_DB F_CA / t - J_DA.J_CB F_DA / u] with photon-line
    factors F; summing over spins turns the currents into traces of the
    projectors (pslash + m)/2m, so no spinor is built here.
    """
    e, th, m, q = op["energy"], op["theta"], op["m"], op["q"]
    n = np.array([math.sin(th), 0.0, math.cos(th)])
    p = math.sqrt(e * e - m * m)
    lam = boost_matrix(op["beta"])
    pa, pb, pc, pd = (lam @ v for v in (
        np.array([e, 0.0, 0.0, p]), np.array([e, 0.0, 0.0, -p]),
        np.array([e, *(p * n)]), np.array([e, *(-p * n)])))
    a, b, c, d = (_projector(v, m) for v in (pa, pb, pc, pd))
    g = np.array(GAMMA)
    low = g * np.diag(METRIC)[:, None, None]

    def tr2(x, y, gam):  # Tr[x gam^mu y gam^nu], indices (mu, nu)
        return np.einsum("uij,vji->uv", x @ gam, y @ gam)

    direct = np.sum(tr2(c, a, g) * tr2(d, b, low)).real
    exchange = np.sum(tr2(d, a, g) * tr2(c, b, low)).real
    # Tr[c g^mu a g^nu d g_mu b g_nu]
    cross = np.einsum("uij,vjk,ukl,vli->", c @ g @ a, g @ d, low @ b,
                      low).real

    def factor(pin, pout):
        ratio = (pin[0] - pout[0]) / np.linalg.norm(pin[1:] - pout[1:])
        return 0.5 * ((1.0 + q) + (1.0 - q) * ratio)

    t, u = _mass2(pc - pa), _mass2(pd - pa)
    f1, f2 = factor(pa, pc), factor(pa, pd)
    return q * q * (f1 * f1 * direct / (t * t) + f2 * f2 * exchange / (u * u)
                    - 2.0 * f1 * f2 * cross / (t * u))


def check_moller(op: dict, rec: dict):
    """Against the trace form; at q = 1 that value is frame independent,
    so the boosted q = 1 slots check boost invariance."""
    out = rec["out"]
    if _error(out):
        return False, {}
    want = moller_reference(op)
    return _close(out, want, ALGEBRA_RTOL, max(abs(want), 1e-300)), {}


def check_frame_scan(op: dict, rec: dict):
    """Photon line (1/2)[(1+q) + (1-q) dE/|dp|] on (A->C, A->D); electron
    line (1/2)[(1-q) + (1+q) dE/|dp|] on (e+ -> k1, e+ -> k2); at beta = 0
    the electron factors are exactly (1-q)/2."""
    out = rec["out"]
    if _error(out) or len(out) != len(op["betas"]):
        return False, {}
    q = op["q"]
    photon = op["flavor"] == "photon_line"
    a, b = ((1.0 + q), (1.0 - q)) if photon else ((1.0 - q), (1.0 + q))
    legs = _cm_legs(op)
    for beta, row in zip(op["betas"], out):
        lam = boost_matrix(beta)
        pin, p1, p2 = (lam @ v for v in legs)
        for got, pout in zip(row, (p1, p2)):
            ratio = (pin[0] - pout[0]) / np.linalg.norm(pin[1:] - pout[1:])
            want = 0.5 * (a + b * ratio)
            if not _close(got, want, ALGEBRA_RTOL, max(1.0, abs(want))):
                return False, {}
        if not any(beta) and not photon and row != [0.5 * (1 - q)] * 2:
            return False, {}
    return True, {}


# -------------------------------------------------------------------- cli

def check_cli(op: dict, code: int, stdout: str, stderr: str, golden: dict):
    expect = op["expect"]
    if expect == "golden":
        ref = golden[" ".join(op["argv"])]
        return code == 0 and ref["code"] == 0 and stdout == ref["stdout"], {}
    if expect == "error1":
        lines = stderr.splitlines()
        return (code == 1 and not stdout and len(lines) == 1
                and lines[0].startswith("error:")), {}
    if expect == "exit1":
        return code == 1, {}
    if expect == "finite0":
        if code != 0:
            return False, {}
        try:
            value = float(stdout.splitlines()[1].split(",")[-1])
        except (IndexError, ValueError):
            return False, {}
        return math.isfinite(value), {}
    raise ValueError(expect)


IN_PROCESS_CHECKS = {
    "normal_order": check_wick, "wick_vev": check_wick,
    "momentum": check_momentum, "pole_residues": check_pole_residues,
    "delta_plus": check_quad, "commutator": check_quad,
    "causal_position": check_quad, "frame_scan": check_frame_scan,
    "moller": check_moller,
}


def check(op: dict, rec: dict):
    return IN_PROCESS_CHECKS[op["kind"]](op, rec)
