"""Acceptance gate: eleven criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal; each test also asserts, so a plain pytest run fails
loudly if any criterion regresses.
"""
import itertools
import os
import subprocess
import sys

import numpy as np
from scipy.special import k1

from qfield import dirac, fock, propagator, scattering, wick
from qfield.qcore import basic_number

Q_VALUES = [-1.0, -0.5, 0.3, 1.0, 1.2]


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def all_strings(choices, max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(choices, repeat=length)


def test_criterion_01_wick_fock_oracle_equivalence():
    single = [fock.a(0), fock.a_dag(0)]
    double = [fock.a(0), fock.a_dag(0), fock.a(1), fock.a_dag(1)]
    worst = 0.0
    checked = 0
    for q in Q_VALUES:
        for ops in itertools.chain(all_strings(single, 6),
                                   all_strings(double, 4)):
            rep = wick.verify_wick(ops, q)
            tol = 1e-9 * max(1.0, abs(rep.fock_vev))
            worst = max(worst, rep.abs_diff / tol)
            checked += 1
            if rep.abs_diff > tol:
                report(1, "q-Wick/Fock oracle equivalence", False,
                       f"ops={ops} q={q} diff={rep.abs_diff:g}")
    report(1, "q-Wick/Fock oracle equivalence", True,
           f"{checked} strings, worst diff {worst:.2e} of tolerance")


def test_criterion_02_q_pm1_statistics_reduction():
    single = [fock.a(0), fock.a_dag(0)]
    ok = True
    for ops in all_strings(single, 6):
        for d in wick.wick_expand(ops, 1.0):
            if d.pair_value != 0.0 and d.coefficient != 1.0:
                ok = False
        for d in wick.wick_expand(ops, -1.0):
            if d.pair_value != 0.0 and d.coefficient != (-1.0) ** d.crossings:
                ok = False
    report(2, "q = +/-1 statistics reduction (exact integers)", ok)


def test_criterion_03_oscillator_relation():
    worst, diagonal = 0.0, True
    for q in Q_VALUES:
        for n in range(15):
            ket = {fock.a(0).label: n} if n else {}
            # each side maps |n> to a multiple of |n>, or to the zero vector
            lhs, rhs = (fock.apply_string(ops, ket, q) or (ket, 0.0)
                        for ops in ([fock.a(0), fock.a_dag(0)],
                                    [fock.a_dag(0), fock.a(0)]))
            diagonal = diagonal and lhs[0] == rhs[0] == ket
            worst = max(worst, abs(lhs[1] - q * rhs[1] - 1.0))
    ok = diagonal and worst <= 1e-12
    report(3, "oscillator relation (a adag - q adag a)|n> = |n>, n <= 14",
           ok, f"max error {worst:.2e}")


def test_criterion_04_charge_conjugation_consistency():
    # conjugating any a-string maps it to the b-string with a unit phase;
    # the vacuum is C-invariant, so the two VEVs must agree exactly
    single = [fock.a(0), fock.a_dag(0)]
    eps = np.exp(0.3j)
    worst = 0.0
    for q in Q_VALUES:
        for ops in all_strings(single, 4):
            phase, conj = fock.charge_conjugate_string(ops, eps)
            lhs = fock.vev(ops, q)
            rhs = phase * fock.vev(conj, q)
            worst = max(worst, abs(lhs - rhs))
            # and the involution property: conjugating twice restores a
            phase2, back = fock.charge_conjugate_string(conj, eps)
            worst = max(worst, abs(phase * phase2 - 1.0))
            assert back == tuple(ops)
    ok = worst <= 1e-12
    report(4, "charge-conjugation consistency (a-relation -> b-relation)",
           ok, f"max error {worst:.2e}")


def test_criterion_05_propagator_reductions():
    worst_scalar = worst_spinor = 0.0
    count = 0
    for k0 in np.linspace(-3.0, 3.0, 10):
        for kx in np.linspace(0.1, 2.0, 10):
            for m in np.linspace(0.5, 2.0, 10):
                k = np.array([k0, kx, 0.3, -0.2])
                k2m2 = k0 ** 2 - kx ** 2 - 0.3 ** 2 - 0.2 ** 2 - m ** 2
                if abs(k2m2) <= 0.1:
                    continue
                count += 1
                sc = propagator.scalar_propagator_momentum(k, m, 1.0)
                worst_scalar = max(worst_scalar, abs(sc.value - 1.0 / k2m2))
                sp = propagator.spinor_propagator_momentum(k, m, -1.0)
                expected = (m * np.eye(4) + dirac.slash(k)) / (2 * m) / k2m2
                worst_spinor = max(worst_spinor,
                                   float(np.max(np.abs(sp.value - expected))))
    ok = worst_scalar <= 1e-12 and worst_spinor <= 1e-12
    report(5, "propagator reductions at q=1 (scalar) and q=-1 (spinor)",
           ok, f"{count} grid points, errors {worst_scalar:.2e}/"
               f"{worst_spinor:.2e}")


def test_criterion_06_pole_structure():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        kvec = rng.uniform(-2.0, 2.0, 3)
        m = rng.uniform(0.3, 2.0)
        q = rng.choice([-1.0, -0.5, 0.3, 0.8, 1.2])
        w = propagator.omega(kvec, m)
        rp, rm = propagator.pole_residues(kvec, m, q)
        worst = max(worst, abs(rp - 1.0 / (2 * w)), abs(rm + q / (2 * w)))
    ok = worst <= 1e-8
    report(6, "pole residues (1/2w, -q/2w), 20 combinations", ok,
           f"max error {worst:.2e}")


def test_criterion_07_quadrature_vs_closed_form():
    m = 1.0
    worst = 0.0
    for r in np.linspace(0.1, 5.0, 20):
        got = propagator.delta_plus_equal_time(r, m).value
        want = m * k1(m * r) / (4 * np.pi ** 2 * r)
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-6
    report(7, "z K1(z) series expansions vs Bessel K1 closed form", ok,
           f"max rel error {worst:.2e}")


def test_criterion_08_causality_probe():
    m, r = 1.0, 1.3
    dp = propagator.delta_plus_equal_time(r, m)
    worst = 0.0
    for q in Q_VALUES:
        got = propagator.spacelike_q_commutator(r, m, q).value
        worst = max(worst, abs(got - (1.0 - q) * dp.value))
    at_one = propagator.spacelike_q_commutator(r, m, 1.0).value
    at_half = propagator.spacelike_q_commutator(r, m, 0.5).value
    ok = worst <= 1e-12 and at_one == 0.0 and abs(at_half) > 1e-4
    report(8, "spacelike commutator = (1-q) Delta_plus; vanishes only at q=1",
           ok, f"identity error {worst:.2e}, value at q=0.5 {at_half:.3e}")


def test_criterion_09_spin_and_polarization_sums():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        m = rng.uniform(0.5, 2.0)
        p = dirac.onshell_momentum(rng.uniform(-3.0, 3.0, 3), m)
        su = dirac.spin_sum(p, m, "u")
        worst = max(worst, float(np.max(np.abs(
            su - (m * np.eye(4) + dirac.slash(p)) / (2 * m)))))
        worst = max(worst, float(np.max(np.abs(
            np.asarray(dirac.polarization_sum(p, m))
            - dirac.polarization_sum_closed_form(p, m)))))
    ok = worst <= 1e-12
    report(9, "spin sum (m + pslash)/2m and polarization completeness",
           ok, f"max error {worst:.2e} over 100 momenta")


def test_criterion_10_frame_dependence():
    kin = scattering.cm_elastic_kinematics(2.0, 1.0, 1.0)
    boosts = [scattering.Boost(b) for b in
              ([0, 0, 0], [0, 0, 0.25], [0, 0, 0.5], [0.3, 0, 0.2])]
    rows1 = scattering.frame_scan(kin, 1.0, boosts)
    spread1 = max(abs(f1 - 1.0) for _, f1, _ in rows1)
    rows_h = scattering.frame_scan(kin, 0.5, boosts)
    varied = abs(rows_h[2][1] - rows_h[0][1])
    golden_err = abs(rows_h[2][1] - 0.816691436854859)
    ann = scattering.cm_annihilation_kinematics(2.0, 1.0, 1.0)
    f1, f2 = scattering.annihilation_correction_pair(ann, 0.5)
    ann_err = max(abs(f1 - 0.25), abs(f2 - 0.25))
    ok = (spread1 <= 1e-12 and varied > 1e-3 and golden_err <= 1e-12
          and ann_err <= 1e-14)
    report(10, "frame dependence of correction factors", ok,
           f"q=1 spread {spread1:.2e}, q=0.5 variation {varied:.3e}, "
           f"golden error {golden_err:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    configs = [
        ("qnum", "--q", "1.2", "--n", "5"),
        ("planck", "--q", "0.5", "--x", "1.0"),
        ("fock", "vev", "--q", "0.5", "--ops", "a0,a0,a0+,a0+"),
        ("wick", "normal", "--q", "0.5", "--ops", "a0,a0,a0+,a0+"),
        ("wick", "expand", "--q", "0.5", "--ops", "a0,a0,a0+,a0+"),
        ("wick", "verify", "--max-len", "4", "--q", "0.7"),
        ("dirac", "check"),
        ("propagator", "scalar", "--q", "0.5", "--k0-grid", "2:4:5",
         "--kvec", "0,0,0"),
        ("propagator", "spinor", "--q", "0.5", "--k0", "0.3",
         "--kvec", "0.2,0,0.1"),
        ("propagator", "photon", "--q", "0.5", "--k0", "0.3",
         "--kvec", "0.2,0,0.1"),
        ("propagator", "residues", "--q", "0.5", "--kvec", "1,0,0"),
        ("propagator", "position", "--q", "0.5", "--t", "2", "--r", "0.5"),
        ("propagator", "spacelike", "--q", "0.5", "--r-grid", "0.5:2:4"),
        ("scatter", "moller", "--q", "0.5"),
        ("scatter", "annihilate", "--q", "0.5"),
        ("scatter", "frame-scan", "--q", "0.5"),
    ]
    env = dict(os.environ, QFIELD_GOLDEN_DIR=str(tmp_path))
    ok = True
    for argv in configs:
        cmd = [sys.executable, "-m", "qfield", "--golden"]
        first = subprocess.run(cmd + ["write"] + list(argv),
                               capture_output=True, text=True, env=env)
        second = subprocess.run(cmd + ["check"] + list(argv),
                                capture_output=True, text=True, env=env)
        if not (first.returncode == second.returncode == 0
                and first.stdout == second.stdout):
            ok = False
            report(11, "CLI determinism", False,
                   f"{' '.join(argv)}: {second.stderr.strip()}")
    report(11, "CLI determinism (golden byte equality, every subcommand)",
           ok, f"{len(configs)} reference configs")
