"""End-to-end tests of the CLI: exit codes, CSV schema, formats, goldens."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

CLI = [sys.executable, "-m", "qfield"]


def run(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(argv), capture_output=True, text=True,
                          env=full_env)


def test_qnum_reference_row():
    res = run("qnum", "--q", "2", "--n", "3")
    assert res.returncode == 0
    assert res.stdout == "q,n,basic_number\n2,3,7\n"


def test_planck_row():
    res = run("planck", "--q", "0.5", "--x", "1.0")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "x,q,occupancy"
    x, q, occ = map(float, lines[1].split(","))
    assert occ == pytest.approx(1.0 / (2.718281828459045 - 0.5), rel=1e-12)


def test_scalar_propagator_reference_point():
    res = run("propagator", "scalar", "--q", "1", "--m", "1",
              "--k0", "0", "--kvec", "1,0,0")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0].startswith("q,m,k0,kx,ky,kz,value_re,value_im")
    value_re = float(lines[1].split(",")[6])
    assert value_re == pytest.approx(-0.5, abs=1e-14)


def test_wick_verify_sweep():
    res = run("wick", "verify", "--max-len", "5", "--q", "0.7")
    assert res.returncode == 0
    row = res.stdout.strip().split("\n")[1].split(",")
    assert float(row[3]) <= 1e-9
    assert row[4] == "true"


def test_wick_verify_passes_on_the_relative_rule():
    # |vev| reaches 7.4e7 at q = 20: an absolute 1.5e-8 difference is
    # within WickReport.passed's relative 1e-9 on every string
    res = run("wick", "verify", "--max-len", "8", "--q", "20")
    assert res.returncode == 0
    row = res.stdout.strip().split("\n")[1].split(",")
    assert row[2] == "510" and float(row[3]) > 1e-9
    assert row[4] == "true"


def test_wick_verify_keeps_the_length_cap():
    # the sweep doubles per length: past the cap it exits 2 before any work
    res = run("wick", "verify", "--max-len", "13", "--q", "0.7")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.endswith("error: string length 13 exceeds 12\n")


def test_fock_vev_matches_library():
    res = run("fock", "vev", "--q", "0.5", "--ops", "a0,a0,a0+,a0+")
    assert res.returncode == 0
    header, row = res.stdout.strip().split("\n")
    assert header == "ops,q,vev"
    # <a a adag adag> = (1 + q) at this q
    assert float(row.split(",")[2]) == pytest.approx(1.5, abs=1e-12)


def test_wick_tables_print_one_real_coefficient_column(capsys):
    # normal-form and diagram coefficients are real, so each table has one
    # coeff column, the in-process value at 17 digits
    from qfield import wick
    from qfield.cli import fmt, main, parse_ops
    text, q = "a0,b1,a0,a0+,b1+,a0+", -0.7
    ops = parse_ops(text)
    assert main(["wick", "normal", "--q", str(q), "--ops", text]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "term,coeff,q_power"
    nf = wick.normal_order(ops, q)
    terms = sorted(nf.terms, key=lambda t: (len(t), repr(t)))
    assert [row.split(",")[1] for row in rows] == [
        fmt(nf.coefficient(t)) for t in terms]
    assert main(["wick", "expand", "--q", str(q), "--ops", text]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "pairs,unpaired,crossings,coeff"
    assert [row.split(",")[3] for row in rows] == [
        fmt(d.coefficient) for d in wick.wick_expand(ops, q)]


def test_wick_normal_prints_one_row_per_operator(capsys):
    # a0 a0+ a1+ a0+ = 1.5 a0+ a1+ + 0.25 a0+ a0+ a1+ a0 at q = 0.5: the
    # string reaches a0+ a1+ in two orders, and it is one row
    from qfield.cli import main
    assert main(["wick", "normal", "--q", "0.5", "--ops",
                 "a0,a0+,a1+,a0+"]) == 0
    assert capsys.readouterr().out == ("term,coeff,q_power\n"
                                       "a0+ a1+,1.5,\n"
                                       "a0+ a0+ a1+ a0,0.25,2\n")


def test_dirac_check_all_pass():
    res = run("dirac", "check")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "check,max_error,tolerance,passed"
    assert len(lines) >= 4
    for line in lines[1:]:
        assert line.endswith(",true")


def test_json_format():
    res = run("--format", "json", "qnum", "--q", "2", "--n", "3")
    assert res.returncode == 0
    objs = json.loads(res.stdout)
    assert objs == [{"q": "2", "n": "3", "basic_number": "7"}]


def test_out_file(tmp_path):
    out = tmp_path / "row.csv"
    res = run("--out", str(out), "qnum", "--q", "2", "--n", "3")
    assert res.returncode == 0
    assert res.stdout == ""
    assert out.read_text() == "q,n,basic_number\n2,3,7\n"


def test_k0_grid_sweep_rows():
    res = run("propagator", "scalar", "--q", "0.5", "--m", "1",
              "--kvec", "0,0,0", "--k0-grid", "2:4:5")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 6  # header + 5 grid points


def test_usage_error_exits_2():
    res = run("qnum", "--q", "2")  # missing required --n
    assert res.returncode == 2
    assert res.stderr != ""


def test_unknown_subcommand_exits_2():
    res = run("nonsense")
    assert res.returncode == 2


def test_computation_error_exits_1():
    # occupancy pole x=0, q=1 is a typed computation error
    res = run("planck", "--q", "1", "--x", "0")
    assert res.returncode == 1
    assert "OccupancyPoleError" in res.stderr
    assert res.stdout == ""


def test_q_algebra_refuses_only_where_no_value_exists(capsys):
    # x = 1e-301 was refused as a pole: 1/(e^x - 1) = 1e301 is a float
    from qfield.cli import main
    assert main(["planck", "--q", "1", "--x", "1e-301"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert float(row.split(",")[-1]) == pytest.approx(1e301, rel=1e-15)
    # just below q = -1, <2>_q < 0: the sweep printed passed=true
    assert main(["wick", "verify", "--max-len", "4",
                 "--q", "-1.0000000000001"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: NegativeNormError:")


def test_onshell_propagator_exits_1():
    res = run("propagator", "scalar", "--q", "1", "--m", "1",
              "--k0", "1", "--kvec", "0,0,0")
    assert res.returncode == 1
    assert "PoleError" in res.stderr


def test_exact_pole_exits_1_with_one_line(capsys):
    # k0 = omega = m exactly: no value exists
    from qfield.cli import main
    for argv in (["propagator", "scalar", "--q", "0.5", "--k0", "1",
                  "--kvec", "0,0,0"],
                 ["scatter", "moller", "--q", "0.5", "--theta", "0"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(("error: PoleError:",
                               "error: DegenerateTransferError:")), err


def cli_row(capsys, *argv) -> dict:
    """The one CSV row of an in-process call that exits 0, its cells keyed
    from the right (Moller's spins cell holds commas)."""
    from qfield.cli import main
    assert main(list(argv)) == 0, argv
    out, err = capsys.readouterr()
    assert err == ""
    header, row = out.splitlines()
    return dict(zip(header.split(",")[::-1], row.split(",")[::-1]))


# The four inputs below unit scale that absolute guard bands (constants
# with a unit) once refused: each is an ordinary value.

def test_scalar_propagator_near_a_small_mass(capsys):
    mp = pytest.importorskip("mpmath")
    row = cli_row(capsys, "propagator", "scalar", "--q", "0.5", "--m", "3e-6",
                  "--k0", "1e-6", "--kvec", "0,0,0")
    with mp.workdps(40):
        k0, w = mp.mpf(1e-6), mp.mpf(3e-6)
        want = (1 / (k0 - w) - mp.mpf(0.5) / (k0 + w)) / (2 * w)
    assert float(row["value_re"]) == pytest.approx(-1.0417e11, rel=1e-4)
    assert abs(float(row["value_re"]) - want) <= 1e-14 * abs(want)


def test_pole_residues_at_a_small_mass(capsys):
    row = cli_row(capsys, "propagator", "residues", "--q", "0.5", "--m",
                  "1e-4", "--kvec", "0,0,0")
    assert float(row["residue_plus"]) == pytest.approx(5000.0, rel=1e-14)
    assert float(row["residue_minus"]) == pytest.approx(-2500.0, rel=1e-14)


def test_moller_amplitude_at_a_small_mass(capsys):
    # the amplitude has mass dimension -2: the m = 1, E = 2 value over m^2
    row = cli_row(capsys, "scatter", "moller", "--q", "0.5", "--m", "1e-7",
                  "--energy", "2e-7", "--theta", "1")
    want = -0.60013946872003321 / (1e-7) ** 2
    assert float(row["amp_re"]) == pytest.approx(want, rel=1e-12)


def test_position_ten_times_inside_a_small_cone(capsys):
    mp = pytest.importorskip("mpmath")
    row = cli_row(capsys, "propagator", "position", "--q", "0.5", "--t",
                  "1e-13", "--r", "1e-14")
    got = complex(float(row["value_re"]), float(row["value_im"]))
    assert got.real == pytest.approx(-2.5586e24, rel=1e-4)
    assert got.imag == pytest.approx(0.0199, rel=1e-2)
    with mp.workdps(40):
        t, r = mp.mpf(1e-13), mp.mpf(1e-14)
        tau = mp.sqrt((t - r) * (t + r))
        want = 1j * mp.hankel2(1, tau) / (8 * mp.pi * tau)
        assert abs(mp.mpc(got) - want) <= float(row["quad_error"])


def test_golden_write_then_check(tmp_path):
    env = {"QFIELD_GOLDEN_DIR": str(tmp_path)}
    argv = ("--golden", "write", "scatter", "frame-scan", "--q", "0.5")
    res = run(*argv, env=env)
    assert res.returncode == 0
    written = list(tmp_path.rglob("*.csv"))
    assert len(written) == 1
    res2 = run("--golden", "check", "scatter", "frame-scan", "--q", "0.5",
               env=env)
    assert res2.returncode == 0
    assert res2.stdout == res.stdout


def test_golden_check_missing_exits_1(tmp_path):
    env = {"QFIELD_GOLDEN_DIR": str(tmp_path)}
    res = run("--golden", "check", "qnum", "--q", "2", "--n", "3", env=env)
    assert res.returncode == 1
    assert "no golden file" in res.stderr


def test_golden_check_mismatch_exits_1(tmp_path):
    env = {"QFIELD_GOLDEN_DIR": str(tmp_path)}
    run("--golden", "write", "qnum", "--q", "2", "--n", "3", env=env)
    path = next(tmp_path.rglob("*.csv"))
    path.write_text("q,n,basic_number\n2,3,8\n")
    res = run("--golden", "check", "qnum", "--q", "2", "--n", "3", env=env)
    assert res.returncode == 1
    assert "differs" in res.stderr


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_exits_1_with_one_line(tmp_path, where):
    target = tmp_path / "missing" / "x.csv" if where != "directory" \
        else tmp_path
    res = run("--out", str(target), "qnum", "--q", "2", "--n", "3")
    assert res.returncode == 1 and res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith(
        "error: FileNotFoundError:" if where != "directory"
        else "error: IsADirectoryError:")


def test_unwritable_golden_dir_exits_1_with_one_line(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    res = run("--golden", "write", "qnum", "--q", "2", "--n", "3",
              env={"QFIELD_GOLDEN_DIR": str(blocker)})
    assert res.returncode == 1 and res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: NotADirectoryError:")


def test_golden_mismatch_names_first_cell(tmp_path, monkeypatch, capsys):
    from qfield.cli import main
    monkeypatch.setenv("QFIELD_GOLDEN_DIR", str(tmp_path))
    argv = ["scatter", "frame-scan", "--q", "0.5"]
    assert main(["--golden", "write", *argv]) == 0
    good, _ = capsys.readouterr()
    path = next(tmp_path.rglob("*.csv"))
    rows = [line.split(",") for line in good.splitlines()]
    f1 = rows[2][3]
    rows[2][3] = repr(float(f1) + 0.25)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert main(["--golden", "check", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: output differs from golden {path} at row 2, "
                   f"column F1: golden {rows[2][3]!r}, got {f1!r}, "
                   f"delta {float(f1) - float(rows[2][3]):.17g}\n")
    # a cell that is not a number gets no delta
    path.write_text(good.replace("bz", "b_z", 1))
    assert main(["--golden", "check", *argv]) == 1
    assert capsys.readouterr().err.endswith(
        "at row 0, column bz: golden 'b_z', got 'bz'\n")


def test_golden_path_keys_on_the_subcommand(tmp_path, monkeypatch, capsys):
    import hashlib
    from qfield.cli import main
    from qfield.golden import golden_path
    golden = tmp_path / "golden"
    monkeypatch.setenv("QFIELD_GOLDEN_DIR", str(golden))
    # subcommand first: the path it always had
    argv = ["qnum", "--q", "2", "--n", "3"]
    digest = hashlib.sha256(" ".join(argv).encode()).hexdigest()[:16]
    assert golden_path(["--golden", "write", *argv], "qnum") \
        == os.path.join(str(golden), "qnum", f"{digest}.csv")
    # an option placed first no longer names the directory
    assert main(["--format", "json", "--golden", "write", *argv]) == 0
    capsys.readouterr()
    assert [p.parent.name for p in golden.rglob("*.csv")] == ["qnum"]
    # nor does an absolute --out path: the output file is written as asked
    out = tmp_path / "x.csv"
    assert main(["--out", str(out), "--golden", "write", *argv]) == 0
    assert out.read_text() == "q,n,basic_number\n2,3,7\n"
    assert sorted(p.parent.name for p in golden.rglob("*.csv")) \
        == ["qnum", "qnum"]
    assert main(["--out", str(out), "--golden", "check", *argv]) == 0


def test_strict_paper_mode_changes_only_moller():
    base = run("scatter", "moller", "--q", "0.5", "--theta", "1.2")
    strict = run("scatter", "moller", "--q", "0.5", "--theta", "1.2",
                 "--strict-paper-mode")
    assert base.returncode == strict.returncode == 0
    assert base.stdout != strict.stdout


def test_deterministic_reruns():
    for argv in (
        ("qnum", "--q", "1.2", "--n", "5"),
        ("propagator", "spinor", "--q", "0.5", "--k0", "0.3",
         "--kvec", "0.2,0,0.1"),
        ("propagator", "position", "--q", "0.5", "--t", "2", "--r", "0.5"),
        ("scatter", "annihilate", "--q", "0.5"),
    ):
        a = run(*argv)
        b = run(*argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_nonfinite_inputs_exit_1(capsys):
    from qfield.cli import main
    cases = [
        ("propagator", "scalar", "--q", "nan", "--k0", "0.3",
         "--kvec", "0.2,0,0.1"),
        ("scatter", "moller", "--q", "inf"),
        ("planck", "--q", "0.5", "--x=-inf"),
        ("propagator", "position", "--q", "0.5", "--t", "nan", "--r", "1"),
        ("propagator", "spinor", "--q", "0.5", "--kvec", "0.2,nan,0"),
        ("propagator", "photon", "--q", "0.5", "--k0-grid", "0:inf:3"),
        ("propagator", "spacelike", "--r-grid", "nan:2:3"),
        ("scatter", "moller", "--q", "0.5", "--beta", "0,0,inf"),
        ("scatter", "frame-scan", "--betas", "0,0,0;nan,0,0"),
    ]
    for argv in cases:
        assert main(list(argv)) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: NonFiniteInputError:")
        assert len(err.splitlines()) == 1


def test_intermediate_overflow_exits_1(capsys):
    # finite inputs whose results overflow: these printed nan or inf, or
    # (the CM kinematics' energy ** 2, q ** e in a normal-form coefficient,
    # q ** crossings in a diagram weight) died with a raw OverflowError
    from qfield.cli import main
    cases = [
        ("propagator", "scalar", "--k0=1e200"),
        ("propagator", "photon", "--m=1e-200", "--k0=0.3"),
        ("propagator", "spinor", "--m=1e-310", "--k0=0.3"),
        ("propagator", "residues", "--q=1e308", "--m=8e45"),
        ("propagator", "spacelike", "--q=1e308", "--r=1e-67"),
        ("scatter", "annihilate", "--energy=1e308"),
        ("scatter", "moller", "--m=1e-308"),
        ("wick", "normal", "--q=1e300",
         "--ops=a0,a0+,a0,a0,a0,a0,a0,a0+,a0+,a0+,a0+,a0+"),
        ("wick", "expand", "--q=1e300", "--ops=a0,a0,a0,a0,a0+,a0+,a0+,a0+"),
        # the Fock amplitude overflows: it printed nan,nan (inf,nan at
        # q = 1e155) and exited 0
        ("fock", "vev", "--q=1e300", "--ops=a0,a0,a0+,a0,a0+,a0+"),
        ("fock", "vev", "--q=1e155", "--ops=a0,a0,a0+,a0,a0+,a0+"),
        # 1/(e^x - q) past the float range
        ("planck", "--q=1", "--x=1e-310"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for argv in cases:
            assert main(list(argv)) == 1, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: NumericOverflowError:"), argv
            assert len(err.splitlines()) == 1, argv
    # a negative mass gave nan kinematics, or (omega takes m^2) the
    # massless photon tensor times the massive scalar factor, or the m = 1
    # scalar factor and residues; it is now a usage error
    for argv in (["scatter", "frame-scan", "--m=-1", "--energy=-0.5"],
                 ["propagator", "photon", "--m=-1", "--k0=0.3"],
                 ["propagator", "scalar", "--m=-1"],
                 ["propagator", "residues", "--m=-1"],
                 ["propagator", "position", "--m=-1", "--t=2", "--r=0.5"],
                 ["propagator", "spacelike", "--m=-1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "need m >= 0" in capsys.readouterr().err


def test_moller_amplitude_finite_at_large_energy_over_mass():
    # spinor components grow as sqrt(E/m), so a product of four overflows
    # at E/m = 1e180; the amplitude itself is about -4.7e59
    res = run("scatter", "moller", "--m", "1e-30", "--energy", "1e150",
              "--q", "0.5")
    assert res.returncode == 0 and res.stderr == ""
    header, row = res.stdout.splitlines()
    assert header.endswith(",amp_re,amp_im")
    # the spins cell is "1,1,1,1": the amplitude is the last two fields
    amp_re, amp_im = map(float, row.split(",")[-2:])
    assert math.isfinite(amp_re) and math.isfinite(amp_im)
    assert amp_re == pytest.approx(-4.7098810932419587e59, rel=1e-14)


def test_overflow_and_large_x_paths():
    res = run("qnum", "--q", "2", "--n", "1100")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error: NumericOverflowError:")
    assert len(res.stderr.splitlines()) == 1
    res = run("planck", "--q", "0.5", "--x", "1000")
    assert res.returncode == 0
    assert res.stdout == "x,q,occupancy\n1000,0.5,0\n"
    # q^2 overflows, <2>_q = 1 + q does not
    res = run("qnum", "--q", "1e300", "--n", "2")
    assert res.returncode == 0 and res.stderr == ""
    header, row = res.stdout.splitlines()
    assert header == "q,n,basic_number"
    assert float(row.split(",")[-1]) == pytest.approx(1e300, rel=1e-15)


def test_qnum_of_n_past_the_float_range(capsys):
    # q^n underflows: <n>_q = 1/(1 - q); at q = 2 it overflows, typed
    from qfield.cli import main
    n = str(10 ** 400)
    assert cli_row(capsys, "qnum", "--q", "0.5", "--n", n)["basic_number"] \
        == "2"
    assert main(["qnum", "--q", "2", "--n", n]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: NumericOverflowError:")
    assert len(err.splitlines()) == 1


# The 16 invocations of acceptance criterion 11, one per command; none
# needs numpy or scipy.
NUMPY_FREE_ARGV = (
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
)
# Error paths that exit 1 without loading numpy either.
NUMPY_FREE_ERROR_ARGV = (
    ("propagator", "scalar", "--q", "0.5", "--k0", "1", "--kvec", "0,0,0"),
    ("propagator", "photon", "--m=1e-200", "--k0=0.3", "--kvec", "0.2,0,0"),
    ("scatter", "moller", "--q", "0.5", "--beta", "0,0,1.2"),
)

# The qfield layers each command loads besides the package, cli and
# errors: a cold call loads only the layers its command uses.
COMMAND_LAYERS = {
    "qnum": {"qcore"}, "planck": {"qcore"},
    "fock": {"qcore", "fock"}, "wick": {"qcore", "fock", "wick"},
    "dirac": {"lorentz", "dirac"},
    "propagator": {"lorentz", "propagator", "_bessel_tables"},
    "scatter": {"lorentz", "scattering"}, "--help": set(),
}
LOADED_BY_MAIN = """
import contextlib, io, sys
import qfield.cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        code = qfield.cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(code, *sorted(m for m in sys.modules
                    if m.startswith("qfield")
                    or m in ("dataclasses", "inspect")))
"""

def test_import_leaves_scipy_out():
    script = f"""
import contextlib, io, sys
import qfield, qfield.cli
import qfield.lorentz, qfield.dirac, qfield.propagator, qfield.scattering

def heavy():
    return [m for m in ("numpy", "scipy") if m in sys.modules]

assert heavy() == [], heavy()
for argv, code in ([(a, 0) for a in {NUMPY_FREE_ARGV!r}]
                   + [(a, 1) for a in {NUMPY_FREE_ERROR_ARGV!r}]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        assert qfield.cli.main(list(argv)) == code, argv
    assert code == 0 or err.getvalue().startswith("error: "), argv
    assert heavy() == [], (argv, heavy())
print("ok")
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert res.returncode == 0 and res.stdout == "ok\n", res.stderr


def test_cold_calls_load_only_their_layers():
    # modules accumulate within one process, so each call gets a fresh
    # interpreter: the qfield layers it loads are its command's, and no
    # call loads dataclasses or inspect
    res = subprocess.run(
        [sys.executable, "-c", "import sys, qfield; print(*sorted(m for m in "
         "sys.modules if m.startswith('qfield')))"],
        capture_output=True, text=True)
    assert res.stdout.split() == ["qfield"], res.stderr
    base = {"qfield", "qfield.cli", "qfield.errors"}
    calls = ([(argv, 0) for argv in (*NUMPY_FREE_ARGV, ("--help",))]
             + [(argv, 1) for argv in NUMPY_FREE_ERROR_ARGV])
    for argv, want_code in calls:
        res = subprocess.run([sys.executable, "-c", LOADED_BY_MAIN, *argv],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        code, *modules = res.stdout.split()
        layers = COMMAND_LAYERS[argv[0]]
        want = base | {f"qfield.{layer}" for layer in layers}
        assert (int(code), set(modules)) == (want_code, want), argv


def test_cli_runs_with_numpy_blocked():
    # sys.modules["numpy"] = None makes every numpy import fail: the 16
    # invocations still exit 0 with the stdout of an ordinary run
    want = [run(*argv) for argv in NUMPY_FREE_ARGV]
    assert all(res.returncode == 0 for res in want)
    script = f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
import qfield.cli

out = []
for argv in {NUMPY_FREE_ARGV!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qfield.cli.main(list(argv))
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    for argv, (code, stdout), ref in zip(NUMPY_FREE_ARGV, got, want):
        assert code == 0 and stdout == ref.stdout, argv


def test_flavor_choices_match_scattering(capsys):
    from qfield import cli, scattering
    assert cli.FLAVORS == (scattering.PHOTON_LINE, scattering.ELECTRON_LINE)
    with pytest.raises(SystemExit) as info:
        cli.main(["scatter", "frame-scan", "--flavor", "bogus"])
    assert info.value.code == 2
    # argparse quotes the choices through Python 3.13.0; 3.13.13 prints
    # them bare
    err = capsys.readouterr().err
    assert any(err.endswith("argument --flavor: invalid choice: 'bogus' "
                            f"(choose from {choices})\n")
               for choices in ("'photon_line', 'electron_line'",
                               "photon_line, electron_line")), err


def _command_paths(table, path=()):
    """(path, entry) of every group and leaf of a COMMANDS table."""
    for name, (_, *entry) in table.items():
        yield (*path, name), entry
        if len(entry) == 1:
            yield from _command_paths(entry[0], (*path, name))


def test_parser_builds_only_the_command_it_parses():
    from qfield import cli
    parser = cli.build_parser()
    parser.parse_args(["qnum", "--n", "1"])
    commands = next(a for a in parser._actions if a.dest == "command")
    built = {name for name, sub in commands.choices.items()
             if [a.dest for a in sub._actions] != ["help"]}
    assert built == {"qnum"}


def test_every_command_level_parses_its_help(capsys):
    # each group lists its subcommands and each leaf its options, so every
    # lazily built level was filled before argparse printed its help
    from qfield import cli
    levels = [((), [cli.COMMANDS]), *_command_paths(cli.COMMANDS)]
    assert len(levels) == 1 + 7 + 14  # top, commands, subcommands
    for path, entry in levels:
        with pytest.raises(SystemExit) as info:
            cli.main([*path, "--help"])
        assert info.value.code == 0, path
        out = capsys.readouterr().out
        assert out.startswith(" ".join(("usage: qfield", *path, "[-h]"))), \
            path
        if len(entry) == 1:
            assert "{" + ",".join(entry[0]) + "}" in out, path
        else:
            assert all(flag in out for flag, _ in entry[1]), path


def test_lazy_levels_keep_argparse_errors(capsys):
    from qfield import cli
    with pytest.raises(SystemExit) as info:
        cli.main(["wick"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "qfield wick: error: the following arguments are required: "
        "subcommand\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["propagator", "scalr"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qfield propagator [-h]")
    assert "argument subcommand: invalid choice: 'scalr'" in err
    # an abbreviated global option still resolves
    assert cli.main(["--form", "json", "qnum", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"q": "1", "n": "2", "basic_number": "2"}]


def test_parse_grid_is_linspace_bit_for_bit():
    import random

    import numpy as np
    from qfield.cli import parse_grid
    tiny = math.ulp(0.0)
    ends = [(0.5, 2.0), (2.0, 0.5), (1.25, 1.25), (-0.0, -0.0), (-0.0, 1.0),
            (0.0, -3.0), (0.0, tiny), (tiny, 0.0), (-tiny, 3 * tiny),
            (1e-310, 1e-310 + 40 * tiny), (-3.0, 7.0)]
    cases = [(lo, hi, n) for lo, hi in ends for n in (0, 1, 2, 7)]
    rng = random.Random(20261018)
    for _ in range(2000):
        lo = rng.uniform(-10.0, 10.0)
        hi = rng.choice((lo, rng.uniform(-10.0, 10.0)))
        cases.append((lo, hi, rng.randrange(0, 40)))
    for lo, hi, n in cases:
        want = np.linspace(lo, hi, n).tolist()
        got = parse_grid(f"{lo!r}:{hi!r}:{n}")
        assert [x.hex() for x in got] == [x.hex() for x in want], (lo, hi, n)
    with pytest.raises(ValueError) as ours:
        parse_grid("2:4:-1")
    with pytest.raises(ValueError) as numpy_text:
        np.linspace(2.0, 4.0, -1)
    assert str(ours.value) == str(numpy_text.value)


# ------------------------------------------------------------ fuzz of main
#
# argv drawn from the subcommand grammar, with option values that include
# nan, +-inf, +-1e308, negative counts and malformed vectors and grids.
# Every call must end in exit 0, 1 or 2 without an untyped exception, and
# print no nan or inf where every number it was given is finite.

_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-308",
                     "0", "-0", "1", "-1", "0.5", "2", "1.2", "x", ""]),
    st.floats().map(repr))
_COUNT = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(["x", "1.5"]))
_VECTOR = st.one_of(
    st.lists(_NUMBER, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["0,0,0", "0.2,0,0.1", "0,0,0.5", "1,2", ",,", ""]))
_GRID = st.one_of(
    st.tuples(_NUMBER, _NUMBER, _COUNT).map(":".join),
    st.sampled_from(["2:4:5", "0.5:2:4", "1:2", "a:b:c", ""]))
_OPS = st.lists(st.sampled_from(["a0", "a0+", "a1", "a1+", "b0", "b0+", "a",
                                 "a+", "c0", "a0++", "+", "ax"]),
                max_size=6).map(",".join)
_SPINS = st.one_of(st.lists(st.sampled_from(["1", "-1", "2", "0", "x"]),
                            min_size=1, max_size=5).map(",".join),
                   st.just(""))
_BETAS = st.lists(_VECTOR, min_size=1, max_size=3).map(";".join)
_MOMENTUM = {"q": _NUMBER, "m": _NUMBER, "k0": _NUMBER, "kvec": _VECTOR,
             "k0-grid": _GRID}
_KINEMATICS = {"q": _NUMBER, "m": _NUMBER, "energy": _NUMBER,
               "theta": _NUMBER}
_GRAMMAR = {
    ("qnum",): {"q": _NUMBER, "n": _COUNT},
    ("planck",): {"q": _NUMBER, "x": _NUMBER},
    ("fock", "vev"): {"q": _NUMBER, "ops": _OPS},
    ("wick", "normal"): {"q": _NUMBER, "ops": _OPS},
    ("wick", "expand"): {"q": _NUMBER, "ops": _OPS},
    ("wick", "verify"): {"q": _NUMBER, "max-len": _COUNT},
    ("dirac", "check"): {},
    ("propagator", "scalar"): _MOMENTUM,
    ("propagator", "spinor"): _MOMENTUM,
    ("propagator", "photon"): _MOMENTUM,
    ("propagator", "residues"): {"q": _NUMBER, "m": _NUMBER, "kvec": _VECTOR},
    ("propagator", "position"): {"q": _NUMBER, "m": _NUMBER, "t": _NUMBER,
                                 "r": _NUMBER},
    ("propagator", "spacelike"): {"q": _NUMBER, "m": _NUMBER, "r": _NUMBER,
                                  "r-grid": _GRID},
    ("scatter", "moller"): {**_KINEMATICS, "spins": _SPINS, "beta": _VECTOR,
                            "strict-paper-mode": st.none()},
    ("scatter", "annihilate"): {**_KINEMATICS, "beta": _VECTOR},
    ("scatter", "frame-scan"): {
        **_KINEMATICS, "betas": _BETAS,
        "flavor": st.sampled_from(["photon_line", "electron_line", "x"])},
}


# global options; TMP stands for a fresh directory per example, so --out
# names a file there, a file in a missing directory, or the directory itself
_GLOBAL = {"format": st.sampled_from(["csv", "json", "xml"]),
           "out": st.sampled_from(["TMP/x.csv", "TMP/missing/x.csv", "TMP"]),
           "golden": st.sampled_from(["write", "check"])}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = []
    for name, values in _GLOBAL.items():
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(values)}")
    argv += command
    for name, values in _GRAMMAR[command].items():
        if draw(st.booleans()):
            value = draw(values)
            argv.append(f"--{name}" if value is None else f"--{name}={value}")
    return argv


def _nonfinite_number_in(argv) -> bool:
    for token in argv:
        for part in re.split("[=,:;]", token):
            try:
                if not math.isfinite(float(part)):
                    return True
            except ValueError:
                pass
    return False


# derandomized, so the suite sees the same 150 argv on every run; a
# warning is an error here, since it would reach stderr ahead of the error
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_main_fuzz_exits_cleanly(argv):
    from qfield.cli import main
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("TMP", tmp) for a in argv]
        env = {"QFIELD_GOLDEN_DIR": os.path.join(tmp, "golden")}
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, env), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        written = os.path.join(tmp, "x.csv")
        if os.path.isfile(written):
            with open(written) as fh:
                out.write(fh.read())
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert err.getvalue() == "", argv
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
    if not _nonfinite_number_in(argv):
        assert not re.search(r"\b(nan|inf)\b", out.getvalue()), argv
