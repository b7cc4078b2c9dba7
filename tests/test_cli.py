"""End-to-end tests of the CLI: exit codes, CSV schema, formats, goldens."""
import json
import os
import subprocess
import sys

import pytest

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


def test_fock_vev_matches_library():
    res = run("fock", "vev", "--q", "0.5", "--ops", "a0,a0,a0+,a0+")
    assert res.returncode == 0
    row = res.stdout.strip().split("\n")[1].split(",")
    # <a a adag adag> = (1 + q) at this q
    assert float(row[2]) == pytest.approx(1.5, abs=1e-12)


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


def test_onshell_propagator_exits_1():
    res = run("propagator", "scalar", "--q", "1", "--m", "1",
              "--k0", "1", "--kvec", "0,0,0")
    assert res.returncode == 1
    assert "PoleError" in res.stderr


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


def test_overflow_and_large_x_paths():
    res = run("qnum", "--q", "2", "--n", "1100")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error: NumericOverflowError:")
    assert len(res.stderr.splitlines()) == 1
    res = run("planck", "--q", "0.5", "--x", "1000")
    assert res.returncode == 0
    assert res.stdout == "x,q,occupancy\n1000,0.5,0\n"


def test_import_leaves_scipy_out():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, qfield, qfield.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0 and res.stdout == "False\n"
