"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402


def test_passes_are_seeded_and_keep_one_mix():
    for w in workloads.WORKLOADS:
        a = workloads.make_pass(w, 7, 0)
        assert a == workloads.make_pass(w, 7, 0)
        mixes = {tuple(sorted(Counter(op["kind"] for op in
                                      workloads.make_pass(w, s, p)).items()))
                 for s in (1, 2) for p in (0, 3)}
        assert len(mixes) == 1
    assert workloads.make_pass("field_probe", 1, 0) != \
        workloads.make_pass("field_probe", 2, 0)


def _counts(workload, seed, tmp_path, tag):
    spans = str(tmp_path / f"spans-{tag}.json")
    records, probes, _ = run.run_worker({"workload": workload, "seed": seed,
                                         "passes": 1, "trace": True,
                                         "spans": spans})
    results = run.check_records(records)
    metrics = run.layer_metrics(run.load_spans(spans), records, results)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def test_work_counts_repeat_for_a_seed(tmp_path):
    for workload in ("wick_oracle", "field_probe"):
        first = _counts(workload, 5, tmp_path, "a")
        assert first == _counts(workload, 5, tmp_path, "b")
        assert any(v for k, v in first.items() if not k.startswith("ops."))


def test_timed_operations_pass_and_probes_are_a_fixed_deck():
    records, probes, _ = run.run_worker({"workload": "field_probe",
                                         "seed": 2, "passes": 3})
    assert len(records) == 3 * len(workloads.make_pass("field_probe", 2, 0))
    assert all(ok for ok, _ in run.check_records(records))
    assert [p["op"] for p in probes] == workloads.make_probes("field_probe", 2)
    for w in workloads.WORKLOADS:
        assert len(workloads.make_probes(w, 1)) == \
            len(workloads.make_probes(w, 2)) > 0


def test_hankel_reference_matches_quadrature_off_the_light_cone():
    from qfield import propagator
    for t, r in ((2.0, 0.5), (0.5, 2.0), (-2.0, 0.5)):
        op = {"kind": "causal_position", "t": t, "r": r, "m": 1.0, "q": 0.5}
        got = propagator.causal_position(t, r, 1.0, 0.5).value
        want = checks.quad_reference(op)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_importtime_parser_finds_qfield_and_scipy():
    qfield_ms, scipy_ms = run.importtime_ms()
    assert qfield_ms > 0 and 0 <= scipy_ms < qfield_ms


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "wick_oracle", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result: {line}")


def test_wick_strings_do_not_repeat():
    seen = set()
    for p in range(4):
        for op in workloads.make_pass("wick_oracle", 3, p):
            key = (op["kind"], tuple(op["ops"]))
            assert key not in seen
            seen.add(key)
