"""qfield benchmark: cold CLI calls, the Wick/Fock oracle sweep, field probes.

    python3 bench/run.py --workload {cli_cold,wick_oracle,field_probe}
                         --seed N --seconds S --trace {0,1}

Run from a checkout: it imports qfield from ``src/`` of the checkout and
exits non-zero, printing no result, when that source is missing.

Workloads (closed loop, one client, one process doing the work):

* ``cli_cold``: sequential ``python -m qfield ...`` subprocesses cycling in a
  seeded order over the 16 invocations of acceptance criterion 11 plus four
  error paths.  Interpreter start and ``import qfield`` are nearly all of a
  call's cost, which is what users and the acceptance suite pay per call.
* ``wick_oracle``: ``normal_order`` and ``wick_vev`` on seeded operator
  strings of length 2-12, each checked against the Fock oracle.  The Wick
  engine does nearly all the work and does none in the other workloads.
* ``field_probe``: momentum-space propagators, pole residues, equal-time and
  position-space quadratures, Moller spin sums and frame scans.  Cheap
  closed forms sit beside expensive quadratures; no Wick work.

See workloads.py for the mix, and for the known defects that a fixed deck
of probes per run measures outside the timed loop.

A run holds whole passes (see workloads.py) and lasts at least ``--seconds``
and at least MIN_OPS operations, so that p90 has ten samples beyond it; a
``cli_cold`` run therefore takes about a minute on 2 CPUs.  Reference checks
run in this process after the timed loop; the timed work runs in
worker.py (in-process workloads) or in ``python -m qfield`` children.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
SETUP_REPEATS fresh interpreters, each timing ``import qfield``, the qfield
imports of one warm-up operation and the operation, as one interval),
``op_ms_p50``/``op_ms_p90`` (nearest rank), ``throughput_ops_s``
(median over passes of the pass's operations over their summed latency),
``peak_rss_mb`` (the worker, or the largest CLI child).  Timings are scaled
to a reference CPU speed (see CAL_REF_S); the unscaled ones are printed as
``raw.*`` with the median scale factor.  Per-layer times are unscaled.
``fail_frac`` of the timed operations is printed and carried in the
result's ``failed`` and ``attempted``; every timed operation passes its
check at the seed commit, so ``correct`` is false when any fails.  The
probes' failures print as ``known_defects`` and, traced, as
``defects.failed``; they leave ``correct`` alone.

``--trace 1`` runs a fixed number of passes, each twice, untraced and
traced back to back in alternating order, so work counts repeat exactly for
a seed and the throughput difference is the tracing overhead; it prints the
per-layer metrics and writes every span to ``.bench_out/``.

Seeds 1-27 were used while tuning; seed 9001 is kept back for confirming
later claims.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH, "worker.py")

SETUP_REPEATS = 5
# Median time of workloads.calibrate() on the machine the benchmark was
# tuned on: 2 shared virtual CPUs (Intel Xeon, 2.1 GHz), Python 3.11.
# Every operation's time is scaled by CAL_REF_S over the kernel's time
# measured next to it, so a run on a momentarily slow or fast shared CPU
# reads as it would at the reference speed.  Timed there, qfield's Moller,
# quadrature and Wick calls track the kernel with slope 0.94-1.12 in log
# time, and the scaling cuts their spread over 1-s windows about four times.
CAL_REF_S = 1.3e-3
MIN_OPS = 100
# Passes of a traced run: fixed, so the counts repeat exactly.
TRACE_PASSES = {"cli_cold": 2, "wick_oracle": 3, "field_probe": 30}
CHILD_TIMEOUT_S = 150

BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

sys.path[:0] = [SRC, BENCH]
import workloads  # noqa: E402


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, QFIELD_BENCH_SRC=SRC,
                PYTHONHASHSEED="0", **BLAS_THREADS)


def fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(argv: list) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"{' '.join(argv[:2])} exited {proc.returncode}: "
             f"{proc.stderr.strip()[-2000:]}")
    return proc


def spawn_timed(argv: list) -> tuple:
    """Run one child; return (code, stdout, stderr, seconds, max RSS KB).

    Reads stdout, then stderr: the children here write far less than a pipe
    buffer to stderr.  ``os.wait4`` gives this child's own peak RSS.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    out, err = proc.stdout.read(), proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (proc.returncode, out.decode(), err.decode(), t1 - t0,
            usage.ru_maxrss)


# ------------------------------------------------------------- statistics

def nearest_rank(values: list, p: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def pass_throughput(records: list) -> float:
    """Median over passes of operations per second of latency.

    Every pass has the same mix, so each pass is one sample of the rate at
    that mix; the median shrugs off the stretches in which a shared CPU
    runs faster or slower for a second or so.
    """
    busy: dict = {}
    for r in records:
        n, s = busy.get(r["pass"], (0, 0.0))
        busy[r["pass"]] = (n + 1, s + r["s"])
    return statistics.median(n / s for n, s in busy.values())


def scaled(records: list) -> list:
    """Records with each time scaled to the reference CPU speed."""
    return [dict(r, s=r["s"] * CAL_REF_S / r["cal"]) for r in records]


def latency_metrics(records: list) -> dict:
    lat = [r["s"] for r in records]
    return {"op_ms_p50": (nearest_rank(lat, 0.5) * 1e3, "ms"),
            "op_ms_p90": (nearest_rank(lat, 0.9) * 1e3, "ms"),
            "throughput_ops_s": (pass_throughput(records), "1/s")}


# ------------------------------------------------------------------ setup

def measure_setup(workload: str, seed: int) -> list:
    """Fresh interpreters' import qfield plus one warm-up operation, each
    scaled by the calibration its interpreter ran right after.

    One extra, discarded interpreter first writes the bytecode caches.
    """
    values = []
    for i in range(SETUP_REPEATS + 1):
        proc = run_child([WORKER, "setup", workload, str(seed)])
        if i:
            out = json.loads(proc.stdout.splitlines()[-1])
            values.append(out["setup_s"] * CAL_REF_S / out["cal"])
    return values


def cli_in_process(argv_lists: list) -> list:
    proc = run_child([WORKER, "cli", json.dumps(argv_lists)])
    return json.loads(proc.stdout.splitlines()[-1])


def all_cli_argv() -> list:
    return ([list(a) for a in workloads.CLI_INVOCATIONS]
            + [list(a) for a, _ in workloads.CLI_ERROR_PATHS
               + workloads.CLI_DEFECT_PATHS])


# ------------------------------------------------------ in-process loads

def run_worker(cfg: dict) -> tuple:
    """(timed records, probe records, summary) of one worker run."""
    proc = run_child([WORKER, "run", json.dumps(cfg)])
    lines = [json.loads(x) for x in proc.stdout.splitlines()]
    summary = lines.pop()
    records = [x for x in lines if not x.get("probe")]
    probes = [x for x in lines if x.get("probe")]
    if (not summary.get("summary") or summary["ops"] != len(records)
            or summary["probes"] != len(probes)):
        fail("worker output is incomplete")
    return records, probes, summary


def check_records(records: list) -> list:
    import checks
    return [checks.check(rec["op"], rec) for rec in records]


# ----------------------------------------------------------- cli_cold

def run_cli_ops(seed: int, passes: int | None, seconds: float,
                tracer=None) -> list:
    """Cold CLI calls; returns records with code, output, time, RSS.

    Untraced, each call is ``python -m qfield``.  With a tracer, each
    operation runs twice through worker.py's ``cli-call`` bootstrap, plain
    and traced, back to back in alternating order, so that the difference
    is the tracer's alone and both see the same state of a shared CPU.
    Each call carries as ``cal`` the mean of two calibrations, one right
    before it and one right after, which bracket the CPU speed it saw."""
    records = []
    begin = time.perf_counter()
    p = 0
    while True:
        if passes is not None:
            if p >= passes:
                break
        elif len(records) >= MIN_OPS and time.perf_counter() - begin >= seconds:
            break
        for i, op in enumerate(workloads.make_pass("cli_cold", seed, p)):
            if tracer is None:
                runs = [(None, ["-m", "qfield", *op["argv"]])]
            else:
                runs = [(False, [WORKER, "cli-call", "-", *op["argv"]]),
                        (True, None)]
                if i % 2:
                    runs.reverse()
            for traced, argv in runs:
                before = workloads.calibrate()
                if traced:
                    rec = traced_cli_call(op, tracer)
                else:
                    code, out, err, sec, rss = spawn_timed(argv)
                    rec = {"op": op, "code": code, "stdout": out,
                           "stderr": err, "s": sec, "rss_kb": rss}
                cal = (before + workloads.calibrate()) / 2.0
                rec["pass"], rec["traced"], rec["cal"] = p, bool(traced), cal
                records.append(rec)
        p += 1
    return records


def traced_cli_call(op: dict, tracer) -> dict:
    """One cold call whose child records spans; they are merged into
    ``tracer`` under an op span measured here, with the interpreter's
    start and exit as ``startup.interp`` and ``startup.exit`` spans."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "cli-child-spans.json")
    code, out, err, sec, rss = spawn_timed([WORKER, "cli-call", path,
                                            *op["argv"]])
    t1 = time.perf_counter()
    t0 = t1 - sec
    with open(path) as fh:
        child = json.load(fh)
    os.remove(path)
    root = tracer.add(f"bench.op.{op['kind']}", t0, t1, -1)
    tracer.add("startup.interp", t0, child["first"], root)
    tracer.add("startup.exit", child["last"], t1, root)
    merge_spans(tracer, child, root)
    return {"op": op, "code": code, "stdout": out, "stderr": err, "s": sec,
            "rss_kb": rss}


def merge_spans(tracer, data: dict, root: int = -1):
    base = len(tracer.start)
    for name, start, end, parent in data["spans"]:
        tracer.add(name, start, end, base + parent if parent >= 0 else root)
    for key, n in data["counters"].items():
        tracer.counters[key] = tracer.counters.get(key, 0) + n
    for key, n in data["errors"].items():
        name, exc = key.split("|")
        tracer.errors[(name, exc)] = tracer.errors.get((name, exc), 0) + n


def run_cli_probes(seed: int) -> list:
    """The known-defect CLI calls, once each, untimed."""
    records = []
    for op in workloads.make_probes("cli_cold", seed):
        code, out, err, _, _ = spawn_timed(["-m", "qfield", *op["argv"]])
        records.append({"op": op, "code": code, "stdout": out,
                        "stderr": err})
    return records


def check_cli_records(records: list, golden: dict) -> list:
    import checks
    return [checks.check_cli(r["op"], r["code"], r["stdout"], r["stderr"],
                             golden) for r in records]


def golden_outputs() -> tuple:
    """In-process outputs of every invocation, keyed by argv, and the
    mean in-process cli.main time."""
    results = cli_in_process(all_cli_argv())
    golden = {" ".join(r["argv"]): r for r in results}
    return golden, statistics.fmean(r["s"] for r in results)


# ---------------------------------------------------------- cli probe

def importtime_ms() -> tuple:
    """(qfield, scipy) cumulative import time from ``-X importtime`` of
    ``import qfield.cli``, the modules ``python -m qfield`` loads.

    Each package's time is the sum over its imports that no import of the
    same package encloses: ``qfield`` and ``qfield.cli`` are siblings, as
    the package's ``__init__`` does not import the CLI."""
    proc = run_child(["-X", "importtime", "-c", "import qfield.cli"])
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(),
                        int(cum)))
    totals = {"qfield": 0, "scipy": 0}
    stack: list = []  # enclosing imports; children are printed first
    for indent, name, cum in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and not any(n.split(".")[0] == package
                                         for _, n in stack):
            totals[package] += cum
        stack.append((indent, name))
    return totals["qfield"] / 1e3, totals["scipy"] / 1e3


def cli_probe(main_s: float) -> dict:
    interp = [spawn_timed(["-c", "pass"])[3] for _ in range(SETUP_REPEATS)]
    imports = [importtime_ms() for _ in range(3)]
    return {"cli.interp_ms": (statistics.median(interp) * 1e3, "ms"),
            "cli.import_ms": (statistics.median(i[0] for i in imports), "ms"),
            "cli.import_scipy_ms": (statistics.median(i[1] for i in imports),
                                    "ms"),
            "cli.main_ms": (main_s * 1e3, "ms")}


# ------------------------------------------------------------- per layer

# "other" collects functions of modules added to qfield after this list.
LAYERS = ("startup", "cli", "qcore", "fock", "wick", "dirac", "propagator",
          "scattering", "other", "trace", "bench")
QUAD_KINDS = ("delta_plus", "commutator", "causal_position")


def _stats(tr, qualname: str) -> tuple:
    d = tr.durations(qualname)
    return (len(d), sum(d) * 1e3,
            nearest_rank(d, 0.5) * 1e6 if d else 0.0,
            nearest_rank(d, 0.9) * 1e6 if d else 0.0)


def layer_metrics(tr, records: list, results: list) -> dict:
    """Per-layer metrics from the spans and records of the traced passes."""
    traced = [(r, res) for r, res in zip(records, results) if r["traced"]]
    records, results = [r for r, _ in traced], [res for _, res in traced]
    own = tr.self_times()
    roots = tr.roots()
    self_ms = dict.fromkeys(LAYERS, 0.0)
    wick_len = {8: 0.0, 10: 0.0, 12: 0.0}
    dirac_calls = 0
    op_ms = 0.0
    for idx, nid in enumerate(tr.name):
        root_name = tr.names[tr.name[roots[idx]]]
        layer = tr.layer(nid)
        layer = layer if layer in self_ms else "other"
        if layer == "dirac":
            dirac_calls += 1
        if not root_name.startswith("bench.op."):
            continue
        self_ms[layer] += own[idx] * 1e3
        if roots[idx] == idx:
            op_ms += (tr.end[idx] - tr.start[idx]) * 1e3
        if layer == "wick" and ".L" in root_name:
            length = int(root_name.rsplit(".L", 1)[1])
            if length in wick_len:
                wick_len[length] += own[idx] * 1e3
    m = {f"{layer}.self_ms": (v, "ms") for layer, v in self_ms.items()}
    m["trace.op_ms"] = (op_ms, "ms")
    m["trace.unaccounted_frac"] = (self_ms["bench"] / op_ms if op_ms else 0.0,
                                   "ratio")
    m["trace.spans"] = (len(tr.start), "count")

    m["qcore.basic_number.calls"] = (tr.count("qcore.basic_number"), "count")
    n, busy, p50, _ = _stats(tr, "fock.vev")
    m["fock.vev.calls"] = (n, "count")
    m["fock.vev.busy_ms"] = (busy, "ms")
    m["fock.vev.us_p50"] = (p50, "us")
    m["fock.apply_ladder.calls"] = (tr.count("fock.apply_ladder"), "count")
    m["fock.vev.errors"] = (tr.error_count("fock.vev"), "count")

    for fn in ("normal_order", "wick_vev"):
        n, busy, _, p90 = _stats(tr, f"wick.{fn}")
        m[f"wick.{fn}.calls"] = (n, "count")
        m[f"wick.{fn}.busy_ms"] = (busy, "ms")
        m[f"wick.{fn}.us_p90"] = (p90, "us")
    c = tr.counters
    m["wick.normal_order.terms_out"] = (
        c.get("wick.normal_order.terms_out", 0), "count")
    diagrams = c.get("wick.diagrams", 0)
    m["wick.diagrams"] = (diagrams, "count")
    m["wick.useful_diagram_frac"] = (
        c.get("wick.useful_diagrams", 0) / diagrams if diagrams else 0.0,
        "ratio")
    for length, v in wick_len.items():
        m[f"wick.busy_ms.len{length}"] = (v, "ms")
    m["wick.mismatch"] = (sum(1 for _, d in results if d.get("mismatch")),
                          "count")

    momentum = [_stats(tr, f"propagator.{f}_propagator_momentum")
                for f in ("scalar", "spinor", "photon")]
    m["propagator.momentum.calls"] = (sum(s[0] for s in momentum), "count")
    m["propagator.momentum.busy_ms"] = (sum(s[1] for s in momentum), "ms")
    n, busy, _, _ = _stats(tr, "propagator.pole_residues")
    m["propagator.pole_residues.calls"] = (n, "count")
    m["propagator.pole_residues.busy_ms"] = (busy, "ms")
    n, busy, p50, p90 = _stats(tr, "propagator.oscillatory_integral")
    m["propagator.quad.calls"] = (n, "count")
    m["propagator.quad.busy_ms"] = (busy, "ms")
    m["propagator.quad.us_p50"] = (p50, "us")
    m["propagator.quad.us_p90"] = (p90, "us")
    m["propagator.quad.convergence_errors"] = (
        sum(1 for _, d in results if d.get("convergence_error")), "count")
    honest = [d["honest"] for _, d in results if "honest" in d]
    m["propagator.quad.honest_frac"] = (
        sum(honest) / len(honest) if honest else 0.0, "ratio")

    m["dirac.calls"] = (dirac_calls, "count")
    m["dirac.busy_ms"] = (self_ms["dirac"], "ms")

    n, busy, p50, _ = _stats(tr, "scattering.moller_spin_summed")
    m["scattering.moller_spin_summed.calls"] = (n, "count")
    m["scattering.moller_spin_summed.busy_ms"] = (busy, "ms")
    m["scattering.moller_spin_summed.us_p50"] = (p50, "us")
    n, busy, _, _ = _stats(tr, "scattering.frame_scan")
    m["scattering.frame_scan.calls"] = (n, "count")
    m["scattering.frame_scan.busy_ms"] = (busy, "ms")
    m["scattering.boosts"] = (tr.count("scattering.boost"), "count")

    kinds = {k: 0 for w in workloads.WORKLOADS for k in workloads.OP_KINDS[w]}
    for rec in records:
        kinds[rec["op"]["kind"]] += 1
    for kind, n in kinds.items():
        m[f"ops.{kind}"] = (n, "count")
    m["ops.failed"] = (failures(results), "count")
    return m


def load_spans(path: str):
    from tracer import Tracer
    tr = Tracer()
    with open(path) as fh:
        merge_spans(tr, json.load(fh))
    return tr


# ------------------------------------------------------------ reporting

def environment() -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(), "commit": commit}


def failures(results: list) -> int:
    return sum(1 for ok, _ in results if not ok)


def report(metrics: dict, samples: dict, results: list, probes: list):
    failed, attempted = failures(results), len(results)
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        print(f"{name:40s} {value:.6g} {unit}" + (f"  (n={n})" if n else ""))
    print(f"{'fail_frac':40s} {failed / attempted:.6g} ratio  "
          f"(failed {failed} of {attempted})")
    print(f"{'known_defects':40s} failed {failures(probes)} of {len(probes)}"
          " probes")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qfield", "__init__.py")):
        fail(f"no qfield source under {SRC}; run from a qfield checkout")
    w, seed = args.workload, args.seed
    if w == "cli_cold":
        golden, main_s = golden_outputs()
    if not args.trace:
        setup = measure_setup(w, seed)
        metrics = {"setup_s": (statistics.median(setup), "s")}
        samples = {"setup_s": len(setup)}
        if w == "cli_cold":
            records = run_cli_ops(seed, None, args.seconds)
            results = check_cli_records(records, golden)
            probes = check_cli_records(run_cli_probes(seed), golden)
            rss_kb = max(r["rss_kb"] for r in records)
        else:
            records, probes, summary = run_worker({"workload": w, "seed": seed,
                                                   "seconds": args.seconds,
                                                   "min_ops": MIN_OPS})
            results = check_records(records)
            probes = check_records(probes)
            rss_kb = summary["rss_kb"]
        for name, (value, unit) in latency_metrics(records).items():
            print(f"{'raw.' + name:40s} {value:.6g} {unit}")
        speed = statistics.median(CAL_REF_S / r["cal"] for r in records)
        print(f"{'raw.speed_scale':40s} {speed:.6g} ratio")
        metrics.update(latency_metrics(scaled(records)))
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        samples.update(dict.fromkeys(("op_ms_p50", "op_ms_p90"), len(records)))
        samples["throughput_ops_s"] = len({r["pass"] for r in records})
    else:
        from tracer import Tracer
        passes = TRACE_PASSES[w]
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{w}-seed{seed}.json")
        if w == "cli_cold":
            tr = Tracer()
            records = run_cli_ops(seed, passes, 0.0, tracer=tr)
            tr.dump(spans, {"counters": tr.counters})
            results = check_cli_records(records, golden)
            probes = check_cli_records(run_cli_probes(seed), golden)
        else:
            _, main_s = golden_outputs()
            records, probes, _ = run_worker({"workload": w, "seed": seed,
                                             "passes": passes, "trace": True,
                                             "spans": spans})
            tr = load_spans(spans)
            results = check_records(records)
            probes = check_records(probes)
        metrics = cli_probe(main_s)
        metrics.update(layer_metrics(tr, records, results))
        metrics["defects.failed"] = (failures(probes), "count")
        plain = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        untraced = pass_throughput(plain)
        with_trace = pass_throughput(traced)
        metrics["trace.untraced_throughput_ops_s"] = (untraced, "1/s")
        metrics["trace.traced_throughput_ops_s"] = (with_trace, "1/s")
        metrics["trace.overhead_ops_s"] = (untraced - with_trace, "1/s")
        metrics["trace.overhead_frac"] = (1.0 - with_trace / untraced, "ratio")
        samples = {"trace.untraced_throughput_ops_s": len(plain),
                   "trace.traced_throughput_ops_s": len(traced)}
    report(metrics, samples, results, probes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
