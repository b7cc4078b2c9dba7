"""Worker process: the only process that runs qfield's timed operations.

    python bench/worker.py run '<config json>'
    python bench/worker.py setup <workload> <seed>
    python bench/worker.py cli '<list of argv lists>'
    python bench/worker.py cli-call <spans file or -> <argv...>

``run`` executes passes of a workload, optionally also traced, then the
run's known-defect probes untimed, and writes one JSON line per operation
to stdout followed by a summary line.  ``setup``
times a fresh interpreter's ``import qfield`` plus one warm-up operation.
``cli`` runs CLI invocations in-process through ``qfield.cli.main`` and
reports each one's stdout, stderr, exit code and time.  ``cli-call`` is
one cold CLI call, traced when given a file for its spans.

The parent (run.py) puts the checkout's ``src`` first on PYTHONPATH; only
standard-library modules are imported before ``qfield`` so that ``setup``
times the package's real import.  ``workloads`` imports only the standard
library at module level.
"""
import sys
import time


def _check_source():
    import os
    import qfield
    src = os.environ.get("QFIELD_BENCH_SRC", "")
    if not src or not os.path.abspath(qfield.__file__).startswith(src + os.sep):
        sys.exit(f"qfield was imported from {qfield.__file__}, not from {src!r}")


# Result hooks that turn a traced call's return value into work counts.
def _count_diagrams(counters, diagrams):
    counters["wick.diagrams"] = counters.get("wick.diagrams", 0) + len(diagrams)
    useful = sum(1 for d in diagrams if d.is_full and d.pair_value != 0)
    counters["wick.useful_diagrams"] = (
        counters.get("wick.useful_diagrams", 0) + useful)


def _count_terms(counters, nf):
    counters["wick.normal_order.terms_out"] = (
        counters.get("wick.normal_order.terms_out", 0) + len(nf.terms))


HOOKS = {"wick.wick_expand": _count_diagrams,
         "wick.normal_order": _count_terms}


def _root_name(op: dict) -> str:
    name = f"bench.op.{op['kind']}"
    return f"{name}.L{op['len']}" if "len" in op else name


def run(cfg: dict):
    """Run passes: for ``seconds`` and ``min_ops``, or a fixed number.

    With ``trace``, each pass runs twice, untraced and traced, in an order
    that alternates from pass to pass; records carry a ``traced`` flag and
    the spans go to the file ``spans``.  Every CAL_INTERVAL_S the
    calibration kernel runs between operations; each record carries the
    median of the last three kernel times as ``cal``.  The probes follow,
    untraced and untimed, as records with a ``probe`` flag.
    """
    import json
    import resource
    from qfield.errors import QFieldError
    from workloads import CAL_INTERVAL_S, calibrate, make_pass, \
        make_probes, prepare, run_guarded
    from tracer import Tracer

    tracer = Tracer() if cfg.get("trace") else None
    workload, seed, passes = cfg["workload"], cfg["seed"], cfg.get("passes")
    seconds, min_ops = cfg.get("seconds", 0.0), cfg.get("min_ops", 0)
    write, clock = sys.stdout.write, time.perf_counter
    done = p = 0
    cals = []
    begin = last_cal = clock()
    while True:
        if passes is not None:
            if p >= passes:
                break
        elif done >= min_ops and clock() - begin >= seconds:
            break
        ops = make_pass(workload, seed, p)
        order = [False] if tracer is None else [p % 2 == 1, p % 2 == 0]
        for traced in order:
            if traced:
                tracer.install(HOOKS)
            for op in ops:
                if not cals or clock() - last_cal >= CAL_INTERVAL_S:
                    cals.append(calibrate())
                    last_cal = clock()
                    cal = sorted(cals[-3:])[len(cals[-3:]) // 2]
                call, finish, oracle = prepare(op)
                span = tracer.open(_root_name(op)) if traced else None
                error = None
                t0 = clock()
                try:
                    result = call()
                except QFieldError as exc:
                    error = {"error": type(exc).__name__, "typed": True}
                except Exception as exc:  # an untyped error is a measured failure
                    error = {"error": type(exc).__name__, "typed": False}
                t1 = clock()
                if traced:
                    tracer.close(span, t1)
                rec = {"pass": p, "traced": traced, "op": op, "s": t1 - t0,
                       "cal": cal, "out": error or finish(result)}
                if oracle is not None:
                    span = (tracer.open(f"bench.ref.{op['kind']}")
                            if traced else None)
                    rec["oracle"] = run_guarded(oracle)
                    if traced:
                        tracer.close(span)
                write(json.dumps(rec) + "\n")
                done += 1
            if traced:
                tracer.uninstall()
        sys.stdout.flush()
        p += 1
    if tracer:
        tracer.dump(cfg["spans"], {"counters": tracer.counters,
                                   "errors": _errors(tracer)})
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes = make_probes(workload, seed)
    for op in probes:
        call, finish, oracle = prepare(op)
        rec = {"probe": True, "op": op,
               "out": run_guarded(lambda: finish(call()))}
        if oracle is not None:
            rec["oracle"] = run_guarded(oracle)
        write(json.dumps(rec) + "\n")
    write(json.dumps({"summary": True, "ops": done, "probes": len(probes),
                      "rss_kb": rss_kb}) + "\n")


def _errors(tracer) -> dict:
    return {f"{name}|{exc}": n for (name, exc), n in tracer.errors.items()}


def setup(workload: str, seed: int):
    """Time ``import qfield``, preparing the warm-up operation (the
    qfield modules it imports) and running it, as one interval."""
    from workloads import calibrate, make_pass, prepare, warmup_op
    op = warmup_op(make_pass(workload, seed, 0))
    t0 = time.perf_counter()
    import qfield  # noqa: F401  (the import is what is being timed)
    if workload == "cli_cold":
        call = _in_process_cli(op["argv"])
    else:
        call = prepare(op)[0]
    try:
        call()
    except Exception:  # the warm-up's outcome is checked in the timed run
        pass
    t1 = time.perf_counter()
    _check_source()
    import json
    cals = sorted(calibrate() for _ in range(9))
    print(json.dumps({"setup_s": t1 - t0, "cal": cals[4]}))


def _in_process_cli(argv):
    """A call that runs one CLI invocation in-process.

    It returns (exit code, stdout, stderr, untyped exception name or None).
    """
    import contextlib
    import io
    from qfield import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        untyped = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # mirrors an uncaught traceback, exit 1
                code, untyped = 1, type(exc).__name__
        return code, out.getvalue(), err.getvalue(), untyped
    return call


def cli_in_process(argv_lists: list):
    import json
    _check_source()
    results = []
    for argv in argv_lists:
        call = _in_process_cli(argv)
        t0 = time.perf_counter()
        code, out, err, untyped = call()
        results.append({"argv": argv, "code": code, "stdout": out,
                        "stderr": err, "untyped": untyped,
                        "s": time.perf_counter() - t0})
    print(json.dumps(results))


def cli_call(spans_path: str, argv: list):
    """One cold CLI call from this bootstrap; with a spans path other than
    "-", the import and a traced cli.main are recorded there.  The time
    after the last span, writing the spans included, is the parent's
    ``startup.exit``."""
    t0 = time.perf_counter()
    from qfield import cli  # what ``python -m qfield`` imports
    t1 = time.perf_counter()
    if spans_path == "-":
        sys.exit(cli.main(argv))
    from tracer import Tracer
    tracer = Tracer()
    tracer.add("startup.import", t0, t1, -1)
    tracer.install(HOOKS)
    tracer.add("trace.install", t1, time.perf_counter(), -1)
    code = 1
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, {"counters": tracer.counters,
                                 "errors": _errors(tracer),
                                 "first": t0, "last": time.perf_counter()})
    sys.exit(code)


if __name__ == "__main__":
    import os
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
    elif mode == "cli-call":
        cli_call(rest[0], rest[1:])
    else:
        import json
        _check_source()
        if mode == "run":
            run(json.loads(rest[0]))
        elif mode == "cli":
            cli_in_process(json.loads(rest[0]))
        else:
            sys.exit(f"unknown mode {mode!r}")
