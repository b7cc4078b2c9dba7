"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--trace 0|1] [--out FILE]

Every workload in BENCHMARK.json runs for ``run_seconds``, once per
seed.  Runs are sequential; each run's report (every metric with its unit and
sample count, and the outcome of its reference checks) goes to stderr.
``--seeds 1`` is the one command that runs all three workloads once.
For every workload and metric it then prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound
in BENCHMARK.json.  ``--out`` writes the same summary, with the raw values,
the failure counts, the known-defect probes' failure counts and the
environment, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    print(f"== {workload} seed {seed}\n" + "\n".join(lines[:-1]),
          file=sys.stderr)
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    # "known_defects  failed X of Y probes"
    defects = next(int(x.split()[2]) for x in lines
                   if x.startswith("known_defects "))
    return json.loads(lines[-1]), env, defects


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"seeds": parse_seeds(args.seeds), "seconds": seconds,
               "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, defects = [], []
        for seed in summary["seeds"]:
            result, env, failed_probes = run_once(workload, seed, seconds,
                                                  args.trace)
            runs.append(result)
            defects.append(failed_probes)
            print(f"correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        names = list(runs[0]["metrics"])
        metrics = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             **summarise(values)}
            s = metrics[name]
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = bounds.get(name)
            print(f"{workload:12s} {name:40s} median {s['median']:12.6g} "
                  f"spread {spread:>7s}"
                  + (f"  bound {bound}" if bound is not None else ""))
        summary["workloads"][workload] = {
            "metrics": metrics,
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "known_defects_failed": defects,
            "fail_frac": summarise([r["failed"] / r["attempted"]
                                    for r in runs])}
        summary["env"] = env
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
