#!/usr/bin/env python3
"""Benchmark of the puklab workbench: one workload per process, metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify|spectra|symbolic \
        --seed N --seconds S --trace 0|1

A run builds its inputs and reference answers from ``--seed``, then runs the
workload's fixed job list, closed loop with one client, and checks every
output against the references.  The list is a few rounds of the same job
shapes plus a few one-off jobs (see ``pbench/workloads.py``), sized to take
about ``run_seconds`` (BENCHMARK.json) on a 2-core machine; ``--seconds`` is
recorded with the result and does not cut the list short.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
``wall_s`` is the time to run the whole list.  The latency percentiles are
taken over job shapes, each at its median latency over the rounds, which damps
the host's speed changing from one round to the next.  Set-up time is the median of fresh processes, one
before each round, that import the package and run one warm-up job per kind.

With ``--trace 1`` the first round and the one-offs run untraced in a child
process, then traced here, and the last line carries the per-layer metrics.  Spans and a full result record, with the environment,
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("certify", "spectra", "symbolic"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh processes a run starts
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is None and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")
    return args


def import_package():
    """Import puklab from this checkout's ``src``, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import puklab
    import puklab.cli  # noqa: F401  (loads config and every layer the jobs reach)

    origin = Path(puklab.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"puklab was imported from {origin}, not from {SRC}")


def probe(job_file: str) -> int:
    """Child process: time the package import plus one warm-up job per kind."""
    from pbench import jobs

    warmups = [jobs.Job.from_json(j) for j in json.loads(Path(job_file).read_text())]
    start = time.perf_counter_ns()
    import_package()
    outcomes = [jobs.execute(jobs.prepare(job)) for job in warmups]
    setup_ns = time.perf_counter_ns() - start
    print(json.dumps({"setup_s": setup_ns / 1e9,
                      "failures": jobs.failures(warmups, outcomes)}))
    return 0


def run_child(argv: list[str]) -> dict:
    """Run this script in a fresh process and return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(rounds, warmups, tracer=None, before_round=None):
    """Warm up, then run the rounds in order and check every output.

    Returns the jobs and outcomes in run order, each round's wall time in ns,
    the measured jobs whose output is wrong, and the warm-ups that failed.
    """
    from pbench import jobs, trace

    import_package()
    warm_fail = jobs.failures(warmups, [jobs.execute(jobs.prepare(j)) for j in warmups])
    calls = [[jobs.prepare(job) for job in rnd] for rnd in rounds]
    outcomes, walls = [], []
    for rnd, rnd_calls in zip(rounds, calls):
        if before_round is not None:
            before_round()
        gc.collect()
        if tracer is None:
            out, wall_ns = jobs.run_all(rnd, rnd_calls)
        else:
            with trace.Installation(tracer):
                out, wall_ns = jobs.run_all(rnd, rnd_calls, tracer)
        outcomes += out
        walls.append(wall_ns)
    measured = [job for rnd in rounds for job in rnd]
    return measured, outcomes, walls, jobs.failures(measured, outcomes), warm_fail


def shape_costs_ms(measured, outcomes) -> list[float]:
    """Each job shape's median latency over the rounds it ran in, in ms."""
    by_shape: dict[int, list[float]] = {}
    for job, outcome in zip(measured, outcomes):
        by_shape.setdefault(job.shape, []).append(outcome.latency_ns / 1e6)
    return [statistics.median(v) for v in by_shape.values()]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    from pbench import envinfo

    envinfo.pin_blas_threads()
    if not (SRC / "puklab" / "__init__.py").is_file():
        print(f"error: no puklab sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args.probe)

    from pbench import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{'child' if args.untraced_pass else 'main'}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        if args.untraced_pass:
            _, _, walls, failed, warm_fail = measure([plan.traced()], plan.warmups)
            print(json.dumps({"wall_s": walls[0] / 1e9, "failures": failed + warm_fail}))
            return 0
        if args.trace == 0:
            record = untraced_run(plan, workdir)
        else:
            record = traced_run(args, plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds: dict[str, int] = {}
    for job in plan.measured():
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(plan.rounds), jobs_per_kind=kinds,
                  environment=envinfo.describe(ROOT))
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"perfbench": {k: v for k, v in record.items()
                                    if k not in ("result", "latency_ms")}}))
    print(json.dumps(record["result"]))
    return 0


def _record(measured, failed, failures: list[str], metrics: dict) -> dict:
    # warm-up, probe and untraced-pass failures are not attempts of the
    # measured jobs, but they still make the run incorrect
    return {
        "fail_frac": len(failed) / len(measured),
        "failures": failures[:20],
        "result": {"correct": not failures, "attempted": len(measured),
                   "failed": len(failed), "metrics": metrics},
    }


def untraced_run(plan, workdir) -> dict:
    job_file = workdir / "warmups.json"
    job_file.write_text(json.dumps([j.to_json() for j in plan.warmups]), encoding="utf-8")
    probes = []
    measured, outcomes, walls, failed, warm_fail = measure(
        plan.rounds, plan.warmups,
        before_round=lambda: probes.append(run_child(["--probe", str(job_file)])))
    costs = shape_costs_ms(measured, outcomes)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": sum(walls) / 1e9,
        "job_p50_ms": statistics.median(costs),
        "job_p90_ms": percentile(costs, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    failures = failed + warm_fail + [f for p in probes for f in p["failures"]]
    record = _record(measured, failed, failures, metrics)
    record["samples"] = {"jobs": len(measured), "shapes": len(costs),
                         "setup_probes": len(probes),
                         "setup_s_each": [p["setup_s"] for p in probes],
                         "round_wall_s": [w / 1e9 for w in walls]}
    record["latency_ms"] = [[job.shape, job.kind, o.latency_ns / 1e6]
                            for job, o in zip(measured, outcomes)]
    return record


def traced_run(args, plan) -> dict:
    from pbench import trace

    untraced = run_child(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--untraced-pass"])
    tracer = trace.Tracer()
    measured, outcomes, walls, failed, warm_fail = measure([plan.traced()], plan.warmups,
                                                           tracer)
    from puklab.cli import SUITE_TOL

    job_ns = sum(o.latency_ns for o in outcomes)
    values = trace.per_layer_values(tracer, job_ns, untraced["wall_s"], walls[0] / 1e9,
                                    SUITE_TOL)
    units = dict(trace.PER_LAYER)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path)
    record = _record(measured, failed, failed + warm_fail + untraced["failures"], metrics)
    record["samples"] = {"jobs": len(measured), "spans": values["trace.spans"],
                         "untraced_wall_s": untraced["wall_s"]}
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record


if __name__ == "__main__":
    sys.exit(main())
