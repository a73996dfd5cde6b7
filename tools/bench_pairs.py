#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, written to one JSON report.

Usage (from anywhere inside a git checkout):

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_<pr>.json \
        [--workload NAME[:PAIRS] ...] [--seed S]

Each pair extracts both revisions afresh with ``git archive`` into a new
temporary directory, because a checkout that is reused across runs reads a
few per cent off its partner.  The benchmark command of ``BENCHMARK.json``
then runs once on each extraction with ``--trace 0``, the same seed and the
file's ``run_seconds``; the side that runs first alternates from one pair to
the next.  A run whose last line is not ``"correct": true`` with 0 failed
stops the driver with exit 1 and writes no report.

Workloads default to every workload of ``BENCHMARK.json``, each with
``DEFAULT_PAIRS`` pairs; ``spectra:20`` gives one workload its own count.  The
report holds the machine and software of the first run, the two revisions,
and for each workload and end-to-end metric each side's median and
quartiles, the change's median relative to the parent's, and how many pairs
the change won (ties count for neither side), beside every pair's readings.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
DEFAULT_PAIRS = 10


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, dest: Path) -> Path:
    """The files of ``rev`` in a new directory under ``dest``."""
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: int) -> tuple[dict, dict]:
    """The metrics and the record line of one untraced run; refuses a run that is not correct."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result, record = json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]
    except (IndexError, KeyError, json.JSONDecodeError):
        raise SystemExit(f"{workload} in {checkout.name}: no result line "
                         f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise SystemExit(f"{workload} in {checkout.name}: refused, correct="
                         f"{result.get('correct')} failed={result.get('failed')}: "
                         f"{record.get('failures', [])[:3]}")
    return {name: m["value"] for name, m in result["metrics"].items()}, record


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p["parent"][name] - p["change"][name]) > 0 for p in pairs)
        parent_q, change_q = quartiles(sides["parent"]), quartiles(sides["change"])
        out[name] = {
            "better": direction,
            "parent": {"median": parent_q[1], "q1": parent_q[0], "q3": parent_q[2]},
            "change": {"median": change_q[1], "q1": change_q[0], "q3": change_q[2]},
            "change_vs_parent": change_q[1] / parent_q[1] - 1 if parent_q[1] else None,
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--out", required=True, help="report file to write")
    parser.add_argument("--workload", nargs="+", metavar="NAME[:PAIRS]",
                        help=f"workloads to run, each with PAIRS pairs (default {DEFAULT_PAIRS})")
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    plan = []
    for item in args.workload or [w["name"] for w in bench["workloads"]]:
        name, _, count = item.partition(":")
        plan.append((name, int(count) if count else DEFAULT_PAIRS))
    revisions = {side: git("rev-parse", getattr(args, side)).decode().strip()
                 for side in ("parent", "change")}
    report = {"revisions": revisions, "seed": args.seed, "run_seconds": bench["run_seconds"],
              "environment": None, "workloads": {}}
    for workload, count in plan:
        pairs = []
        for k in range(count):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair: dict = {"first": order[0]}
            with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
                for side in order:
                    checkout = extract(revisions[side], Path(tmp) / side)
                    pair[side], record = run_once(checkout, bench["command"], workload,
                                                  args.seed, bench["run_seconds"])
                    report["environment"] = report["environment"] or {
                        key: v for key, v in record["environment"].items()
                        if key not in ("git_commit", "source_sha256")}
            pairs.append(pair)
            print(f"{workload} pair {k + 1}/{count}: " + ", ".join(
                f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
                for name in better), file=sys.stderr)
        report["workloads"][workload] = {"summary": summarize(pairs, better), "pairs": pairs}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
