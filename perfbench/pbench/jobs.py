"""Jobs: one CLI invocation, or one batch of ``LambdaSpec.value`` lookups.

A job is plain data (JSON-serialisable), so the set-up probes can receive
their warm-up jobs from the parent.  This module imports puklab only inside
functions, which lets a probe start its clock before the package is loaded.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import refs


@dataclass
class Job:
    id: int
    kind: str
    argv: list | None  # CLI arguments; None for a lookup batch
    expect: dict  # reference answer; "check" names the checker
    lookup: dict | None = field(default=None)  # {"spec", "r", "pairs"} for a lookup batch
    shape: int = -1  # jobs of one shape, one per round, ask for the same work

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "Job":
        return cls(**data)


@dataclass
class Outcome:
    latency_ns: int
    result: object  # exit code, or the looked-up values
    stdout: str
    error: str | None


def prepare(job: Job):
    """A zero-argument callable that runs the job against the loaded package."""
    if job.argv is not None:
        from puklab.cli import main

        argv = list(job.argv)
        return lambda: main(argv)
    from puklab.config import lambda_from_config
    from puklab.indices import MultiIndex

    spec = lambda_from_config(job.lookup["spec"])
    r = job.lookup["r"]
    pairs = [(MultiIndex(r, 1, tuple(i)), MultiIndex(r, 1, tuple(j)))
             for i, j in job.lookup["pairs"]]
    return lambda: [spec.value(r, i, j) for i, j in pairs]


def execute(fn) -> Outcome:
    """Run one prepared job with stdout captured; an exception fails the job."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter_ns()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = fn()
        except SystemExit as exc:
            result = exc.code
        except Exception as exc:  # counted as a failed job, not a benchmark fault
            result, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter_ns() - start
    return Outcome(latency, result, out.getvalue(), error)


def check(job: Job, outcome: Outcome) -> str | None:
    """``None`` when the job's output matches its reference, else the reason."""
    if outcome.error is not None:
        return outcome.error
    exp = job.expect
    kind = exp["check"]
    if kind == "lookup":
        return refs.check_lookup(outcome.result, exp)
    if kind == "render":
        path = Path(exp["out"])
        text = path.read_text(encoding="utf-8") if path.is_file() else None
        return refs.check_render(outcome.result, outcome.stdout, exp, text)
    checker = {
        "verify": refs.check_verify,
        "spectrum": refs.check_spectrum,
        "plan": refs.check_plan,
        "puk-eval": refs.check_puk_eval,
    }[kind]
    return checker(outcome.result, outcome.stdout, exp)


def run_all(jobs: list[Job], calls: list, tracer=None) -> tuple[list[Outcome], int]:
    """Run prepared jobs in order; returns their outcomes and the wall time in ns.

    Output checks are left to the caller, after the clock stops.
    """
    outcomes = []
    start = time.perf_counter_ns()
    for job, fn in zip(jobs, calls):
        if tracer is not None:
            tracer.job = job.id
        outcomes.append(execute(fn))
    return outcomes, time.perf_counter_ns() - start


def failures(jobs: list[Job], outcomes: list[Outcome]) -> list[str]:
    out = []
    for job, outcome in zip(jobs, outcomes):
        reason = check(job, outcome)
        if reason is not None:
            out.append(f"job {job.id} ({job.kind} {job.argv or ''}): {reason}")
    return out
