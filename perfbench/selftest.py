#!/usr/bin/env python3
"""Self-tests of the benchmark: span arithmetic, reference checks, tracing neutrality.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from pbench import jobs, refs, trace, workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0

    def now(self) -> int:
        return self.t

    def advance(self, ns: int):
        self.t += ns


class TestSpanArithmetic(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = trace.Tracer(self.clock.now)

    def test_nested_calls_and_generator(self):
        clock, tracer = self.clock, self.tracer

        def leaf():
            clock.advance(5)

        def pairs():
            clock.advance(2)
            yield 1
            clock.advance(3)
            yield 2
            clock.advance(1)

        leaf = trace.wrap_function(tracer, "core.leaf", leaf)
        pairs = trace.wrap_generator(tracer, "indices.pairs", pairs)

        def outer():
            clock.advance(10)
            leaf()
            clock.advance(1)
            for _ in pairs():
                clock.advance(4)

        trace.wrap_function(tracer, "cli.outer", outer)()
        self.assertEqual(tracer.totals("core.leaf"), (1, 0, 5))
        # three next() calls: two items and the one that ends the stream
        self.assertEqual(tracer.totals("indices.pairs"), (3, 2, 6))
        self.assertEqual(tracer.totals("cli.outer"), (1, 0, 30 - 5 - 6))
        layers = tracer.layer_self_ns()
        self.assertEqual(sum(layers.values()), 30)
        self.assertEqual((layers["cli"], layers["core"], layers["indices"]), (19, 5, 6))
        rows = [tuple(tracer.spans[k:k + 6]) for k in range(0, len(tracer.spans), 6)]
        root = [r for r in rows if r[4] == -1]
        self.assertEqual(len(root), 1)
        self.assertTrue(all(r[4] == root[0][0] for r in rows if r is not root[0]))

    def test_generator_advanced_inside_another(self):
        clock, tracer = self.clock, self.tracer

        def inner():
            for k in range(3):
                clock.advance(2)
                yield k

        inner = trace.wrap_generator(tracer, "indices.inner", inner)

        def outer():
            for k in inner():
                clock.advance(1)
                yield k

        outer = trace.wrap_generator(tracer, "indices.outer", outer)
        self.assertEqual(list(outer()), [0, 1, 2])
        self.assertEqual(tracer.totals("indices.inner"), (4, 3, 6))
        self.assertEqual(tracer.totals("indices.outer"), (4, 3, 3))

    def test_abandoned_generator_leaves_no_open_span(self):
        clock, tracer = self.clock, self.tracer

        def stream():
            while True:
                clock.advance(1)
                yield 0

        stream = trace.wrap_generator(tracer, "indices.stream", stream)

        def first():
            for value in stream():
                return value

        trace.wrap_function(tracer, "invariant.first", first)()
        self.assertEqual(tracer._stack, [])
        self.assertEqual(tracer.totals("indices.stream"), (1, 1, 1))
        self.assertEqual(sum(tracer.layer_self_ns().values()), 1)

    def test_exception_closes_span(self):
        clock, tracer = self.clock, self.tracer

        def boom():
            clock.advance(7)
            raise ValueError("boom")

        with self.assertRaises(ValueError):
            trace.wrap_function(tracer, "nsets.boom", boom)()
        self.assertEqual(tracer._stack, [])
        self.assertEqual(tracer.totals("nsets.boom"), (1, 0, 7))


class TestReferences(unittest.TestCase):
    def test_sibling_pairs_match_the_package_enumeration(self):
        from puklab.indices import iter_sibling_pairs

        for r in range(4):
            ours = refs.sibling_pairs(r)
            theirs = [(i.words, j.words) for i, j in iter_sibling_pairs(r)]
            self.assertEqual(ours, theirs)
            self.assertEqual(len(ours), refs.sibling_pair_count(r))

    def test_cross_pairs_match_the_package_enumeration(self):
        from puklab.indices import iter_cross_pairs

        for r in range(3):
            theirs = [(i.words, j.words) for i, j in iter_cross_pairs(r)]
            self.assertEqual(refs.cross_pairs(r), theirs)

    def test_sweep_matches_cli(self):
        from puklab.cli import _construction_range

        for cap in (4, 15, 16, 99, 576, 4096):
            self.assertEqual(refs.construction_sweep(cap), list(_construction_range(cap)))


def _run(job):
    return jobs.execute(jobs.prepare(job))


def _replace_once(text, old, new):
    assert old in text, (old, text)
    return text.replace(old, new, 1)


class TestChecksRejectWrongOutput(unittest.TestCase):
    """Each check passes the real output of a small job and rejects a corrupted copy."""

    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
        cls.jobs = {}
        for workload in workloads.WORKLOADS:
            plan = workloads.build(workload, 3, cls.workdir / workload)
            for job in plan.warmups + plan.measured():
                cls.jobs.setdefault(job.kind, job)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def assert_rejects(self, job, outcome, corrupt):
        self.assertIsNone(jobs.check(job, outcome), job.kind)
        bad = jobs.Outcome(outcome.latency_ns, outcome.result, outcome.stdout, outcome.error)
        corrupt(bad)
        self.assertIsNotNone(jobs.check(job, bad), job.kind)

    def test_verify(self):
        job = self.jobs["keyclaim"]
        outcome = _run(job)

        def flip(o):
            o.stdout = _replace_once(o.stdout, ": PASS", ": FAIL")

        def drop_case(o):
            o.stdout = "\n".join(o.stdout.splitlines()[1:])

        def exit_one(o):
            o.result = 1

        for corrupt in (flip, drop_case, exit_one):
            self.assert_rejects(job, outcome, corrupt)

    def test_spectrum(self):
        for kind in ("spectrum-max", "spectrum-nonmax", "spectrum-blocks-puk"):
            job = self.jobs[kind]
            outcome = _run(job)

            def edit_multiplicities(o, change):
                lines = o.stdout.splitlines()
                k = next(k for k, ln in enumerate(lines) if ln.startswith("multiplicities: "))
                values = lines[k].split(": ", 1)[1].split(",")
                lines[k] = "multiplicities: " + ",".join(change(values))
                o.stdout = "\n".join(lines) + "\n"

            def bump(o):
                edit_multiplicities(o, lambda v: [str(int(v[0]) + 1)] + v[1:])

            def fewer(o):
                edit_multiplicities(o, lambda v: v[1:])

            self.assert_rejects(job, outcome, bump)
            self.assert_rejects(job, outcome, fewer)

    def test_plans(self):
        for kind in ("plan-E", "plan-EFG", "plan-cor1", "plan-family"):
            job = self.jobs[kind]
            outcome = _run(job)

            def corrupt(o, kind=kind):
                payload = json.loads(o.stdout)
                if kind == "plan-E":
                    payload["evaluation"]["value"] += ",99"
                elif kind == "plan-EFG":
                    payload["evaluation"]["mixed"] = payload["evaluation"]["both_zero"] + ",99"
                elif kind == "plan-cor1":
                    payload["matrix"][0][0] = 2
                else:
                    payload["table"][0][1] = "99"
                o.stdout = json.dumps(payload)

            self.assert_rejects(job, outcome, corrupt)

    def test_puk_eval(self):
        for kind in ("eval-const", "eval-table"):
            job = self.jobs[kind]
            outcome = _run(job)

            def extra_value(o):
                o.stdout = _replace_once(o.stdout, "value: ", "value: 997,")

            def level_swap(o):
                lines = o.stdout.splitlines()
                levels = [k for k, ln in enumerate(lines) if ln.startswith("level ")]
                lines[levels[-1]] += ",997"
                o.stdout = "\n".join(lines) + "\n"

            self.assert_rejects(job, outcome, extra_value)
            self.assert_rejects(job, outcome, level_swap)

    def test_render(self):
        for kind in ("render-ascii", "render-svg"):
            job = self.jobs[kind]
            outcome = _run(job)
            self.assertIsNone(jobs.check(job, outcome))
            path = Path(job.expect["out"])
            good = path.read_text(encoding="utf-8")
            lines = good.splitlines(keepends=True)
            path.write_text("".join(lines[:-2] if kind == "render-ascii" else lines[:-3]),
                            encoding="utf-8")
            self.assertIsNotNone(jobs.check(job, outcome))
            path.unlink()
            self.assertIsNotNone(jobs.check(job, outcome))

    def test_lookup(self):
        job = self.jobs["lookup"]
        outcome = _run(job)

        def shift(o):
            o.result = list(o.result)
            o.result[0] = o.result[0] + 1 if o.result[0] != refs.INF else 1

        self.assert_rejects(job, outcome, shift)

    def test_exception_fails_the_job(self):
        job = self.jobs["lookup"]
        outcome = jobs.execute(lambda: 1 / 0)
        self.assertIn("ZeroDivisionError", jobs.check(job, outcome))


class TestJobLists(unittest.TestCase):
    """Rounds repeat the same shapes with fresh inputs; seeds change values only."""

    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
        cls.plans = {(w, seed): workloads.build(w, seed, cls.workdir / f"{w}-{seed}")
                     for w in workloads.WORKLOADS for seed in (11, 12)}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    @staticmethod
    def content(job):
        if job.argv is None:
            return json.dumps(job.lookup, sort_keys=True)
        args = [a for k, a in enumerate(job.argv) if k == 0 or job.argv[k - 1] != "--out"]
        return json.dumps([Path(a).read_text(encoding="utf-8") if Path(a).is_file() else a
                           for a in args])

    @staticmethod
    def shape_of(job):
        """What a job's cost depends on: its kind and every non-drawn parameter."""
        if job.argv is None:
            return (job.kind, job.lookup["r"], len(job.lookup["pairs"]),
                    len(job.expect["values"]))
        if job.argv[0] == "verify":
            return (job.kind, job.expect.get("cases"))
        if job.argv[0] == "render":
            return (job.kind, job.argv[-1])
        if job.argv[0] == "spectrum":
            return (job.kind, len(job.expect["multiset"]))
        if job.argv[0] == "plan":
            target = job.expect["target"]
            return (job.kind, target.count(","), target.count(";"), target.count("inf"))
        return (job.kind, job.argv[-1], len(job.expect["levels"]))

    def test_rounds_share_shapes(self):
        for (workload, _), plan in self.plans.items():
            rounds = workloads.ROUNDS[workload]
            self.assertEqual(len(plan.rounds), rounds)
            shapes: dict[int, list] = {}
            for job in plan.measured():
                shapes.setdefault(job.shape, []).append(job)
            once = {job.shape for job in plan.once}
            for shape, group in shapes.items():
                self.assertEqual(len(group), 1 if shape in once else rounds,
                                 workload)
                self.assertEqual(len({self.shape_of(j) for j in group}), 1, workload)
            self.assertGreaterEqual(len(shapes), 100, workload)

    def test_no_two_jobs_share_content(self):
        for (workload, _), plan in self.plans.items():
            contents = [self.content(j) for j in plan.warmups + plan.measured()]
            self.assertEqual(len(contents), len(set(contents)), workload)

    def test_seeds_change_values_not_shapes(self):
        for workload in workloads.WORKLOADS:
            a, b = (self.plans[(workload, seed)] for seed in (11, 12))
            by_shape = [sorted((j.shape, self.shape_of(j)) for j in p.measured())
                        for p in (a, b)]
            self.assertEqual(by_shape[0], by_shape[1], workload)
            self.assertNotEqual([self.content(j) for j in a.measured()],
                                [self.content(j) for j in b.measured()], workload)


class TestTracingChangesNoResult(unittest.TestCase):
    def test_stdout_identical_traced_and_untraced(self):
        SCRATCH.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
        try:
            picked = []
            for workload in workloads.WORKLOADS:
                plan = workloads.build(workload, 5, workdir / workload)
                picked += [j for j in plan.warmups
                           if j.kind not in ("verify-algebra", "verify-glue")]
            plain = [_run(job) for job in picked]
            files = {j.id: Path(j.expect["out"]).read_bytes() for j in picked
                     if j.expect["check"] == "render"}
            tracer = trace.Tracer()
            with trace.Installation(tracer):
                traced = [_run(job) for job in picked]
            for job, a, b in zip(picked, plain, traced):
                self.assertEqual((a.result, a.stdout, a.error), (b.result, b.stdout, b.error),
                                 job.kind)
                if job.id in files:
                    self.assertEqual(Path(job.expect["out"]).read_bytes(), files[job.id])
            self.assertGreater(len(tracer.spans), 0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_installation_is_undone(self):
        import puklab.cli
        import puklab.indices

        before = (puklab.cli.main, puklab.indices.iter_sibling_pairs,
                  puklab.indices.LambdaSpec.__dict__["value"])
        with trace.Installation(trace.Tracer()):
            self.assertIsNot(puklab.cli.main, before[0])
            self.assertIsNot(puklab.indices.iter_sibling_pairs, before[1])
        after = (puklab.cli.main, puklab.indices.iter_sibling_pairs,
                 puklab.indices.LambdaSpec.__dict__["value"])
        self.assertEqual(before, after)

    def test_every_target_lives_in_a_layer(self):
        for module, _ in trace.TARGETS:
            self.assertIn(module, trace.LAYERS)


class TestBenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        sys.path.insert(0, str(BENCH_DIR))
        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(trace.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
