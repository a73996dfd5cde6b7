"""Span recording around the calls into each puklab layer, from outside the package.

The benchmark wraps the public functions listed in :data:`TARGETS` wherever
they are bound: the defining module, every ``puklab`` module that imported
the name, and the class for methods.  A generator function is timed per
``next()``, so a stream consumed lazily is charged to whoever advances it.

Spans (id, name, start, end, parent, job) are kept in memory and written out
at the end.  A span's self time is its duration minus the durations of its
direct children; since spans nest strictly, that is the part of its interval
no child covers.  The self times of all spans of one job sum to the duration
of its root spans, so a layer's self time is the time the job spent in code
of that layer, reached through a wrapped entry point.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "config", "core", "algebra", "constructions", "indices",
          "invariant", "nsets", "diagrams")

# (module, attribute path).  Entry points that the metrics below do not name
# are wrapped too, so that their time lands in their own layer.
TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_spectrum"),
    ("cli", "cmd_puk_eval"),
    ("cli", "cmd_plan"),
    ("cli", "cmd_render"),
    ("config", "matrix_from_config"),
    ("config", "lambda_from_config"),
    ("config", "shape_from_config"),
    ("config", "oracle_from_config"),
    ("config", "lambda_to_config"),
    ("core", "tensor"),
    ("core", "GnsSpace.left"),
    ("core", "GnsSpace.right"),
    ("algebra", "generate_algebra"),
    ("algebra", "minimal_projections"),
    ("algebra", "commutant"),
    ("algebra", "relative_commutant_dim"),
    ("algebra", "mixed_spectrum"),
    ("algebra", "finite_puk_spectrum"),
    ("constructions", "build_gadget"),
    ("constructions", "TruncatedAutomorphism.build"),
    ("constructions", "keyclaim_check"),
    ("constructions", "family_span_check"),
    ("constructions", "intertwiner_grams"),
    ("constructions", "intertwiner_check"),
    ("constructions", "truncated_masa_pair"),
    ("constructions", "countable_family_plan"),
    ("indices", "LambdaSpec.value"),
    ("indices", "iter_sibling_pairs"),
    ("indices", "LambdaSpec.level_assignments"),
    ("indices", "LambdaSpec.value_set_at_level"),
    ("indices", "glue_check"),
    ("invariant", "eval_construction"),
    ("invariant", "choose_lambda_for_e"),
    ("invariant", "choose_lambda_for_efg"),
    ("invariant", "cor_plan_1_in_puk"),
    ("nsets", "nset_product"),
    ("diagrams", "diagram_from_construction"),
    ("diagrams", "render"),
)


def _defect(value: float):
    return ("max", "constructions.defect", float(value))


# Observations taken from a wrapped call's result: (kind, key, value).
RESULT_HOOKS = {
    "core.tensor": lambda r: [("sum", "core.tensor.out_bytes", r.nbytes)],
    "algebra.generate_algebra": lambda r: [
        ("sum", "algebra.generate_algebra.out_bytes", r.basis.nbytes),
        ("max", "algebra.generate_algebra.basis_dim", r.dim),
    ],
    "algebra.mixed_spectrum": lambda r: [("max", "algebra.gns_dim_max", r.ambient_dim)],
    "algebra.finite_puk_spectrum": lambda r: [("max", "algebra.gns_dim_max", r.ambient_dim)],
    "constructions.keyclaim_check": lambda r: [_defect(r)],
    "constructions.family_span_check": lambda r: [_defect(r.max_offdiag)],
    "constructions.intertwiner_check": lambda r: [_defect(r)],
    "indices.glue_check": lambda r: [("sum", "indices.glue_check.cases", r.cases_checked)],
}

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "job")


class Tracer:
    """In-memory span recorder with running per-name self-time totals."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # SPAN_FIELDS, flattened
        self._stack: list[list[int]] = []  # [id, name, start, child_ns, parent]
        self._next = 0
        self.job = -1
        self.spans_by_name: Counter = Counter()
        self.items_by_name: Counter = Counter()
        self.self_ns_by_name: Counter = Counter()
        self.sums: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next, nid, self.clock(), 0, parent])
        self._next += 1

    def exit(self):
        end = self.clock()
        sid, nid, start, child, parent = self._stack.pop()
        dur = end - start
        self.self_ns_by_name[nid] += dur - child
        self.spans_by_name[nid] += 1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.extend((sid, nid, start, end, parent, self.job))

    def observe(self, kind: str, key: str, value):
        if kind == "sum":
            self.sums[key] += value
        else:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- summaries --------------------------------------------------------

    def totals(self, name: str) -> tuple[int, int, int]:
        """(spans, items yielded, self ns) recorded under ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.spans_by_name[nid], self.items_by_name[nid], self.self_ns_by_name[nid]

    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for nid, ns in self.self_ns_by_name.items():
            out[self.names[nid].split(".", 1)[0]] += ns
        return out

    def write(self, path):
        """Spans as gzip-compressed tab-separated rows, in the order they closed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("\t".join(SPAN_FIELDS) + "\n")
            rec = self.spans
            for k in range(0, len(rec), 6):
                handle.write(f"{rec[k]}\t{self.names[rec[k + 1]]}\t{rec[k + 2]}\t"
                             f"{rec[k + 3]}\t{rec[k + 4]}\t{rec[k + 5]}\n")


def wrap_function(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    hook = RESULT_HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            for obs in hook(result):
                tracer.observe(*obs)
        return result

    return traced


def wrap_generator(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _traced_stream(tracer, nid, fn(*args, **kwargs))

    return traced


def _traced_stream(tracer: Tracer, nid: int, inner):
    try:
        while True:
            tracer.enter(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.items_by_name[nid] += 1
            yield item
    finally:
        inner.close()


class Installation:
    """The wrappers of one tracer, patched into the loaded puklab modules."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "puklab" or k.startswith("puklab.")) and m is not None]
        for module_name, path in TARGETS:
            home = sys.modules[f"puklab.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(home, cls_name), attr, name)
            else:
                self._patch_function(modules, getattr(home, path), name)

    def _wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            return wrap_generator(self.tracer, name, fn)
        return wrap_function(self.tracer, name, fn)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, modules, original, name):
        traced = self._wrap(original, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, traced)

    def _patch_method(self, cls, attr, name):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
        else:
            self._set(cls, attr, self._wrap(raw, name))

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass: (name, unit, source, field)


def _per_function():
    rows = []
    for name, fields in (
        ("core.GnsSpace.left", ("calls", "self_s")),
        ("core.GnsSpace.right", ("calls", "self_s")),
        ("core.tensor", ("calls", "self_s", "out_bytes")),
        ("algebra.generate_algebra", ("calls", "self_s", "basis_dim", "out_bytes")),
        ("algebra.minimal_projections", ("calls", "self_s")),
        ("algebra.commutant", ("calls", "self_s")),
        ("algebra.relative_commutant_dim", ("calls", "self_s")),
        ("algebra.mixed_spectrum", ("calls", "self_s")),
        ("algebra.finite_puk_spectrum", ("calls", "self_s")),
        ("constructions.build_gadget", ("calls",)),
        ("constructions.TruncatedAutomorphism.build", ("calls", "self_s")),
        ("constructions.keyclaim_check", ("calls", "self_s")),
        ("constructions.family_span_check", ("calls", "self_s")),
        ("constructions.intertwiner_grams", ("calls", "self_s")),
        ("constructions.truncated_masa_pair", ("calls", "self_s")),
        ("indices.LambdaSpec.value", ("calls", "self_s")),
        ("indices.iter_sibling_pairs", ("pairs",)),
        ("indices.LambdaSpec.level_assignments", ("pairs", "self_s")),
        ("indices.LambdaSpec.value_set_at_level", ("calls", "self_s")),
        ("indices.glue_check", ("self_s", "cases")),
        ("invariant.eval_construction", ("calls", "self_s")),
        ("invariant.choose_lambda_for_e", ("self_s",)),
        ("invariant.choose_lambda_for_efg", ("self_s",)),
        ("invariant.cor_plan_1_in_puk", ("self_s",)),
        ("nsets.nset_product", ("calls", "self_s")),
        ("diagrams.diagram_from_construction", ("calls", "self_s")),
        ("diagrams.render", ("calls", "self_s")),
        ("config.matrix_from_config", ("calls", "self_s")),
        ("config.lambda_from_config", ("calls", "self_s")),
        ("cli.cmd_verify", ("self_s",)),
        ("cli.cmd_spectrum", ("self_s",)),
        ("cli.cmd_puk_eval", ("self_s",)),
        ("cli.cmd_plan", ("self_s",)),
        ("cli.cmd_render", ("self_s",)),
    ):
        for field in fields:
            unit = {"self_s": "s", "out_bytes": "B"}.get(field, "count")
            rows.append((f"{name}.{field}", unit))
    return rows


PER_LAYER = (
    _per_function()
    + [("algebra.gns_dim_max", "count"), ("constructions.defect_ratio_max", "ratio")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.job_s", "s"), ("trace.covered_frac", "ratio"),
       ("trace.overhead_frac", "ratio"), ("trace.spans", "count")]
)


def per_layer_values(tracer: Tracer, job_ns: int, untraced_wall_s: float,
                     traced_wall_s: float, suite_tol: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass."""
    out: dict[str, float] = {}
    layer_ns = tracer.layer_self_ns()
    for metric, _unit in PER_LAYER:
        base, field = metric.rsplit(".", 1)
        spans, items, self_ns = tracer.totals(base)
        if field in ("calls", "pairs"):
            out[metric] = spans if field == "calls" else items
        elif field == "self_s" and base in layer_ns:
            out[metric] = layer_ns[base] / 1e9
        elif field == "self_s":
            out[metric] = self_ns / 1e9
        elif metric in tracer.sums:
            out[metric] = tracer.sums[metric]
        else:
            out[metric] = tracer.maxima.get(metric, 0)
    out["constructions.defect_ratio_max"] = tracer.maxima.get("constructions.defect", 0.0) / suite_tol
    out["trace.job_s"] = job_ns / 1e9
    out["trace.covered_frac"] = sum(layer_ns.values()) / job_ns
    out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    out["trace.spans"] = len(tracer.spans) // len(SPAN_FIELDS)
    return out
