"""Seeded job lists of the three workloads, with their reference answers.

A run measures a few rounds.  Every round holds one job of each *shape*
(which sweep, which matrix size, which level, how many values in a set), so
the rounds ask for the same work; the seed draws every cap, matrix, target
and value, and each round gets its own draws and its own seeded order.  A few
jobs run once per run instead: the suites that take no input, whose argv
cannot change between rounds, and the heaviest sweep.  Each is placed in a
seeded round.  No two jobs of a run, warm-ups included, share argv and input
content.

Shapes never depend on the seed, so every seed asks for the same amount of
work: shape draws come from ``shape``, a generator with a fixed seed, whose
state is rewound for each round's copy of a shape.

All inputs stay in the documented domain: block-diagonal abelian generators,
exact weights summing to one, sibling-pair overrides and full symmetric
oracles.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import refs
from .jobs import Job

WORKLOADS = ("certify", "spectra", "symbolic")
# Rounds per run.  A job shape's latency is its median over the rounds; the
# millisecond jobs of ``symbolic`` get more rounds, since their single
# samples vary most with the host's speed.
ROUNDS = {"certify": 3, "spectra": 3, "symbolic": 5}


@dataclass
class Plan:
    rounds: list[list[Job]]  # the measured jobs in run order, one-offs included
    once: list[Job]  # the one-off jobs, also present in ``rounds``
    warmups: list[Job]  # one per job kind, on its smallest input

    def measured(self) -> list[Job]:
        return [job for rnd in self.rounds for job in rnd]

    def traced(self) -> list[Job]:
        """The first round and every one-off: the job list of a traced run."""
        first = {id(job) for job in self.rounds[0]}
        return self.rounds[0] + [job for job in self.once if id(job) not in first]


class _Builder:
    """Draws jobs so that rounds share shapes and no two jobs share content."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.shape = random.Random(workload)
        self.workdir = workdir
        self.rounds: list[list[Job]] = [[] for _ in range(ROUNDS[workload])]
        self.once: list[Job] = []
        self.warmups: list[Job] = []
        self._inputs: dict[str, str] = {}
        self._seen: set[str] = set()
        self._files = itertools.count()
        self._shapes = itertools.count()

    def write(self, payload) -> str:
        path = self.workdir / f"input-{next(self._files)}.json"
        text = json.dumps(payload)
        path.write_text(text, encoding="utf-8")
        self._inputs[str(path)] = text
        return str(path)

    def output(self, suffix: str) -> str:
        return str(self.workdir / f"output-{next(self._files)}{suffix}")

    def _key(self, job: Job) -> str:
        if job.argv is None:
            return json.dumps(job.lookup, sort_keys=True)
        args, skip = [], False
        for arg in job.argv:
            if not skip and arg != "--out":
                args.append(self._inputs.get(arg, arg))
            skip = arg == "--out"
        return json.dumps(args)

    def _distinct(self, make, state=None) -> Job:
        state = state or self.shape.getstate()
        for _ in range(200):
            self.shape.setstate(state)
            job = make()
            key = self._key(job)
            if key not in self._seen:
                self._seen.add(key)
                return job
        raise RuntimeError(f"no distinct input left for {job.kind}")

    def each_round(self, make):
        """One job of a new shape in every round."""
        shape_id, state = next(self._shapes), self.shape.getstate()
        for rnd in self.rounds:
            job = self._distinct(make, state)
            job.shape = shape_id
            rnd.append(job)

    def one_off(self, make):
        job = self._distinct(make)
        job.shape = next(self._shapes)
        self.once.append(job)

    def warmup(self, make):
        self.warmups.append(self._distinct(make))

    def plan(self) -> Plan:
        for rnd in self.rounds:
            self.rng.shuffle(rnd)
        for job in self.once:
            rnd = self.rng.choice(self.rounds)
            rnd.insert(self.rng.randrange(len(rnd) + 1), job)
        plan = Plan(self.rounds, self.once, self.warmups)
        for k, job in enumerate(plan.measured()):
            job.id = k
        for k, job in enumerate(self.warmups):
            job.id = -1 - k
        return plan


def build(workload: str, seed: int, workdir: Path) -> Plan:
    workdir.mkdir(parents=True, exist_ok=True)
    builder = _Builder(workload, seed, workdir)
    {"certify": _certify, "spectra": _spectra, "symbolic": _symbolic}[workload](builder)
    return builder.plan()


def _job(kind, argv, expect, lookup=None) -> Job:
    return Job(0, kind, argv, expect, lookup)


# ---------------------------------------------------------------------------
# certify: verify sweeps of the shift-gadget identities

# Sweeps of ``verify --suite S --max-dim C`` change only when C crosses a
# threshold n^(2(m+1)); all thresholds are squares.  Each slot is the range of
# caps between two thresholds, so every cap drawn from a slot runs its sweep,
# and the slots form a ladder of job costs.  (lo, hi, jobs per round).
# Caps in [4096, 65²) all run the full default sweep.  The first keyclaim slot
# holds only 5 caps: one per round, and one for the warm-up.
FULL_SLOT = (4096, 65 * 65, 1)
KEYCLAIM_SLOTS = [(n * n, (n + 1) ** 2, 1 if n == 2 else 2) for n in range(2, 37)] + [FULL_SLOT]
SPAN_BOUNDS = (4, 16, 64, 81, 256, 625, 729, 1024, 1296, 2401, 4096)
SPAN_SLOTS = [(lo, hi, 2) for lo, hi in zip(SPAN_BOUNDS, SPAN_BOUNDS[1:])] + [FULL_SLOT]
INTERTWINER_SLOTS = [(n * n, (n + 1) ** 2, 1) for n in range(2, 17)]
# The default intertwiner cap takes about 30 min; one sweep at a cap in
# [576, 625) takes about 5 s, so it runs once per run.
INTERTWINER_ONCE = (576, 625)
# Warm-ups come from the smallest slot whose sweep is not empty.
WARMUP_SLOT = {"keyclaim": (4, 9), "span": (16, 64), "intertwiner": (4, 9)}


def _verify_job(suite: str, cap: int) -> Job:
    sweep = refs.construction_sweep(cap)
    if suite == "span":
        sweep = [(n, m) for n, m in sweep if m >= 1]
    return _job(suite, ["verify", "--suite", suite, "--max-dim", str(cap)],
                {"check": "verify", "suite": suite, "cases": len(sweep)})


def _smallest_verify(b: _Builder):
    """Warm-up for the single-input suites: the smallest ``verify`` job.

    ``verify --suite algebra`` and ``--suite glue`` have one input each and
    take about 3 s; as warm-ups they would make set-up time mostly that one
    job.  The smallest keyclaim sweep runs the same command path.
    """
    b.warmup(lambda: _verify_job("keyclaim", b.rng.randrange(4, 9)))


def _certify(b: _Builder):
    for suite, slots in (("keyclaim", KEYCLAIM_SLOTS), ("span", SPAN_SLOTS),
                         ("intertwiner", INTERTWINER_SLOTS)):
        for lo, hi, count in slots:
            if (lo, hi) == WARMUP_SLOT[suite]:
                b.warmup(lambda: _verify_job(suite, b.rng.randrange(lo, hi)))
            for _ in range(count):
                b.each_round(lambda: _verify_job(suite, b.rng.randrange(lo, hi)))
    b.one_off(lambda: _verify_job("intertwiner", b.rng.randrange(*INTERTWINER_ONCE)))


# ---------------------------------------------------------------------------
# spectra: multiplicity spectra of left-right algebras of masa configs

# Matrix sizes per job kind, per round.  M_10 is left out: one maximal pair
# there takes about 9 s, and M_12 about 29 s.  The counts put the median among
# the N=5 jobs and the 90th percentile among the N=6 ones, rather than on a
# step between sizes.
MAX_SIZES = [2] * 6 + [3] * 6 + [4] * 8 + [5] * 14 + [6] * 8 + [7, 8, 9]
PUK_SIZES = [2] * 4 + [3] * 4 + [4] * 6 + [5] * 6 + [6] * 6 + [7, 8]
# (N, blocks merged on the A side, on the B side)
NONMAX_SHAPES = [(n, *parts) for n in range(3, 10)
                 for parts in (((2, 2), (2, 3)) if n % 2 else ((3, 2), (3, 3)))]
# (block sizes, jobs per mode per round)
BLOCK_SHAPES = [((2, 1), 2), ((1, 2, 1), 2), ((3, 2), 2), ((2, 2, 1), 2), ((4, 2), 1),
                ((3, 3, 1), 1), ((4, 3), 1), ((5, 3), 1), ((4, 4, 2), 1), ((6, 4), 1)]


def _haar(gen: np.random.Generator, n: int) -> np.ndarray:
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _matrix_config(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _diagonal_units(n: int) -> list[np.ndarray]:
    return [np.diag(np.eye(n, dtype=complex)[i]) for i in range(n)]


def _block_masa(gen, blocks) -> list[np.ndarray]:
    """Minimal projections of a Haar-random masa of the multi-matrix algebra."""
    total = sum(blocks)
    out, start = [], 0
    for d in blocks:
        u = _haar(gen, d)
        for p in _diagonal_units(d):
            full = np.zeros((total, total), dtype=complex)
            full[start:start + d, start:start + d] = u @ p @ u.conj().T
            out.append(full)
        start += d
    return out


def _composition(rng, n: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _merged_generator(rng, sizes, unitary) -> np.ndarray:
    """One element with distinct eigenvalues on merged diagonal blocks, conjugated."""
    labels = rng.sample(range(1, len(sizes) + 1), len(sizes))
    diag = np.concatenate([np.full(s, float(v)) for s, v in zip(sizes, labels)])
    return unitary @ np.diag(diag).astype(complex) @ unitary.conj().T


def _uneven_weights(rng, count: int) -> list[Fraction]:
    raw = rng.sample(range(1, 12), count)
    return [Fraction(v, sum(raw)) for v in raw]


def _spectra(b: _Builder):
    rng = b.rng
    gen = np.random.default_rng(rng.getrandbits(64))

    def job(kind, blocks, weights, a_gens, b_gens, mode, multiset):
        data = {
            "shape": {"blocks": list(blocks), "weights": [str(w) for w in weights]},
            "a_generators": [_matrix_config(g) for g in a_gens],
            "seed": int(gen.integers(0, 2**31)),
            "mode": mode,
        }
        if b_gens is not None:
            data["b_generators"] = [_matrix_config(g) for g in b_gens]
        return _job(kind, ["spectrum", "--config", b.write(data)],
                    {"check": "spectrum", "multiset": sorted(multiset)})

    def maximal(n):
        u = _haar(gen, n)
        a = _diagonal_units(n)
        return job("spectrum-max", (n,), (1,), a, [u @ p @ u.conj().T for p in a],
                   "mixed", [1] * (n * n))

    def puk(n):
        u = _haar(gen, n)
        a = [u @ p @ u.conj().T for p in _diagonal_units(n)]
        return job("spectrum-puk", (n,), (1,), a, None, "puk", [1] * (n * n - n))

    def nonmaximal(n, parts_a, parts_b):
        r = _composition(rng, n, parts_a)
        s = _composition(rng, n, parts_b)
        a = [_merged_generator(rng, r, np.eye(n))]
        bb = [_merged_generator(rng, s, _haar(gen, n))]
        return job("spectrum-nonmax", (n,), (1,), a, bb, "mixed", [x * y for x in r for y in s])

    def blocks(sizes, mode):
        sizes = tuple(rng.sample(sizes, len(sizes)))
        weights = _uneven_weights(rng, len(sizes))
        a = _block_masa(gen, sizes)
        if mode == "mixed":
            return job("spectrum-blocks-mixed", sizes, weights, a, _block_masa(gen, sizes),
                       mode, [1] * sum(d * d for d in sizes))
        return job("spectrum-blocks-puk", sizes, weights, a, None, mode,
                   [1] * sum(d * d - d for d in sizes))

    b.warmup(lambda: maximal(2))
    b.warmup(lambda: puk(2))
    b.warmup(lambda: nonmaximal(3, 2, 2))
    b.warmup(lambda: blocks((2, 1), "mixed"))
    b.warmup(lambda: blocks((2, 1), "puk"))
    _smallest_verify(b)
    for n in MAX_SIZES:
        b.each_round(lambda: maximal(n))
    for n in PUK_SIZES:
        b.each_round(lambda: puk(n))
    for n, parts_a, parts_b in NONMAX_SHAPES:
        b.each_round(lambda: nonmaximal(n, parts_a, parts_b))
    for sizes, copies in BLOCK_SHAPES:
        for mode in ("mixed", "puk"):
            for _ in range(copies):
                b.each_round(lambda: blocks(sizes, mode))
    b.one_off(lambda: _job("verify-algebra", ["verify", "--suite", "algebra"],
                           {"check": "verify", "suite": "algebra"}))


# ---------------------------------------------------------------------------
# symbolic: planners, invariant evaluation, rendering, glue, value lookups

CONSTANT_ORACLES = ("1", "1,2", "2,3", "1,inf", "3")
TABLE_CELLS = ("1,2", "1,3", "2,3", "1,inf", "2,inf")
PLANS_PER_KIND = 12  # per round
EVALS_PER_SHAPE = 2  # per round, for each spec kind, oracle kind and rmax
LOOKUP_LEVELS = ((1, 10, 4), (2, 10, 4), (3, 16, 2))  # (level, jobs per round, lookups per job)


def _value_set(rng, size: int, with_inf: bool, low: int = 1, high: int = 40) -> str:
    values = rng.sample(range(low, high), size)
    return refs.canon(values + [refs.INF] * with_inf)


def _spec(rng, shape, kind: str) -> dict:
    if kind == "enum":
        return {"enumerate": _value_set(rng, shape.randint(1, 6), shape.random() < 0.3)}
    if kind == "quadrant":
        return {"quadrants": {q: _value_set(rng, shape.randint(1, 3), shape.random() < 0.3)
                              for q in ("both_zero", "both_one", "mixed")}}
    # overrides on distinct sibling pairs; level 0 has a single pair
    levels = [shape.randint(0, 2) for _ in range(shape.randint(1, 3))]
    overrides = []
    for r in sorted(set(levels)):
        count = min(levels.count(r), refs.sibling_pair_count(r))
        for i, j in rng.sample(refs.sibling_pairs(r), count):
            value = "inf" if shape.random() < 0.2 else rng.randint(1, 30)
            overrides.append({"r": r, "i": refs.bits_of(i, r), "j": refs.bits_of(j, r),
                              "value": value})
    return {"default": rng.randint(1, 9), "overrides": overrides}


def _table_oracle(rng, level: int) -> dict:
    labels = [format(x, f"0{level}b") for x in range(1 << level)]
    cells = {}
    for a in labels:
        for b in labels:
            if (b, a) not in cells:
                cells[(a, b)] = rng.choice(TABLE_CELLS)
    entries = [{"row": a, "col": b, "value": cells.get((a, b)) or cells[(b, a)]}
               for a in labels for b in labels]
    return {"level": level, "entries": entries}


def _symbolic(b: _Builder):
    rng, shape = b.rng, b.shape

    def plan(kind, small=False):
        with_inf = not small and shape.random() < 0.3
        if kind == "E":
            target = _value_set(rng, 1 if small else shape.randint(1, 7), with_inf)
        elif kind == "EFG":
            target = ";".join(_value_set(rng, 1 if small else shape.randint(1, 4), with_inf)
                              for _ in range(3))
        elif kind == "cor1":
            extra = _value_set(rng, 0 if small else shape.randint(1, 9), with_inf, 2)
            target = refs.canon([1] + refs.parse_values(extra))
        else:
            k = 2 if small else shape.randint(2, 5)
            m = [[1] * k for _ in range(k)]
            cells = [(a, c) for a in range(k) for c in range(a + 1, k)]
            infinite = [shape.random() < 0.15 for _ in cells]
            infinite[0] = infinite[0] and not all(infinite)  # keep a value to draw
            for (a, c), inf in zip(cells, infinite):
                m[a][c] = m[c][a] = "inf" if inf else rng.randint(1, 30)
            target = ";".join(",".join(str(v) for v in row) for row in m)
        return _job(f"plan-{kind}", ["plan", "--kind", kind, "--target", target],
                    {"check": "plan", "kind": kind, "target": target})

    def evaluate(spec_kind, rmax, table):
        spec = _spec(rng, shape, spec_kind)
        if table:
            oracle, kind = _table_oracle(rng, rmax + 1), "eval-table"
        else:
            oracle, kind = {"constant": shape.choice(CONSTANT_ORACLES)}, "eval-const"
        levels = [refs.canon(s) for s in refs.expected_eval(spec, oracle, rmax)]
        argv = ["puk-eval", "--lambda", b.write(spec), "--oracle", b.write(oracle),
                "--rmax", str(rmax)]
        return _job(kind, argv, {"check": "puk-eval", "levels": levels})

    def render(spec_kind, rmax, fmt=None):
        fmt = fmt or shape.choice(["ascii", "svg"])
        out = b.output(".txt" if fmt == "ascii" else ".svg")
        argv = ["render", "--input", b.write(_spec(rng, shape, spec_kind)), "--format", fmt,
                "--out", out, "--rmax", str(rmax)]
        return _job(f"render-{fmt}", argv, {"check": "render", "format": fmt, "out": out,
                                            "side": 2 ** (rmax + 1)})

    def lookups(r, positions):
        target = refs.parse_values(_value_set(rng, shape.randint(1, 6), shape.random() < 0.3))
        pairs = refs.sibling_pairs(r)
        offset = sum(refs.sibling_pair_count(s) for s in range(r))
        chosen, values = [], []
        for pos in positions:
            i, j = pairs[pos]
            values.append("inf" if (v := target[(offset + pos) % len(target)]) == refs.INF
                          else v)
            chosen.append([i, j] if rng.random() < 0.5 else [j, i])
        spec = {"enumerate": refs.canon(target)}
        return _job("lookup", None, {"check": "lookup", "values": values},
                    {"spec": spec, "r": r, "pairs": chosen})

    def lookup_job(r, per_job):
        # positions come from ``shape``: a scan's cost depends on the position,
        # so every seed and every round gets the same ladder of lookup costs
        n = refs.sibling_pair_count(r)
        return lookups(r, [shape.randrange(n) for _ in range(per_job)])

    for kind in ("E", "EFG", "cor1", "family"):
        b.warmup(lambda: plan(kind, small=True))
    b.warmup(lambda: evaluate("enum", 1, False))
    b.warmup(lambda: evaluate("enum", 1, True))
    b.warmup(lambda: render("enum", 1, "ascii"))
    b.warmup(lambda: render("enum", 1, "svg"))
    _smallest_verify(b)
    b.warmup(lambda: lookup_job(1, 2))

    for kind in ("E", "EFG", "cor1", "family"):
        for _ in range(PLANS_PER_KIND):
            b.each_round(lambda: plan(kind))
    for spec_kind in ("enum", "override", "quadrant"):
        # quadrant specs with a table enumerate every cross pair: 262,144 at level 3
        top = 2 if spec_kind == "quadrant" else 3
        for rmax in range(1, 7):
            for _ in range(EVALS_PER_SHAPE):
                b.each_round(lambda: evaluate(spec_kind, rmax, False))
        for rmax in range(1, top + 1):
            for _ in range(EVALS_PER_SHAPE):
                b.each_round(lambda: evaluate(spec_kind, rmax, True))
        for rmax in range(1, top + 1):
            for fmt in ("ascii", "svg"):
                b.each_round(lambda: render(spec_kind, rmax, fmt))
    b.each_round(lambda: render("quadrant", 3))
    for r, count, per_job in LOOKUP_LEVELS:
        for _ in range(count):
            b.each_round(lambda: lookup_job(r, per_job))
    b.one_off(lambda: _job("verify-glue", ["verify", "--suite", "glue"],
                           {"check": "verify", "suite": "glue"}))
