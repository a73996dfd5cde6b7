"""Reference answers and output checks that do not use the package under test.

Everything here is standard library only.  The closed forms restate the
documented mathematics (pair counts, cyclic value streams, rank products of
left-right cutdowns); the sibling-pair enumerator groups indices by their
parent and sorts, rather than walking fibers as the package does.  A check
returns ``None`` when the output is right and a one-line reason when not.
"""

from __future__ import annotations

import itertools
import json
import math
from math import comb

INF = math.inf


# ---------------------------------------------------------------------------
# value sets as sorted lists with inf last


def canon(values) -> str:
    """Textual form of a value set: ascending integers, then ``inf``."""
    finite = sorted({int(v) for v in values if v != INF})
    text = [str(v) for v in finite]
    if any(v == INF for v in values):
        text.append("inf")
    return ",".join(text)


def parse_values(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    return sorted({INF if t.strip() == "inf" else int(t) for t in text.split(",")})


def product(a, b) -> set:
    """Pairwise products with ``n·∞ = ∞``; empty when either side is empty."""
    if not a or not b:
        return set()
    return {INF if INF in (x, y) else x * y for x in a for y in b}


def cyclic_slice(values: list, offset: int, count: int) -> set:
    if count <= 0:
        return set()
    return {values[(offset + t) % len(values)] for t in range(min(count, len(values)))}


# ---------------------------------------------------------------------------
# index and pair counts


def index_count(r: int, m: int) -> int:
    return 2 ** ((r + 1) * m + r * (r + 1) // 2)


def sibling_pair_count(r: int) -> int:
    return 1 if r == 0 else index_count(r - 1, 1) * comb(2 ** (r + 1), 2)


def cross_pair_count(r: int) -> int:
    return 1 if r == 0 else (index_count(r, 1) // 2) ** 2


def level_indices(r: int) -> list:
    """Word tuples of the level-``r`` indices with final length one, ascending."""
    return list(itertools.product(*[range(2 ** (1 + r - t)) for t in range(r + 1)]))


def sibling_pairs(r: int) -> list:
    """All sibling pairs at level ``r`` as ``(words_i, words_j)``, ascending."""
    if r == 0:
        return [((0,), (1,))]
    groups: dict = {}
    for words in level_indices(r):
        groups.setdefault(tuple(w >> 1 for w in words[:r]), []).append(words)
    return sorted(pair for group in groups.values() for pair in itertools.combinations(group, 2))


def cross_pairs(r: int) -> list:
    if r == 0:
        return [((0,), (1,))]
    everything = level_indices(r)
    half = len(everything) // 2
    return [(i, j) for i in everything[:half] for j in everything[half:]]


def leading_bits(words, r: int) -> str:
    return format(words[0], f"0{r + 1}b")


# ---------------------------------------------------------------------------
# value specifications (the JSON form the CLI reads)


def _value(raw):
    return INF if raw == "inf" else int(raw)


def spec_levels(spec: dict, r: int) -> set:
    """Values carried by the level-``r`` pairs of a value spec, from closed forms."""
    if "quadrants" in spec:
        q = {k: parse_values(v) for k, v in spec["quadrants"].items()}
        out = cyclic_slice(q["mixed"], sum(cross_pair_count(s) for s in range(r)),
                           cross_pair_count(r))
        if r >= 1:
            branch_offset = sum(sibling_pair_count(s) // 2 for s in range(1, r))
            half = sibling_pair_count(r) // 2
            out |= cyclic_slice(q["both_zero"], branch_offset, half)
            out |= cyclic_slice(q["both_one"], branch_offset, half)
        return out
    if "enumerate" in spec:
        return cyclic_slice(parse_values(spec["enumerate"]),
                            sum(sibling_pair_count(s) for s in range(r)), sibling_pair_count(r))
    pinned = {(tuple(o["i"]), tuple(o["j"])): _value(o["value"])
              for o in spec.get("overrides", ()) if o["r"] == r}
    out = set(pinned.values())
    if len(pinned) < sibling_pair_count(r):
        out.add(_value(spec.get("default", 1)))
    return out


def spec_pairs(spec: dict, r: int):
    """``(words_i, words_j, value)`` for every value-carrying pair at level ``r``."""
    if "quadrants" in spec:
        q = {k: parse_values(v) for k, v in spec["quadrants"].items()}
        if r == 0:
            yield (0,), (1,), q["mixed"][0]
            return
        branch_offset = sum(sibling_pair_count(s) // 2 for s in range(1, r))
        counters = {0: 0, 1: 0}
        for i, j in sibling_pairs(r):
            branch = i[0] >> r
            values = q["both_zero"] if branch == 0 else q["both_one"]
            yield i, j, values[(branch_offset + counters[branch]) % len(values)]
            counters[branch] += 1
        offset = sum(cross_pair_count(s) for s in range(r))
        for pos, (i, j) in enumerate(cross_pairs(r)):
            yield i, j, q["mixed"][(offset + pos) % len(q["mixed"])]
        return
    if "enumerate" in spec:
        values = parse_values(spec["enumerate"])
        offset = sum(sibling_pair_count(s) for s in range(r))
        for pos, (i, j) in enumerate(sibling_pairs(r)):
            yield i, j, values[(offset + pos) % len(values)]
        return
    pinned = {}
    for o in spec.get("overrides", ()):
        if o["r"] == r:
            pinned[(words_of(o["i"]), words_of(o["j"]))] = _value(o["value"])
    default = _value(spec.get("default", 1))
    for i, j in sibling_pairs(r):
        yield i, j, pinned.get((i, j), default)


def words_of(bits) -> tuple:
    return tuple(int(b, 2) for b in bits)


def bits_of(words, r: int) -> list:
    return [format(w, f"0{1 + r - t}b") for t, w in enumerate(words)]


class TableOracle:
    """Cutdown types from an oracle table; coarse keys take unions of refinements."""

    def __init__(self, data: dict):
        self.level = int(data["level"])
        self.table = {(e["row"], e["col"]): parse_values(e["value"]) for e in data["entries"]}

    def entry(self, row: str, col: str) -> set:
        out: set = set()
        for (r, c), v in self.table.items():
            if r.startswith(row) and c.startswith(col):
                out |= set(v)
        return out


def expected_eval(spec: dict, oracle: dict, rmax: int) -> list:
    """Per-level value sets of the truncated invariant; the value is their union."""
    levels = []
    if "constant" in oracle:
        const = parse_values(oracle["constant"])
        for r in range(rmax + 1):
            levels.append(product(spec_levels(spec, r), const))
        return levels
    table = TableOracle(oracle)
    cache: dict = {}
    for r in range(rmax + 1):
        out: set = set()
        for i, j, value in spec_pairs(spec, r):
            key = (leading_bits(i, r), leading_bits(j, r))
            if key not in cache:
                cache[key] = table.entry(*key)
            out |= product({value}, cache[key])
        levels.append(out)
    return levels


# ---------------------------------------------------------------------------
# sweeps of the verify suites


def construction_sweep(max_dim: int) -> list:
    """``(n, m)`` with ``n^(2(m+1)) <= max_dim``, in the order the suites print them."""
    out = []
    n = 2
    while n * n <= max_dim:
        m = 0
        while n ** (2 * (m + 1)) <= max_dim:
            out.append((n, m))
            m += 1
        n += 1
    return out


# ---------------------------------------------------------------------------
# output checks; each takes (exit code, stdout, expectation)


def check_verify(code, out: str, exp: dict):
    suite = exp["suite"]
    if code != 0:
        return f"exit code {code}"
    if f"suite {suite}: PASS" not in out.splitlines():
        return f"no 'suite {suite}: PASS' line"
    if "cases" in exp:
        lines = [ln for ln in out.splitlines() if ln.startswith(f"{suite} n=")]
        if len(lines) != exp["cases"]:
            return f"{len(lines)} {suite} cases reported, expected {exp['cases']}"
    return None


def check_spectrum(code, out: str, exp: dict):
    if code != 0:
        return f"exit code {code}"
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    want = sorted(exp["multiset"])
    got = sorted(int(v) for v in fields.get("multiplicities", "").split(",") if v)
    if got != want:
        return f"multiplicities {got} != {want}"
    if fields.get("blocks") != str(len(want)):
        return f"blocks {fields.get('blocks')} != {len(want)}"
    if fields.get("set") != canon(want):
        return f"set {fields.get('set')} != {canon(want)}"
    return None


def _load_payload(code, out):
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def check_plan(code, out: str, exp: dict):
    payload, err = _load_payload(code, out)
    if err:
        return err
    kind = exp["kind"]
    if payload.get("kind") != kind:
        return f"kind {payload.get('kind')} != {kind}"
    ev = payload.get("evaluation")
    if kind == "E":
        if ev != {"value": canon(parse_values(exp["target"])), "converged": True}:
            return f"evaluation {ev} does not reproduce {exp['target']}"
    elif kind == "EFG":
        e, f, g = (parse_values(t) for t in exp["target"].split(";"))
        want = {"both_zero": canon(e), "both_one": canon(f), "mixed": canon(g),
                "union": canon(set(e) | set(f) | set(g)), "converged": True}
        if ev != want:
            return f"evaluation {ev} != {want}"
    elif kind == "cor1":
        target = canon(parse_values(exp["target"]))
        if ev != target:
            return f"evaluation {ev} != {target}"
        matrix = payload["matrix"]
        k = len(matrix)
        if any(matrix[a][a] != 1 or matrix[a][b] != matrix[b][a]
               for a in range(k) for b in range(k)):
            return "matrix is not symmetric with ones on the diagonal"
        if canon([_value(v) for row in matrix for v in row]) != target:
            return "matrix entries do not cover the target"
    else:
        rows = [[canon([_value(v)]) for v in row.split(",")] for row in exp["target"].split(";")]
        if payload.get("table") != rows:
            return f"table {payload.get('table')} != matrix {rows}"
    return None


def check_puk_eval(code, out: str, exp: dict):
    if code != 0:
        return f"exit code {code}"
    levels = exp["levels"]
    want = [f"value: {canon([v for s in levels for v in parse_values(s)])}"]
    lines = out.splitlines()
    got_levels = [ln for ln in lines if ln.startswith("level ")]
    if lines[:1] != want:
        return f"{lines[:1]} != {want}"
    if got_levels != [f"level {r}: {s}" for r, s in enumerate(levels)]:
        return f"per-level lines {got_levels} != {levels}"
    return None


def check_render(code, out: str, exp: dict, text: str | None):
    if code != 0:
        return f"exit code {code}"
    if out.strip() != f"wrote {exp['out']}":
        return f"stdout {out.strip()!r}"
    if text is None:
        return "no output file"
    side = exp["side"]
    if exp["format"] == "ascii":
        lines = text.rstrip("\n").split("\n")
        labels = [ln.split("|", 1)[0].strip() for ln in lines[2::2]]
        if len(lines) != 2 + 2 * side or labels != [format(x, f"0{side.bit_length() - 1}b")
                                                     for x in range(side)]:
            return f"ascii grid is not {side} x {side}"
    else:
        width = side * 64 + 80
        if f'width="{width}"' not in text or text.count("<line") != 2 * (side - 1) + 1:
            return f"svg grid is not {side} x {side}"
    return None


def check_lookup(values, exp: dict):
    want = [_value(v) for v in exp["values"]]
    if list(values) != want:
        return f"values {list(values)} != {want}"
    return None
