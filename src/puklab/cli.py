"""Command-line surface: spectra, identity suites, invariant evaluation, planning, rendering.

Exit codes: 0 on success, 1 when a verification suite breaches its tolerance,
2 on malformed input, and 141 (128 + SIGPIPE) when the reader of the output
closes it early.  The keyclaim and intertwiner suites print, per case
``(n, m)``, the one defect their ``constructions`` check returns (the
intertwiner's is the largest over all pairs ``r < s``), against ``SUITE_TOL``
times the expected size ``n^{-(2m+1)}`` of the inner products; the span
tolerance is ``SUITE_TOL`` times the smallest Gram diagonal entry.  The three
checks are exact, so a defect is 0 or the size of an inner product.  The span
rank is the exact rank of the family's Gram, not a Gershgorin certificate;
each span line ends with the least ratio of a Gram diagonal entry to the sum
of the off-diagonal moduli in its row, ``inf`` for a diagonal Gram.
The algebra suite's commutant lines end with the ratio by which the singular
values on either side of the rank cut, the last kept and the first dropped,
cleared it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import config as cfg
from .diagrams import diagram_from_construction, render
from .errors import PuklabError
from .indices import glue_check, sibling_pair_count
from .invariant import (
    CutdownOracle,
    choose_lambda_for_e,
    choose_lambda_for_efg,
    cor_plan_1_in_puk,
    countable_family_plan,
    eval_construction,
)
from .nsets import NSet, parse_value

SUITE_TOL = 1e-10
SUITES = ("keyclaim", "span", "intertwiner", "algebra", "glue")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="puklab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="multiplicity spectrum from a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("verify", help="run the numerical identity suites")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--max-dim", type=int, default=4096,
                   help="run the construction cases (n, m) with n^(2(m+1)) at most this "
                        "(default 4096)")

    p = sub.add_parser("puk-eval", help="evaluate the invariant formula for a value spec")
    p.add_argument("--lambda", dest="lambda_file", required=True)
    p.add_argument("--oracle")
    p.add_argument("--rmax", type=int, default=3)

    p = sub.add_parser("plan", help="choose pair values or a family plan for target sets")
    p.add_argument("--target", required=True,
                   help="value sets, ';'-separated for EFG, matrix rows for family")
    p.add_argument("--kind", default="E", choices=("E", "EFG", "cor1", "family"))

    p = sub.add_parser("render", help="render a diagram or value spec to ascii or svg")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="ascii", choices=("ascii", "svg"))
    p.add_argument("--out", required=True)
    p.add_argument("--rmax", type=int, default=1,
                   help="truncation level when the input is a value spec")
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    # looked up per call, so a replaced ``cmd_<command>`` attribute is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device, so that the flush at
        # interpreter exit has nowhere to fail, and exit as SIGPIPE would have ended us
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except PuklabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def cmd_spectrum(args) -> int:
    from .algebra import finite_puk_spectrum, mixed_spectrum
    data = _load_json(args.config)
    shape = cfg.shape_from_config(data["shape"])
    a_gens = [cfg.matrix_from_config(m) for m in data["a_generators"]]
    seed = cfg.int_from_config(data.get("seed", 0), "seed")
    mode = data.get("mode", "mixed")
    if mode == "mixed":
        b_gens = [cfg.matrix_from_config(m) for m in data.get("b_generators", data["a_generators"])]
        report = mixed_spectrum(a_gens, b_gens, shape, seed=seed)
    elif mode == "puk":
        report = finite_puk_spectrum(a_gens, shape, seed=seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    print(f"blocks: {report.block_count}")
    print("multiplicities: " + ",".join(str(m) for m in report.multiset))
    print(f"set: {report.as_set}")
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _construction_range(max_dim: int):
    n = 2
    while n * n <= max_dim:
        m = 0
        while n ** (2 * (m + 1)) <= max_dim:
            yield n, m
            m += 1
        n += 1


def cmd_verify(args) -> int:
    # the suites load the numeric half whole: perfbench's tracer patches every
    # layer once a verify job has run
    from . import algebra, constructions  # noqa: F401
    wanted = SUITES if args.suite == "all" else (args.suite,)
    all_ok = True
    for name in wanted:
        ok = _RUNNERS[name](args.max_dim)
        print(f"suite {name}: {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _tolerance_note(defect: float, tolerance: float) -> str:
    """The tolerance and the margin ``tolerance / defect`` it was met or missed by."""
    margin = tolerance / defect if defect else float("inf")
    return f"tolerance {tolerance:.3e}, margin {margin:.3g}"


def _run_scaled(suite: str, measure: str, max_dim: int) -> bool:
    """Each case's ``constructions.<suite>_check`` defect against ``SUITE_TOL·n^{−(2m+1)}``."""
    from . import constructions
    # looked up per run, so a replaced check is the one run
    check = getattr(constructions, f"{suite}_check")
    ok = True
    for n, m in _construction_range(max_dim):
        defect = check(n, m)
        tol = SUITE_TOL * float(n) ** (-(2 * m + 1))
        ok = ok and defect <= tol
        print(f"{suite} n={n} m={m}: max {measure} {defect:.3e}, {_tolerance_note(defect, tol)}")
    return ok


def _run_span(max_dim: int) -> bool:
    from .constructions import family_span_check
    ok = True
    for n, m in _construction_range(max_dim):
        if m < 1:
            continue
        rep = family_span_check(n, m)
        tol = SUITE_TOL * rep.min_gram_diag
        good = (
            rep.rank == rep.count == n ** (2 * m)
            and rep.min_gram_diag > 0.0
            and rep.max_offdiag <= tol
        )
        ok = ok and good
        print(
            f"span n={n} m={m}: {rep.count} elements, rank {rep.rank}, "
            f"min diag {rep.min_gram_diag:.3e}, offdiag {rep.max_offdiag:.3e}, "
            f"{_tolerance_note(rep.max_offdiag, tol)}, Gershgorin margin {rep.margin:.3g}"
        )
    return ok


def _run_algebra(max_dim: int) -> bool:
    import numpy as np

    from .algebra import SPAN_RTOL, commutant, finite_puk_spectrum, generate_algebra, mixed_spectrum
    from .constructions import truncated_masa_pair
    from .core import GnsSpace, TracedAlgebraShape
    ok = True
    shapes = [TracedAlgebraShape.full_matrix(2), TracedAlgebraShape.full_matrix(3),
              TracedAlgebraShape.from_blocks((2, 1))]
    for shape in shapes:
        space = GnsSpace(shape)
        units = [space.basis_element(k) for k in range(space.dim)]
        left_alg = generate_algebra([space.left(u) for u in units])
        comm = commutant(left_alg)
        rights = generate_algebra([space.right(u) for u in units])
        joined = np.concatenate([comm.basis, rights.basis]).reshape(
            comm.dim + rights.dim, -1
        )
        sing = np.linalg.svd(joined, compute_uv=False)
        cut = SPAN_RTOL * sing[0]
        kept = sing[sing > cut]
        # the nearer side of the cut: the last kept or the first dropped value
        dropped = float(np.max(sing[kept.size:], initial=0.0))
        margin = min(kept[-1] / cut, cut / dropped) if dropped else kept[-1] / cut
        good = comm.dim == rights.dim == kept.size == shape.gns_dim
        ok = ok and good
        print(
            f"commutant of left action (blocks {shape.blocks}): dim {comm.dim}, "
            f"right-action dim {rights.dim}, joint rank {kept.size}, "
            f"rank cut {cut:.3e}, margin {margin:.3g}"
        )
    for n in (2, 3):
        a_gens, b_gens = truncated_masa_pair(n, 2)
        rep = mixed_spectrum(a_gens, b_gens, TracedAlgebraShape.full_matrix(n * n))
        good = rep.as_set == NSet.of(1) and rep.block_count == n**4
        ok = ok and good
        print(f"mixed spectrum of conjugated pair in M_{n}⊗M_{n}: {rep.as_set} "
              f"({rep.block_count} blocks)")
    for n in (2, 3, 4):
        gens = [np.diag(np.eye(n, dtype=complex)[i]) for i in range(n)]
        rep = finite_puk_spectrum(gens, TracedAlgebraShape.full_matrix(n))
        good = rep.as_set == NSet.of(1) and rep.block_count == n * n - n
        ok = ok and good
        print(f"diagonal masa of M_{n}: {rep.as_set} ({rep.block_count} off-diagonal blocks)")
    rng = np.random.default_rng(7)
    for trial in range(5):
        dim = int(rng.integers(2, 7))
        gens = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(2)]
        alg = generate_algebra(gens)
        bicomm = commutant(commutant(alg))
        good = bicomm.dim == alg.dim
        ok = ok and good
        print(f"bicommutant trial {trial} (D={dim}): dim {alg.dim} -> {bicomm.dim}")
    return ok


def _run_glue(max_dim: int) -> bool:
    report = glue_check(3, 3)
    print(f"glue: {report.cases_checked} cases checked, {len(report.failures)} failures")
    for line in report.failures:
        print(f"  {line}")
    return report.passed


_RUNNERS = {
    "keyclaim": partial(_run_scaled, "keyclaim", "deviation"),
    "span": _run_span,
    "intertwiner": partial(_run_scaled, "intertwiner", "defect"),
    "algebra": _run_algebra,
    "glue": _run_glue,
}


# ---------------------------------------------------------------------------
# symbolic evaluation and planning


def cmd_puk_eval(args) -> int:
    spec = cfg.lambda_from_config(_load_json(args.lambda_file))
    oracle = (
        cfg.oracle_from_config(_load_json(args.oracle)) if args.oracle
        else CutdownOracle.simple()
    )
    result = eval_construction(spec, oracle, args.rmax)
    print(f"value: {result.value}")
    print(f"converged: {'true' if result.converged else 'false'}")
    for r, level in enumerate(result.per_level):
        print(f"level {r}: {level}")
    return 0


def _rmax_for_enumeration(size: int) -> int:
    r, cumulative = 0, sibling_pair_count(0)
    while cumulative < size:
        r += 1
        cumulative += sibling_pair_count(r)
    return max(2, r + 1)


def cmd_plan(args) -> int:
    if args.kind == "E":
        target = NSet.parse(args.target)
        spec = choose_lambda_for_e(target)
        result = eval_construction(spec, CutdownOracle.simple(), _rmax_for_enumeration(len(target)))
        payload = {
            "kind": "E",
            "lambda": cfg.lambda_to_config(spec),
            "evaluation": {"value": str(result.value), "converged": result.converged},
        }
    elif args.kind == "EFG":
        parts = args.target.split(";")
        if len(parts) != 3:
            raise ValueError("EFG planning needs three ';'-separated sets")
        e, f, g = (NSet.parse(p) for p in parts)
        spec = choose_lambda_for_efg(e, f, g)
        rmax = _rmax_for_enumeration(max(len(e), len(f), len(g)))
        evaluation = {}
        for quadrant in ("both_zero", "both_one", "mixed"):
            evaluation[quadrant] = str(
                eval_construction(spec, CutdownOracle.simple(), rmax, quadrant).value
            )
        full = eval_construction(spec, CutdownOracle.simple(), rmax)
        evaluation["union"] = str(full.value)
        evaluation["converged"] = full.converged
        payload = {"kind": "EFG", "lambda": cfg.lambda_to_config(spec), "evaluation": evaluation}
    elif args.kind == "cor1":
        plan = cor_plan_1_in_puk(NSet.parse(args.target))
        payload = {
            "kind": "cor1",
            "size": plan.size,
            "matrix": [[cfg.value_to_config(v) for v in row] for row in plan.matrix],
            "evaluation": str(plan.evaluate()),
        }
    else:
        rows = [[parse_value(v) for v in row.split(",")] for row in args.target.split(";")]
        plan = countable_family_plan(rows)
        payload = {
            "kind": "family",
            "size": plan.size,
            "gadgets": [
                {"pair": list(g.pair), "n": cfg.value_to_config(g.n), "roles": list(g.roles)}
                for g in plan.assignments
            ],
            "table": [[str(c) for c in row] for row in plan.pairwise_table()],
        }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_render(args) -> int:
    data = _load_json(args.input)
    if "cells" in data:
        diagram = cfg.diagram_from_config(data)
    else:
        spec = cfg.lambda_from_config(data)
        diagram = diagram_from_construction(spec, CutdownOracle.simple(), args.rmax)
    text = render(diagram, args.format)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
