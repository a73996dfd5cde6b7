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
cleared it.  A suite whose sweep holds no case prints ``<suite>: 0 cases``
before its verdict.

Each command's options are parsed once, by that command's own parser, and a
usage error still exits 2 with argparse's message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import algebra, constructions, diagrams, indices, invariant, nsets
from . import config as cfg
from .errors import InvalidInputError, PuklabError

SUITE_TOL = 1e-10


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's own parser by name."""
    parser = argparse.ArgumentParser(prog="puklab")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name: str, help: str) -> argparse.ArgumentParser:
        commands[name] = sub.add_parser(name, help=help)
        return commands[name]

    p = add("spectrum", "multiplicity spectrum from a config file")
    p.add_argument("--config", required=True)

    p = add("verify", "run the numerical identity suites")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--max-dim", type=int, default=4096,
                   help="run the construction cases (n, m) with n^(2(m+1)) at most this "
                        "(default 4096)")

    p = add("puk-eval", "evaluate the invariant formula for a value spec")
    p.add_argument("--lambda", dest="lambda_file", required=True)
    p.add_argument("--oracle")
    p.add_argument("--rmax", type=int, default=3)

    p = add("plan", "choose pair values or a family plan for target sets")
    p.add_argument("--target", required=True,
                   help="value sets, ';'-separated for EFG, matrix rows for family")
    p.add_argument("--kind", default="E", choices=("E", "EFG", "cor1", "family"))

    p = add("render", "render a diagram or value spec to ascii or svg")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="ascii", choices=("ascii", "svg"))
    p.add_argument("--out", required=True)
    p.add_argument("--rmax", type=int, default=1,
                   help="truncation level when the input is a value spec")
    return parser, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        # the top-level pass would only hand these tokens on to the command's own parser
        namespace = argparse.Namespace(command=argv[0])
        args, extra = COMMANDS[argv[0]].parse_known_args(argv[1:], namespace)
        if extra:
            PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
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
    except (PuklabError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def cmd_spectrum(args) -> int:
    data = _load_json(args.config)
    cfg.check_keys(data, ("shape", "mode", "seed", "a_generators", "b_generators"), "spectrum",
                   required=("shape", "a_generators"))
    shape = cfg.shape_from_config(data["shape"])
    a_gens = cfg.stack_from_config(data["a_generators"], "a_generators")
    seed = cfg.int_from_config(data.get("seed", 0), "seed")
    mode = data.get("mode", "mixed")
    if mode == "mixed":
        b_gens = (cfg.stack_from_config(data["b_generators"], "b_generators")
                  if "b_generators" in data else a_gens)
        report = algebra.mixed_spectrum(a_gens, b_gens, shape, seed=seed)
    elif mode == "puk":
        if "b_generators" in data:
            raise InvalidInputError("mode puk reads a_generators alone; drop b_generators")
        report = algebra.finite_puk_spectrum(a_gens, shape, seed=seed)
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
    wanted = SUITES if args.suite == "all" else (args.suite,)
    all_ok = True
    for name in wanted:
        verdicts = []
        for good, line in _RUNNERS[name](args.max_dim):
            print(line)
            verdicts.append(good)
        if not verdicts:
            print(f"{name}: 0 cases")
        ok = all(verdicts)
        print(f"suite {name}: {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _tolerance_note(defect: float, tolerance: float) -> str:
    """The tolerance and the margin ``tolerance / defect`` it was met or missed by."""
    margin = tolerance / defect if defect else float("inf")
    return f"tolerance {tolerance:.3e}, margin {margin:.3g}"


def _run_scaled(suite: str, measure: str, max_dim: int):
    """Each case's ``constructions.<suite>_check`` defect against ``SUITE_TOL·n^{−(2m+1)}``."""
    # looked up per run, so a replaced check is the one run
    check = getattr(constructions, f"{suite}_check")
    for n, m in _construction_range(max_dim):
        defect = check(n, m)
        tol = SUITE_TOL * float(n) ** (-(2 * m + 1))
        yield defect <= tol, (
            f"{suite} n={n} m={m}: max {measure} {defect:.3e}, {_tolerance_note(defect, tol)}")


def _run_span(max_dim: int):
    for n, m in _construction_range(max_dim):
        if m < 1:
            continue
        rep = constructions.family_span_check(n, m)
        tol = SUITE_TOL * rep.min_gram_diag
        good = (
            rep.rank == rep.count == n ** (2 * m)
            and rep.min_gram_diag > 0.0
            and rep.max_offdiag <= tol
        )
        yield good, (
            f"span n={n} m={m}: {rep.count} elements, rank {rep.rank}, "
            f"min diag {rep.min_gram_diag:.3e}, offdiag {rep.max_offdiag:.3e}, "
            f"{_tolerance_note(rep.max_offdiag, tol)}, Gershgorin margin {rep.margin:.3g}"
        )


def _run_algebra(max_dim: int):
    import numpy as np

    from .core import GnsSpace, TracedAlgebraShape
    shapes = [TracedAlgebraShape.full_matrix(2), TracedAlgebraShape.full_matrix(3),
              TracedAlgebraShape.from_blocks((2, 1))]
    for shape in shapes:
        space, eye = GnsSpace(shape), np.eye(shape.total_dim, dtype=complex)
        # each block's matrix units, row-major; generate_algebra scales each to entry 1
        units = [np.outer(eye[i], eye[j]) for sl in shape.block_slices()
                 for i in range(sl.start, sl.stop) for j in range(sl.start, sl.stop)]
        left_alg = algebra.generate_algebra([space.left(u) for u in units])
        comm = algebra.commutant(left_alg)
        rights = algebra.generate_algebra([space.right(u) for u in units])
        joined = np.concatenate([comm.basis, rights.basis]).reshape(
            comm.dim + rights.dim, -1
        )
        sing = np.linalg.svd(joined, compute_uv=False)
        cut = algebra.SPAN_RTOL * sing[0]
        kept = sing[sing > cut]
        # the nearer side of the cut: the last kept or the first dropped value
        dropped = float(np.max(sing[kept.size:], initial=0.0))
        margin = min(kept[-1] / cut, cut / dropped) if dropped else kept[-1] / cut
        yield comm.dim == rights.dim == kept.size == shape.gns_dim, (
            f"commutant of left action (blocks {shape.blocks}): dim {comm.dim}, "
            f"right-action dim {rights.dim}, joint rank {kept.size}, "
            f"rank cut {cut:.3e}, margin {margin:.3g}"
        )
    for n in (2, 3):
        a_gens, b_gens = constructions.truncated_masa_pair(n, 2)
        rep = algebra.mixed_spectrum(a_gens, b_gens, TracedAlgebraShape.full_matrix(n * n))
        yield rep.as_set == nsets.NSet.of(1) and rep.block_count == n**4, (
            f"mixed spectrum of conjugated pair in M_{n}⊗M_{n}: {rep.as_set} "
            f"({rep.block_count} blocks)")
    for n in (2, 3, 4):
        gens = np.diag(np.arange(n, dtype=complex))[None]  # distinct eigenvalues: the masa
        rep = algebra.finite_puk_spectrum(gens, TracedAlgebraShape.full_matrix(n))
        yield rep.as_set == nsets.NSet.of(1) and rep.block_count == n * n - n, (
            f"diagonal masa of M_{n}: {rep.as_set} ({rep.block_count} off-diagonal blocks)")
    rng = np.random.default_rng(7)
    for trial in range(5):
        dim = int(rng.integers(2, 7))
        gens = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(2)]
        alg = algebra.generate_algebra(gens)
        bicomm = algebra.commutant(algebra.commutant(alg))
        yield bicomm.dim == alg.dim, (
            f"bicommutant trial {trial} (D={dim}): dim {alg.dim} -> {bicomm.dim}")


def _run_glue(max_dim: int):
    report = indices.glue_check(3, 3)
    yield report.passed, (
        f"glue: {report.cases_checked} cases checked, {len(report.failures)} failures")
    for line in report.failures:
        yield False, f"  {line}"


_RUNNERS = {
    "keyclaim": partial(_run_scaled, "keyclaim", "deviation"),
    "span": _run_span,
    "intertwiner": partial(_run_scaled, "intertwiner", "defect"),
    "algebra": _run_algebra,
    "glue": _run_glue,
}
SUITES = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# symbolic evaluation and planning


def cmd_puk_eval(args) -> int:
    spec = cfg.lambda_from_input(_load_json(args.lambda_file))
    oracle = (
        cfg.oracle_from_config(_load_json(args.oracle)) if args.oracle
        else invariant.CutdownOracle.simple()
    )
    result = invariant.eval_construction(spec, oracle, args.rmax)
    print(f"value: {result.value}")
    print(f"converged: {'true' if result.converged else 'false'}")
    for r, level in enumerate(result.per_level):
        print(f"level {r}: {level}")
    return 0


def cmd_plan(args) -> int:
    if args.kind == "E":
        target = nsets.NSet.parse(args.target)
        spec = invariant.choose_lambda_for_e(target)
        result = invariant.eval_construction(spec, invariant.CutdownOracle.simple(),
                                              spec.saturation_bound + 1)
        payload = {
            "kind": "E",
            "lambda": cfg.lambda_to_config(spec),
            "evaluation": {"value": str(result.value), "converged": result.converged},
        }
    elif args.kind == "EFG":
        parts = args.target.split(";")
        if len(parts) != 3:
            raise ValueError("EFG planning needs three ';'-separated sets")
        e, f, g = (nsets.NSet.parse(p) for p in parts)
        spec = invariant.choose_lambda_for_efg(e, f, g)
        rmax = spec.saturation_bound + 1
        evaluation = {}
        for quadrant in ("both_zero", "both_one", "mixed"):
            evaluation[quadrant] = str(
                invariant.eval_construction(spec, invariant.CutdownOracle.simple(), rmax,
                                            quadrant).value
            )
        full = invariant.eval_construction(spec, invariant.CutdownOracle.simple(), rmax)
        evaluation["union"] = str(full.value)
        evaluation["converged"] = full.converged
        payload = {"kind": "EFG", "lambda": cfg.lambda_to_config(spec), "evaluation": evaluation}
    elif args.kind == "cor1":
        plan = invariant.cor_plan_1_in_puk(nsets.NSet.parse(args.target))
        payload = {
            "kind": "cor1",
            "size": plan.size,
            "matrix": [[cfg.value_to_config(v) for v in row] for row in plan.matrix],
            "evaluation": str(plan.evaluate()),
        }
    else:
        rows = [[nsets.parse_value(v) for v in row.split(",")] for row in args.target.split(";")]
        plan = invariant.countable_family_plan(rows)
        payload = {
            "kind": "family",
            "size": plan.size,
            "gadgets": [
                {"pair": list(g.pair), "n": cfg.value_to_config(g.n)} for g in plan.assignments
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
        diagram = diagrams.diagram_from_construction(
            cfg.lambda_from_input(data), invariant.CutdownOracle.simple(), args.rmax)
    text = diagrams.render(diagram, args.format)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.out}")
    return 0


PARSER, COMMANDS = build_parser()


if __name__ == "__main__":
    sys.exit(main())
