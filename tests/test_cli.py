import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from puklab import algebra, cli, constructions
from puklab import config as cfg
from puklab.algebra import SPAN_RTOL, commutant, generate_algebra
from puklab.cli import SUITES, _construction_range, main
from puklab.constructions import family_span_check
from puklab.core import GnsSpace, TracedAlgebraShape
from puklab.errors import InvalidInputError
from puklab.indices import LambdaSpec, Override, QuadrantRules, level_zero
from puklab.invariant import CutdownOracle
from puklab.nsets import INF, NSet


def write_json(path, payload):
    """Write ``payload`` as JSON, or as it stands when it is already JSON text."""
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    return str(path)


def identity_config(n):
    return [[[1.0 if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]


def diag_unit_config(n, k):
    return [[[1.0 if i == j == k else 0.0, 0.0] for j in range(n)] for i in range(n)]


def matrix_config(m):
    """A complex matrix as rows of ``[re, im]`` pairs."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def joint_rank_margin(shape):
    """How far the singular values nearest the rank cut of commutant ∪ right action sit from it."""
    space = GnsSpace(shape)
    D = shape.total_dim
    units = []
    for sl, d in zip(shape.block_slices(), shape.blocks):
        for i in range(sl.start, sl.start + d):
            for j in range(sl.start, sl.start + d):
                u = np.zeros((D, D), dtype=complex)
                u[i, j] = 1.0
                units.append(u)
    comm = commutant(generate_algebra([space.left(u) for u in units]))
    rights = generate_algebra([space.right(u) for u in units])
    sing = np.linalg.svd(np.concatenate([comm.basis_matrix(), rights.basis_matrix()]),
                         compute_uv=False)
    cut = SPAN_RTOL * sing[0]
    rank = int(np.sum(sing > cut))
    return min(sing[rank - 1] / cut, cut / sing[rank])


INTRO_CONFIG = {
    "default": 3,
    "overrides": [{"r": 0, "i": ["0"], "j": ["1"], "value": 2}],
}


class TestConfigRoundTrips:
    def test_matrix(self):
        m = np.array([[1 + 2j, 0], [0.5j, -1]])
        again = cfg.matrix_from_config([[[1, 2], [0, 0]], [[0, 0.5], [-1, 0]]])
        assert np.array_equal(m, again)

    def test_lambda_bit_exact(self):
        specs = [
            LambdaSpec(default=3, overrides=(Override(0, level_zero(0), level_zero(1), 2),)),
            LambdaSpec(enumeration=NSet.of(2, 3, INF)),
            LambdaSpec(quadrants=QuadrantRules(NSet.of(2), NSet.of(5, INF), NSet.of(7))),
            LambdaSpec(default=INF),
        ]
        for spec in specs:
            data = cfg.lambda_to_config(spec)
            assert cfg.lambda_from_config(json.loads(json.dumps(data))) == spec

    def test_oracle_round_trip(self):
        oracle = CutdownOracle.from_table(
            1,
            {
                ("0", "0"): NSet.of(1),
                ("0", "1"): NSet.of(2),
                ("1", "0"): NSet.of(2),
                ("1", "1"): NSet.of(1),
            },
        )
        again = cfg.oracle_from_config({"level": 1, "entries": [
            {"row": "0", "col": "0", "value": "1"}, {"row": "0", "col": "1", "value": "2"},
            {"row": "1", "col": "0", "value": "2"}, {"row": "1", "col": "1", "value": "1"}]})
        assert again.level == 1 and again.grids == oracle.grids
        assert cfg.oracle_from_config({"constant": "1"}).constant_value == NSet.of(1)

    def test_oracle_table_config_is_row_major(self):
        labels = ("00", "01", "10", "11")
        entries = {(labels[x], labels[y]): NSet.of(1 + 4 * x + y) for x in range(4) for y in range(4)}
        entries[("11", "10")] = NSet.parse("3,inf")
        # keys given last to first: the grid's order comes from the labels, not the dict
        oracle = CutdownOracle.from_table(2, dict(reversed(entries.items())))
        expected = {"level": 2, "entries": [
            {"row": "00", "col": "00", "value": "1"},
            {"row": "00", "col": "01", "value": "2"},
            {"row": "00", "col": "10", "value": "3"},
            {"row": "00", "col": "11", "value": "4"},
            {"row": "01", "col": "00", "value": "5"},
            {"row": "01", "col": "01", "value": "6"},
            {"row": "01", "col": "10", "value": "7"},
            {"row": "01", "col": "11", "value": "8"},
            {"row": "10", "col": "00", "value": "9"},
            {"row": "10", "col": "01", "value": "10"},
            {"row": "10", "col": "10", "value": "11"},
            {"row": "10", "col": "11", "value": "12"},
            {"row": "11", "col": "00", "value": "13"},
            {"row": "11", "col": "01", "value": "14"},
            {"row": "11", "col": "10", "value": "3,inf"},
            {"row": "11", "col": "11", "value": "16"},
        ]}
        again = cfg.oracle_from_config(expected)
        assert again.level == 2 and again.grids == oracle.grids

    def test_diagram_identity(self):
        data = {
            "level": 1,
            "diagonal": True,
            "cells": [["1", "2"], ["2", "1"]],
        }
        diagram = cfg.diagram_from_config(data)
        assert (diagram.level, diagram.diagonal_marked) == (1, True)
        assert [[str(c) for c in row] for row in diagram.cells] == data["cells"]

    def test_shape(self):
        shape = cfg.shape_from_config({"blocks": [2, 1], "weights": ["2/3", "1/3"]})
        assert shape.total_dim == 3
        assert shape == TracedAlgebraShape((2, 1), (Fraction(2, 3), Fraction(1, 3)))


class TestSpectrumCommand:
    def test_mixed_diagonal(self, tmp_path, capsys):
        config = {
            "shape": {"blocks": [2]},
            "mode": "mixed",
            "a_generators": [diag_unit_config(2, 0), diag_unit_config(2, 1)],
        }
        path = write_json(tmp_path / "c.json", config)
        assert main(["spectrum", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "multiplicities: 1,1,1,1" in out
        assert "set: 1" in out

    def test_puk_mode(self, tmp_path, capsys):
        config = {
            "shape": {"blocks": [3]},
            "mode": "puk",
            "a_generators": [diag_unit_config(3, k) for k in range(3)],
        }
        path = write_json(tmp_path / "c.json", config)
        assert main(["spectrum", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "blocks: 6" in out
        assert "set: 1" in out

    def test_maximal_pair_m64(self, tmp_path, capsys):
        n = 64
        rng = np.random.default_rng(64)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        labels = np.diag(np.arange(1.0, n + 1))
        config = {
            "shape": {"blocks": [n]},
            "mode": "mixed",
            "a_generators": [matrix_config(labels)],
            "b_generators": [matrix_config(u @ labels @ u.conj().T)],
        }
        path = write_json(tmp_path / "c.json", config)
        assert main(["spectrum", "--config", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["blocks: 4096", "multiplicities: " + ",".join(["1"] * 4096), "set: 1"]

    def test_mixed_without_b_generators_computes_one_eigenbasis(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the README config: B defaults to the A stack, whose seeded eigenbasis is read once
        config = {"shape": {"blocks": [2]}, "mode": "mixed",
                  "a_generators": [diag_unit_config(2, 0), diag_unit_config(2, 1)]}
        calls = []

        def counted(gens, shape, seed):
            calls.append(seed)
            return joint_eigenbasis(gens, shape, seed)

        joint_eigenbasis = algebra._joint_eigenbasis
        monkeypatch.setattr(algebra, "_joint_eigenbasis", counted)
        assert main(["spectrum", "--config", write_json(tmp_path / "a.json", config)]) == 0
        alone = capsys.readouterr().out
        assert len(calls) == 1
        both = dict(config, b_generators=config["a_generators"])
        assert main(["spectrum", "--config", write_json(tmp_path / "ab.json", both)]) == 0
        assert capsys.readouterr().out == alone
        assert len(calls) == 3
        assert alone.splitlines() == ["blocks: 4", "multiplicities: 1,1,1,1", "set: 1"]

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["spectrum", "--config", str(path)]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["spectrum", "--config", "/nonexistent.json"]) == 2

    def test_off_block_generator_exits_2(self, tmp_path, capsys):
        outside = [[[float(v), 0.0] for v in row]
                   for row in ([1, 0, 0.5], [0, 2, 0], [0.5, 0, 3])]
        for mode in ("mixed", "puk"):
            config = {"shape": {"blocks": [2, 1]}, "mode": mode, "a_generators": [outside]}
            path = write_json(tmp_path / f"{mode}.json", config)
            assert main(["spectrum", "--config", path]) == 2
            assert "outside the diagonal blocks" in capsys.readouterr().err

    def test_non_masa_exits_2(self, tmp_path, capsys):
        config = {
            "shape": {"blocks": [2]},
            "mode": "puk",
            "a_generators": [identity_config(2)],
        }
        path = write_json(tmp_path / "c.json", config)
        assert main(["spectrum", "--config", path]) == 2


class TestVerifyCommand:
    def test_glue_suite(self, capsys):
        assert main(["verify", "--suite", "glue"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "glue: 30 cases checked, 0 failures",
            "suite glue: PASS",
        ]

    def test_algebra_suite_reports_rank_margins(self, capsys):
        assert main(["verify", "--suite", "algebra"]) == 0
        lines = capsys.readouterr().out.splitlines()
        ranks = [ln for ln in lines if ln.startswith("commutant of left action")]
        assert len(ranks) == 3
        shapes = [TracedAlgebraShape.full_matrix(2), TracedAlgebraShape.full_matrix(3),
                  TracedAlgebraShape.from_blocks((2, 1))]
        for line, shape in zip(ranks, shapes):
            printed = float(line.rsplit("margin ", 1)[1])
            assert printed > 1.0
            # kept[-1] / cut alone is 1/SPAN_RTOL here: every kept value is √2
            assert printed == float(f"{joint_rank_margin(shape):.3g}")
        assert lines[-1] == "suite algebra: PASS"

    def test_algebra_suite_ignores_max_dim(self, capsys):
        # its sizes are fixed; --max-dim only picks the construction sweep
        assert main(["verify", "--suite", "algebra"]) == 0
        default = capsys.readouterr().out
        assert main(["verify", "--suite", "algebra", "--max-dim", "50"]) == 0
        assert capsys.readouterr().out == default

    def test_span_suite_reports_rank_margins(self, capsys):
        assert main(["verify", "--suite", "span", "--max-dim", "256"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("span n=")]
        assert len(lines) == 5
        for line in lines:
            assert ", Gershgorin margin " in line
            assert float(line.rsplit("margin ", 1)[1]) > 1.0

    def test_keyclaim_suite_small(self, capsys):
        assert main(["verify", "--suite", "keyclaim", "--max-dim", "256"]) == 0
        out = capsys.readouterr().out
        assert "keyclaim n=2 m=0" in out
        assert "suite keyclaim: PASS" in out
        # at m = 0 the θ symbol is exactly 1, so the Gram diag(|λ_t|⁴)/n is exactly δ/n
        depth_zero = [ln for ln in out.splitlines() if ln.startswith("keyclaim") and " m=0:" in ln]
        assert len(depth_zero) == 15
        assert all("max deviation 0.000e+00" in ln and ln.endswith("margin inf")
                   for ln in depth_zero)

    def test_span_suite_small(self, capsys):
        assert main(["verify", "--suite", "span", "--max-dim", "256"]) == 0
        assert "suite span: PASS" in capsys.readouterr().out

    def test_all_suites_at_default_cap(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        sweep = list(_construction_range(4096))
        expected = {
            "keyclaim": sweep,
            "span": [(n, m) for n, m in sweep if m >= 1],
            "intertwiner": sweep,
        }
        for suite, cases in expected.items():
            got = [ln.split(":")[0] for ln in lines if ln.startswith(f"{suite} n=")]
            assert got == [f"{suite} n={n} m={m}" for n, m in cases]
            assert all("margin" in ln for ln in lines if ln.startswith(f"{suite} n="))
        for suite in SUITES:
            assert f"suite {suite}: PASS" in lines

    @pytest.mark.parametrize("suite,cap", [("span", 15), ("keyclaim", 3), ("intertwiner", 3)])
    def test_empty_sweep_says_zero_cases(self, suite, cap, capsys):
        assert main(["verify", "--suite", suite, "--max-dim", str(cap)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"{suite}: 0 cases",
                                                        f"suite {suite}: PASS"]

    def test_only_the_empty_sweep_says_zero_cases(self, capsys):
        # at 15 the keyclaim and intertwiner sweeps hold n = 2, 3 at m = 0; span needs m >= 1
        assert main(["verify", "--suite", "all", "--max-dim", "15"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.endswith(": 0 cases")] == ["span: 0 cases"]
        assert lines[lines.index("span: 0 cases") + 1] == "suite span: PASS"


TOP_USAGE = "usage: puklab [-h] {spectrum,verify,puk-eval,plan,render} ...\n"
VERIFY_USAGE = ("usage: puklab verify [-h]\n"
                "                     [--suite {keyclaim,span,intertwiner,algebra,glue,all}]\n"
                "                     [--max-dim MAX_DIM]\n")
KEYCLAIM_TO_20 = (
    "keyclaim n=2 m=0: max deviation 0.000e+00, tolerance 5.000e-11, margin inf\n"
    "keyclaim n=2 m=1: max deviation 0.000e+00, tolerance 1.250e-11, margin inf\n"
    "keyclaim n=3 m=0: max deviation 0.000e+00, tolerance 3.333e-11, margin inf\n"
    "keyclaim n=4 m=0: max deviation 0.000e+00, tolerance 2.500e-11, margin inf\n"
    "suite keyclaim: PASS\n")
# argv -> (exit code, stdout, stderr), as argparse words them in an 80-column terminal
CLI_CONTRACT = {
    "no argv": ([], 2, "", TOP_USAGE
                + "puklab: error: the following arguments are required: command\n"),
    "-h": (["-h"], 0, TOP_USAGE + (
        "\n"
        "positional arguments:\n"
        "  {spectrum,verify,puk-eval,plan,render}\n"
        "    spectrum            multiplicity spectrum from a config file\n"
        "    verify              run the numerical identity suites\n"
        "    puk-eval            evaluate the invariant formula for a value spec\n"
        "    plan                choose pair values or a family plan for target sets\n"
        "    render              render a diagram or value spec to ascii or svg\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"), ""),
    "verify -h": (["verify", "-h"], 0, VERIFY_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --suite {keyclaim,span,intertwiner,algebra,glue,all}\n"
        "  --max-dim MAX_DIM     run the construction cases (n, m) with n^(2(m+1)) at\n"
        "                        most this (default 4096)\n"), ""),
    "unknown command": (["bogus"], 2, "", TOP_USAGE + (
        "puklab: error: argument command: invalid choice: 'bogus' "
        "(choose from 'spectrum', 'verify', 'puk-eval', 'plan', 'render')\n")),
    "unknown suite": (["verify", "--suite", "bogus"], 2, "", VERIFY_USAGE + (
        "puklab verify: error: argument --suite: invalid choice: 'bogus' "
        "(choose from 'keyclaim', 'span', 'intertwiner', 'algebra', 'glue', 'all')\n")),
    "max-dim not an int": (["verify", "--max-dim", "x"], 2, "", VERIFY_USAGE
                           + "puklab verify: error: argument --max-dim: invalid int value: 'x'\n"),
    "spectrum without --config": (["spectrum"], 2, "", (
        "usage: puklab spectrum [-h] --config CONFIG\n"
        "puklab spectrum: error: the following arguments are required: --config\n")),
    "a stray token": (["verify", "--suite", "keyclaim", "extra"], 2, "", TOP_USAGE
                      + "puklab: error: unrecognized arguments: extra\n"),
    "an abbreviated option": (["verify", "--suite", "keyclaim", "--max", "20"], 0,
                              KEYCLAIM_TO_20, ""),
    "an option with =": (["verify", "--suite", "keyclaim", "--max-dim=20"], 0,
                         KEYCLAIM_TO_20, ""),
}


@pytest.mark.parametrize("case", CLI_CONTRACT)
def test_cli_contract(case, capsys, monkeypatch):
    argv, code, out, err = CLI_CONTRACT[case]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse ends help and usage errors with an exit
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


def test_closed_pipe_exits_141_without_a_message():
    # about 10^4 lines, far more than a pipe holds: the writer meets the closed pipe mid-sweep
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "puklab", "verify", "--suite", "keyclaim", "--max-dim", "100000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert first.startswith(b"keyclaim n=2 m=0: max deviation 0.000e+00")
    assert stderr == b""


class TestRelativeTolerance:
    """Defects under 1e-10 that exceed SUITE_TOL times their expected size fail."""

    def test_keyclaim(self, monkeypatch, capsys):
        # within the tolerance 5e-11 of n=2, m=0; over the 1.25e-11 of n=2, m=1
        monkeypatch.setattr(constructions, "keyclaim_check", lambda n, m: 5e-11)
        assert main(["verify", "--suite", "keyclaim", "--max-dim", "16"]) == 1
        assert "suite keyclaim: FAIL" in capsys.readouterr().out

    def test_span(self, monkeypatch, capsys):
        def noisy(n, m):
            # the smallest Gram diagonal is n^{-2m}, 0.25 at n=2, m=1
            return replace(family_span_check(n, m), max_offdiag=5e-11)

        monkeypatch.setattr(constructions, "family_span_check", noisy)
        assert main(["verify", "--suite", "span", "--max-dim", "16"]) == 1
        assert "suite span: FAIL" in capsys.readouterr().out

    def test_span_rank_short_of_count(self, monkeypatch, capsys):
        def uncertified(n, m):
            # an off-diagonal inside the tolerance, but a row Gram that fails Gershgorin
            rep = family_span_check(n, m)
            return replace(rep, rank=rep.count - n**m, margin=0.5)

        monkeypatch.setattr(constructions, "family_span_check", uncertified)
        assert main(["verify", "--suite", "span", "--max-dim", "16"]) == 1
        out = capsys.readouterr().out
        assert "span n=2 m=1: 4 elements, rank 2," in out
        assert "suite span: FAIL" in out

    def test_intertwiner(self, monkeypatch, capsys):
        exact = constructions.intertwiner_check

        def noisy(n, m):
            return exact(n, m) + 5e-11

        monkeypatch.setattr(constructions, "intertwiner_check", noisy)
        assert main(["verify", "--suite", "intertwiner", "--max-dim", "16"]) == 1
        out = capsys.readouterr().out
        assert "intertwiner n=2 m=0: max defect 5.000e-11" in out
        assert "suite intertwiner: FAIL" in out


class TestPukEvalCommand:
    def test_intro(self, tmp_path, capsys):
        path = write_json(tmp_path / "intro.json", INTRO_CONFIG)
        assert main(["puk-eval", "--lambda", path, "--rmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "value: 2,3" in out
        assert "converged: true" in out

    def test_with_table_oracle(self, tmp_path, capsys):
        lam = write_json(tmp_path / "lam.json", {"default": 2})
        oracle = write_json(
            tmp_path / "oracle.json",
            {
                "level": 1,
                "entries": [
                    {"row": "0", "col": "0", "value": "1"},
                    {"row": "0", "col": "1", "value": "4"},
                    {"row": "1", "col": "0", "value": "4"},
                    {"row": "1", "col": "1", "value": "1"},
                ],
            },
        )
        assert main(["puk-eval", "--lambda", lam, "--oracle", oracle, "--rmax", "0"]) == 0
        assert "value: 8" in capsys.readouterr().out

    def test_oracle_gap_exits_2(self, tmp_path, capsys):
        lam = write_json(tmp_path / "lam.json", {"default": 2})
        oracle = write_json(
            tmp_path / "oracle.json",
            {
                "level": 1,
                "entries": [
                    {"row": r, "col": c, "value": "1"} for r in "01" for c in "01"
                ],
            },
        )
        assert main(["puk-eval", "--lambda", lam, "--oracle", oracle, "--rmax", "3"]) == 2

    def test_oracle_gap_message_is_not_quoted(self, tmp_path, capsys):
        lam = write_json(tmp_path / "lam.json", {"default": 2})
        oracle = write_json(tmp_path / "oracle.json", {"level": 1, "entries": LEVEL_ONE_ENTRIES})
        assert main(["puk-eval", "--lambda", lam, "--oracle", oracle, "--rmax", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: oracle level 1 does not cover the pairs at level 3\n")


def reading(kind, path, tmp_path) -> list[str]:
    """The command that reads ``path`` as its ``kind`` of config file."""
    if kind == "oracle":
        lam = write_json(tmp_path / "lam.json", {"default": 2})
        return ["puk-eval", "--lambda", lam, "--oracle", path, "--rmax", "0"]
    return {"lambda": ["puk-eval", "--lambda", path, "--rmax", "1"],
            "spectrum": ["spectrum", "--config", path],
            "render": ["render", "--input", path, "--out", str(tmp_path / "grid.txt")]}[kind]


# configs whose values have the wrong JSON type: the file each command reads
WRONG_JSON_TYPES = {
    "enumerate": ("lambda", {"enumerate": 3}),
    "quadrant value": ("lambda", {"quadrants": {"both_zero": 2, "both_one": "1", "mixed": "1"}}),
    "constant oracle": ("oracle", {"constant": 1}),
    "diagram cell": ("render", {"level": 0, "cells": [[1]]}),
    "render of a list": ("render", []),
    "puk-eval of a list": ("lambda", []),
    "oracle row a number": ("oracle", {"level": 1, "entries": [
        {"row": 5, "col": "0", "value": "1"}]}),
    "oracle row a list": ("oracle", {"level": 1, "entries": [
        {"row": ["0"], "col": "0", "value": "1"}]}),
    "oracle col null": ("oracle", {"level": 1, "entries": [
        {"row": "0", "col": None, "value": "1"}]}),
}
# the refusals that name the field they read, with the value it held
NAMED_REFUSALS = {
    "oracle row a number": "oracle entry row must be a bit string, got 5",
    "oracle row a list": "oracle entry row must be a bit string, got ['0']",
    "oracle col null": "oracle entry col must be a bit string, got None",
}


@pytest.mark.parametrize("case", WRONG_JSON_TYPES)
def test_config_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, case):
    kind, payload = WRONG_JSON_TYPES[case]
    path = write_json(tmp_path / "config.json", payload)
    assert main(reading(kind, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if case in NAMED_REFUSALS:
        assert err == f"error: {NAMED_REFUSALS[case]}\n"


# config arrays of the wrong shape: the kind of file and the file
WRONG_SHAPES = {
    "matrix entry of three numbers": ("spectrum", {
        "shape": {"blocks": [1]}, "a_generators": [[[[1.0, 0.0, 99.0]]]]}),
    "b generator entry of three numbers": ("spectrum", {
        "shape": {"blocks": [1]}, "a_generators": [[[[1.0, 0.0]]]],
        "b_generators": [[[[1.0, 0.0, 99.0]]]]}),
    # the trace weights d / Σd of ``from_blocks`` would divide by zero
    "a zero-sized block": ("spectrum", {
        "shape": {"blocks": [0]}, "a_generators": [[[[1.0, 0.0]]]]}),
    "blocks summing to zero": ("spectrum", {
        "shape": {"blocks": [-1, 1]}, "a_generators": [[[[1.0, 0.0]]]]}),
    "cells as strings": ("render", {"level": 1, "cells": ["12", "34"]}),
    "cells as an object": ("render", {"level": 0, "cells": {"1": 0}}),
    "one row a string": ("render", {"level": 1, "cells": [["1", "2"], "21"]}),
    "override indices as strings": ("lambda", {"default": 3, "overrides": [
        {"r": 0, "i": "0", "j": "1", "value": 2}]}),
    "overrides as an object": ("lambda", {"default": 3, "overrides": {"r": 0}}),
    # a misspelt key would read as absent: A against A, or the default value alone
    "misspelt b_generators": ("spectrum", {
        "shape": {"blocks": [2]}, "a_generators": [[[[1.0, 0.0], [0.0, 0.0]],
                                                    [[0.0, 0.0], [2.0, 0.0]]]],
        "b_generator": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}),
    "unknown shape key": ("spectrum", {
        "shape": {"blocks": [1], "weight": ["1"]}, "a_generators": [[[[1.0, 0.0]]]]}),
    "b generators under mode puk": ("spectrum", {
        "shape": {"blocks": [1]}, "mode": "puk", "a_generators": [[[[1.0, 0.0]]]],
        "b_generators": [[[[1.0, 0.0]]]]}),
    "misspelt enumerate": ("lambda", {"enumarate": "2,3"}),
    "unknown quadrant": ("lambda", {"quadrants": {
        "both_zero": "2", "both_one": "3", "mixed": "5", "cross": "7"}}),
    "unknown override key": ("lambda", {"default": 3, "overrides": [
        {"r": 0, "i": ["0"], "j": ["1"], "value": 2, "level": 1}]}),
    "misspelt diagram cells": ("render", {"level": 1, "cell": [["1", "2"], ["2", "1"]]}),
}

# matrix entries that are not finite JSON numbers, as the JSON text that holds them: a
# NaN must not reach the certificate, and 10^400 must not escape as an OverflowError
BAD_ENTRIES = {
    "NaN": "NaN", "Infinity": "Infinity", "-Infinity": "-Infinity", "1e999": "1e999",
    "an integer past float range": "1" + "0" * 400, "null": "null", "a string": '"1"',
    "a numeric string": '"1.5"',
}
for _label, _entry in BAD_ENTRIES.items():
    _bad = f"[[[[{_entry}, 0], [0, 0]], [[0, 0], [1, 0]]]]"
    _good = "[[[[1, 0], [0, 0]], [[0, 0], [2, 0]]]]"
    for _key, (_a, _b) in {"a_generators": (_bad, _good), "b_generators": (_good, _bad)}.items():
        WRONG_SHAPES[f"{_label} in {_key}"] = ("spectrum", (
            f'{{"shape": {{"blocks": [2]}}, "a_generators": {_a}, "b_generators": {_b}}}'))
WRONG_SHAPES["ragged a generators"] = ("spectrum", {
    "shape": {"blocks": [2]}, "a_generators": [[[[1, 0], [0, 0]], [[0, 0]]]]})
WRONG_SHAPES["a generator entry of one number"] = ("spectrum", {
    "shape": {"blocks": [2]}, "a_generators": [[[[1, 0], [0, 0]], [[0, 0], [1]]]]})


@pytest.mark.parametrize("case", WRONG_SHAPES)
def test_config_array_of_the_wrong_shape_exits_2(tmp_path, capsys, case):
    kind, payload = WRONG_SHAPES[case]
    path = write_json(tmp_path / "config.json", payload)
    assert main(reading(kind, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# config keys that no reader looks at, that a reader lacks, or that hold no list where a
# list is read: the kind of file, the file and the start of the error, which names the key
KEY_FAULTS = {
    "misspelt diagonal": ("render", {"level": 0, "diagnoal": True, "cells": [["1"]]},
                          "unknown diagram key 'diagnoal'"),
    "diagram without level": ("render", {"cells": [["1"]]}, "diagram lacks the key 'level'"),
    "constant oracle with a table": ("oracle", {"constant": "2", "level": 3, "entries": []},
                                     "unknown oracle key 'entries'"),
    "misspelt oracle level": ("oracle", {"levels": 0, "entries": []},
                              "unknown oracle key 'levels'"),
    "table oracle without entries": ("oracle", {"level": 0}, "oracle lacks the key 'entries'"),
    "oracle entry without value": ("oracle", {"level": 0, "entries": [{"row": "", "col": ""}]},
                                   "oracle entry lacks the key 'value'"),
    "misspelt oracle entry key": ("oracle", {"level": 0, "entries": [
        {"row": "", "column": "", "value": "1"}]}, "unknown oracle entry key 'column'"),
    # the later entry would win: a level-1 table of four 1s then ("0", "1") → 7 read as 14
    "duplicate oracle entry": ("oracle", {"level": 1, "entries": [
        *({"row": r, "col": c, "value": "1"} for r in "01" for c in "01"),
        {"row": "0", "col": "1", "value": "7"}]}, "oracle entry row '0', col '1' is given twice"),
    "spectrum without shape": ("spectrum", {"a_generators": [[[[1.0, 0.0]]]]},
                               "spectrum lacks the key 'shape'"),
    "spectrum without a_generators": ("spectrum", {"shape": {"blocks": [1]}},
                                      "spectrum lacks the key 'a_generators'"),
    "shape without blocks": ("spectrum", {"shape": {"weights": ["1"]},
                                          "a_generators": [[[[1.0, 0.0]]]]},
                             "shape lacks the key 'blocks'"),
    **{f"override without {key}": ("lambda", {"default": 3, "overrides": [
        {k: v for k, v in {"r": 0, "i": ["0"], "j": ["1"], "value": 2}.items() if k != key}]},
        f"override lacks the key '{key}'") for key in ("r", "i", "j", "value")},
    **{f"quadrants without {key}": ("lambda", {"quadrants": {
        k: "2" for k in ("both_zero", "both_one", "mixed") if k != key}},
        f"quadrants lacks the key '{key}'") for key in ("both_zero", "both_one", "mixed")},
    # a list read where a string or a number stands would be iterated or die in numpy
    "oracle entries as a number": ("oracle", {"level": 0, "entries": 5},
                                   "oracle entries must be a list"),
    "oracle entries as a string": ("oracle", {"level": 0, "entries": "ab"},
                                   "oracle entries must be a list"),
    "shape blocks as a number": ("spectrum", {"shape": {"blocks": 3},
                                              "a_generators": [[[[1.0, 0.0]]]]},
                                 "shape blocks must be a list"),
    "shape weights as a string": ("spectrum", {"shape": {"blocks": [1], "weights": "1/2"},
                                               "a_generators": [[[[1.0, 0.0]]]]},
                                  "shape weights must be a list"),
    # a plan is read for its value spec only when it holds one, under exactly its three keys
    "cor1 plan": ("lambda", {"kind": "cor1", "size": 2, "matrix": [[1, 4], [4, 1]],
                             "evaluation": "1,4"}, "a plan of kind 'cor1' holds no value spec"),
    "family plan": ("render", {"kind": "family", "size": 1, "gadgets": [], "table": [["1"]]},
                    "a plan of kind 'family' holds no value spec"),
    "plan with a note": ("lambda", {"kind": "E", "lambda": {"enumerate": "2"}, "evaluation": {},
                                    "note": ""}, "unknown plan key 'note'"),
    "plan without evaluation": ("render", {"kind": "EFG", "lambda": {"default": 2}},
                                "plan lacks the key 'evaluation'"),
}


@pytest.mark.parametrize("case", KEY_FAULTS)
def test_config_key_unread_missing_or_not_a_list_exits_2(tmp_path, capsys, case):
    kind, payload, message = KEY_FAULTS[case]
    assert main(reading(kind, write_json(tmp_path / "config.json", payload), tmp_path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


LEVEL_ONE_ENTRIES = [{"row": r, "col": c, "value": "1"} for r in "01" for c in "01"]
ONE_BY_ONE = [[[1.0, 0.0]]]

# each config field that takes a JSON integer (or, for "diagonal", a bool): the
# command that reads it and the file it reads, with the field set to ``bad``
TYPED_FIELDS = {
    "oracle level": ("oracle", lambda bad: {"level": bad, "entries": LEVEL_ONE_ENTRIES}),
    "override r": ("lambda", lambda bad: {"default": 3, "overrides": [
        {"r": bad, "i": ["00", "0"], "j": ["00", "1"], "value": 2}]}),
    "blocks": ("spectrum", lambda bad: {"shape": {"blocks": [bad]}, "a_generators": [ONE_BY_ONE]}),
    "seed": ("spectrum", lambda bad: {"shape": {"blocks": [1]}, "a_generators": [ONE_BY_ONE],
                                      "seed": bad}),
    "diagram level": ("render", lambda bad: {"level": bad, "diagonal": True,
                                             "cells": [["1", "2"], ["2", "1"]]}),
    "diagonal": ("render", lambda bad: {"level": 1, "diagonal": bad,
                                        "cells": [["1", "2"], ["2", "1"]]}),
}


@pytest.mark.parametrize("field, bad", [
    *((field, bad) for field in TYPED_FIELDS if field != "diagonal" for bad in (1.7, True, "2")),
    *(("diagonal", bad) for bad in (1.7, "2", "false")),
    ("oracle level", 40),  # rejected by its keys before a 2^40-wide grid is built
])
def test_out_of_domain_config_field_exits_2(tmp_path, capsys, field, bad):
    kind, payload = TYPED_FIELDS[field]
    path = write_json(tmp_path / "config.json", payload(bad))
    assert main(reading(kind, path, tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


class TestPlanCommand:
    def test_kind_e(self, capsys):
        assert main(["plan", "--target", "2,3", "--kind", "E"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluation"]["value"] == "2,3"
        assert payload["evaluation"]["converged"] is True

    def test_kind_efg(self, capsys):
        assert main(["plan", "--target", "2;5,inf;7", "--kind", "EFG"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluation"]["both_zero"] == "2"
        assert payload["evaluation"]["both_one"] == "5,inf"
        assert payload["evaluation"]["mixed"] == "7"
        assert payload["evaluation"]["union"] == "2,5,7,inf"

    @pytest.mark.parametrize("size", [*range(1, 16), 17, 18, 118, 119, 237, 238, 300])
    def test_e_and_efg_plans_reproduce_their_targets_and_converge(self, size, capsys):
        # disjoint sets, so each must be complete on its own; perfbench's check_plan
        # expects the same evaluations
        e, f, g = (NSet(range(start, start + size)) for start in (1, 1001, 2001))
        assert main(["plan", "--target", str(e), "--kind", "E"]) == 0
        assert json.loads(capsys.readouterr().out)["evaluation"] == {
            "value": str(e), "converged": True}
        assert main(["plan", "--target", f"{e};{f};{g}", "--kind", "EFG"]) == 0
        assert json.loads(capsys.readouterr().out)["evaluation"] == {
            "both_zero": str(e), "both_one": str(f), "mixed": str(g),
            "union": str(e | f | g), "converged": True}

    @pytest.mark.parametrize("rmax", ["3", "10"])
    @pytest.mark.parametrize("kind, target, key", [("E", "2,3", "value"),
                                                   ("EFG", "2;5,inf;7", "union")])
    def test_plan_output_feeds_puk_eval_and_render(self, kind, target, key, rmax, tmp_path,
                                                   capsys):
        assert main(["plan", "--target", target, "--kind", kind]) == 0
        plan = json.loads(capsys.readouterr().out)
        files = [write_json(tmp_path / "plan.json", plan),
                 write_json(tmp_path / "spec.json", plan["lambda"])]
        assert main(["puk-eval", "--lambda", files[0], "--rmax", rmax]) == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0] == f"value: {plan['evaluation'][key]}"
        assert main(["puk-eval", "--lambda", files[1], "--rmax", rmax]) == 0
        assert capsys.readouterr().out == printed
        grids = []
        for path in files:
            out = tmp_path / "grid.txt"
            assert main(["render", "--input", path, "--out", str(out), "--rmax", "2"]) == 0
            grids.append(out.read_text(encoding="utf-8"))
        assert grids[0] == grids[1]

    @pytest.mark.parametrize("kind", ["cor1", "family", "X", None])
    def test_only_e_and_efg_plans_hold_a_value_spec(self, kind):
        with pytest.raises(InvalidInputError, match=f"a plan of kind {kind!r}"):
            cfg.lambda_from_input({"kind": kind, "lambda": {}, "evaluation": {}})

    def test_kind_cor1(self, capsys):
        assert main(["plan", "--target", "1,4", "--kind", "cor1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == 2
        assert payload["evaluation"] == "1,4"

    def test_kind_family(self, capsys):
        assert main(["plan", "--target", "1,3,1,1;3,1,1,1;1,1,1,3;1,1,3,1",
                     "--kind", "family"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == 4
        assert payload["table"][0] == ["1", "3", "1", "1"]
        # a gadget's roles follow from its pair, so it prints the pair and n alone
        assert payload["gadgets"] == [{"pair": [0, 1], "n": 3}, {"pair": [2, 3], "n": 3}]

    def test_family_tokens_may_be_spaced(self, capsys):
        # NSet.parse strips its tokens; a family row reads them the same way
        payloads = []
        for target in ("1,inf;inf,1", "1, inf; inf, 1"):
            assert main(["plan", "--target", target, "--kind", "family"]) == 0
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1]
        assert json.loads(payloads[0])["table"] == [["1", "inf"], ["inf", "1"]]

    def test_cor1_without_one_exits_2(self, capsys):
        assert main(["plan", "--target", "2,3", "--kind", "cor1"]) == 2

    def test_efg_needs_three_sets(self, capsys):
        assert main(["plan", "--target", "2;3", "--kind", "EFG"]) == 2

    def test_main_runs_the_current_module_attribute(self, monkeypatch):
        # the parser is built once; a replaced cmd_plan must still be the one run
        seen = []
        monkeypatch.setattr(cli, "cmd_plan", lambda args: seen.append(args.target) or 7)
        assert main(["plan", "--target", "2,3"]) == 7
        assert seen == ["2,3"]


class TestRenderCommand:
    def test_render_diagram_file(self, tmp_path, capsys):
        data = {"level": 1, "diagonal": True, "cells": [["1", "2"], ["2", "1"]]}
        src = write_json(tmp_path / "d.json", data)
        out = tmp_path / "grid.txt"
        assert main(["render", "--input", src, "--format", "ascii", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "\\ 1" in text and "2" in text

    def test_render_lambda_file(self, tmp_path):
        src = write_json(tmp_path / "intro.json", INTRO_CONFIG)
        out = tmp_path / "grid.svg"
        assert main(["render", "--input", src, "--format", "svg", "--out", str(out),
                     "--rmax", "1"]) == 0
        assert out.read_text(encoding="utf-8").startswith("<svg")

    def test_deterministic_bytes(self, tmp_path):
        data = {"level": 1, "diagonal": False, "cells": [["1", "2,3"], ["2,3", "inf"]]}
        src = write_json(tmp_path / "d.json", data)
        out_a, out_b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", "--input", src, "--format", "svg", "--out", str(out_a)])
        main(["render", "--input", src, "--format", "svg", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_quadrant_spec_renders_at_rmax_four_and_is_guarded_at_ten(self, tmp_path, capsys):
        spec = {"quadrants": {"both_zero": "2", "both_one": "5,inf", "mixed": "7"}}
        src = write_json(tmp_path / "q.json", spec)
        out = tmp_path / "grid.txt"
        assert main(["render", "--input", src, "--format", "ascii", "--out", str(out),
                     "--rmax", "4"]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2 + 2 * 32
        # the 4^11 cells of a level-10 grid are refused before any level is walked
        start = time.perf_counter()
        assert main(["render", "--input", src, "--format", "ascii", "--out", str(out),
                     "--rmax", "10"]) == 2
        assert time.perf_counter() - start < 0.5
        assert "cap" in capsys.readouterr().err
