import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from puklab import cli, constructions
from puklab import config as cfg
from puklab.algebra import SPAN_RTOL, commutant, generate_algebra
from puklab.cli import SUITES, _construction_range, main
from puklab.constructions import family_span_check
from puklab.core import GnsSpace, TracedAlgebraShape
from puklab.indices import LambdaSpec, Override, QuadrantRules, level_zero
from puklab.invariant import CutdownOracle
from puklab.nsets import INF, NSet


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def identity_config(n):
    return [[[1.0 if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]


def diag_unit_config(n, k):
    return [[[1.0 if i == j == k else 0.0, 0.0] for j in range(n)] for i in range(n)]


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
        again = cfg.matrix_from_config(cfg.matrix_to_config(m))
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
        again = cfg.oracle_from_config(cfg.oracle_to_config(oracle))
        assert again.level == 1 and again.grids == oracle.grids
        constant = CutdownOracle.simple()
        assert cfg.oracle_from_config(cfg.oracle_to_config(constant)).constant_value == NSet.of(1)

    def test_oracle_table_config_is_row_major(self):
        labels = ("00", "01", "10", "11")
        entries = {(labels[x], labels[y]): NSet.of(1 + 4 * x + y) for x in range(4) for y in range(4)}
        entries[("11", "10")] = NSet.parse("3,inf")
        # keys given last to first: the written order comes from the grid, not the dict
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
        assert json.dumps(cfg.oracle_to_config(oracle)) == json.dumps(expected)

    def test_diagram_identity(self):
        data = {
            "level": 1,
            "diagonal": True,
            "cells": [["1", "2"], ["2", "1"]],
        }
        assert cfg.diagram_to_config(cfg.diagram_from_config(data)) == data

    def test_shape(self):
        shape = cfg.shape_from_config({"blocks": [2, 1], "weights": ["2/3", "1/3"]})
        assert shape.total_dim == 3
        assert cfg.shape_from_config(cfg.shape_to_config(shape)) == shape


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
            "a_generators": [cfg.matrix_to_config(labels)],
            "b_generators": [cfg.matrix_to_config(u @ labels @ u.conj().T)],
        }
        path = write_json(tmp_path / "c.json", config)
        assert main(["spectrum", "--config", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["blocks: 4096", "multiplicities: " + ",".join(["1"] * 4096), "set: 1"]

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
    argv = {
        "oracle": ["puk-eval", "--lambda", write_json(tmp_path / "lam.json", {"default": 2}),
                   "--oracle", path, "--rmax", "0"],
        "lambda": ["puk-eval", "--lambda", path, "--rmax", "1"],
        "spectrum": ["spectrum", "--config", path],
        "render": ["render", "--input", path, "--format", "ascii",
                   "--out", str(tmp_path / "grid.txt")],
    }[kind]
    assert main(argv) == 2
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
        assert {"pair": [0, 1], "n": 3, "roles": ["A", "B", "C", "C"]} in payload["gadgets"]

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
