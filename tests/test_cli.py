import json
from dataclasses import replace

from puklab import cli
from puklab import config as cfg
from puklab.cli import SUITES, _construction_range, main
from puklab.constructions import family_span_check, intertwiner_blocks
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


INTRO_CONFIG = {
    "default": 3,
    "overrides": [{"r": 0, "i": ["0"], "j": ["1"], "value": 2}],
}


class TestConfigRoundTrips:
    def test_matrix(self):
        import numpy as np

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
        assert again.level == 1 and again.table == oracle.table
        constant = CutdownOracle.simple()
        assert cfg.oracle_from_config(cfg.oracle_to_config(constant)).constant_value == NSet.of(1)

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
        assert "suite glue: PASS" in capsys.readouterr().out

    def test_keyclaim_suite_small(self, capsys):
        assert main(["verify", "--suite", "keyclaim", "--max-dim", "256"]) == 0
        out = capsys.readouterr().out
        assert "keyclaim n=2 m=0" in out
        assert "suite keyclaim: PASS" in out

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


class TestRelativeTolerance:
    """Defects under 1e-10 that exceed SUITE_TOL times their expected size fail."""

    def test_keyclaim(self, monkeypatch, capsys):
        # within the tolerance 5e-11 of n=2, m=0; over the 1.25e-11 of n=2, m=1
        monkeypatch.setattr(cli, "keyclaim_check", lambda n, m, cap: 5e-11)
        assert main(["verify", "--suite", "keyclaim", "--max-dim", "16"]) == 1
        assert "suite keyclaim: FAIL" in capsys.readouterr().out

    def test_span(self, monkeypatch, capsys):
        def noisy(n, m, cap):
            # the smallest Gram diagonal is n^{-2m}, 0.25 at n=2, m=1
            return replace(family_span_check(n, m, cap), max_offdiag=5e-11)

        monkeypatch.setattr(cli, "family_span_check", noisy)
        assert main(["verify", "--suite", "span", "--max-dim", "16"]) == 1
        assert "suite span: FAIL" in capsys.readouterr().out

    def test_intertwiner(self, monkeypatch, capsys):
        def noisy(n, m, cap):
            blocks = intertwiner_blocks(n, m, cap).copy()
            blocks[0] += 5e-11
            return blocks

        monkeypatch.setattr(cli, "intertwiner_blocks", noisy)
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

    def test_cor1_without_one_exits_2(self, capsys):
        assert main(["plan", "--target", "2,3", "--kind", "cor1"]) == 2

    def test_efg_needs_three_sets(self, capsys):
        assert main(["plan", "--target", "2;3", "--kind", "EFG"]) == 2


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

    def test_quadrant_spec_renders_at_rmax_four_and_is_guarded_at_five(self, tmp_path, capsys):
        spec = {"quadrants": {"both_zero": "2", "both_one": "5,inf", "mixed": "7"}}
        src = write_json(tmp_path / "q.json", spec)
        out = tmp_path / "grid.txt"
        assert main(["render", "--input", src, "--format", "ascii", "--out", str(out),
                     "--rmax", "4"]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2 + 2 * 32
        assert main(["render", "--input", src, "--format", "ascii", "--out", str(out),
                     "--rmax", "5"]) == 2
        assert "cap" in capsys.readouterr().err
