"""The package's imports run one way: numerical modules may import symbolic ones, never back.

``core`` binds numpy lazily and ``algebra`` and ``constructions`` take it from
there, so numpy runs only when the first array is built.  The symbolic
modules, ``gadgets`` among them, import neither the numerical ones nor numpy
when they run, so ``plan``, ``puk-eval``, ``render`` and the exact ``verify``
suites, which run ``gadgets`` alone, work in a process where numpy cannot be
imported at all.

``import puklab`` runs no layer: it binds every one but ``core`` and ``cli``
lazily and resolves the public names on first access, and ``cli`` and
``config`` call the layers through module bindings.  So each command runs only
the layers it calls, which a fresh process checks after every command: a
lazily bound module that has run is a plain ``types.ModuleType`` again.
"""

import ast
import json
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import puklab
from puklab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "puklab"

SYMBOLIC = ("errors", "nsets", "indices", "invariant", "diagrams", "config", "gadgets",
            "__init__")
NUMERIC = {"puklab.core", "puklab.algebra", "puklab.constructions"}

PUBLIC = (
    "AlgebraBasis", "CutdownOracle", "EvalResult", "FamilyPlan", "FamilySpanReport",
    "GadgetAssignment", "GlueReport", "GnsSpace", "INF", "LambdaSpec",
    "MultiIndex", "MultiplicityDiagram", "NSet", "Override", "QuadrantRules", "ROOT",
    "ShiftGadget", "SpectrumReport", "TracedAlgebraShape", "TruncatedAutomorphism", "adjoint",
    "algebra", "build_gadget", "choose_lambda_for_e", "choose_lambda_for_efg", "commutant",
    "constructions", "cor_plan_1_in_puk", "core", "countable_family_plan", "cutdown_spectrum",
    "diagram_from_construction", "diagram_from_numeric", "diagrams", "direct_sum_puk", "errors",
    "eval_construction", "family_span_check", "fiber", "finite_puk_spectrum",
    "generate_algebra", "glue_check", "index_count", "indices", "intertwiner_check",
    "intertwiner_grams", "invariant", "iter_indices", "iter_sibling_pairs", "keyclaim_check",
    "minimal_projections", "mixed_spectrum", "normalized_trace", "nset_product", "nsets",
    "orthonormalize_span", "pipe", "render", "restrict", "sibling_pair_count", "tensor",
    "tensor_mixed", "tensor_mixed_infinite", "truncated_masa_pair",
)


def import_time_modules(tree: ast.Module):
    """Modules a source file imports when it runs: none inside functions or ``TYPE_CHECKING``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.ImportFrom):
            # inside the package, ``from .x import y`` and ``from . import x``
            yield from ([f"puklab.{node.module}"] if node.module
                        else [f"puklab.{alias.name}" for alias in node.names])
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_the_finder_sees_every_kind_of_import():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.fft import fft\n"
        "from .core import tensor\n"
        "from . import algebra\n"
        "if TYPE_CHECKING:\n    from .constructions import ShiftGadget\n"
        "try:\n    import numpy.linalg\nexcept ImportError:\n    pass\n"
        "class A:\n    from .nsets import NSet\n    def f(self):\n        import numpy\n"
    )
    assert sorted(import_time_modules(tree)) == [
        "numpy", "numpy.fft", "numpy.linalg", "puklab.algebra", "puklab.core", "puklab.nsets",
    ]


@pytest.mark.parametrize("name", SYMBOLIC)
def test_symbolic_module_imports_nothing_numeric(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    numeric = [m for m in import_time_modules(tree)
               if m.split(".")[0] == "numpy" or m in NUMERIC]
    assert numeric == []


@pytest.mark.parametrize("name", sorted(NUMERIC))
def test_numeric_module_imports_no_numpy(name):
    tree = ast.parse((PACKAGE / f"{name.removeprefix('puklab.')}.py").read_text(encoding="utf-8"))
    assert [m for m in import_time_modules(tree) if m.split(".")[0] == "numpy"] == []


def test_symbolic_imports_form_no_cycle():
    graph = {}
    for name in SYMBOLIC:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        graph[f"puklab.{name}"] = {m for m in import_time_modules(tree) if m.startswith("puklab.")}
    # raises CycleError naming the modules of any cycle
    order = list(TopologicalSorter(graph).static_order())
    assert order.index("puklab.diagrams") < order.index("puklab.invariant")


# ---------------------------------------------------------------------------
# the symbolic commands in a process where numpy cannot be imported

RUNNER = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from puklab.cli import main
runs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
print(json.dumps(runs))
"""


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def symbolic_commands(tmp_path) -> list[list[str]]:
    spec = write_json(tmp_path / "spec.json",
                      {"quadrants": {"both_zero": "2", "both_one": "5,inf", "mixed": "7"}})
    enum = write_json(tmp_path / "enum.json", {"enumerate": "2,3,5,7,11"})
    oracle = write_json(tmp_path / "oracle.json", {"constant": "1,2"})
    table = write_json(tmp_path / "table.json", {"level": 2, "entries": [
        {"row": row, "col": col, "value": "1" if row == col else "3"}
        for row in ("00", "01", "10", "11") for col in ("00", "01", "10", "11")
    ]})
    grid = write_json(tmp_path / "grid.json",
                      {"level": 1, "diagonal": True, "cells": [["1", "2,3"], ["2,3", "inf"]]})
    commands = [
        ["plan", "--target", "2,3", "--kind", "E"],
        ["plan", "--target", "2;5,inf;7", "--kind", "EFG"],
        ["plan", "--target", "1,2,3,inf", "--kind", "cor1"],
        ["plan", "--target", "1,3,inf;3,1,1;inf,1,1", "--kind", "family"],
        ["puk-eval", "--lambda", enum, "--oracle", oracle, "--rmax", "3"],
        ["puk-eval", "--lambda", spec, "--oracle", table, "--rmax", "1"],
    ]
    for source in (spec, grid):
        for fmt in ("ascii", "svg"):
            out = str(tmp_path / f"{Path(source).stem}.{fmt}")
            commands.append(["render", "--input", source, "--format", fmt, "--out", out])
    return commands


def rendered(argv) -> str | None:
    if "--out" not in argv:
        return None
    return Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")


def runs_without_numpy(commands) -> list[list]:
    """The exit code and stdout of each of ``commands``, run in one fresh process with numpy
    blocked."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(commands), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_symbolic_commands_run_without_numpy(tmp_path, capsys):
    commands = symbolic_commands(tmp_path)
    runs = runs_without_numpy(commands)
    files = [rendered(argv) for argv in commands]
    for argv, (code, stdout), text in zip(commands, runs, files):
        # the same exit code, stdout and file as a run in this process, with numpy loaded
        assert code == 0, argv
        assert main(argv) == 0
        assert capsys.readouterr().out == stdout, argv
        assert rendered(argv) == text, argv


# ---------------------------------------------------------------------------
# each command runs only the layers it calls, and numpy only on its first array

FRESH_RUNNER = """
import contextlib, io, json, sys, types
from puklab.cli import main
runs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    # a lazily bound module that has run is a plain module again
    ran = sorted(k.removeprefix("puklab.") for k, m in sys.modules.items()
                 if k.split(".")[0] == "puklab" and type(m) is types.ModuleType)
    numpy = sorted(m for m in sys.modules if m.startswith("numpy."))
    runs.append([code, out.getvalue(), ran, numpy])
print(json.dumps(runs))
"""


def fresh_runs(commands, capsys) -> list[tuple[list[str], list[str]]]:
    """Run ``commands`` in one fresh process: the layers that have run and the
    ``numpy.`` modules loaded after each, whose exit code and stdout match a run here."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", FRESH_RUNNER], input=json.dumps(commands),
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for argv, (code, stdout, _, _) in zip(commands, runs):
        # the same exit code and stdout as a run in this process, with every layer loaded
        assert code == 0, argv
        assert main(argv) == 0
        assert capsys.readouterr().out == stdout, argv
    return [(ran, numpy) for _, _, ran, numpy in runs]


def masa_config(tmp_path) -> str:
    """The masa config of the README."""
    return write_json(tmp_path / "masa.json", {
        "shape": {"blocks": [2]}, "mode": "mixed",
        "a_generators": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                         [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]],
    })


EXACT_SUITES = [["verify", "--suite", suite, *cap] for cap in ([], ["--max-dim", "100000000"])
                for suite in ("keyclaim", "span", "intertwiner")]


def test_exact_suites_run_without_numpy(capsys):
    for argv, (code, stdout) in zip(EXACT_SUITES, runs_without_numpy(EXACT_SUITES)):
        # the same exit code and stdout as a run in this process, with numpy loaded
        assert code == 0, argv
        assert main(argv) == 0
        assert capsys.readouterr().out == stdout, argv


def test_exact_suites_run_without_loading_numpy(tmp_path, capsys):
    commands = [*EXACT_SUITES, ["spectrum", "--config", masa_config(tmp_path)]]
    runs = fresh_runs(commands, capsys)
    for argv, (_, numpy_modules) in zip(commands[:-1], runs):
        assert numpy_modules == [], argv
    # the spectrum's first array ran numpy
    assert runs[-1][1] != []


# the commands of one fresh process, and the package modules run after each of them
LAYERS_RUN = {
    "exact suites": (lambda tmp_path: EXACT_SUITES, {"puklab", "cli", "errors", "gadgets"}),
    "glue": (lambda tmp_path: [["verify", "--suite", "glue"]],
             {"puklab", "cli", "errors", "indices", "nsets"}),
    "spectrum": (lambda tmp_path: [["spectrum", "--config", masa_config(tmp_path)]],
                 {"puklab", "cli", "errors", "config", "core", "algebra", "nsets"}),
    "symbolic": (symbolic_commands,
                 {"puklab", "cli", "errors", "config", "diagrams", "indices", "invariant",
                  "nsets"}),
}


@pytest.mark.parametrize("group", LAYERS_RUN)
def test_each_command_runs_only_the_layers_it_calls(tmp_path, capsys, group):
    commands, layers = LAYERS_RUN[group]
    commands = commands(tmp_path)
    for argv, (ran, _) in zip(commands, fresh_runs(commands, capsys)):
        assert set(ran) == layers, argv


BLOCKED_IMPORT = """
import sys
sys.modules["numpy"] = None
try:
    import puklab.core
except ModuleNotFoundError as exc:
    print(exc.name)
"""


def test_core_fails_at_import_when_numpy_is_blocked():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", BLOCKED_IMPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "numpy\n"), proc.stderr


def test_lazy_binding_fails_at_once_for_a_missing_module():
    from puklab import core

    assert core._lazy_module("numpy") is sys.modules["numpy"]
    with pytest.raises(ModuleNotFoundError, match="puklab_no_such_module"):
        core._lazy_module("puklab_no_such_module")
    assert "puklab_no_such_module" not in sys.modules


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert name in puklab.__all__
        assert getattr(puklab, name) is not None
    namespace = {}
    exec("from puklab import *", namespace)
    assert set(PUBLIC) <= namespace.keys()


def test_unknown_names_still_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        puklab.no_such_name
    assert not hasattr(puklab, "no_such_name")


# public names whose callers outside the tests are still to come
AWAITING_CALLERS = {"direct_sum_puk", "diagram_from_numeric"}


def referenced_names(path: Path) -> set[str]:
    """Names a source file reads, imports or spells in a dotted string, as ``"core.tensor"``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            names.update(parts if all(part.isidentifier() for part in parts) else ())
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name only the tests call belongs in the tests, as a helper over the public objects
    root = SRC.parent
    files = [*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
             *(root / "demos").glob("*.py"), *(root / "perfbench").rglob("*.py")]
    used = set().union(*map(referenced_names, files))
    public = {name for names in puklab._PUBLIC.values() for name in names}
    assert sorted(public - used - AWAITING_CALLERS) == []
