"""Every entry point the benchmark tracer wraps still exists in puklab.

The tracer in ``perfbench/pbench/trace.py`` patches the ``(module, path)``
pairs of its ``TARGETS`` only when a run asks for traces, so a renamed or
deleted entry point would otherwise go unnoticed until then.  The table is
read from the source with ``ast``: nothing under ``perfbench/`` is imported.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACE = ROOT / "perfbench" / "pbench" / "trace.py"


def traced_targets() -> tuple:
    for node in ast.parse(TRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACE}")


TARGETS = traced_targets()


def test_targets_found():
    assert len(TARGETS) > 30


@pytest.mark.parametrize("module_name,path", TARGETS, ids=lambda x: x)
def test_target_resolves(module_name, path):
    home = importlib.import_module(f"puklab.{module_name}")
    if "." in path:
        # methods are patched in the class dict, so they must be defined there
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, path))


# the tracer reads each layer from ``sys.modules`` in a process that has only imported
# the command line: every layer but ``core`` must be there, and none but ``cli`` has run
FRESH_IMPORT = """
import json, sys, types
import puklab.cli
targets = json.load(sys.stdin)
state = {}
for module_name, _ in targets:
    module = sys.modules.get(f"puklab.{module_name}")
    state[module_name] = ("absent" if module is None
                          else "ran" if type(module) is types.ModuleType else "bound")
import puklab.core
resolved = []
for module_name, path in targets:
    target = sys.modules[f"puklab.{module_name}"]
    for part in path.split("."):
        target = getattr(target, part)
    resolved.append(callable(target))
print(json.dumps([state, resolved]))
"""


def test_every_layer_is_bound_once_the_command_line_is_imported():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT], input=json.dumps(TARGETS),
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    state, resolved = json.loads(proc.stdout)
    expected = {name: "bound" for name, _ in TARGETS}
    expected.update(cli="ran", core="absent")
    assert state == expected
    assert all(resolved)
