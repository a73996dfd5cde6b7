"""Every entry point the benchmark tracer wraps still exists in puklab.

The tracer in ``perfbench/pbench/trace.py`` patches the ``(module, path)``
pairs of its ``TARGETS`` only when a run asks for traces, so a renamed or
deleted entry point would otherwise go unnoticed until then.  The table is
read from the source with ``ast``: nothing under ``perfbench/`` is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "pbench" / "trace.py"


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
