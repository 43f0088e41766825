"""The benchmark tracer's wrapped names must exist where it wraps them.

perfbench/tracejob.py times each layer by replacing a function at the name a
module imports it under. If a refactor drops or renames such a name, or
stops calling it through that name, the layer silently vanishes from the
per-layer metrics. The tracer is read with ``ast``, never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACEJOB = Path(__file__).resolve().parents[1] / "perfbench" / "tracejob.py"


def wrapped_names() -> dict:
    tree = ast.parse(TRACEJOB.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACEJOB}")


def called_names(module) -> set:
    tree = ast.parse(inspect.getsource(module))
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


WRAPPED = wrapped_names()


def test_table_is_not_empty():
    assert len(WRAPPED) >= 10


@pytest.mark.parametrize("module_name, attr", sorted(WRAPPED))
def test_wrapped_name_resolves_and_is_called_there(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
    assert attr in called_names(module), f"{module_name} no longer calls {attr} by that name"
