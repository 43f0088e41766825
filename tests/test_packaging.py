"""The `test` extra of pyproject.toml installs every optional test dependency.

numpy is the only runtime dependency. A test that needs a package beyond it,
SciPy included, imports it with ``pytest.importorskip``, so a plain install
skips it instead of failing. An install of ``.[test]`` must then run it:
each name passed to importorskip under ``tests/`` is listed in the extra,
and none is a runtime dependency.
"""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def requirement_names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def importorskip_names(source: str) -> set[str]:
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "importorskip" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        and isinstance(node.args[0], ast.Constant)
    }


PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
SKIPPED = set().union(*(importorskip_names(p.read_text(encoding="utf-8")) for p in (ROOT / "tests").glob("*.py")))


def test_every_importorskip_name_is_in_the_test_extra():
    missing = SKIPPED - requirement_names(PROJECT["optional-dependencies"]["test"])
    assert not missing, f"tests import {sorted(missing)} with importorskip, but the test extra lacks them"


def test_no_importorskip_name_is_a_runtime_dependency():
    assert not SKIPPED & requirement_names(PROJECT["dependencies"])


def test_the_scan_sees_both_call_forms():
    source = 'import pytest\nnx = pytest.importorskip("networkx")\nfrom pytest import importorskip\nimportorskip("x")\n'
    assert importorskip_names(source) == {"networkx", "x"}
    assert {"hypothesis", "jsonschema", "networkx", "scipy"} <= SKIPPED


def test_numpy_is_the_only_runtime_dependency():
    assert requirement_names(PROJECT["dependencies"]) == {"numpy"}
