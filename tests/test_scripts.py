"""The comparison scripts under scripts/ take tens of seconds each, so the
suite does not run them. It checks here the two ways they can break
unnoticed: a package name they use is gone, or they no longer start.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import vecpart as vp

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def vp_chains(tree: ast.AST) -> set:
    """Every dotted name rooted at ``vp`` in a script, such as ``vp.vp.tolerances``."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "vp":
            chains.add(".".join(reversed(parts)))
    return chains


def imported_names(tree: ast.AST) -> set:
    """(module, name) for each ``from vecpart... import name`` and
    ``from helpers import name`` in a script."""
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] in ("vecpart", "helpers")
        for alias in node.names
    }


def test_there_are_scripts():
    assert len(SCRIPTS) >= 2


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_every_package_name_a_script_uses_resolves(script):
    tree = ast.parse(script.read_text(encoding="utf-8"))
    chains = vp_chains(tree)
    assert chains, f"{script.name} uses no vp.<name>"
    for chain in sorted(chains):
        obj = vp
        for attr in chain.split("."):
            assert hasattr(obj, attr), f"{script.name} uses vp.{chain}, which does not resolve"
            obj = getattr(obj, attr)
    for module, name in sorted(imported_names(tree)):
        assert hasattr(importlib.import_module(module), name), f"{script.name} imports {name} from {module}"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_help_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
