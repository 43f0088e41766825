"""SciPy stays out of a job that cannot take the truncated eigensolver path.

Only ARPACK, the sparse adjacency and the matrix-exponential oracle need
SciPy, and each imports it where it runs. A full-dimension job decomposes
with numpy alone, or optimises the graph's own quality matrix, so its
process never loads SciPy; a job given ``--dim`` loads ARPACK before it
reads its graph.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vecpart as vp
from helpers import random_connected_graph

PACKAGE = Path(vp.__file__).resolve().parent

# Runs the CLI in a fresh interpreter and prints the SciPy modules it loaded.
PROBE = """
import sys
from vecpart.cli import main
code = main(sys.argv[1:])
print(sorted(name for name in sys.modules if name.startswith("scipy")))
sys.exit(code)
"""


def module_level_scipy_imports(path: Path) -> list[str]:
    """Imports of SciPy that run when the module is imported: everywhere but
    inside a function body."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        found.extend(f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return found


def test_no_module_imports_scipy_at_the_top_level():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in module_level_scipy_imports(path)] == []


def test_the_check_sees_a_module_level_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import numpy\n"
        "from scipy import sparse\n"
        "if True:\n    import scipy.linalg as la\n"
        "class A:\n    from scipy.sparse import linalg\n"
        "def f():\n    import scipy\n"
    )
    assert module_level_scipy_imports(path) == [
        "sample.py:2 scipy",
        "sample.py:4 scipy.linalg",
        "sample.py:6 scipy.sparse",
    ]


def scipy_linalg_importers(path: Path) -> list[str]:
    """The functions of a module that import ``scipy.linalg``."""
    found = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module or ""]
            else:
                names = []
            if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
                found.append(f"{path.name} {func.name}")
    return found


def test_only_the_matrix_exponential_oracle_imports_scipy_linalg():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in scipy_linalg_importers(path)]
    assert hits == ["objective.py autocovariance_direct"]


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    path.write_text(random_connected_graph(3, n=40, p=0.15).to_edge_list_text())
    return str(path)


def scipy_modules(args: list[str]) -> list[str]:
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "args",
    [
        ["partition", "{graph}", "--mode", "linearised", "--time", "1.5"],
        ["partition", "{graph}", "--mode", "modularity"],
        ["scan", "{graph}", "--mode", "linearised", "--tmin", "0.5", "--tmax", "2", "--npoints", "3"],
        ["partition", "{graph}", "--mode", "exponential"],
        ["scan", "{graph}", "--tmin", "0.5", "--tmax", "2", "--npoints", "3"],
        ["decompose", "{graph}", "--source", "transition"],
        ["decompose", "{graph}", "--source", "modularity"],
    ],
    ids=[
        "partition-linearised",
        "partition-modularity",
        "scan-linearised",
        "partition-exponential",
        "scan-exponential",
        "decompose-transition",
        "decompose-modularity",
    ],
)
def test_a_full_dimension_job_loads_no_scipy(graph_file, tmp_path, args):
    argv = [a.format(graph=graph_file) for a in args]
    if argv[0] != "decompose":
        argv += ["--output", str(tmp_path / "report.json")]
    assert scipy_modules(argv) == []


@pytest.mark.parametrize(
    "args",
    [
        ["partition", "{graph}", "--mode", "modularity", "--dim", "5"],
        ["partition", "{graph}", "--mode", "exponential", "--dim", "5"],
        ["scan", "{graph}", "--tmin", "0.5", "--tmax", "2", "--npoints", "3", "--dim", "5"],
    ],
    ids=["partition-modularity-dim", "partition-exponential-dim", "scan-exponential-dim"],
)
def test_a_job_given_a_dim_loads_the_truncated_solver(graph_file, tmp_path, args):
    argv = [a.format(graph=graph_file) for a in args] + ["--output", str(tmp_path / "report.json")]
    assert "scipy.sparse.linalg" in scipy_modules(argv)
