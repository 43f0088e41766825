"""SciPy loads only in a job that runs ARPACK, the truncated eigensolver.

Only ARPACK, the sparse adjacency and the matrix-exponential oracle need
SciPy, and each imports it where it runs. A full-dimension job decomposes
with numpy alone, or optimises the graph's own quality matrix, and so does
a ``--dim`` job on the dense side of the solver crossover: their processes
never load SciPy. A ``--dim`` job on the truncated side loads
``scipy.sparse.linalg`` when it decomposes.
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


def importers(path: Path, module: str) -> list[str]:
    """The functions of a source file that import ``module`` or a name in it."""
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
            if any(name == module or name.startswith(f"{module}.") for name in names):
                found.append(f"{path.name} {func.name}")
    return found


def package_importers(module: str) -> list[str]:
    return [hit for path in sorted(PACKAGE.glob("*.py")) for hit in importers(path, module)]


def test_only_the_matrix_exponential_oracle_imports_scipy_linalg():
    assert package_importers("scipy.linalg") == ["objective.py autocovariance_direct"]


def test_only_the_truncated_solver_imports_scipy_sparse_linalg():
    # Nothing loads ARPACK ahead of the solve that runs it.
    assert package_importers("scipy.sparse.linalg") == [
        "spectral.py _eigsh_restart_seed",
        "spectral.py _operator",
        "spectral.py _eigenpairs",
    ]


def test_the_importer_check_sees_every_import_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import scipy.sparse\n"
        "def a():\n    import scipy.sparse.linalg\n"
        "def b():\n    from scipy.sparse import linalg\n"
        "def c():\n    from scipy.sparse.linalg import eigsh\n"
        "def d():\n    from scipy import sparse\n"
        "def e():\n    import scipy.linalg\n"
    )
    assert importers(path, "scipy.sparse.linalg") == ["sample.py a", "sample.py b", "sample.py c"]


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    path.write_text(random_connected_graph(3, n=40, p=0.15).to_edge_list_text())
    return str(path)


@pytest.fixture(scope="module")
def large_graph_file(tmp_path_factory):
    """n = 400, past TRUNCATED_MIN_N: --dim 5 takes ARPACK, as (5 + 2) * 10 <= 400,
    and --dim 40 the dense solver, as (40 + 2) * 10 > 400."""
    g, _ = vp.planted_partition(4, 100, 0.1, 0.01, seed=0)
    assert g.n >= vp.spectral.TRUNCATED_MIN_N
    path = tmp_path_factory.mktemp("graph") / "large.txt"
    path.write_text(g.to_edge_list_text())
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


def job_argv(args: list[str], tmp_path, **graphs: str) -> list[str]:
    argv = [a.format(**graphs) for a in args]
    if argv[0] != "decompose":
        argv += ["--output", str(tmp_path / "report.json")]
    return argv


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
        # n = 40 is below TRUNCATED_MIN_N: these --dim jobs take the dense path.
        ["partition", "{graph}", "--mode", "modularity", "--dim", "5"],
        ["partition", "{graph}", "--mode", "exponential", "--dim", "5"],
        ["scan", "{graph}", "--tmin", "0.5", "--tmax", "2", "--npoints", "3", "--dim", "5"],
        # n = 400 is past it, but (40 + 2) * 10 > 400: the dense path again.
        ["partition", "{large}", "--mode", "exponential", "--dim", "40"],
        ["partition", "{large}", "--mode", "modularity", "--dim", "40"],
    ],
    ids=[
        "partition-linearised",
        "partition-modularity",
        "scan-linearised",
        "partition-exponential",
        "scan-exponential",
        "decompose-transition",
        "decompose-modularity",
        "partition-modularity-dim",
        "partition-exponential-dim",
        "scan-exponential-dim",
        "large-partition-exponential-dim40",
        "large-partition-modularity-dim40",
    ],
)
def test_a_job_on_the_dense_side_loads_no_scipy(graph_file, large_graph_file, tmp_path, args):
    assert scipy_modules(job_argv(args, tmp_path, graph=graph_file, large=large_graph_file)) == []


@pytest.mark.parametrize(
    "args",
    [
        ["partition", "{large}", "--mode", "modularity", "--dim", "5"],
        ["partition", "{large}", "--mode", "exponential", "--dim", "5"],
        ["scan", "{large}", "--tmin", "0.5", "--tmax", "2", "--npoints", "3", "--dim", "5"],
    ],
    ids=["partition-modularity-dim", "partition-exponential-dim", "scan-exponential-dim"],
)
def test_a_job_that_runs_arpack_loads_the_truncated_solver(large_graph_file, tmp_path, args):
    assert "scipy.sparse.linalg" in scipy_modules(job_argv(args, tmp_path, large=large_graph_file))
