"""No CLI job loads SciPy, ``numpy.random``, ``numpy.ma`` or ``hashlib``.

Only the matrix-exponential oracle needs SciPy, and it imports it where it
runs. A full-dimension job decomposes with numpy's dense solver, or
optimises the graph's own quality matrix, and a ``--dim`` job runs the
dense solver or, past the solver crossover, the numpy Lanczos solver: their
processes never load SciPy. The optimiser's visiting orders and the Lanczos
start vectors come from the package's own PCG64, so only the
planted-partition sampler names ``numpy.random``. The report's graph hash
comes from the interpreter's builtin sha256, not OpenSSL's ``hashlib``, and
the partition label check avoids ``np.unique``, which loads ``numpy.ma``.
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

# Modules a CLI job has no use for, each with its submodules.
UNNEEDED = ("scipy", "numpy.random", "numpy.ma", "hashlib", "_hashlib")

# Runs the CLI in a fresh interpreter and prints the unneeded modules it loaded.
PROBE = f"""
import sys
from vecpart.cli import main
code = main(sys.argv[1:])
unneeded = {UNNEEDED!r}
print(sorted(name for name in sys.modules if any(name == u or name.startswith(u + ".") for u in unneeded)))
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


def test_no_module_imports_scipy_sparse():
    # The truncated eigensolver and the adjacency are numpy's.
    assert package_importers("scipy.sparse") == []


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
    assert importers(path, "scipy.sparse") == ["sample.py a", "sample.py b", "sample.py c", "sample.py d"]


def numpy_random_users(path: Path) -> list[str]:
    """Where a source file names ``numpy.random``: the innermost function
    around each ``np.random`` or ``numpy.random`` attribute and each import
    of the module, "<module>" outside every function."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute):
            named = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy") and node.attr == "random"
        elif isinstance(node, ast.Import):
            named = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            named = module.startswith("numpy.random") or module == "numpy" and "random" in [a.name for a in node.names]
        else:
            named = False
        if named:
            found.add(f"{path.name} {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "<module>")
    return sorted(found)


def test_only_the_planted_partition_sampler_uses_numpy_random():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in numpy_random_users(path)]
    assert hits == ["graph.py planted_partition"]


def test_the_numpy_random_check_sees_both_attribute_forms(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import numpy as np\n"
        "import numpy\n"
        "def a():\n    return np.random.default_rng(0)\n"
        "def b():\n    return numpy.random.default_rng(0)\n"
        "def c():\n    from numpy.random import default_rng\n"
        "def d():\n    from numpy import random\n"
        "def e():\n    import numpy.random\n"
        "def f():\n    return np.linalg, np.ones(3).random\n"
        "class G:\n    rng = np.random\n"
    )
    assert numpy_random_users(path) == [f"sample.py {name}" for name in ("<module>", "a", "b", "c", "d", "e")]


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    path.write_text(random_connected_graph(3, n=40, p=0.15).to_edge_list_text())
    return str(path)


@pytest.fixture(scope="module")
def large_graph_file(tmp_path_factory):
    """n = 400: --dim 5 takes the truncated solver, as its Lanczos basis of
    60 vectors fits five times in 400, and --dim 40 the dense solver, as a
    basis of 2k + 1 >= 83 vectors, for k = 41 or 42 pairs, does not."""
    g, _ = vp.planted_partition(4, 100, 0.1, 0.01, seed=0)
    assert vp.spectral.TRUNCATED_BASIS_FITS * vp.spectral._basis_size(5 + 2) <= g.n
    assert vp.spectral.TRUNCATED_BASIS_FITS * vp.spectral._basis_size(40 + 1) > g.n
    path = tmp_path_factory.mktemp("graph") / "large.txt"
    path.write_text(g.to_edge_list_text())
    return str(path)


def unneeded_modules(args: list[str], src: Path = PACKAGE.parent) -> list[str]:
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
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
        # n = 40 holds no 60-vector Lanczos basis five times: these --dim jobs take the dense path.
        ["partition", "{graph}", "--mode", "modularity", "--dim", "5"],
        ["partition", "{graph}", "--mode", "exponential", "--dim", "5"],
        ["scan", "{graph}", "--tmin", "0.5", "--tmax", "2", "--npoints", "3", "--dim", "5"],
        # n = 400 holds five bases of 60 vectors, not of 83 or more: the dense path again.
        ["partition", "{large}", "--mode", "exponential", "--dim", "40"],
        ["partition", "{large}", "--mode", "modularity", "--dim", "40"],
        # 5 * 60 <= 400: the truncated path, numpy's Lanczos.
        ["partition", "{large}", "--mode", "modularity", "--dim", "5"],
        ["partition", "{large}", "--mode", "exponential", "--dim", "5"],
        ["scan", "{large}", "--tmin", "0.5", "--tmax", "2", "--npoints", "3", "--dim", "5"],
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
        "large-partition-modularity-dim5",
        "large-partition-exponential-dim5",
        "large-scan-exponential-dim5",
    ],
)
def test_a_job_loads_no_scipy(graph_file, large_graph_file, tmp_path, args):
    # Nor numpy.random, numpy.ma or hashlib: every module of UNNEEDED.
    assert unneeded_modules(job_argv(args, tmp_path, graph=graph_file, large=large_graph_file)) == []


def test_the_probe_sees_every_unneeded_module(tmp_path):
    # A stand-in CLI that loads them all is caught, and numpy.matrixlib,
    # which numpy itself loads, is not mistaken for numpy.ma.
    cli = tmp_path / "vecpart" / "cli.py"
    cli.parent.mkdir()
    (cli.parent / "__init__.py").write_text("")
    cli.write_text("import hashlib, numpy.ma, numpy.random, scipy.linalg\ndef main(argv):\n    return 0\n")
    loaded = unneeded_modules([], src=tmp_path)
    assert set(UNNEEDED) <= set(loaded)
    assert not any(name.startswith("numpy.matrixlib") for name in loaded)


# Runs every CLI command in one fresh interpreter whose imports of SciPy fail,
# as on an install of the runtime dependencies alone.
BLOCKED = """
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy.linalg
except ImportError:
    pass
else:
    sys.exit("the blocker let scipy through")
from vecpart.cli import main
codes = [main(argv) for argv in ARGVS]
print(codes)
"""


def test_every_command_runs_without_scipy(graph_file, large_graph_file, tmp_path):
    partition_a, partition_b = tmp_path / "a.txt", tmp_path / "b.txt"
    argvs = [
        ["decompose", graph_file],
        ["decompose", large_graph_file, "--source", "modularity"],
        ["partition", graph_file, "--mode", "linearised", "--time", "1.5", "--partition-out", str(partition_a)],
        ["partition", graph_file, "--mode", "modularity", "--partition-out", str(partition_b)],
        ["partition", graph_file, "--mode", "exponential", "--time", "2"],
        ["partition", large_graph_file, "--mode", "modularity", "--dim", "5"],
        ["partition", large_graph_file, "--mode", "exponential", "--dim", "40"],
        ["scan", graph_file, "--mode", "linearised", "--tmin", "0.5", "--tmax", "2", "--npoints", "3"],
        ["scan", large_graph_file, "--tmin", "0.5", "--tmax", "2", "--npoints", "3", "--dim", "5"],
        ["compare", str(partition_a), str(partition_b)],
    ]
    assert {argv[0] for argv in argvs} == {"decompose", "partition", "scan", "compare"}
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED.replace("ARGVS", repr(argvs))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == repr([0] * len(argvs))
