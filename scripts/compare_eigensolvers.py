"""Compare partitions from the three eigensolvers on bench graphs.

Usage, from the root of a checkout:

    python3 scripts/compare_eigensolvers.py [--graphs 10]

For each of the first ``--graphs`` graphs of the ``lowdim_partition`` and
``scan`` workloads of perfbench (graph seeds 0, 1, ...), the script
decomposes the graph three times:

- dense: all n eigenpairs, by ``numpy.linalg.eigh`` on the matrix numpy
  builds (``spectral._dense_operator``), the path of a full-dimension job;
- Lanczos: only the pairs the embedding reads, by the package's numpy
  thick-restart Lanczos (``spectral._leading_pairs``) on the operator that
  applies that matrix (``spectral._operator``), the path of a ``--dim`` job;
- ARPACK: the same pairs of the same operator, by SciPy's
  ``scipy.sparse.linalg.eigsh``, the oracle.

It then runs the same optimiser on the three embeddings with the jobs'
settings. A difference comes from the solver, and from roundoff in how the
matrix is formed. It prints one line per graph and job, and exits 1 if any
partition or objective differs from the oracle's.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import vecpart as vp  # noqa: E402

RESTARTS = 5
# (workload, planted_partition parameters, dim, [(mode, times)]), as in perfbench/run.py.
JOBS = (
    ("lowdim_partition", (20, 100, 0.1, 0.004), 24, (("exponential", (5.0,)), ("modularity", (None,)))),
    ("scan", (10, 100, 0.1, 0.005), 14, (("exponential", tuple(np.geomspace(0.1, 100, 10))),)),
)


def arpack_pairs(apply, n: int, k: int, norm: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``spectral._leading_pairs`` by ARPACK: a fixed start vector, tol=0
    (machine precision) and, where eigsh takes one, a fixed restart seed."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    seed = {"rng": 0} if "rng" in inspect.signature(eigsh).parameters else {}
    operator = LinearOperator((n, n), matvec=apply, matmat=apply, dtype=np.float64)
    return eigsh(operator, k=k, which="LA", v0=np.random.default_rng(0).standard_normal(n), tol=0, **seed)


def arpack_basis(decompose, g: vp.Graph, dim: int) -> vp.SpectralBasis:
    """``decompose(g, dim=dim)`` with ARPACK in place of the Lanczos solver."""
    lanczos = vp.spectral._leading_pairs
    vp.spectral._leading_pairs = arpack_pairs
    try:
        return decompose(g, dim=dim)
    finally:
        vp.spectral._leading_pairs = lanczos


def solve(basis: vp.SpectralBasis, mode: str, t: float | None, dim: int) -> tuple[vp.Partition, float]:
    emb = vp.build_embedding(basis, mode, t=t, dim=dim)
    partition, objective, _ = vp.best_of_restarts(emb, RESTARTS)
    return partition, objective


def same(a: tuple[vp.Partition, float], b: tuple[vp.Partition, float]) -> bool:
    return np.array_equal(a[0].assignment, b[0].assignment) and math.isclose(a[1], b[1], rel_tol=1e-9, abs_tol=1e-12)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--graphs", type=int, default=10)
    args = parser.parse_args()
    compared = differ = 0
    for workload, family, dim, modes in JOBS:
        for seed in range(args.graphs):
            g, _ = vp.planted_partition(*family, seed=seed)
            for mode, times in modes:
                decompose = vp.decompose_modularity_matrix if mode == "modularity" else vp.decompose_transition
                dense = decompose(g)
                lanczos = decompose(g, dim=dim)
                oracle = arpack_basis(decompose, g, dim)
                dense_same = lanczos_same = 0
                for t in times:
                    expected = solve(oracle, mode, t, dim)
                    d = same(solve(dense, mode, t, dim), expected)
                    la = same(solve(lanczos, mode, t, dim), expected)
                    dense_same += d
                    lanczos_same += la
                    differ += not (d and la)
                compared += len(times)
                print(f"{workload} graph {seed} {mode} dim {dim}: pairs {dense.pairs}, {lanczos.pairs}, "
                      f"{oracle.pairs}; as ARPACK's: dense {dense_same}, Lanczos {lanczos_same} of {len(times)}",
                      flush=True)
    print(f"{compared - differ} of {compared} partitions identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
