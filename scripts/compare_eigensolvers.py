"""Compare partitions from the dense and the truncated eigensolver on bench graphs.

Usage, from the root of a checkout:

    python3 scripts/compare_eigensolvers.py [--graphs 10]

For each of the first ``--graphs`` graphs of the ``lowdim_partition`` and
``scan`` workloads of perfbench (graph seeds 0, 1, ...), the script
decomposes the graph twice, once with all n eigenpairs (dense ``eigh``) and
once with only the pairs the embedding reads (ARPACK ``eigsh``), then runs
the same optimiser on both embeddings with the jobs' settings. Both solvers
solve the same symmetric matrix of each source: ``numpy.linalg.eigh`` the
dense one numpy builds (``spectral._dense_operator``), ARPACK the operator
that applies it (``spectral._operator``). A difference comes from the
solver, and from roundoff in how the matrix is formed. It prints
one line per graph and job, and exits 1 if any partition or objective
differs.
"""

from __future__ import annotations

import argparse
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


def solve(basis: vp.SpectralBasis, mode: str, t: float | None, dim: int) -> tuple[vp.Partition, float]:
    emb = vp.build_embedding(basis, mode, t=t, dim=dim)
    partition, objective, _ = vp.best_of_restarts(emb, RESTARTS)
    return partition, objective


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
                truncated = decompose(g, dim=dim)
                same = 0
                for t in times:
                    p_dense, obj_dense = solve(dense, mode, t, dim)
                    p_trunc, obj_trunc = solve(truncated, mode, t, dim)
                    if np.array_equal(p_dense.assignment, p_trunc.assignment) and math.isclose(
                        obj_dense, obj_trunc, rel_tol=1e-9, abs_tol=1e-12
                    ):
                        same += 1
                compared += len(times)
                differ += len(times) - same
                print(f"{workload} graph {seed} {mode} dim {dim}: pairs {dense.pairs} vs "
                      f"{truncated.pairs}, {same} of {len(times)} partitions identical", flush=True)
    print(f"{compared - differ} of {compared} partitions identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
