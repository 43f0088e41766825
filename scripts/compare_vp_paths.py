"""Compare partitions from the optimiser's paths on bench graphs: Gram-space
against vector-space levels, and screened against plain sweeps.

Usage, from the root of a checkout:

    python3 scripts/compare_vp_paths.py [--graphs 5] [--workload NAME ...]

For each of the first ``--graphs`` graphs of the ``fulldim_stability``,
``lowdim_partition`` and ``scan`` workloads of perfbench (graph seeds 0, 1,
...), the script builds each job's embedding once and optimises it three
times with the jobs' settings: with ``partition_vectors``, whose levels run
in Gram space once p <= dim + 1 and whose later vector-space sweeps are
screened; with the test suite's reference loop that runs every level as a
vector-space ``VPState``; and with the one whose every sweep is the plain
``_sweep``. It prints one line per graph and job and two totals, and exits
1 if any partition or objective differs. Where a move's gain ties exactly
between two groups, the Gram and vector paths' roundoff can pick different
ones; in linearised and modularity mode that can change a partition, with
an objective equal to within a few parts in a million. The screen changes
no arithmetic of a move, so screened and plain sweeps agree exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402

import vecpart as vp  # noqa: E402
from helpers import plain_sweep_best_of_restarts, vector_path_best_of_restarts  # noqa: E402

# (workload, planted_partition parameters, dim, restarts, [(mode, times)]), as in perfbench/run.py.
JOBS = (
    ("fulldim_stability", (10, 100, 0.1, 0.005), None, 2, (("exponential", (5.0,)), ("linearised", (1.0,)))),
    ("lowdim_partition", (20, 100, 0.1, 0.004), 24, 5, (("exponential", (5.0,)), ("modularity", (None,)))),
    ("scan", (10, 100, 0.1, 0.005), 14, 5, (("exponential", tuple(np.geomspace(0.1, 100, 10))),)),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--graphs", type=int, default=5)
    parser.add_argument("--workload", nargs="*", default=[job[0] for job in JOBS])
    args = parser.parse_args()
    compared = differ = unscreened_differ = 0
    for workload, family, dim, restarts, modes in JOBS:
        if workload not in args.workload:
            continue
        for seed in range(args.graphs):
            g, _ = vp.planted_partition(*family, seed=seed)
            for mode, times in modes:
                decompose = vp.decompose_modularity_matrix if mode == "modularity" else vp.decompose_transition
                basis = decompose(g, pairs=vp.pairs_for_dim(dim))
                same = same_plain = 0
                gaps = []
                for t in times:
                    emb = vp.build_embedding(basis, mode, t=t, dim=dim)
                    p_gram, obj_gram, _ = vp.best_of_restarts(emb, restarts)
                    p_vec, obj_vec = vector_path_best_of_restarts(emb, restarts)
                    p_plain, obj_plain, _ = plain_sweep_best_of_restarts(emb, restarts)
                    if np.array_equal(p_gram.assignment, p_vec.assignment) and obj_gram == obj_vec:
                        same += 1
                    else:
                        gaps.append(obj_gram - obj_vec)
                    same_plain += np.array_equal(p_gram.assignment, p_plain.assignment) and obj_gram == obj_plain
                compared += len(times)
                differ += len(times) - same
                unscreened_differ += len(times) - same_plain
                note = f", objective gram - vector: {', '.join(f'{d:.3g}' for d in gaps)}" if gaps else ""
                print(f"{workload} graph {seed} {mode} dim {dim or g.n - 1}: "
                      f"{same} of {len(times)} partitions identical{note}; "
                      f"screened against plain sweeps: {same_plain} of {len(times)} identical", flush=True)
    print(f"{compared - differ} of {compared} partitions identical, Gram against vector levels")
    print(f"{compared - unscreened_differ} of {compared} partitions identical, screened against plain sweeps")
    return 1 if differ or unscreened_differ else 0


if __name__ == "__main__":
    sys.exit(main())
