"""Compare partitions from the optimiser's paths on bench graphs: Gram-space
against vector-space levels, screened against plain sweeps, and the sparse
graph level of a quality matrix against its dense oracle.

Usage, from the root of a checkout:

    python3 scripts/compare_vp_paths.py [--graphs 5] [--workload NAME ...]

For each of the first ``--graphs`` graphs of the ``fulldim_stability``,
``lowdim_partition`` and ``scan`` workloads of perfbench (graph seeds 0, 1,
...), the script builds each job's embedding once and optimises it three
times with the jobs' settings: with ``partition_vectors``, whose levels run
in Gram space once p <= dim + 1 and whose later vector-space sweeps are
screened; with the test suite's reference loop that runs every level as a
vector-space ``VPState``; and with the one whose every sweep is the plain
``_sweep``. It prints one line per graph and job and two totals. Where a
move's gain ties exactly between two groups, the Gram and vector paths'
roundoff can pick different ones; in linearised and modularity mode that
can change a partition, with an objective equal to within a few parts in a
million. So for a full-dimension linearised or modularity job whose Gram
and vector partitions differ, the script checks every divergence for an
exact tie, as below for the graph-space runs.

Screened and plain sweeps are compared restart by restart, on the
embeddings and on the quality matrices of the graph-space section below:
each restart's partition, objective, ``objective_trajectory``,
``sweeps_per_level`` and ``moves_per_level`` must be equal, and so then is
the best of restarts. The screen changes no arithmetic of a move, so they
agree exactly. The script prints the visits that ran the move rule per
workload, screened and plain. It exits 1 if screened and plain sweeps
differ at all, or if Gram and vector levels differ other than by exact
ties.

Which ties split the two paths depends on the vector path's summation
order. ``VPState`` stores its group sums column-major, so at dim 999 the
reference loop's scores round differently from row-major sums. With
``--graphs 2`` the Gram and vector partitions differ only on
``fulldim_stability`` graph 1 in linearised mode, 27 of 28 identical; its
two restarts first diverge at exact ties, at gains 3521/50951044 and
14133/203804176 for both targets. The partitions ``partition_vectors``
returns do not depend on this loop: its full-dimension levels run in Gram
space.

The graph-space section compares a full-dimension linearised (t = 1) and
modularity run's sparse graph levels (``GraphState`` on the graph and then
on each level's group graph, the path ``partition_vectors`` takes on a
``QualityMatrix``) with its dense oracle, the same run with level 0 a
``GramState`` on the dense quality matrix and every later level one on its
group sums (``helpers.dense_partition``), with the workload's two restarts,
on the ``fulldim_stability`` graphs and on the n = 4000 graph
``planted_partition(40, 100, 0.1, 0.00125, seed=0)``. It counts identical
partitions. For every pair that differs, it reruns each restart on the two
runs in lockstep, through every level, up to the first visit where the move
rule picks different targets, and recomputes the gains of those two targets
with ``fractions.Fraction`` from the edge list and the degrees. The pair is
explained only when some restart diverges and every divergence is an exact
tie; otherwise the script exits 1. With ``--graphs 2`` only
``fulldim_stability`` graph 0 in modularity mode differs; its restart 1
first diverges at level 0, at gains 14029/14502 for both targets. Every
BLAS library the script loads runs on one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, before numpy loads, so the spectral path's roundoff is fixed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402

import vecpart as vp  # noqa: E402
from helpers import (  # noqa: E402
    dense_partition,
    divergent_ties,
    is_exact_tie,
    plain_sweep_partition,
    quality_gram,
    vector_path_best_of_restarts,
)
from vecpart.vp import GramState, GraphState, VPState  # noqa: E402

# (workload, planted_partition parameters, dim, restarts, [(mode, times)]), as in perfbench/run.py.
JOBS = (
    ("fulldim_stability", (10, 100, 0.1, 0.005), None, 2, (("exponential", (5.0,)), ("linearised", (1.0,)))),
    ("lowdim_partition", (20, 100, 0.1, 0.004), 24, 5, (("exponential", (5.0,)), ("modularity", (None,)))),
    ("scan", (10, 100, 0.1, 0.005), 14, 5, (("exponential", tuple(np.geomspace(0.1, 100, 10))),)),
)
# The full-dimension runs that optimise a QualityMatrix: (mode, t).
GRAPH_SPACE_RUNS = (("linearised", 1.0), ("modularity", None))
# The large graph of the graph-space section: planted_partition parameters and seed.
LARGE_GRAPH = ((40, 100, 0.1, 0.00125), 0)
# The diagnostics a screened run must share with its plain-sweep run.
SAME_RUN = ("objective_trajectory", "sweeps_per_level", "moves_per_level", "paths_per_level")


def screened_against_plain(emb, restarts: int, visits: list[int]):
    """Run every restart of ``best_of_restarts(emb, restarts)`` with screened
    sweeps and with plain ones. Returns the best screened run, the first of
    equal objectives as in ``best_of_restarts``, and whether every restart's
    two runs agree; adds each side's visits to ``visits``."""
    runs, same = [], True
    for seed in (None, *range(1, restarts)):
        screened, plain = vp.partition_vectors(emb, seed), plain_sweep_partition(emb, seed)
        same &= (np.array_equal(screened[0].assignment, plain[0].assignment) and screened[1] == plain[1]
                 and all(getattr(screened[2], key) == getattr(plain[2], key) for key in SAME_RUN))
        visits[0] += sum(screened[2].visits_per_level)
        visits[1] += sum(plain[2].visits_per_level)
        runs.append(screened)
    return max(runs, key=lambda run: run[1]), same


def explained(g, mode: str, t: float | None, level0, restarts: int) -> bool:
    """Print each restart's first divergence between the two level-0 states
    ``level0()`` returns; whether some restart diverges and every divergence
    is an exact tie."""
    found = divergent_ties(g, mode, t, level0, restarts)
    for run, level, gains in found:
        print(f"  run {run}: first divergent visit at level {level}, exact gains {gains[0]} and {gains[1]}", flush=True)
    return bool(found) and all(is_exact_tie(gains) for _, _, gains in found)


def compare_graph_space(name: str, g, restarts: int, visits: list[int]) -> tuple[int, int]:
    """Compare one graph's sparse graph-level runs with their dense oracle
    and with plain sweeps; returns the number of partitions that differ
    from the oracle's other than by exact ties, and of runs that differ
    from plain sweeps."""
    unexplained = unscreened = 0
    for mode, t in GRAPH_SPACE_RUNS:
        q = vp.QualityMatrix(g, mode, t)
        (p_graph, obj_graph, _), same_plain = screened_against_plain(q, restarts, visits)
        unscreened += not same_plain
        print(f"{name} {mode}: screened and plain sweeps {'agree' if same_plain else 'DIFFER'}", flush=True)
        runs = [dense_partition(q)] + [dense_partition(q, seed) for seed in range(1, restarts)]
        p_dense, obj_dense, _ = max(runs, key=lambda run: run[1])  # the first of equal objectives, as best_of_restarts
        if np.array_equal(p_graph.assignment, p_dense.assignment):
            print(f"{name} {mode}: sparse and dense graph levels give identical partitions", flush=True)
            continue
        gram = quality_gram(q)
        ok = explained(g, mode, t, lambda: [GraphState(q), GramState(gram)], restarts)
        unexplained += not ok
        print(f"{name} {mode}: partitions differ, objective sparse - dense {obj_graph - obj_dense:.3g}"
              f"{'; every divergence is an exact tie' if ok else ' (UNEXPLAINED)'}", flush=True)
    return unexplained, unscreened


def tie_explained(g, mode: str, t: float | None, dim: int | None, emb, restarts: int) -> bool:
    """Whether a job's Gram and vector partitions differ only by exact ties:
    every restart that diverges does so at an exact tie. Only a
    full-dimension linearised or modularity job has exact gains here."""
    if dim is not None or mode == "exponential":
        return False
    vectors, signature = np.asarray(emb.vectors, dtype=np.float64), emb.signature.astype(np.float64)
    return explained(g, mode, t, lambda: [GramState(emb.gram), VPState(vectors, signature)], restarts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--graphs", type=int, default=5)
    parser.add_argument("--workload", nargs="*", default=[job[0] for job in JOBS])
    args = parser.parse_args()
    compared = differ = unexplained_differ = unscreened_differ = 0
    for workload, family, dim, restarts, modes in JOBS:
        if workload not in args.workload:
            continue
        visits = [0, 0]
        for seed in range(args.graphs):
            g, _ = vp.planted_partition(*family, seed=seed)
            for mode, times in modes:
                decompose = vp.decompose_modularity_matrix if mode == "modularity" else vp.decompose_transition
                basis = decompose(g, dim=dim)
                same = same_plain = 0
                gaps = []
                for t in times:
                    emb = vp.build_embedding(basis, mode, t=t, dim=dim)
                    (p_gram, obj_gram, _), same_run = screened_against_plain(emb, restarts, visits)
                    p_vec, obj_vec = vector_path_best_of_restarts(emb, restarts)
                    if np.array_equal(p_gram.assignment, p_vec.assignment) and obj_gram == obj_vec:
                        same += 1
                    else:
                        gaps.append(obj_gram - obj_vec)
                        unexplained_differ += not tie_explained(g, mode, t, dim, emb, restarts)
                    same_plain += same_run
                compared += len(times)
                differ += len(times) - same
                unscreened_differ += len(times) - same_plain
                note = f", objective gram - vector: {', '.join(f'{d:.3g}' for d in gaps)}" if gaps else ""
                print(f"{workload} graph {seed} {mode} dim {dim or g.n - 1}: "
                      f"{same} of {len(times)} partitions identical{note}; "
                      f"screened against plain sweeps: {same_plain} of {len(times)} jobs identical", flush=True)
        print(f"{workload}: {visits[0]} visits screened, {visits[1]} plain", flush=True)
    print(f"{compared - differ} of {compared} partitions identical, Gram against vector levels; "
          f"{differ - unexplained_differ} of the {differ} that differ are exact ties")
    print(f"{compared - unscreened_differ} of {compared} jobs identical, screened against plain sweeps")
    unexplained = 0
    if JOBS[0][0] in args.workload:
        graphs = [(f"fulldim_stability graph {seed}", vp.planted_partition(*JOBS[0][1], seed=seed)[0])
                  for seed in range(args.graphs)]
        graphs.append(("n = 4000 graph", vp.planted_partition(*LARGE_GRAPH[0], seed=LARGE_GRAPH[1])[0]))
        visits = [0, 0]
        for name, g in graphs:
            found = compare_graph_space(name, g, JOBS[0][3], visits)
            unexplained += found[0]
            unscreened_differ += found[1]
        print(f"graph space: {visits[0]} visits screened, {visits[1]} plain")
        print(f"{unexplained} sparse graph-level partitions differ from the dense oracle's other than by an exact tie")
    return 1 if unexplained_differ or unscreened_differ or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
