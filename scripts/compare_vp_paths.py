"""Compare partitions from the optimiser's paths on bench graphs: Gram-space
against vector-space levels, screened against plain sweeps, and the graph's
own quality matrix against the full-dimension spectral embedding.

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
exact tie, as below for the graph-space runs. It exits 1 if screened and plain sweeps
differ at all, or if Gram and vector levels differ other than by exact
ties. The screen changes no arithmetic of a move, so screened and plain
sweeps agree exactly.

Which ties split the two paths depends on the vector path's summation
order. ``VPState`` stores its group sums column-major, so at dim 999 the
reference loop's scores round differently from row-major sums. With
``--graphs 2`` the Gram and vector partitions differ on
``fulldim_stability`` graphs 0 and 1 in linearised mode, 26 of 28
identical; the first divergence of graph 0 is an exact tie at gain
795/11683778 for both targets. The partitions ``partition_vectors``
returns do not depend on this loop: its full-dimension levels run in Gram
space.

On the ``fulldim_stability`` graphs, the script also optimises each graph at
full dimension in linearised mode at t = 1 and in modularity mode twice:
from its ``QualityMatrix`` and from the spectral embedding, with the
workload's two restarts. It counts identical partitions. For every pair
that differs, it reruns each restart on the two level-0 states in lockstep
up to the first visit where the move rule picks different targets, and
recomputes the gains of those two targets with ``fractions.Fraction`` from
the adjacency and the degrees. The pair is explained only when some
restart diverges and every divergence is an exact tie; otherwise the
script exits 1. Every BLAS library the script loads runs on one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

# One BLAS thread, before numpy loads, so the spectral path's roundoff is fixed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402

import vecpart as vp  # noqa: E402
from helpers import group_sums, plain_sweep_best_of_restarts, vector_path_best_of_restarts  # noqa: E402
from vecpart.graph import canonical_labels  # noqa: E402
from vecpart.vp import GramState, VPState  # noqa: E402

# (workload, planted_partition parameters, dim, restarts, [(mode, times)]), as in perfbench/run.py.
JOBS = (
    ("fulldim_stability", (10, 100, 0.1, 0.005), None, 2, (("exponential", (5.0,)), ("linearised", (1.0,)))),
    ("lowdim_partition", (20, 100, 0.1, 0.004), 24, 5, (("exponential", (5.0,)), ("modularity", (None,)))),
    ("scan", (10, 100, 0.1, 0.005), 14, 5, (("exponential", tuple(np.geomspace(0.1, 100, 10))),)),
)
# The full-dimension runs that optimise a QualityMatrix, on the fulldim_stability graphs: (mode, t).
GRAPH_SPACE_RUNS = (("linearised", 1.0), ("modularity", None))


def group_nodes(members: list[np.ndarray], assignment: np.ndarray, group: int, skip: int = -1) -> np.ndarray:
    """The nodes of the level vectors in ``group``, less vector ``skip``;
    ``members[j]`` holds the nodes of level vector j."""
    rows = [j for j in np.flatnonzero(assignment == group) if j != skip]
    return np.concatenate([members[j] for j in rows]) if rows else np.array([], dtype=np.int64)


def next_level(state: GramState | VPState) -> tuple[np.ndarray, GramState | VPState]:
    """``state.compact()``, except that a vector-space level is followed by
    another one, as in the reference loop ``vector_path_partition``."""
    if isinstance(state, GramState):
        return state.compact()
    labels, _ = canonical_labels(state.assignment)
    return labels, VPState(group_sums(state.vectors, labels), state.signature)


def first_divergence(states: list[GramState | VPState], seed: int | None, tol: float):
    """Run the level loop of ``partition_vectors`` on two level-0 states in
    lockstep, with the visiting orders of ``seed``. Returns None when the two
    runs make the same moves throughout, else the first visit where the move
    rule picks different targets, as (level, the vector's nodes, the nodes of
    the rest of its group, and the nodes of each run's target, None for a
    run that stays)."""
    members = [np.array([i]) for i in range(states[0].num_groups)]
    for level in range(vp.vp.MAX_LEVELS):
        p = states[0].num_groups
        order = np.arange(p, dtype=np.int64)
        if seed is not None:
            np.random.default_rng([seed, level]).shuffle(order)
        moved = True
        while moved:
            moved = False
            for i in order:
                picks = []
                for state in states:
                    alpha = int(state.assignment[i])
                    scores, self_score = state.scores(i)
                    can_detach = state.group_sizes[alpha] > 1
                    picks.append(vp.vp._choose_move(scores, alpha, self_score, can_detach, tol))
                if picks[0] != picks[1]:
                    assignment = states[0].assignment
                    targets = [None if beta < 0 else group_nodes(members, assignment, beta) for beta in picks]
                    rest = group_nodes(members, assignment, int(assignment[i]), skip=i)
                    return level, members[i], rest, targets
                if picks[0] >= 0:
                    moved = True
                    for state in states:
                        state.apply_move(i, picks[0])
        compacted = [next_level(state) for state in states]
        labels = compacted[0][0]
        states = [state for _, state in compacted]
        members = [group_nodes(members, labels, c) for c in range(labels.max() + 1)]
        if states[0].num_groups == p:
            return None
    raise vp.LevelCapExceeded(f"still aggregating after {vp.vp.MAX_LEVELS} levels")


def exact_gain(g, mode: str, t: float | None, vector: np.ndarray, rest: np.ndarray, target) -> Fraction | None:
    """The gain of moving the nodes ``vector`` from the group whose other
    nodes are ``rest`` to the group ``target``, in exact rational arithmetic
    from the adjacency and the degrees; None for a run that stays. For
    disjoint node sets S and T the quality matrix sums to t W(S, T) / 2m -
    pi(S) pi(T) in linearised mode and to W(S, T) - d(S) d(T) / 2m in
    modularity mode, with W the adjacency summed over S x T."""
    if target is None:
        return None
    A = g.adjacency()
    two_m = Fraction(2.0 * g.total_weight)

    def quality(S: np.ndarray, T: np.ndarray) -> Fraction:
        W = sum((Fraction(float(w)) for w in A[S][:, T].data), Fraction(0))
        dS, dT = (sum((Fraction(float(d)) for d in g.degrees[nodes]), Fraction(0)) for nodes in (S, T))
        if mode == "modularity":
            return W - dS * dT / two_m
        return Fraction(t) * W / two_m - (dS / two_m) * (dT / two_m)

    return quality(vector, target) - quality(vector, rest)


def divergent_ties(g, mode: str, t: float | None, level0, restarts: int) -> list[bool]:
    """Rerun each restart of ``best_of_restarts`` on the two level-0 states
    ``level0()`` returns, up to its first divergent visit. Returns one entry
    per restart that diverges: whether the two targets' exact gains tie."""
    tol, _ = vp.vp.tolerances(mode, g.total_weight)
    ties = []
    for run_seed in [None, *range(1, restarts)]:
        found = first_divergence(level0(), run_seed, tol)
        if found is not None:
            level, vector, rest, targets = found
            gains = [exact_gain(g, mode, t, vector, rest, target) for target in targets]
            ties.append(gains[0] is not None and gains[0] == gains[1])
            print(f"  run {run_seed or 0}: first divergent visit at level {level}, "
                  f"exact gains {gains[0]} and {gains[1]}", flush=True)
    return ties


def compare_graph_space(seed: int, restarts: int) -> int:
    """Compare one fulldim_stability graph's graph-space and spectral runs;
    returns the number of differing partitions not shown to be exact ties."""
    g, _ = vp.planted_partition(*JOBS[0][1], seed=seed)
    unexplained = 0
    for mode, t in GRAPH_SPACE_RUNS:
        decompose = vp.decompose_modularity_matrix if mode == "modularity" else vp.decompose_transition
        q = vp.QualityMatrix(g, mode, t)
        emb = vp.build_embedding(decompose(g), mode, t=t)
        p_graph, obj_graph, _ = vp.best_of_restarts(q, restarts)
        p_spec, obj_spec, _ = vp.best_of_restarts(emb, restarts)
        if np.array_equal(p_graph.assignment, p_spec.assignment):
            print(f"fulldim_stability graph {seed} {mode}: graph-space and spectral partitions identical", flush=True)
            continue
        grams = [vp.vp._shared_gram(q), vp.vp._shared_gram(emb)]
        ties = divergent_ties(g, mode, t, lambda: [GramState(gram) for gram in grams], restarts)
        explained = bool(ties) and all(ties)
        unexplained += not explained
        print(f"fulldim_stability graph {seed} {mode}: partitions differ, objective graph - spectral "
              f"{obj_graph - obj_spec:.3g}; {sum(ties)} of {len(ties)} divergent runs are exact ties"
              f"{'' if explained else ' (UNEXPLAINED)'}", flush=True)
    return unexplained


def tie_explained(g, mode: str, t: float | None, dim: int | None, emb, restarts: int) -> bool:
    """Whether a job's Gram and vector partitions differ only by exact ties:
    every restart that diverges does so at an exact tie. Only a
    full-dimension linearised or modularity job has exact gains here."""
    if dim is not None or mode == "exponential":
        return False
    gram = vp.vp._shared_gram(emb)
    vectors, signature = np.asarray(emb.vectors, dtype=np.float64), emb.signature.astype(np.float64)
    ties = divergent_ties(g, mode, t, lambda: [GramState(gram), VPState(vectors, signature)], restarts)
    return bool(ties) and all(ties)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--graphs", type=int, default=5)
    parser.add_argument("--workload", nargs="*", default=[job[0] for job in JOBS])
    args = parser.parse_args()
    compared = differ = unexplained_differ = unscreened_differ = 0
    for workload, family, dim, restarts, modes in JOBS:
        if workload not in args.workload:
            continue
        for seed in range(args.graphs):
            g, _ = vp.planted_partition(*family, seed=seed)
            for mode, times in modes:
                decompose = vp.decompose_modularity_matrix if mode == "modularity" else vp.decompose_transition
                basis = decompose(g, dim=dim)
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
                        unexplained_differ += not tie_explained(g, mode, t, dim, emb, restarts)
                    same_plain += np.array_equal(p_gram.assignment, p_plain.assignment) and obj_gram == obj_plain
                compared += len(times)
                differ += len(times) - same
                unscreened_differ += len(times) - same_plain
                note = f", objective gram - vector: {', '.join(f'{d:.3g}' for d in gaps)}" if gaps else ""
                print(f"{workload} graph {seed} {mode} dim {dim or g.n - 1}: "
                      f"{same} of {len(times)} partitions identical{note}; "
                      f"screened against plain sweeps: {same_plain} of {len(times)} identical", flush=True)
    print(f"{compared - differ} of {compared} partitions identical, Gram against vector levels; "
          f"{differ - unexplained_differ} of the {differ} that differ are exact ties")
    print(f"{compared - unscreened_differ} of {compared} partitions identical, screened against plain sweeps")
    unexplained = 0
    if JOBS[0][0] in args.workload:
        for seed in range(args.graphs):
            unexplained += compare_graph_space(seed, JOBS[0][3])
        print(f"{unexplained} graph-space partitions differ from the spectral ones other than by an exact tie")
    return 1 if unexplained_differ or unscreened_differ or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
