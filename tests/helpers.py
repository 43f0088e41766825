"""Shared fixtures-in-code: graph builders and independent test oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import vecpart as vp

# Four nodes, two heavy edges (weight 10) and four unit edges: the canonical
# two-pair fixture. Hand sums: every degree is 12, total weight m = 24.
PAIRGRAPH4_TEXT = "0 1 10\n2 3 10\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n"
TRIANGLE_TEXT = "0 1\n1 2\n0 2\n"
CYCLE4_TEXT = "0 1\n1 2\n2 3\n0 3\n"


def pairgraph4() -> vp.Graph:
    return vp.load_edge_list(PAIRGRAPH4_TEXT)


def random_connected_graph(
    seed: int,
    n: int | None = None,
    n_range: tuple[int, int] = (4, 8),
    p: float = 0.5,
    weighted: bool = False,
) -> vp.Graph:
    """Erdos-Renyi style sampler, retried until connected."""
    rng = np.random.default_rng(seed)
    nn = n if n is not None else int(rng.integers(n_range[0], n_range[1] + 1))
    while True:
        iu, ju = np.triu_indices(nn, k=1)
        keep = rng.random(iu.size) < p
        if not keep.any():
            continue
        lines = []
        for i, j, k in zip(iu, ju, keep):
            if k:
                w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
                lines.append(f"{i} {j} {w!r}")
        try:
            g = vp.load_edge_list("\n".join(lines))
        except vp.Disconnected:
            continue
        if g.n == nn:  # highest-index node could have been isolated
            return g


def random_partition(rng: np.random.Generator, n: int) -> vp.Partition:
    k = int(rng.integers(1, n + 1))
    return vp.Partition.from_labels(rng.integers(0, k, size=n))


def set_partitions(n: int):
    """All set partitions of range(n) as label arrays, restricted-growth order.

    Test-side enumeration, independent of vp.exhaustive_partition.
    """
    labels = np.zeros(n, dtype=np.int64)

    def rec(i: int, c: int):
        if i == n:
            yield labels.copy()
            return
        for grp in range(c):
            labels[i] = grp
            yield from rec(i + 1, c)
        labels[i] = c
        yield from rec(i + 1, c + 1)

    yield from rec(0, 0)


def linearised_autocov(g: vp.Graph, t: float) -> np.ndarray:
    """Dense Pi [(1 - t) I + t M] - pi^T pi, assembled directly."""
    d = np.asarray(g.degrees, dtype=float)
    pi = d / (2.0 * g.total_weight)
    M = g.dense_adjacency() / d[:, None]
    inner = (1.0 - t) * np.eye(g.n) + t * M
    return pi[:, None] * inner - np.outer(pi, pi)


def pair_sum_objective(B: np.ndarray, p: vp.Partition) -> float:
    """Sum of B over within-group pairs, straight from the definition."""
    total = 0.0
    for members in p.groups():
        total += float(B[np.ix_(members, members)].sum())
    return total


def first_appearance_labels(labels) -> list[int]:
    """First-appearance relabelling as a plain loop, the reference for canonical_labels."""
    mapping: dict[int, int] = {}
    return [mapping.setdefault(int(lab), len(mapping)) for lab in labels]


class SameGroup(ValueError):
    """Source and target group of a move are identical."""


def move_gain(state: vp.VPState, i: int, beta: int) -> float:
    """Gain of moving vector i from its group alpha to group beta.

    Computed as <x_i, y_beta> - <x_i, y_alpha - x_i> under the signature
    inner product; twice this value is the exact change of the total signed
    squared group-sum length. ``beta == state.num_groups`` targets a fresh
    empty group. The reference the optimiser's move rule is tested against.
    """
    alpha = int(state.assignment[i])
    if beta == alpha:
        raise SameGroup(f"vector {i} is already in group {alpha}")
    x = state.vectors[i]
    sx = state.signature * x
    if beta == state.num_groups:
        y_beta_score = 0.0
    else:
        y_beta_score = float(sx @ state.group_sums[beta])
    return y_beta_score - float(sx @ (state.group_sums[alpha] - x))


def group_sums(vectors: np.ndarray, labels: np.ndarray, c: int | None = None) -> np.ndarray:
    """Per-group sums of ``vectors`` under 0-based ``labels``, over c groups,
    by default one more than the largest label."""
    sums = np.zeros((int(labels.max()) + 1 if c is None else c, vectors.shape[1]))
    np.add.at(sums, labels, vectors)
    return sums


def kmeans_objective(emb: vp.Embedding, p: vp.Partition) -> tuple[float, float]:
    """k-means distortion and the normalised score F it is equivalent to.

    Returns (distortion, F) where distortion is the within-group squared
    distance to the group centroids and F sums ||y_s||^2 / |g_s|. The two are
    linked by distortion = sum_i ||x_i||^2 - F. Meaningful for Euclidean
    (exponential-mode) embeddings only.
    """
    Y = group_sums(emb.vectors, p.assignment)
    sizes = p.group_sizes().astype(np.float64)
    F = float(((Y * Y).sum(axis=1) / sizes).sum())
    centroids = Y / sizes[:, None]
    diff = emb.vectors - centroids[p.assignment]
    distortion = float((diff * diff).sum())
    return distortion, F


def scaled_weight_graph(k: int) -> vp.Graph:
    """A 200-node planted-partition graph with weights uniform in 0.5-2,
    times 4**k: an exact power of two, so every derived quantity scales
    exactly and no partition should move."""
    g, _ = vp.planted_partition(4, 50, 0.2, 0.02, seed=1)
    weights = (np.random.default_rng(0).uniform(0.5, 2.0, g.num_edges) * 4.0**k).tolist()
    return vp.load_edge_list("".join(f"{i} {j} {w!r}\n" for (i, j), w in zip(g.edge_index.tolist(), weights)))


def signed_inner(emb: vp.Embedding, a: np.ndarray, b: np.ndarray) -> float:
    """Signature-weighted inner product sum_k sigma_k a_k b_k."""
    return float(np.dot(emb.signature * np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))


def vector_path_partition(emb: vp.Embedding, seed: int | None = None) -> tuple[vp.Partition, float]:
    """``partition_vectors`` with every level a ``VPState``.

    The reference for the Gram-space levels: it repeats the level loop of
    ``partition_vectors`` but never switches to the Gram path.
    """
    signature = emb.signature.astype(np.float64)
    vectors = np.asarray(emb.vectors, dtype=np.float64)
    tol, slack, drift_bound = vp.vp.tolerances(emb.mode, emb.total_weight)
    node_to_group = np.arange(emb.n)
    diag = vp.VPDiagnostics()
    for level in range(vp.vp.MAX_LEVELS):
        p = vectors.shape[0]
        order = np.arange(p, dtype=np.int64)
        if seed is not None:
            np.random.default_rng([seed, level]).shuffle(order)
        labels, _ = vp.vp._run_level(vp.VPState(vectors, signature), order, tol, diag, slack, drift_bound)
        node_to_group = labels[node_to_group]
        vectors = group_sums(vectors, labels)
        if vectors.shape[0] == p:
            partition = vp.Partition.from_labels(node_to_group)
            return partition, vp.stability(emb, partition)
    raise vp.LevelCapExceeded(f"still aggregating after {vp.vp.MAX_LEVELS} levels")


def vector_path_best_of_restarts(emb: vp.Embedding, restarts: int, seed: int = 0) -> tuple[vp.Partition, float]:
    """``best_of_restarts`` over ``vector_path_partition``."""
    best = vector_path_partition(emb)
    for k in range(1, restarts):
        candidate = vector_path_partition(emb, seed=seed + k)
        if candidate[1] > best[1]:
            best = candidate
    return best


def plain_sweep_partition(
    emb: vp.Embedding | vp.QualityMatrix, seed: int | None = None
) -> tuple[vp.Partition, float, vp.VPDiagnostics]:
    """``partition_vectors`` with every sweep the plain ``_sweep``.

    The reference for the screened sweeps: it repeats the level loop of
    ``partition_vectors`` and of ``_run_level``, with the same states, but
    visits every vector in every sweep.
    """
    tol, slack, drift_bound = vp.vp.tolerances(emb.mode, emb.total_weight)
    state = vp.vp._first_state(emb)
    node_to_group = np.arange(emb.n)
    diag = vp.VPDiagnostics()
    for level in range(vp.vp.MAX_LEVELS):
        p = state.num_groups
        order = np.arange(p, dtype=np.int64)
        if seed is not None:
            np.random.default_rng([seed, level]).shuffle(order)
        diag.start_level(state.path)
        while True:
            moved, visits = vp.vp._sweep(state, order, tol)
            state.revalidate(drift_bound)
            diag.record_sweep(moved, visits, state.objective(), slack)
            if moved == 0:
                break
        labels, state = state.compact()
        node_to_group = labels[node_to_group]
        if state.num_groups == p:
            partition = vp.Partition.from_labels(node_to_group)
            return partition, vp.vp._reported_objective(emb, partition), diag
    raise vp.LevelCapExceeded(f"still aggregating after {vp.vp.MAX_LEVELS} levels")


def plain_sweep_best_of_restarts(
    emb: vp.Embedding | vp.QualityMatrix, restarts: int, seed: int = 0
) -> tuple[vp.Partition, float, vp.VPDiagnostics]:
    """``best_of_restarts`` over ``plain_sweep_partition``."""
    best = plain_sweep_partition(emb)
    for k in range(1, restarts):
        candidate = plain_sweep_partition(emb, seed=seed + k)
        if candidate[1] > best[1]:
            best = candidate
    return best


def quality_gram(q: vp.QualityMatrix) -> np.ndarray:
    """The dense n x n quality matrix ``q`` stands for: (1 - t) Pi + t A / 2m
    - pi pi^T, or B_Q = A - d d^T / 2m, formed entry by entry from the dense
    adjacency, its rank-one term a sixteenth of the rows at a time. The
    oracle of the graph level, and the Gram of the full-dimension embedding
    up to roundoff."""
    g = q.graph
    d = np.asarray(g.degrees, dtype=np.float64)
    two_m = 2.0 * g.total_weight
    if q.mode == "modularity":
        u, scale = d, two_m  # G = A - d d^T / 2m
        G = g.dense_adjacency()
    else:
        u, scale = d / two_m, 1.0  # G = t A / 2m - pi pi^T + (1 - t) Pi
        G = g.dense_adjacency()
        G *= q.time / two_m
    step = max(1, g.n // 16)
    for start in range(0, g.n, step):
        outer = np.multiply.outer(u[start : start + step], u)
        outer /= scale
        G[start : start + step] -= outer
    if q.mode == "linearised":
        G.flat[:: g.n + 1] += (1.0 - q.time) * u
    return G


def dense_graph_level(state: vp.vp.GraphState) -> np.ndarray:
    """The dense quality matrix a ``GraphState`` level stands for, from its
    adjacency, self-loops and masses q: a A + diag(a loops + c q) -
    q q^T / sum(q)."""
    p = state.mass.size
    G = np.zeros((p, p))
    G[state.rows, state.indices] = state.scale * state.data
    root = state.mass / np.sqrt(state.mass_total)
    G -= np.multiply.outer(root, root)
    G[np.diag_indices(p)] += state.scale * state.loops + state.diagonal * state.mass
    return G


def dense_partition(q: vp.QualityMatrix, seed: int | None = None) -> tuple[vp.Partition, float, vp.VPDiagnostics]:
    """``partition_vectors(q, seed)`` with level 0 a ``GramState`` on the
    dense ``quality_gram(q)``, and so every level: the oracle of the graph
    levels."""
    return vp.partition_vectors(q, seed, _gram=quality_gram(q))


def group_nodes(members: list[np.ndarray], assignment: np.ndarray, group: int, skip: int = -1) -> np.ndarray:
    """The nodes of the level vectors in ``group``, less vector ``skip``;
    ``members[j]`` holds the nodes of level vector j."""
    rows = [j for j in np.flatnonzero(assignment == group) if j != skip]
    return np.concatenate([members[j] for j in rows]) if rows else np.array([], dtype=np.int64)


def next_level(state):
    """``state.compact()``, except that a vector-space level is followed by
    another one, as in the reference loop ``vector_path_partition``."""
    if isinstance(state, vp.VPState):
        labels, _ = vp.graph.canonical_labels(state.assignment)
        return labels, vp.VPState(group_sums(state.vectors, labels), state.signature)
    return state.compact()


def first_divergence(states: list, seed: int | None, tol: float, drift_bound: float):
    """Run the level loop of ``partition_vectors`` with plain sweeps on two
    level-0 states in lockstep, with the visiting orders of ``seed``, each
    sweep followed by ``revalidate``. Returns None when the two runs make the
    same moves throughout, else the first visit where the move rule picks
    different targets, as (level, the vector's nodes, the nodes of the rest
    of its group, and the nodes of each run's target, None for a run that
    stays)."""
    members = [np.array([i]) for i in range(states[0].num_groups)]
    for level in range(vp.vp.MAX_LEVELS):
        p = states[0].num_groups
        order = np.arange(p, dtype=np.int64)
        if seed is not None:
            np.random.default_rng([seed, level]).shuffle(order)
        moved = True
        while moved:
            moved = False
            for i in order.tolist():
                picks = [state.choose(i, tol) for state in states]
                if picks[0] != picks[1]:
                    assignment = states[0].assignment
                    targets = [None if beta < 0 else group_nodes(members, assignment, beta) for beta in picks]
                    rest = group_nodes(members, assignment, int(assignment[i]), skip=i)
                    return level, members[i], rest, targets
                if picks[0] >= 0:
                    moved = True
                    for state in states:
                        state.apply_move(i, picks[0])
            for state in states:
                state.revalidate(drift_bound)
        compacted = [next_level(state) for state in states]
        labels = compacted[0][0]
        states = [state for _, state in compacted]
        members = [group_nodes(members, labels, c) for c in range(labels.max() + 1)]
        if states[0].num_groups == p:
            return None
    raise vp.LevelCapExceeded(f"still aggregating after {vp.vp.MAX_LEVELS} levels")


def exact_gain(g: vp.Graph, mode: str, t: float | None, vector, rest, target) -> Fraction | None:
    """The gain of moving the nodes ``vector`` from the group whose other
    nodes are ``rest`` to the group ``target``, in exact rational arithmetic
    from the edge list and the degrees; None for a run that stays. For
    disjoint node sets S and T the quality matrix sums to t W(S, T) / 2m -
    pi(S) pi(T) in linearised mode and to W(S, T) - d(S) d(T) / 2m in
    modularity mode, with W the weight of the edges between S and T."""
    if target is None:
        return None
    two_m = Fraction(2.0 * g.total_weight)
    side = np.zeros(g.n, dtype=np.int64)
    side[vector], side[rest], side[target] = 1, 2, 3
    ends = side[g.edge_index]

    def weight(a: int, b: int) -> Fraction:
        mask = ((ends[:, 0] == a) & (ends[:, 1] == b)) | ((ends[:, 0] == b) & (ends[:, 1] == a))
        return sum((Fraction(w) for w in g.edge_weight[mask].tolist()), Fraction(0))

    def degree(nodes) -> Fraction:
        return sum((Fraction(d) for d in g.degrees[nodes].tolist()), Fraction(0))

    def quality(other: int, nodes) -> Fraction:
        W, dS, dT = weight(1, other), degree(vector), degree(nodes)
        if mode == "modularity":
            return W - dS * dT / two_m
        return Fraction(t) * W / two_m - (dS / two_m) * (dT / two_m)

    return quality(3, target) - quality(2, rest)


def divergent_ties(g: vp.Graph, mode: str, t: float | None, level0, restarts: int) -> list[tuple]:
    """Rerun each restart of ``best_of_restarts`` on the two level-0 states
    ``level0()`` returns, up to its first divergent visit. Returns one entry
    per restart that diverges: (its seed, the level, the exact gains of the
    two runs' targets); the divergence is an exact tie when they are equal
    and not None."""
    tol, _, drift_bound = vp.vp.tolerances(mode, g.total_weight)
    found = []
    for run_seed in [None, *range(1, restarts)]:
        divergence = first_divergence(level0(), run_seed, tol, drift_bound)
        if divergence is not None:
            level, vector, rest, targets = divergence
            found.append((run_seed or 0, level, [exact_gain(g, mode, t, vector, rest, target) for target in targets]))
    return found


def is_exact_tie(gains: list) -> bool:
    return gains[0] is not None and gains[0] == gains[1]
