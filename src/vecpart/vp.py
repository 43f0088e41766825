"""Max-sum vector partitioning: Louvain-style heuristic and exhaustive oracle.

The optimiser groups vectors to maximise the total signed squared length of
the per-group sum vectors. It alternates greedy single-vector moves (accepted
only on strictly positive gain, so the objective is monotone and the loop
terminates) with aggregation of groups into their sum vectors, exactly the
two-phase structure of the Louvain method with sum vectors as supernodes.
A level with no more vectors than their dimension plus one runs on the
signed Gram of its vectors instead, where every score is a sum of Gram
entries over a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import LevelCapExceeded, ObjectiveDecreased, SameGroup, TooLarge
from .graph import Partition, canonical_labels
from .objective import stability
from .spectral import Embedding

SWEEP_ORDERS = ("natural", "shuffled")


@dataclass
class VPConfig:
    """Knobs of one optimisation run.

    ``sweep_order`` fixes the order vectors are visited in ("natural" index
    order, or "shuffled" with one permutation drawn per aggregation level
    from ``seed``). ``allow_detach`` additionally offers each vector a move
    into a fresh empty group, which can undo a poor merge after aggregation.
    A move is made only when its gain exceeds ``gain_tolerance``, which is in
    the units of the reported objective (modularity Q in modularity mode).
    """

    sweep_order: str = "natural"
    seed: int = 0
    allow_detach: bool = True
    gain_tolerance: float = 1e-12
    max_levels: int = 64

    def __post_init__(self) -> None:
        if self.sweep_order not in SWEEP_ORDERS:
            raise ValueError(f"sweep_order must be one of {SWEEP_ORDERS}, got {self.sweep_order!r}")
        if not self.gain_tolerance > 0:
            raise ValueError(f"gain_tolerance must be > 0, got {self.gain_tolerance}")
        if self.max_levels < 1:
            raise ValueError(f"max_levels must be >= 1, got {self.max_levels}")


@dataclass
class VPDiagnostics:
    """Per-run counters, the path each level ran on, and the objective after every sweep."""

    levels: int = 0
    sweeps_per_level: list[int] = field(default_factory=list)
    moves_per_level: list[int] = field(default_factory=list)
    paths_per_level: list[str] = field(default_factory=list)
    objective_trajectory: list[float] = field(default_factory=list)

    def start_level(self, path: str) -> None:
        self.levels += 1
        self.sweeps_per_level.append(0)
        self.moves_per_level.append(0)
        self.paths_per_level.append(path)

    def record_sweep(self, moved: int, objective: float, slack: float) -> None:
        """Count a sweep of the current level and append its raw objective.

        Raises ObjectiveDecreased when the objective fell by more than
        ``slack`` since the previous sweep, or is NaN.
        """
        previous = self.objective_trajectory[-1] if self.objective_trajectory else -np.inf
        if not objective >= previous - slack:
            raise ObjectiveDecreased(
                f"objective went from {previous!r} to {objective!r} "
                f"across a sweep at level {self.levels - 1}"
            )
        self.sweeps_per_level[-1] += 1
        self.moves_per_level[-1] += moved
        self.objective_trajectory.append(objective)

    def as_dict(self) -> dict:
        return {
            "levels": self.levels,
            "sweeps_per_level": list(self.sweeps_per_level),
            "moves_per_level": list(self.moves_per_level),
            "paths_per_level": list(self.paths_per_level),
            "objective_trajectory": list(self.objective_trajectory),
        }


class VPState:
    """Mutable state of one aggregation level of the optimiser, in vector space.

    ``assignment`` maps the level's input vectors to groups, and
    ``group_sums`` holds one sum vector per group (possibly empty mid-sweep;
    empties are pruned at aggregation).
    """

    __slots__ = ("vectors", "assignment", "group_sums", "group_sizes")

    def __init__(
        self,
        vectors: np.ndarray,
        assignment: np.ndarray,
        group_sums: np.ndarray,
        group_sizes: np.ndarray,
    ) -> None:
        self.vectors = vectors
        self.assignment = assignment
        self.group_sums = group_sums
        self.group_sizes = group_sizes

    @classmethod
    def singletons(cls, vectors: np.ndarray) -> VPState:
        vectors = np.asarray(vectors, dtype=np.float64)
        p = vectors.shape[0]
        return cls(
            vectors=vectors,
            assignment=np.arange(p, dtype=np.int64),
            group_sums=vectors.copy(),
            group_sizes=np.ones(p, dtype=np.int64),
        )

    @property
    def num_groups(self) -> int:
        return int(self.group_sums.shape[0])

    def apply_move(self, i: int, beta: int) -> None:
        """Move vector i to group beta; beta == num_groups opens a new group."""
        alpha = int(self.assignment[i])
        x = self.vectors[i]
        if beta == self.num_groups:
            self.group_sums = np.vstack([self.group_sums, np.zeros((1, x.size))])
            self.group_sizes = np.append(self.group_sizes, 0)
        self.group_sums[alpha] -= x
        self.group_sums[beta] += x
        self.group_sizes[alpha] -= 1
        self.group_sizes[beta] += 1
        self.assignment[i] = beta

    def revalidate(self, tol: float = 1e-9) -> None:
        """Recompute group sums from members and check incremental drift."""
        fresh = np.zeros_like(self.group_sums)
        np.add.at(fresh, self.assignment, self.vectors)
        drift = float(np.max(np.abs(fresh - self.group_sums))) if fresh.size else 0.0
        if drift > tol:
            raise RuntimeError(f"group sums drifted by {drift} from their members")
        _check_sizes(self.assignment, self.group_sizes)
        self.group_sums = fresh

    def compact(self) -> tuple[np.ndarray, np.ndarray]:
        """Drop empty groups; labels relabelled by first appearance.

        Returns (labels, sums): the compacted per-vector labels and the
        freshly recomputed sum vector of each surviving group.
        """
        labels, c = canonical_labels(self.assignment)
        sums = np.zeros((c, self.vectors.shape[1]))
        np.add.at(sums, labels, self.vectors)
        return labels, sums


class GramState:
    """Mutable state of one aggregation level of the optimiser, in Gram space.

    ``gram`` is the p x p signed Gram matrix <x_i, S x_j> of the level's
    input vectors. Every score is a sum of its entries over a group, so the
    state keeps only the assignment and the group sizes; nothing can drift.
    """

    __slots__ = ("gram", "assignment", "group_sizes")

    def __init__(self, gram: np.ndarray) -> None:
        p = gram.shape[0]
        self.gram = gram
        self.assignment = np.arange(p, dtype=np.int64)
        self.group_sizes = np.ones(p, dtype=np.int64)

    @property
    def num_groups(self) -> int:
        return int(self.group_sizes.size)

    def scores(self, i: int) -> np.ndarray:
        """<x_i, S y_g> for every group g: row i of the Gram summed per group."""
        return np.bincount(self.assignment, weights=self.gram[i], minlength=self.num_groups)

    def apply_move(self, i: int, beta: int) -> None:
        """Move vector i to group beta; beta == num_groups opens a new group."""
        if beta == self.num_groups:
            self.group_sizes = np.append(self.group_sizes, 0)
        self.group_sizes[self.assignment[i]] -= 1
        self.group_sizes[beta] += 1
        self.assignment[i] = beta

    def revalidate(self) -> None:
        _check_sizes(self.assignment, self.group_sizes)

    def objective(self) -> float:
        """Raw objective: every vector's inner product with its own group's sum, totalled."""
        same = self.assignment[:, None] == self.assignment[None, :]
        own = np.sum(self.gram, axis=1, where=same)
        return _raw_objective(np.ones_like(own), own)

    def compact(self) -> tuple[np.ndarray, np.ndarray]:
        """Drop empty groups; returns the first-appearance labels and the
        group Gram H^T G H, with H the p x c one-hot group matrix."""
        labels, c = canonical_labels(self.assignment)
        p = labels.size
        onehot = sparse.csr_array((np.ones(p), (labels, np.arange(p))), shape=(c, p))
        partial = onehot @ self.gram  # H^T G
        return labels, np.ascontiguousarray((onehot @ partial.T).T)


def _check_sizes(assignment: np.ndarray, group_sizes: np.ndarray) -> None:
    sizes = np.bincount(assignment, minlength=group_sizes.size)
    if not np.array_equal(sizes, group_sizes):
        raise RuntimeError("group sizes out of sync with assignment")


def move_gain(state: VPState, signature: np.ndarray, i: int, beta: int) -> float:
    """Gain of moving vector i from its group alpha to group beta.

    Computed as <x_i, y_beta> - <x_i, y_alpha - x_i> under the signature
    inner product; twice this value is the exact change of the total signed
    squared group-sum length. ``beta == state.num_groups`` targets a fresh
    empty group. The optimiser's sweeps do not call this: it is the
    reference the move rule in ``_choose_move`` is tested against.
    """
    alpha = int(state.assignment[i])
    if beta == alpha:
        raise SameGroup(f"vector {i} is already in group {alpha}")
    x = state.vectors[i]
    sx = signature * x
    if beta == state.num_groups:
        y_beta_score = 0.0
    else:
        y_beta_score = float(sx @ state.group_sums[beta])
    return y_beta_score - float(sx @ (state.group_sums[alpha] - x))


def _choose_move(
    scores: np.ndarray, alpha: int, self_score: float, can_detach: bool, tol: float
) -> int:
    """The move rule shared by both sweeps: the target group, or -1 to stay.

    ``scores[g]`` is <x_i, S y_g> for every group g, ``alpha`` is the
    vector's group and ``self_score`` is <x_i, S x_i>. The gain of a move to
    g is scores[g] - <x_i, S (y_alpha - x_i)>, and to a fresh group (index
    len(scores)) minus that base. The best gain wins, ties to the lowest
    group index, and a fresh group only when strictly better; a move is made
    only when its gain exceeds ``tol``.
    """
    base = float(scores[alpha]) - self_score  # <x_i, y_alpha - x_i>
    gains = scores - base
    gains[alpha] = -np.inf
    beta = int(np.argmax(gains))  # ties resolve to the lowest group index
    best = float(gains[beta])
    if can_detach and -base > best:
        beta = scores.size
        best = -base
    return beta if best > tol else -1


def _sweep(
    state: VPState, signature: np.ndarray, order: np.ndarray, allow_detach: bool, tol: float
) -> int:
    """One pass over all vectors; returns the number of accepted moves.

    A move is accepted when its gain exceeds ``tol``, in raw objective units.
    """
    moved = 0
    for i in order:
        alpha = int(state.assignment[i])
        x = state.vectors[i]
        sx = signature * x
        can_detach = allow_detach and state.group_sizes[alpha] > 1
        beta = _choose_move(state.group_sums @ sx, alpha, float(sx @ x), can_detach, tol)
        if beta >= 0:
            state.apply_move(int(i), beta)
            moved += 1
    return moved


def _gram_sweep(state: GramState, order: np.ndarray, allow_detach: bool, tol: float) -> int:
    """``_sweep`` with every score read from the Gram: O(p) per visit."""
    moved = 0
    for i in order:
        alpha = int(state.assignment[i])
        can_detach = allow_detach and state.group_sizes[alpha] > 1
        beta = _choose_move(state.scores(i), alpha, float(state.gram[i, i]), can_detach, tol)
        if beta >= 0:
            state.apply_move(int(i), beta)
            moved += 1
    return moved


def _raw_objective(sums: np.ndarray, signed_sums: np.ndarray) -> float:
    """Total signed squared length of the group sums, as sum(sums * signed_sums).

    A vector level passes the group sums Y and their signed images Y S. A
    Gram level has no coordinates for the sums; it passes, for every input
    vector, a 1 and the vector's inner product with its own group's sum,
    which total the same value.
    """
    return float((sums * signed_sums).sum())


def _vector_level(
    vectors: np.ndarray,
    signature: np.ndarray,
    order: np.ndarray,
    allow_detach: bool,
    tol: float,
    diag: VPDiagnostics,
    slack: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep one level to a fixed point in vector space.

    Returns the level's compacted labels and the group sum vectors, the
    next level's input.
    """
    diag.start_level("vector")
    state = VPState.singletons(vectors)
    while True:
        moved = _sweep(state, signature, order, allow_detach, tol)
        state.revalidate()
        diag.record_sweep(moved, _raw_objective(state.group_sums, state.group_sums * signature), slack)
        if moved == 0:
            return state.compact()


def _gram_level(
    gram: np.ndarray,
    order: np.ndarray,
    allow_detach: bool,
    tol: float,
    diag: VPDiagnostics,
    slack: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep one level to a fixed point in Gram space.

    Makes the moves ``_vector_level`` makes on vectors with this signed
    Gram, up to roundoff in the scores. Returns the level's compacted
    labels and the group Gram, the next level's input.
    """
    diag.start_level("gram")
    state = GramState(gram)
    while True:
        moved = _gram_sweep(state, order, allow_detach, tol)
        state.revalidate()
        diag.record_sweep(moved, state.objective(), slack)
        if moved == 0:
            return state.compact()


def partition_vectors(
    emb: Embedding, cfg: VPConfig | None = None
) -> tuple[Partition, float, VPDiagnostics]:
    """Optimise the max-sum vector partition of an embedding.

    Phase 1 starts from all-singletons and repeatedly sweeps the vectors,
    moving each to the group with the largest strictly positive gain, until
    a full sweep makes no move. Phase 2 replaces the inputs by the group sum
    vectors and repeats, unless every vector stayed in its own group, in
    which case the group trace is unwound to a node-level partition.

    A level with p input vectors of dimension dim runs in Gram space when
    p <= dim + 1: its p x p signed Gram then holds at most p entries more
    than the p x dim group sums it replaces, and each visit costs O(p)
    instead of O(c dim) for c groups. Once a level runs there, so do all
    later ones, on the aggregated Gram. Deterministic for a fixed config.
    """
    if cfg is None:
        cfg = VPConfig()
    if emb.n < 1:
        raise ValueError("embedding has no vectors")
    signature = emb.signature.astype(np.float64)
    vectors = np.asarray(emb.vectors, dtype=np.float64)
    gram: np.ndarray | None = None
    node_to_group = np.arange(emb.n, dtype=np.int64)
    diag = VPDiagnostics()
    # The raw objective is the reported one times 2m in modularity mode, and
    # its roundoff scales with it. Tolerances stay in reported units: in raw
    # units, two vectors can swap forever on roundoff gains, and one ulp of
    # drift can read as a decrease.
    unit = 2.0 * emb.total_weight if emb.mode == "modularity" else 1.0
    tol = cfg.gain_tolerance * unit
    slack = 1e-9 * unit
    for level in range(cfg.max_levels):
        if gram is None and vectors.shape[0] <= vectors.shape[1] + 1:
            gram = (vectors * signature) @ vectors.T
        p = vectors.shape[0] if gram is None else gram.shape[0]
        order = np.arange(p, dtype=np.int64)
        if cfg.sweep_order == "shuffled":
            np.random.default_rng([cfg.seed, level]).shuffle(order)
        if gram is None:
            labels, vectors = _vector_level(vectors, signature, order, cfg.allow_detach, tol, diag, slack)
            c = vectors.shape[0]
        else:
            labels, gram = _gram_level(gram, order, cfg.allow_detach, tol, diag, slack)
            c = gram.shape[0]
        node_to_group = labels[node_to_group]
        if c == p:
            partition = Partition.from_labels(node_to_group)
            return partition, stability(emb, partition), diag
    raise LevelCapExceeded(f"still aggregating after {cfg.max_levels} levels")


def exhaustive_partition(emb: Embedding) -> tuple[Partition, float]:
    """Globally maximise the signed group-sum objective by enumeration.

    Walks all set partitions (restricted-growth order) of up to 10 vectors,
    keeping per-group sums incrementally. Ties are broken toward fewer
    groups, then toward the lexicographically smallest canonical assignment,
    which the enumeration order yields for free.
    """
    n = emb.n
    if n > 10:
        raise TooLarge(f"{n} vectors exceeds the enumeration limit of 10")
    X = np.asarray(emb.vectors, dtype=np.float64)
    signature = emb.signature.astype(np.float64)
    sums = np.zeros((n, emb.dim))
    labels = np.zeros(n, dtype=np.int64)
    best_obj = -np.inf
    best_c = n + 1
    best_labels = labels.copy()

    def recurse(i: int, c: int) -> None:
        nonlocal best_obj, best_c, best_labels
        if i == n:
            block = sums[:c]
            obj = float((block * block * signature).sum())
            if obj > best_obj or (obj == best_obj and c < best_c):
                best_obj = obj
                best_c = c
                best_labels = labels[:].copy()
            return
        x = X[i]
        for grp in range(c):
            sums[grp] += x
            labels[i] = grp
            recurse(i + 1, c)
            sums[grp] -= x
        sums[c] = x
        labels[i] = c
        recurse(i + 1, c + 1)
        sums[c] = 0.0

    recurse(0, 0)
    value = best_obj
    if emb.mode == "modularity":
        value /= 2.0 * emb.total_weight
    return Partition.from_labels(best_labels), float(value)
