"""Max-sum vector partitioning: Louvain-style heuristic and exhaustive oracle.

The optimiser groups vectors to maximise the total signed squared length of
the per-group sum vectors. It alternates greedy single-vector moves (accepted
only on strictly positive gain, so the objective is monotone and the loop
terminates) with aggregation of groups into their sum vectors, exactly the
two-phase structure of the Louvain method with sum vectors as supernodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LevelCapExceeded, ObjectiveDecreased, SameGroup, TooLarge
from .objective import Partition, stability
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
    """Per-run counters and the objective value recorded after every sweep."""

    levels: int = 0
    sweeps_per_level: list[int] = field(default_factory=list)
    moves_per_level: list[int] = field(default_factory=list)
    objective_trajectory: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "levels": self.levels,
            "sweeps_per_level": list(self.sweeps_per_level),
            "moves_per_level": list(self.moves_per_level),
            "objective_trajectory": list(self.objective_trajectory),
        }


class VPState:
    """Mutable state of one aggregation level of the optimiser.

    ``assignment`` maps the level's input vectors to groups, ``group_sums``
    holds one sum vector per group (possibly empty mid-sweep; empties are
    pruned at aggregation), and ``node_to_group`` traces the original nodes
    to their current group across levels.
    """

    __slots__ = ("vectors", "assignment", "group_sums", "group_sizes", "level", "node_to_group")

    def __init__(
        self,
        vectors: np.ndarray,
        assignment: np.ndarray,
        group_sums: np.ndarray,
        group_sizes: np.ndarray,
        level: int,
        node_to_group: np.ndarray,
    ) -> None:
        self.vectors = vectors
        self.assignment = assignment
        self.group_sums = group_sums
        self.group_sizes = group_sizes
        self.level = level
        self.node_to_group = node_to_group

    @classmethod
    def singletons(
        cls, vectors: np.ndarray, level: int = 0, node_to_group: np.ndarray | None = None
    ) -> VPState:
        vectors = np.asarray(vectors, dtype=np.float64)
        p = vectors.shape[0]
        if node_to_group is None:
            node_to_group = np.arange(p, dtype=np.int64)
        return cls(
            vectors=vectors,
            assignment=np.arange(p, dtype=np.int64),
            group_sums=vectors.copy(),
            group_sizes=np.ones(p, dtype=np.int64),
            level=level,
            node_to_group=node_to_group,
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
        sizes = np.bincount(self.assignment, minlength=self.num_groups)
        if not np.array_equal(sizes, self.group_sizes):
            raise RuntimeError("group sizes out of sync with assignment")
        self.group_sums = fresh

    def compact(self) -> tuple[np.ndarray, np.ndarray]:
        """Drop empty groups; labels relabelled by first appearance.

        Returns (labels, sums): the compacted per-vector labels and the
        freshly recomputed sum vector of each surviving group.
        """
        mapping: dict[int, int] = {}
        labels = np.empty(self.assignment.size, dtype=np.int64)
        for idx, grp in enumerate(self.assignment):
            labels[idx] = mapping.setdefault(int(grp), len(mapping))
        sums = np.zeros((len(mapping), self.vectors.shape[1]))
        np.add.at(sums, labels, self.vectors)
        return labels, sums


def move_gain(state: VPState, signature: np.ndarray, i: int, beta: int) -> float:
    """Gain of moving vector i from its group alpha to group beta.

    Computed as <x_i, y_beta> - <x_i, y_alpha - x_i> under the signature
    inner product; twice this value is the exact change of the total signed
    squared group-sum length. ``beta == state.num_groups`` targets a fresh
    empty group.
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
        q_i = float(sx @ x)
        scores = state.group_sums @ sx
        base = float(scores[alpha]) - q_i  # <x_i, y_alpha - x_i>
        gains = scores - base
        gains[alpha] = -np.inf
        beta = int(np.argmax(gains))  # ties resolve to the lowest group index
        best = float(gains[beta])
        if allow_detach and state.group_sizes[alpha] > 1 and -base > best:
            beta = state.num_groups
            best = -base
        if best > tol:
            state.apply_move(int(i), beta)
            moved += 1
    return moved


def _raw_objective(group_sums: np.ndarray, signature: np.ndarray) -> float:
    return float((group_sums * group_sums * signature).sum())


def partition_vectors(
    emb: Embedding, cfg: VPConfig | None = None
) -> tuple[Partition, float, VPDiagnostics]:
    """Optimise the max-sum vector partition of an embedding.

    Phase 1 starts from all-singletons and repeatedly sweeps the vectors,
    moving each to the group with the largest strictly positive gain, until
    a full sweep makes no move. Phase 2 replaces the inputs by the group sum
    vectors and repeats, unless every vector stayed in its own group, in
    which case the group trace is unwound to a node-level partition.
    Deterministic for a fixed config.
    """
    if cfg is None:
        cfg = VPConfig()
    if emb.n < 1:
        raise ValueError("embedding has no vectors")
    signature = emb.signature.astype(np.float64)
    vectors = np.asarray(emb.vectors, dtype=np.float64)
    node_to_group = np.arange(emb.n, dtype=np.int64)
    diag = VPDiagnostics()
    # The raw objective is the reported one times 2m in modularity mode, and
    # its roundoff scales with it. Tolerances stay in reported units: in raw
    # units, two vectors can swap forever on roundoff gains, and one ulp of
    # drift can read as a decrease.
    unit = 2.0 * emb.total_weight if emb.mode == "modularity" else 1.0
    tol = cfg.gain_tolerance * unit
    prev_obj = -np.inf
    for level in range(cfg.max_levels):
        p = vectors.shape[0]
        state = VPState.singletons(vectors, level=level, node_to_group=node_to_group)
        order = np.arange(p, dtype=np.int64)
        if cfg.sweep_order == "shuffled":
            np.random.default_rng([cfg.seed, level]).shuffle(order)
        sweeps = 0
        moves = 0
        while True:
            moved = _sweep(state, signature, order, cfg.allow_detach, tol)
            state.revalidate()
            sweeps += 1
            moves += moved
            obj = _raw_objective(state.group_sums, signature)
            if not obj >= prev_obj - 1e-9 * unit:  # also catches a NaN objective
                raise ObjectiveDecreased(
                    f"objective went from {prev_obj!r} to {obj!r} across a sweep at level {level}"
                )
            diag.objective_trajectory.append(obj)
            prev_obj = obj
            if moved == 0:
                break
        diag.sweeps_per_level.append(sweeps)
        diag.moves_per_level.append(moves)
        diag.levels = level + 1
        labels, sums = state.compact()
        node_to_group = labels[node_to_group]
        if sums.shape[0] == p:
            partition = Partition.from_labels(node_to_group)
            return partition, stability(emb, partition), diag
        vectors = sums
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
