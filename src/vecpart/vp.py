"""Max-sum vector partitioning: Louvain-style heuristic and exhaustive oracle.

The optimiser groups vectors to maximise the total signed squared length of
the per-group sum vectors. It alternates greedy single-vector moves (accepted
only on strictly positive gain, so the objective is monotone and the loop
terminates) with aggregation of groups into their sum vectors, exactly the
two-phase structure of the Louvain method with sum vectors as supernodes.
A level with no more vectors than their dimension plus one runs on the
signed Gram of its vectors instead, where every score is a sum of Gram
entries over a group. In vector space, every sweep of a level after its
first visits only the vectors that a vectorised screen finds may move.
A ``QualityMatrix`` enters at a Gram level on the graph's own matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ._pcg import visiting_order
from .errors import InvalidParameter, LevelCapExceeded, ObjectiveDecreased, StateDrift, TooLarge
from .graph import Partition, canonical_labels
from .objective import group_sums, linearised_stability, modularity_score, stability
from .spectral import Embedding, QualityMatrix

# A move is made only when its gain exceeds GAIN_TOLERANCE, in the units of
# the reported objective (modularity Q in modularity mode).
GAIN_TOLERANCE = 1e-12
# Safety cap on aggregation levels; each level strictly shrinks the vector count.
MAX_LEVELS = 64
# Safety cap on the sweeps of one level. Every move's computed gain exceeds
# the tolerance, yet in roundoff a vector can move back and forth for ever;
# no level of the bench runs more than 13 sweeps.
MAX_SWEEPS = 500
# A screened sweep scores the vectors in blocks of this many.
SCREEN_BLOCK = 256


@dataclass
class VPDiagnostics:
    """Per-run counters, the path each level ran on, and the objective after every sweep.

    ``visits_per_level`` counts the visits that ran the move rule; a
    screened sweep skips the others.
    """

    levels: int = 0
    sweeps_per_level: list[int] = field(default_factory=list)
    visits_per_level: list[int] = field(default_factory=list)
    moves_per_level: list[int] = field(default_factory=list)
    paths_per_level: list[str] = field(default_factory=list)
    objective_trajectory: list[float] = field(default_factory=list)

    def start_level(self, path: str) -> None:
        self.levels += 1
        self.sweeps_per_level.append(0)
        self.visits_per_level.append(0)
        self.moves_per_level.append(0)
        self.paths_per_level.append(path)

    def record_sweep(self, moved: int, visits: int, objective: float, slack: float) -> None:
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
        self.visits_per_level[-1] += visits
        self.moves_per_level[-1] += moved
        self.objective_trajectory.append(objective)

    def as_dict(self) -> dict:
        return asdict(self)


class _LevelState:
    """The bookkeeping both kinds of level share, from all-singletons.

    ``assignment`` maps the level's p input vectors to groups, and
    ``group_sizes`` counts each group's members; a group may be empty
    mid-sweep, and empties are pruned at aggregation.
    """

    __slots__ = ("assignment", "group_sizes")

    def __init__(self, p: int) -> None:
        self.assignment = np.arange(p, dtype=np.int64)
        self.group_sizes = np.ones(p, dtype=np.int64)

    @property
    def num_groups(self) -> int:
        return int(self.group_sizes.size)

    def apply_move(self, i: int, beta: int) -> None:
        """Move vector i to group beta; beta == num_groups opens a new group."""
        if beta == self.group_sizes.size:
            self.group_sizes = np.append(self.group_sizes, 0)
        self.group_sizes[self.assignment.item(i)] -= 1
        self.group_sizes[beta] += 1
        self.assignment[i] = beta

    def revalidate(self, drift_bound: float) -> None:
        """Check the group sizes against the assignment; a state that keeps
        group sums also checks that they drifted by at most ``drift_bound``."""
        sizes = np.bincount(self.assignment, minlength=self.group_sizes.size)
        if not np.array_equal(sizes, self.group_sizes):
            raise StateDrift("group sizes out of sync with assignment")


class VPState(_LevelState):
    """One aggregation level of the optimiser in vector space.

    ``group_sums`` holds one sum vector per group, updated incrementally.
    It is stored column-major, a copy of the input vectors: a visit's
    product ``group_sums @ S x_i`` then runs BLAS's column kernel.
    """

    path = "vector"
    screened = True
    __slots__ = ("vectors", "signature", "group_sums", "signed", "self_scores", "roundoff")

    def __init__(self, vectors: np.ndarray, signature: np.ndarray) -> None:
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.signature = signature
        self.group_sums = np.array(self.vectors, order="F")
        # The signed rows S x and self scores <x, S x>, which every score
        # reads, and the per-row roundoff bound of screened sweeps. Each self
        # score is the product a visit would form, bit for bit. No group sum
        # is longer than sum|x|, so (dim + 1) eps |x| sum|x| bounds the
        # roundoff of every score <x, S y>.
        self.signed = self.vectors * signature
        self.self_scores = np.matmul(self.signed[:, None, :], self.vectors[:, :, None])[:, 0, 0]
        norms = np.linalg.norm(self.vectors, axis=1)
        self.roundoff = (self.vectors.shape[1] + 1) * np.finfo(np.float64).eps * norms * norms.sum()
        super().__init__(self.vectors.shape[0])

    def scores(self, i: int) -> tuple[np.ndarray, float]:
        """<x_i, S y_g> for every group g, and <x_i, S x_i>."""
        return self.group_sums @ self.signed[i], self.self_scores.item(i)

    def block_scores(self, rows: np.ndarray, live: np.ndarray) -> np.ndarray:
        """<x_r, S y_g> for the vectors ``rows`` against the groups ``live``."""
        return self.signed[rows] @ self.group_sums[live].T

    def apply_move(self, i: int, beta: int) -> None:
        x = self.vectors[i]
        alpha = self.assignment.item(i)
        if beta == self.group_sizes.size:  # a fresh group
            self.group_sizes = np.append(self.group_sizes, 0)
            grown = np.zeros((beta + 1, x.size), order="F")
            grown[:beta] = self.group_sums
            self.group_sums = grown
        self.group_sums[alpha] -= x
        self.group_sums[beta] += x
        self.group_sizes[alpha] -= 1
        self.group_sizes[beta] += 1
        self.assignment[i] = beta

    def revalidate(self, drift_bound: float) -> None:
        """Recompute group sums from members and check incremental drift."""
        fresh = group_sums(self.vectors, self.assignment, self.num_groups)
        drift = float(np.max(np.abs(fresh - self.group_sums))) if fresh.size else 0.0
        if drift > drift_bound:
            raise StateDrift(f"group sums drifted by {drift} from their members, more than {drift_bound}")
        super().revalidate(drift_bound)
        self.group_sums = np.asfortranarray(fresh)

    def objective(self) -> float:
        """Raw objective: the total signed squared length of the group sums,
        summed over a row-major copy, in the order of ``stability``."""
        Y = np.ascontiguousarray(self.group_sums)
        return float((Y * (Y * self.signature)).sum())

    def compact(self) -> tuple[np.ndarray, VPState | GramState]:
        """Drop empty groups; returns the first-appearance labels and the
        next level's state over the recomputed group sum vectors."""
        labels, c = canonical_labels(self.assignment)
        return labels, _level_state(group_sums(self.vectors, labels, c), self.signature)


class GramState(_LevelState):
    """One aggregation level of the optimiser in Gram space.

    ``gram`` is the p x p signed Gram matrix <x_i, S x_j> of the level's
    input vectors. Every score is a sum of its entries over a group, so the
    state keeps only the assignment and the group sizes; nothing can drift.

    Its later sweeps are not screened: scoring a block of rows here costs
    O(p) per row, as much as visiting it does.
    """

    path = "gram"
    screened = False
    __slots__ = ("gram",)

    def __init__(self, gram: np.ndarray) -> None:
        self.gram = gram
        super().__init__(gram.shape[0])

    def scores(self, i: int) -> tuple[np.ndarray, float]:
        """Row i of the Gram summed per group, and <x_i, S x_i>."""
        row = self.gram[i]
        return np.bincount(self.assignment, weights=row, minlength=self.num_groups), float(row[i])

    def objective(self) -> float:
        """Raw objective: every vector's inner product with its own group's sum, totalled."""
        same = self.assignment[:, None] == self.assignment[None, :]
        return float(np.sum(self.gram, axis=1, where=same).sum())

    def compact(self) -> tuple[np.ndarray, GramState]:
        """Drop empty groups; returns the first-appearance labels and the
        next level's state over the group Gram H^T G H, with H the p x c
        one-hot group matrix: ``group_sums`` of G's rows, then of the columns
        of H^T G, with the bits of a sparse one-hot product.
        """
        labels, c = canonical_labels(self.assignment)
        partial = group_sums(self.gram, labels, c)  # H^T G
        return labels, GramState(np.ascontiguousarray(group_sums(partial.T, labels, c).T))


def tolerances(mode: str, total_weight: float) -> tuple[float, float, float]:
    """The gain a move must exceed and the fall of the objective a sweep may
    show, both in raw objective units, and the drift the group sums may show,
    for a run in ``mode`` on a graph of total weight m.

    The raw objective is the reported one times 2m in modularity mode, and
    its roundoff scales with it. Tolerances stay in reported units: in raw
    units, two vectors can swap forever on roundoff gains, and one ulp of
    drift can read as a decrease. The group sums are in the square root of
    raw units, and so is their drift bound.
    """
    unit = 2.0 * total_weight if mode == "modularity" else 1.0
    return GAIN_TOLERANCE * unit, 1e-9 * unit, 1e-9 * np.sqrt(unit)


def _level_state(vectors: np.ndarray, signature: np.ndarray) -> VPState | GramState:
    """The state a level over these vectors runs in, chosen by shape alone.

    With p vectors of dimension dim, a level runs in Gram space when
    p <= dim + 1: its p x p signed Gram then holds at most p entries more
    than the p x dim group sums it replaces, and each visit costs O(p)
    instead of O(c dim) for c groups. Aggregation only shrinks p, so once a
    level runs there, so do all later ones.
    """
    if vectors.shape[0] <= vectors.shape[1] + 1:
        return GramState((vectors * signature) @ vectors.T)
    return VPState(vectors, signature)


def _choose_move(
    scores: np.ndarray, alpha: int, self_score: float, can_detach: bool, tol: float
) -> int:
    """The move rule: the target group, or -1 to stay.

    ``scores[g]`` is <x_i, S y_g> for every group g, ``alpha`` is the
    vector's group and ``self_score`` is <x_i, S x_i>. The gain of a move to
    g is scores[g] - <x_i, S (y_alpha - x_i)>, and to a fresh group (index
    len(scores)) minus that base. The best gain wins, ties to the lowest
    group index, and a fresh group only when strictly better; a move is made
    only when its gain exceeds ``tol``.
    """
    base = scores.item(alpha) - self_score  # <x_i, y_alpha - x_i>
    gains = scores - base
    gains[alpha] = -np.inf
    beta = int(gains.argmax())  # ties resolve to the lowest group index
    best = gains.item(beta)
    if can_detach and -base > best:
        beta = scores.size
        best = -base
    return beta if best > tol else -1


def _visit(state: VPState | GramState, i: int, tol: float) -> int:
    """Visit vector i: make the move rule's move, if any; returns its target
    group, or -1 when the vector stays. It may detach into a fresh group
    unless it is alone."""
    alpha = state.assignment.item(i)
    scores, self_score = state.scores(i)
    beta = _choose_move(scores, alpha, self_score, state.group_sizes.item(alpha) > 1, tol)
    if beta >= 0:
        state.apply_move(i, beta)
    return beta


def _sweep(state: VPState | GramState, order: np.ndarray, tol: float) -> tuple[int, int]:
    """One pass over all vectors; returns the number of accepted moves and of visits.

    A move is accepted when its gain exceeds ``tol``, in raw objective units.
    """
    moved = sum(_visit(state, i, tol) >= 0 for i in order.tolist())
    return moved, order.size


def _screened_sweep(state: VPState, order: np.ndarray, tol: float) -> tuple[int, int]:
    """``_sweep`` without the visits that cannot move; returns the number of
    accepted moves and of visits that ran the move rule.

    Walks ``order`` in blocks of up to SCREEN_BLOCK vectors. One vectorised
    step estimates every row's best gain from ``state.block_scores``, and
    only the rows whose estimate exceeds ``tol`` less a margin, which
    exceeds the roundoff, are visited, in order. A block ends at its first
    move, so every estimate is made on the state its row is visited in, and
    the moves are those of ``_sweep``.
    """
    moved = visits = start = 0
    while start < order.size:
        rows = order[start : start + SCREEN_BLOCK]
        start += rows.size
        live = np.flatnonzero(state.group_sizes)
        groups = state.assignment[rows]
        Z = state.block_scores(rows, live)
        own = (np.arange(rows.size), np.searchsorted(live, groups))
        base = Z[own] - state.self_scores[rows]
        Z[own] = -np.inf
        # A move to a fresh or empty group gains -base: 0 up to roundoff when alone.
        free = state.group_sizes[groups] > 1
        best = np.maximum(Z.max(axis=1), np.where(free, 0.0, -np.inf))
        # The margin below tol: half of tol, plus the roundoff of the three
        # scores in a gain, both here and in the move rule's fresh scores.
        threshold = tol / 2 - 8.0 * state.roundoff[rows]
        for h in np.flatnonzero(best - base > threshold):
            visits += 1
            if _visit(state, int(rows[h]), tol) >= 0:
                moved += 1
                start -= rows.size - h - 1
                break
    return moved, visits


def _run_level(
    state: VPState | GramState, order: np.ndarray, tol: float, diag: VPDiagnostics, slack: float, drift_bound: float
) -> tuple[np.ndarray, VPState | GramState]:
    """Sweep one level to a fixed point; returns ``state.compact()``, or the
    identity labels and the state itself when no vector moved, which is
    what compacting it would give.

    The first sweep visits every vector; the later ones are screened when
    ``state.screened``. Every sweep is followed by the state's consistency
    check and by the objective check of ``diag.record_sweep``. Raises
    LevelCapExceeded when the MAX_SWEEPS-th sweep still moves a vector.
    """
    diag.start_level(state.path)
    later_sweep = _screened_sweep if state.screened else _sweep
    for sweeps in range(MAX_SWEEPS):
        moved, visits = (later_sweep if sweeps else _sweep)(state, order, tol)
        state.revalidate(drift_bound)
        diag.record_sweep(moved, visits, state.objective(), slack)
        if moved == 0:
            return (np.arange(state.num_groups, dtype=np.int64), state) if sweeps == 0 else state.compact()
    raise LevelCapExceeded(
        f"level {diag.levels - 1} still moves vectors after the sweep cap of {MAX_SWEEPS} sweeps"
    )


def _first_state(emb: Embedding | QualityMatrix) -> VPState | GramState:
    """Level 0 of ``partition_vectors(emb)``: a Gram level on a quality
    matrix's ``gram()``, else the state ``_level_state`` picks."""
    if isinstance(emb, QualityMatrix):
        return GramState(emb.gram())
    return _level_state(np.asarray(emb.vectors, dtype=np.float64), emb.signature.astype(np.float64))


def _shared_gram(emb: Embedding | QualityMatrix) -> np.ndarray | None:
    """The signed Gram that level 0 of ``partition_vectors(emb)`` runs on,
    read-only, or None when level 0 runs in vector space. Runs on one
    embedding can share it through ``partition_vectors(emb, _gram=...)``."""
    state = _first_state(emb)
    if not isinstance(state, GramState):
        return None
    state.gram.setflags(write=False)
    return state.gram


def _reported_objective(emb: Embedding | QualityMatrix, partition: Partition) -> float:
    """``stability`` over an embedding; over a quality matrix, its oracle
    straight from the graph, which equals the stability of the embedding it
    stands in for."""
    if isinstance(emb, Embedding):
        return stability(emb, partition)
    if emb.mode == "modularity":
        return modularity_score(emb.graph, partition)
    return linearised_stability(emb.graph, partition, emb.time)


def partition_vectors(
    emb: Embedding | QualityMatrix, seed: int | None = None, *, _gram: np.ndarray | None = None
) -> tuple[Partition, float, VPDiagnostics]:
    """Optimise the max-sum vector partition of an embedding.

    Phase 1 starts from all-singletons and repeatedly sweeps the vectors,
    moving each to the group with the largest strictly positive gain, until
    a full sweep makes no move. Phase 2 replaces the inputs by the group sum
    vectors and repeats, unless every vector stayed in its own group, in
    which case the group trace is unwound to a node-level partition.

    Vectors are visited in index order when ``seed`` is None, and otherwise
    in one permutation per level, ``visiting_order(seed, level, p)``: bit
    for bit ``np.random.default_rng([seed, level]).permutation(p)``, from
    the package's own PCG64, so a run never loads ``numpy.random``. A
    negative seed raises InvalidParameter.
    Each level runs in the state ``_level_state`` picks by shape; given a
    ``QualityMatrix``, every level runs in Gram space, from the graph's own
    matrix. Deterministic for a fixed seed. ``_gram`` is
    ``_shared_gram(emb)``, formed once for many runs; it does not change the
    result. Raises TooLarge when the reported objective is not finite.
    """
    if emb.n < 1:
        raise InvalidParameter("embedding has no vectors")
    state = _first_state(emb) if _gram is None else GramState(_gram)
    node_to_group = np.arange(emb.n, dtype=np.int64)
    diag = VPDiagnostics()
    tol, slack, drift_bound = tolerances(emb.mode, emb.total_weight)
    for level in range(MAX_LEVELS):
        p = state.num_groups
        order = np.arange(p, dtype=np.int64) if seed is None else visiting_order(seed, level, p)
        labels, state = _run_level(state, order, tol, diag, slack, drift_bound)
        node_to_group = labels[node_to_group]
        if state.num_groups == p:  # every vector stayed in its own group
            partition = Partition.from_labels(node_to_group)
            with np.errstate(over="ignore", invalid="ignore"):
                objective = _reported_objective(emb, partition)
            if not np.isfinite(objective):
                at = "" if emb.time is None else f" at t = {emb.time}"
                raise TooLarge(f"the {emb.mode} objective{at} is {objective}: it overflows")
            return partition, objective, diag
    raise LevelCapExceeded(f"still aggregating after {MAX_LEVELS} levels")


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
