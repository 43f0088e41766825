"""Max-sum vector partitioning: Louvain-style heuristic and exhaustive oracle.

The optimiser groups vectors to maximise the total signed squared length of
the per-group sum vectors. It alternates greedy single-vector moves (accepted
only on strictly positive gain, so the objective is monotone and the loop
terminates) with aggregation of groups into their sum vectors, exactly the
two-phase structure of the Louvain method with sum vectors as supernodes.
A level with no more vectors than their dimension plus one runs on the
signed Gram of its vectors instead, where every score is a sum of Gram
entries over a group. A ``QualityMatrix``, in place of a full-dimension
linearised or modularity embedding, runs on a sparse graph at every level,
as Louvain does: the graph, then the group graph of each level before.

In vector and graph space, every sweep of a level after its first visits
only the rows whose gains, bounded at the start of the sweep and raised
after each move, may exceed the tolerance.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import asdict, dataclass, field

import numpy as np

from ._pcg import visiting_order
from .errors import InvalidParameter, LevelCapExceeded, ObjectiveDecreased, StateDrift, TooLarge
from .graph import Partition, canonical_labels, csr_adjacency
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

    def choose(self, i: int, tol: float) -> int:
        """The move rule's target group for vector i, or -1 to stay."""
        alpha = self.assignment.item(i)
        scores, self_score = self.scores(i)
        return _choose_move(scores, alpha, self_score, self.group_sizes.item(alpha) > 1, tol)

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

    The screen of ``_screened_sweep``: moving x_r changes y_alpha and
    y_beta by x_r, so every score <x_i, S y_g> by at most |<x_i, S x_r>|, and
    every gain of vector i, a difference of two scores or minus one for a
    fresh or emptied group, by at most twice that. No group sum is longer
    than sum|x|, so r_i = (dim + 1) eps |x_i| sum|x| bounds the roundoff of
    a score of x_i. ``roundoff``, 8 r_i, bounds both how far a gain of
    ``gain_bounds`` and of a visit differ and the roundoff one move adds to
    a rise: of its product, of two group-sum updates and of the rise's sum.
    """

    path = "vector"
    __slots__ = ("vectors", "signature", "group_sums", "signed", "self_scores", "roundoff", "rises", "moves")

    def __init__(self, vectors: np.ndarray, signature: np.ndarray) -> None:
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.signature = signature
        self.group_sums = np.array(self.vectors, order="F")
        # The signed rows S x and self scores <x, S x>, which every score
        # reads; each self score is the product a visit would form, bit for bit.
        self.signed = self.vectors * signature
        self.self_scores = np.matmul(self.signed[:, None, :], self.vectors[:, :, None])[:, 0, 0]
        norms = np.linalg.norm(self.vectors, axis=1)
        self.roundoff = 8.0 * (self.vectors.shape[1] + 1) * np.finfo(np.float64).eps * norms * norms.sum()
        super().__init__(self.vectors.shape[0])

    def scores(self, i: int) -> tuple[np.ndarray, float]:
        """<x_i, S y_g> for every group g, and <x_i, S x_i>."""
        return self.group_sums @ self.signed[i], self.self_scores.item(i)

    def gain_bounds(self) -> np.ndarray:
        """Every vector's best gain, to another group or a fresh one, up to
        ``roundoff``: one product (S X) Y_live^T per chunk of rows, whose
        scores hold no more floats than the vectors. After ``revalidate``,
        an empty group's sum is zero, so it scores 0, as a fresh one does."""
        live = np.flatnonzero(self.group_sizes)
        own = np.searchsorted(live, self.assignment)
        sums = self.group_sums[live].T
        step = max(1, self.vectors.size // live.size)
        bounds = np.empty(own.size)
        for start in range(0, own.size, step):
            rows = slice(start, start + step)
            Z = self.signed[rows] @ sums
            at = (np.arange(Z.shape[0]), own[rows])
            base = Z[at] - self.self_scores[rows]
            Z[at] = -np.inf
            bounds[rows] = np.maximum(Z.max(axis=1), 0.0) - base
        return bounds

    def start_rises(self) -> tuple[list[float], np.ndarray]:
        """The weights w_i and zeroed rises of a screened sweep."""
        self.rises, self.moves = np.zeros(self.assignment.size), 0
        return self.roundoff.tolist(), self.rises

    def raise_rises(self, r: int, beta: int) -> float:
        """Raise every rise by 2 |<x_i, S x_r>| for moving x_r; returns the
        moves of the sweep so far, each adding one ``roundoff``."""
        step = self.signed @ (2.0 * self.vectors[r])
        self.rises += np.abs(step, out=step)
        self.moves += 1
        return float(self.moves)

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

    Its later sweeps are not screened. The screen of the other levels, on
    level 0 of a full-dimension exponential run at n = 1000 with 2
    restarts, cut the visits from 3010 to about 1130 but raised the
    optimiser's time from 0.071-0.075 s to 0.10-0.11 s: its bound is an
    O(p^2) pass, and such a level runs only about 3 sweeps.
    """

    path = "gram"
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


class GraphState(_LevelState):
    """A level of a ``QualityMatrix`` run, on a graph's sparse adjacency.

    The quality matrix is G = a A + diag(c q) - b q^T: in linearised mode at
    time t, a = t / 2m, c = 1 - t and b = q = pi; in modularity mode, in raw
    units, a = 1, c = 0, b = d / 2m and q = d. Node i scores group g at
    a W_ig - b_i Q_g, plus c q_i for its own group, where W_ig is the weight
    from i into g and Q_g the group's mass, its sum of q. A group with no
    edge to i scores -b_i Q_g < 0, below an empty group, so the move rule of
    ``_choose_move`` needs only the groups of i's neighbours, the
    lowest-index empty group, which wins every tie among the empty ones, and
    a fresh group. A visit reads one adjacency row, in O(deg i), in the
    interpreter, where its few entries cost less than numpy's calls would;
    so the state mirrors the assignment and keeps the group masses as lists,
    updated incrementally and recounted by ``revalidate``, and the empty
    groups in a sorted list. ``gain_bounds`` scores every node at once.

    ``GraphState(q)`` is level 0; ``compact`` aggregates a level, as Louvain
    does, into its group graph, H^T G H for the one-hot group matrix H, with
    each group's internal weight over both orientations as its self-loop, in
    ``loops``. A node's self-loop and its c q_i cancel from every gain, so
    only ``objective`` and ``compact`` read it; the adjacency holds no loop.

    The screen of ``_screened_sweep``: moving node r from alpha to beta
    raises the score of alpha for node i by b_i q_r, and if i is in beta, it
    lowers its base by as much. So the gains of i rise by at most b_i, its
    weight, times the most mass one group has lost in the sweep, plus the
    roundoff of each move's two mass updates, plus the most one has gained.
    The move also changes the weight of r's neighbours into alpha and beta
    by w_ri, which raises no gain of neighbour i by more than 2 a w_ri: its
    rise. ``roundoff`` bounds the roundoff of a gain.
    """

    path = "graph"
    __slots__ = (
        "edges", "weights", "loops", "bounds", "indices", "data", "rows", "scale", "diagonal", "coupling", "mass",
        "mass_total", "roundoff", "labels", "group_mass", "empties", "rises", "lost", "gained", "most_lost",
        "most_gained",
    )

    def __init__(self, q: QualityMatrix) -> None:
        g = q.graph
        two_m = 2.0 * g.total_weight
        d = np.asarray(g.degrees, dtype=np.float64)
        if q.mode == "modularity":
            self.scale, self.diagonal, mass, self.mass_total = 1.0, 0.0, d, two_m
        else:
            self.scale = q.time / two_m
            if not np.isfinite(self.scale):
                raise TooLarge(f"t / 2m is {self.scale} at t = {q.time}: the linearised quality matrix overflows")
            self.diagonal, mass, self.mass_total = 1.0 - q.time, d / two_m, 1.0
        self._start(g.edge_index, g.edge_weight, q.adjacency, d, np.zeros(g.n), mass)

    def _start(self, edges, weights, adjacency, degrees, loops, mass) -> None:
        """All-singletons on a graph: its edges, each listed once, adjacency, degrees, self-loops and masses."""
        self.edges, self.weights, self.loops, self.mass = edges, weights, loops, mass
        indptr, self.indices, self.data = adjacency
        degree = np.diff(indptr)
        self.bounds = indptr.tolist()
        self.rows = np.repeat(np.arange(mass.size), degree)
        self.coupling = mass / self.mass_total
        # Every term of a gain is at most |a| d_i + b_i sum(q) in magnitude.
        eps = np.finfo(np.float64).eps
        self.roundoff = 8.0 * eps * (degree + 4) * (abs(self.scale) * degrees + self.coupling * self.mass_total)
        self.labels, self.group_mass, self.empties = list(range(mass.size)), mass.tolist(), []
        super().__init__(mass.size)

    def choose(self, i: int, tol: float) -> int:
        """The move rule of ``_choose_move`` on node i's candidate groups."""
        lo, hi = self.bounds[i], self.bounds[i + 1]
        labels, mass = self.labels, self.group_mass
        weight: dict[int, float] = {}
        for j, w in zip(self.indices[lo:hi].tolist(), self.data[lo:hi].tolist()):
            g = labels[j]
            weight[g] = weight.get(g, 0.0) + w
        alpha = labels[i]
        alone = self.group_sizes.item(alpha) == 1
        a, b = self.scale, self.coupling.item(i)
        # The score of i's group less i's own score: a W_i,alpha - b_i (Q_alpha - q_i).
        base = a * weight.pop(alpha, 0.0) - b * (0.0 if alone else mass[alpha] - self.mass.item(i))
        beta, best = -1, -np.inf
        for g, w in weight.items():
            gain = a * w - b * mass[g] - base
            if gain > best or (gain == best and g < beta):  # ties resolve to the lowest group index
                beta, best = g, gain
        if self.empties:  # an empty group gains -base, as a fresh one would
            if -base > best or (-base == best and self.empties[0] < beta):
                beta, best = self.empties[0], -base
        elif not alone and -base > best:
            beta, best = self.num_groups, -base
        return beta if best > tol else -1

    def gain_bounds(self) -> np.ndarray:
        """Every node's best gain, each as its visit would compute it now:
        ``choose``'s arithmetic on the whole adjacency at once, in
        O(E log E), with the edges of each (node, group) pair summed in the
        same order, by ``bincount``."""
        groups = self.assignment[self.indices]
        order = np.argsort(self.rows * self.num_groups + groups, kind="stable")
        rows, groups = self.rows[order], groups[order]
        first = (np.diff(rows, prepend=-1) != 0) | (np.diff(groups, prepend=-1) != 0)
        weight = np.bincount(np.cumsum(first) - 1, weights=self.data[order])
        rows, groups = rows[first], groups[first]
        alpha = self.assignment
        own = groups == alpha[rows]
        own_weight = np.zeros(alpha.size)
        own_weight[rows[own]] = weight[own]
        mass = np.array(self.group_mass)
        rest = np.where(self.group_sizes[alpha] > 1, mass[alpha] - self.mass, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # as in ``choose``, whose floats overflow silently
            base = self.scale * own_weight - self.coupling * rest
            gains = self.scale * weight - self.coupling[rows] * mass[groups] - base[rows]
        gains[own] = -np.inf
        best = np.maximum.reduceat(gains, np.flatnonzero(np.diff(rows, prepend=-1)))
        return np.maximum(best, -base)

    def start_rises(self) -> tuple[list[float], np.ndarray]:
        """The weights b_i and zeroed rises of a screened sweep."""
        self.rises = np.zeros(self.assignment.size)
        self.lost, self.gained, self.most_lost, self.most_gained = {}, {}, 0.0, 0.0
        return self.coupling.tolist(), self.rises

    def raise_rises(self, r: int, beta: int) -> float:
        """Raise the rises of node r's neighbours for moving it to group
        beta; returns the most mass one group has lost in the sweep so far
        plus the most one has gained."""
        alpha, q = self.labels[r], self.mass.item(r)
        lost = self.lost[alpha] = self.lost.get(alpha, 0.0) + q
        gained = self.gained[beta] = self.gained.get(beta, 0.0) + q
        self.most_lost = max(self.most_lost, lost) + 4.0 * np.finfo(np.float64).eps * self.mass_total
        self.most_gained = max(self.most_gained, gained)
        lo, hi = self.bounds[r], self.bounds[r + 1]
        self.rises[self.indices[lo:hi]] += (2.0 * self.scale) * self.data[lo:hi]
        return self.most_lost + self.most_gained

    def apply_move(self, i: int, beta: int) -> None:
        alpha = self.labels[i]
        if beta == self.group_sizes.size:  # a fresh group
            self.group_sizes = np.append(self.group_sizes, 0)
            self.group_mass.append(0.0)
        elif self.group_sizes.item(beta) == 0:
            del self.empties[bisect_left(self.empties, beta)]
        q = self.mass.item(i)
        self.group_sizes[alpha] -= 1
        self.group_sizes[beta] += 1
        self.group_mass[beta] += q
        if self.group_sizes.item(alpha) == 0:
            self.group_mass[alpha] = 0.0
            insort(self.empties, alpha)
        else:
            self.group_mass[alpha] -= q
        self.labels[i] = beta
        self.assignment[i] = beta

    def revalidate(self, drift_bound: float) -> None:
        """Recount the group masses from the members and check their drift,
        and the assignment against its mirror. A mass is in units of the
        total mass, 2m or 1, where ``drift_bound`` is in units of its square
        root, as the group sums of ``VPState`` are."""
        if self.labels != self.assignment.tolist():
            raise StateDrift("assignment out of sync with its mirror")
        fresh = np.bincount(self.assignment, weights=self.mass, minlength=self.num_groups)
        drift = float(np.max(np.abs(fresh - self.group_mass)))
        bound = drift_bound * np.sqrt(self.mass_total)
        if drift > bound:
            raise StateDrift(f"group masses drifted by {drift} from their members, more than {bound}")
        super().revalidate(drift_bound)
        self.group_mass = fresh.tolist()
        self.empties = np.flatnonzero(self.group_sizes == 0).tolist()

    def objective(self) -> float:
        """Raw objective: a W_gg + c Q_g - Q_g^2 / sum(q) per group, totalled,
        with W_gg the group's internal weight over both orientations and its
        members' self-loops."""
        gi, gj = self.assignment[self.edges[:, 0]], self.assignment[self.edges[:, 1]]
        same = gi == gj
        within = 2.0 * np.bincount(gi[same], weights=self.weights[same], minlength=self.num_groups)
        within += np.bincount(self.assignment, weights=self.loops, minlength=self.num_groups)
        Q = np.array(self.group_mass)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, or NaN, and named downstream
            root = Q / np.sqrt(self.mass_total)  # Q^2 / sum(q), where Q^2 alone can underflow
            return float((self.scale * within + self.diagonal * Q - root * root).sum())

    def compact(self) -> tuple[np.ndarray, GraphState]:
        """Drop empty groups; returns the first-appearance labels and the group
        graph's state, the edges between two groups summed once under their
        (lower, higher) pair, so both adjacency entries hold the same bits."""
        labels, c = canonical_labels(self.assignment)
        gi, gj = labels[self.edges[:, 0]], labels[self.edges[:, 1]]
        same = gi == gj
        loops = np.bincount(labels, weights=self.loops, minlength=c)
        loops += 2.0 * np.bincount(gi[same], weights=self.weights[same], minlength=c)
        pairs, edge = np.unique(np.minimum(gi, gj)[~same] * c + np.maximum(gi, gj)[~same], return_inverse=True)
        edges = np.stack([pairs // c, pairs % c], axis=1)
        weights = np.bincount(edge, weights=self.weights[~same], minlength=pairs.size)
        degrees = np.bincount(edges.ravel(), weights=np.repeat(weights, 2), minlength=c)
        mass = np.bincount(labels, weights=self.mass, minlength=c)
        state = GraphState.__new__(GraphState)
        state.scale, state.diagonal, state.mass_total = self.scale, self.diagonal, self.mass_total
        state._start(edges, weights, csr_adjacency(c, edges, weights), degrees, loops, mass)
        return labels, state


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


def _gram_space(p: int, dim: int) -> bool:
    """Whether a level of p vectors of dimension dim runs in Gram space:
    then its p x p signed Gram holds at most p entries more than the p x dim
    group sums, and a visit costs O(p), not O(c dim) for c groups. Only p
    shrinks, so once a level runs there, so do all later ones."""
    return p <= dim + 1


def _level_state(vectors: np.ndarray, signature: np.ndarray) -> VPState | GramState:
    """The state a level over these vectors runs in, chosen by ``_gram_space``."""
    if _gram_space(*vectors.shape):
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


def _sweep(state: VPState | GramState | GraphState, order: np.ndarray, tol: float) -> tuple[int, int]:
    """One pass over all vectors, each moved by the move rule when its gain
    exceeds ``tol``, in raw objective units; returns the number of accepted
    moves and of visits."""
    moved = 0
    for i in order.tolist():
        beta = state.choose(i, tol)
        if beta >= 0:
            state.apply_move(i, beta)
            moved += 1
    return moved, order.size


def _screened_sweep(state: VPState | GraphState, order: np.ndarray, tol: float) -> tuple[int, int]:
    """``_sweep`` without the visits that cannot move; returns the number of
    accepted moves and of visits that ran the move rule.

    ``state.gain_bounds()`` gives every row's best gain at the start, and
    ``state.start_rises()`` weights w_i and zeroed rises. Each move raises
    row i's gains by at most w_i times the sweep-wide amount that
    ``state.raise_rises`` returns, plus the row's rise, which it raises; the
    states' docstrings derive both. A row, in its first group as no row is
    visited twice, is visited when its bound plus its rise exceeds ``tol``
    less half of tol and ``state.roundoff``. So no move of ``_sweep`` is
    skipped, and the moves made are its moves.
    """
    excess = (state.gain_bounds() - (tol / 2 - state.roundoff)).tolist()
    weights, rises = state.start_rises()
    shared, moved, visits = 0.0, 0, 0
    for i in order.tolist():
        if excess[i] + weights[i] * shared + rises.item(i) <= 0.0:
            continue
        visits += 1
        beta = state.choose(i, tol)
        if beta >= 0:
            moved += 1
            shared = state.raise_rises(i, beta)
            state.apply_move(i, beta)
    return moved, visits


def _run_level(
    state: VPState | GramState | GraphState,
    order: np.ndarray,
    tol: float,
    diag: VPDiagnostics,
    slack: float,
    drift_bound: float,
) -> tuple[np.ndarray, VPState | GramState | GraphState]:
    """Sweep one level to a fixed point; returns ``state.compact()``, or the
    identity labels and the state itself when no vector moved, which is
    what compacting it would give.

    The first sweep visits every vector; the later ones are screened
    outside Gram space. Every sweep is followed by the state's consistency
    check and by the objective check of ``diag.record_sweep``. Raises
    LevelCapExceeded when the MAX_SWEEPS-th sweep still moves a vector.
    """
    diag.start_level(state.path)
    later_sweep = _sweep if isinstance(state, GramState) else _screened_sweep
    for sweeps in range(MAX_SWEEPS):
        moved, visits = (later_sweep if sweeps else _sweep)(state, order, tol)
        state.revalidate(drift_bound)
        diag.record_sweep(moved, visits, state.objective(), slack)
        if moved == 0:
            return (np.arange(state.num_groups, dtype=np.int64), state) if sweeps == 0 else state.compact()
    raise LevelCapExceeded(
        f"level {diag.levels - 1} still moves vectors after the sweep cap of {MAX_SWEEPS} sweeps"
    )


def _first_state(emb: Embedding | QualityMatrix) -> VPState | GramState | GraphState:
    """Level 0 of ``partition_vectors(emb)``: a graph level on a quality
    matrix, else the state ``_level_state`` picks."""
    if isinstance(emb, QualityMatrix):
        return GraphState(emb)
    return _level_state(np.asarray(emb.vectors, dtype=np.float64), emb.signature.astype(np.float64))


def _shared_gram(emb: Embedding | QualityMatrix) -> np.ndarray | None:
    """The signed Gram that level 0 of ``partition_vectors(emb)`` runs on,
    read-only, or None when level 0 runs in vector or graph space. Runs on
    one embedding can share it through ``partition_vectors(emb, _gram=...)``;
    runs on one quality matrix share its ``adjacency``."""
    if isinstance(emb, QualityMatrix) or not _gram_space(*np.shape(emb.vectors)):
        return None
    gram = _first_state(emb).gram
    gram.setflags(write=False)
    return gram


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
    ``QualityMatrix``, every level runs on a graph (``GraphState``).
    Deterministic for a fixed seed. Given ``_gram``, level 0 runs in Gram
    space on it: ``_shared_gram(emb)``, formed once for many runs, which
    does not change the result, or, for a quality matrix, its dense n x n
    form, the oracle of the graph levels. Raises TooLarge when the reported
    objective is not finite.
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
