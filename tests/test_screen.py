"""The screened sweeps against the plain sweep: the same moves, fewer visits."""

import numpy as np
import pytest

import vecpart as vp
from helpers import group_sums, plain_sweep_best_of_restarts, plain_sweep_partition


def assert_same_run(screened, plain):
    """Same partition, objective and trajectory; no more visits than the plain sweeps."""
    (p_s, v_s, d_s), (p_p, v_p, d_p) = screened, plain
    assert np.array_equal(p_s.assignment, p_p.assignment)
    assert v_s == v_p
    assert d_s.objective_trajectory == d_p.objective_trajectory
    assert d_s.sweeps_per_level == d_p.sweeps_per_level
    assert d_s.moves_per_level == d_p.moves_per_level
    assert d_s.paths_per_level == d_p.paths_per_level
    assert all(s <= p for s, p in zip(d_s.visits_per_level, d_p.visits_per_level))


def exercised_screen(diag) -> bool:
    """Whether a vector-space level had a sweep after its first."""
    return any(path == "vector" and sweeps > 1 for path, sweeps in zip(diag.paths_per_level, diag.sweeps_per_level))


@pytest.fixture(scope="module")
def scan_basis():
    g, _ = vp.planted_partition(10, 100, 0.1, 0.005, seed=0)
    return vp.decompose_transition(g, dim=14)


@pytest.mark.parametrize("mode, t_min, t_max", [("exponential", 0.1, 100.0), ("linearised", 0.01, 10.0)])
def test_scan_grid_matches_plain_sweeps(scan_basis, mode, t_min, t_max):
    screened_visits = plain_visits = 0
    for t in vp.geometric_grid(t_min, t_max, 10):
        emb = vp.build_embedding(scan_basis, mode, t=float(t), dim=14)
        for seed in (None, 1):
            screened = vp.partition_vectors(emb, seed)
            plain = plain_sweep_partition(emb, seed)
            assert_same_run(screened, plain)
            screened_visits += sum(screened[2].visits_per_level)
            plain_visits += sum(plain[2].visits_per_level)
    assert screened_visits < 0.8 * plain_visits


@pytest.mark.parametrize("mode", ["exponential", "modularity"])
def test_dim24_n2000_matches_plain_sweeps(mode):
    g, _ = vp.planted_partition(20, 100, 0.1, 0.004, seed=0)
    decompose = vp.decompose_modularity_matrix if mode == "modularity" else vp.decompose_transition
    emb = vp.build_embedding(decompose(g, dim=24), mode, t=None if mode == "modularity" else 5.0, dim=24)
    screened = vp.best_of_restarts(emb, 2)
    assert exercised_screen(screened[2])
    assert_same_run(screened, plain_sweep_best_of_restarts(emb, 2))


def best_gain(state: vp.VPState, i: int) -> float:
    """Vector i's best gain to another group or a fresh one, from the
    visit's own scores."""
    scores, self_score = state.scores(i)
    alpha = state.assignment[i]
    base = scores[alpha] - self_score
    gains = scores - base
    gains[alpha] = -np.inf
    return max(gains.max(), -base)


@pytest.mark.parametrize("negatives", [0, 1], ids=["euclidean", "signed"])
@pytest.mark.parametrize("data", ["integer", "normal"])
def test_gain_bounds_are_the_visits_best_gains(data, negatives):
    rng = np.random.default_rng(7)
    p, dim, groups = 301, 3, 60
    vectors = rng.normal(size=(p, dim))
    if data == "integer":  # every score and gain is exact
        vectors = np.round(4 * vectors)
    labels = rng.integers(0, groups, size=p)
    labels[labels == 7] = 8  # group 7 is empty
    labels[:4] = groups + np.arange(4)  # four vectors alone in their groups
    state = vp.VPState(vectors, np.where(np.arange(dim) < dim - negatives, 1.0, -1.0))
    state.assignment = labels
    state.group_sizes = np.bincount(labels)
    state.group_sums = group_sums(vectors, labels)
    state.revalidate(1e-9)
    live = np.count_nonzero(state.group_sizes)
    assert state.vectors.size // live < p // 4  # the bound is formed over several chunks of rows
    bounds = state.gain_bounds()
    expected = np.array([best_gain(state, i) for i in range(p)])
    if data == "integer":
        assert np.array_equal(bounds, expected)
    else:
        assert np.all(np.abs(bounds - expected) <= state.roundoff)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# Small dims and many clusters leave more live groups than dimensions after
# a level's first sweep, so gain_bounds works in chunks of fewer than p rows.
@settings(max_examples=30, deadline=None, database=None)
@given(
    p=st.sampled_from([3, 40, 150, 301]),
    dim=st.integers(1, 3),
    negatives=st.integers(0, 3),
    clusters=st.integers(1, 40),
    modularity=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.one_of(st.none(), st.integers(0, 2**16)),
)
def test_random_embeddings_match_plain_sweeps(p, dim, negatives, clusters, modularity, data_seed, seed):
    rng = np.random.default_rng(data_seed)
    signature = np.where(np.arange(dim) < dim - min(negatives, dim), 1, -1)
    centres = rng.normal(size=(clusters, dim))
    vectors = centres[rng.integers(0, clusters, size=p)] + 0.3 * rng.normal(size=(p, dim))
    # In modularity mode the tolerance is scaled by 2m.
    mode, weight = ("modularity", 50.0) if modularity else ("exponential", 1.0)
    emb = vp.Embedding(mode=mode, time=None if modularity else 1.0, dim=dim, vectors=vectors,
                       signature=signature, total_weight=weight)
    assert_same_run(vp.partition_vectors(emb, seed), plain_sweep_partition(emb, seed))


# Targeted states. The background is 11 clusters of 50 copies of one unit
# vector each, on axes 2..7 and on the diagonals of axes k and k + 1 of an
# 8-dimensional Euclidean space. No two of the unit vectors have a cosine
# above 0.98, so every background vector loses by leaving its cluster, and
# only the special rows can move. With 11 background groups and 2 or 3
# special ones, more than the 8 dimensions, ``gain_bounds`` works in two
# chunks of rows: special rows placed first are in the first chunk, and
# placed last, in the short last one.
DIM = 8
AXES = np.eye(DIM)[2:]
CLUSTERS = np.vstack([AXES, (AXES[:-1] + AXES[1:]) / np.sqrt(2)])
K = CLUSTERS.shape[0]
BACKGROUND = np.repeat(CLUSTERS, 50, axis=0)
BACKGROUND_LABELS = np.repeat(np.arange(K), 50)
PLACEMENTS = pytest.mark.parametrize("first", [True, False], ids=["first-chunk", "last-chunk"])


def vp_state(special: np.ndarray, special_labels: list[int], first: bool, scale: float = 1.0) -> tuple[vp.VPState, int]:
    """A vector-space state over the background times ``scale`` and the
    ``special`` rows, in groups K + ``special_labels``, placed before or
    after it; returns it and the first special row."""
    labels = [K + np.array(special_labels), BACKGROUND_LABELS]
    parts = [special, scale * BACKGROUND]
    if not first:
        labels.reverse()
        parts.reverse()
    vectors, labels = np.vstack(parts), np.concatenate(labels).astype(np.int64)
    state = vp.VPState(vectors, np.ones(DIM))
    state.assignment = labels
    state.group_sizes = np.bincount(labels)
    state.group_sums = group_sums(vectors, labels)
    state.revalidate(1e-9)
    assert vectors.size // np.count_nonzero(state.group_sizes) < vectors.shape[0]
    return state, 0 if first else BACKGROUND.shape[0]


def visit_order(p: int, placed: dict[int, int]) -> np.ndarray:
    """Index order with row ``r`` moved to position ``placed[r]``."""
    rest = iter(r for r in range(p) if r not in placed)
    at = {pos: r for r, pos in placed.items()}
    return np.array([at[pos] if pos in at else next(rest) for pos in range(p)], dtype=np.int64)


def sweep_both(make_state, order, tol=1e-12):
    """One plain and one screened sweep from equal states; they must agree.
    Returns the swept state, the moves and the screened sweep's visits."""
    plain, screened = make_state(), make_state()
    moved, _ = vp.vp._sweep(plain, order, tol)
    moved_screened, visits = vp.vp._screened_sweep(screened, order, tol)
    assert moved_screened == moved
    assert np.array_equal(screened.assignment, plain.assignment)
    assert np.array_equal(screened.group_sizes, plain.group_sizes)
    assert np.array_equal(screened.group_sums, plain.group_sums)
    return plain, moved, visits


def near_tol_state(gain: float, first: bool):
    """Row v = s (e0 + c e1) shares a group with s e0 / 2, and the next group
    holds s e1 twice: v gains s^2 (2c - 1/2) by moving there, and every
    other row loses while v stays. The scale s = 0.01 keeps the screen's
    roundoff bound far below the gain tolerance."""
    s, c = 0.01, 0.25 + gain / 2e-4
    special = np.zeros((4, DIM))
    special[0, 0] = 0.5 * s
    special[1, :2] = s, s * c
    special[2:, 1] = s
    return vp_state(special, [0, 0, 1, 1], first, scale=s)


@PLACEMENTS
def test_gain_just_above_tol_is_visited_and_moves(first):
    state, start = near_tol_state(1.05e-12, first)
    v = start + 1
    # s e0 / 2 is visited first: it would follow v once v has moved.
    order = visit_order(state.assignment.size, {start: 0, v: 120})
    swept, moved, visits = sweep_both(lambda: near_tol_state(1.05e-12, first)[0], order)
    assert moved == 1 and swept.assignment[v] == K + 1
    assert visits == 1


def test_gain_just_below_tol_does_not_move():
    state, _ = near_tol_state(0.95e-12, False)
    _, moved, _ = sweep_both(lambda: near_tol_state(0.95e-12, False)[0], np.arange(state.assignment.size))
    assert moved == 0


def detach_state(with_empty: bool, first: bool):
    """Rows a = e0 - e1 and d = -e0 - 0.01 (e2 + ... + e7) share group A, and
    d gains most by leaving it. Rows e = e1 - e0 and r = 2 e0 + 2.9 e1 share
    group E; e gains only by following d. With ``with_empty``, row z = e2
    sits alone and joins the e2 cluster, leaving its group empty for d."""
    special = np.zeros((5, DIM))
    special[0, :2] = 1.0, -1.0
    special[1, 0], special[1, 2:] = -1.0, -0.01
    special[2, :2] = -1.0, 1.0
    special[3, :2] = 2.0, 2.9
    special[4, 2] = 1.0
    labels = [0, 0, 1, 1, 2]
    if not with_empty:
        special, labels = special[:4], labels[:4]
    return vp_state(special, labels, first)


@PLACEMENTS
@pytest.mark.parametrize("with_empty", [False, True], ids=["fresh", "emptied"])
def test_moves_into_a_fresh_or_emptied_group(first, with_empty):
    state, start = detach_state(with_empty, first)
    p, groups = state.assignment.size, state.num_groups
    a, d, e, r, z = range(start, start + 5)
    # r goes first, as it would join A once d has left, and a last, as it
    # would leave A while d is there. d is screened after z has emptied its
    # group, which then counts only through the move to a fresh or emptied
    # group, and e can move only after d's move raised its bound.
    placed = {r: 0, d: 120, e: 150, a: p - 1}
    if with_empty:
        placed[z] = 40
    swept, moved, visits = sweep_both(lambda: detach_state(with_empty, first)[0], visit_order(p, placed))
    target = K + 2 if with_empty else groups  # the group z left, which ties with a fresh one and has the lower index
    assert swept.assignment[d] == swept.assignment[e] == target
    if with_empty:
        assert swept.assignment[z] == 0  # into the e2 cluster
    assert moved == 2 + with_empty
    assert visits < p


def fresh_only_state(first: bool):
    """Rows u = e0 - 0.01 (e2 + ... + e7) and w = -e0 / 10 share a group: u
    gains 1/10 by detaching, and loses 4/10 by joining any other group."""
    special = np.zeros((2, DIM))
    special[0, 0], special[0, 2:] = 1.0, -0.01
    special[1, 0] = -0.1
    return vp_state(special, [0, 0], first)


@PLACEMENTS
def test_move_only_to_a_fresh_group_is_visited(first):
    state, start = fresh_only_state(first)
    u, w = start, start + 1
    p, groups = state.assignment.size, state.num_groups
    # w goes last: visited before u, it would join a cluster and leave u alone.
    order = visit_order(p, {u: 120, w: p - 1})
    swept, moved, visits = sweep_both(lambda: fresh_only_state(first)[0], order)
    assert moved == 1 and swept.assignment[u] == groups
    # u, and w, whose bound u's move raised: w stays, as u's detached group
    # scores as a fresh one would.
    assert visits == 2
