"""The screened sweeps against the plain sweep: the same moves, fewer visits."""

import numpy as np
import pytest

import vecpart as vp
from helpers import group_sums, plain_sweep_best_of_restarts, plain_sweep_partition

B = vp.vp.SCREEN_BLOCK


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


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=30, deadline=None, database=None)
@given(
    p=st.sampled_from([3, 40, B - 1, B, B + 1, 2 * B + 37]),
    dim=st.integers(1, 5),
    negatives=st.integers(0, 5),
    clusters=st.integers(1, 8),
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


# Targeted states. The background is 6 clusters of 50 copies of one axis
# vector each, on axes 2..7 of an 8-dimensional Euclidean space: every
# background vector loses by leaving its cluster, so only the rows placed
# after it can move.
DIM = 8
BACKGROUND = np.repeat(np.eye(DIM)[2:], 50, axis=0)
BACKGROUND_LABELS = np.repeat(np.arange(6), 50)


def vp_state(special: np.ndarray, special_labels: list[int], scale: float = 1.0) -> tuple[vp.VPState, int]:
    """A vector-space state over the background times ``scale`` plus ``special``
    rows; returns it and the first special row."""
    vectors = np.vstack([scale * BACKGROUND, special])
    labels = np.concatenate([BACKGROUND_LABELS, special_labels]).astype(np.int64)
    state = vp.VPState(vectors, np.ones(DIM))
    state.assignment = labels
    state.group_sizes = np.bincount(labels)
    state.group_sums = group_sums(vectors, labels)
    state.revalidate()
    return state, BACKGROUND.shape[0]


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


def near_tol_state(gain: float):
    """Row v = s (e0 + c e1) shares a group with s e0 / 2, and group B holds
    s e1 twice: v gains s^2 (2c - 1/2) by moving to B, and every other row
    loses while v stays. The scale s = 0.01 keeps the screen's roundoff
    bound far below the gain tolerance."""
    s, c = 0.01, 0.25 + gain / 2e-4
    special = np.zeros((4, DIM))
    special[0, 0] = 0.5 * s
    special[1, :2] = s, s * c
    special[2:, 1] = s
    return vp_state(special, [6, 6, 7, 7], scale=s)


# p >= 304 rows: position 120 falls in the first block of B rows, and
# B + 10 in a later one.
POSITIONS = pytest.mark.parametrize("position", [120, B + 10], ids=["first-block", "short-last-block"])


@POSITIONS
def test_gain_just_above_tol_is_visited_and_moves(position):
    state, first = near_tol_state(1.05e-12)
    v = first + 1
    # s e0 / 2 is visited first: it would follow v once v has moved.
    order = visit_order(state.assignment.size, {first: 0, v: position})
    swept, moved, visits = sweep_both(lambda: near_tol_state(1.05e-12)[0], order)
    assert moved == 1 and swept.assignment[v] == 7
    assert visits == 1


def test_gain_just_below_tol_does_not_move():
    state, _ = near_tol_state(0.95e-12)
    _, moved, _ = sweep_both(lambda: near_tol_state(0.95e-12)[0], np.arange(state.assignment.size))
    assert moved == 0


def detach_state(with_empty: bool):
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
    labels = [6, 6, 7, 7, 8]
    if not with_empty:
        special, labels = special[:4], labels[:4]
    return vp_state(special, labels)


@POSITIONS
@pytest.mark.parametrize("with_empty", [False, True], ids=["fresh", "emptied"])
def test_moves_into_a_fresh_or_emptied_group(position, with_empty):
    state, first = detach_state(with_empty)
    p, groups = state.assignment.size, state.num_groups
    a, d, e, r, z = range(first, first + 5)
    # r goes first, as it would join A once d has left, and a last, as it
    # would leave A while d is there. Each move ends its block, so d is
    # screened after z has emptied its group, which then counts only through
    # the move to a fresh or empty group, and e is screened after d's move.
    placed = {r: 0, d: position, e: position + 30, a: p - 1}
    if with_empty:
        placed[z] = 40
    swept, moved, visits = sweep_both(lambda: detach_state(with_empty)[0], visit_order(p, placed))
    target = 8 if with_empty else groups  # the group z left, which ties with a fresh one and has the lower index
    assert swept.assignment[d] == swept.assignment[e] == target
    if with_empty:
        assert swept.assignment[z] == 0  # into the e2 cluster
    assert moved == 2 + with_empty
    assert visits < p


def fresh_only_state():
    """Rows u = e0 - 0.01 (e2 + ... + e7) and w = -e0 / 10 share a group: u
    gains 1/10 by detaching, and loses 4/10 by joining any other group."""
    special = np.zeros((2, DIM))
    special[0, 0], special[0, 2:] = 1.0, -0.01
    special[1, 0] = -0.1
    return vp_state(special, [6, 6])


@POSITIONS
def test_move_only_to_a_fresh_group_is_visited(position):
    state, first = fresh_only_state()
    u, w = first, first + 1
    p, groups = state.assignment.size, state.num_groups
    # w goes last: visited before u, it would join a cluster and leave u alone.
    order = visit_order(p, {u: position, w: p - 1})
    swept, moved, visits = sweep_both(lambda: fresh_only_state()[0], order)
    assert moved == 1 and swept.assignment[u] == groups
    assert visits == 1
