"""Property tests: serialisation round trip, monotone trajectories, oracle
bound, and the graph levels against their dense oracle."""

import numpy as np
import pytest

import vecpart as vp
from helpers import exact_gain, first_divergence, is_exact_tie, plain_sweep_partition, quality_gram

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, database=None)


@st.composite
def edge_lists(draw):
    """Text of a connected weighted graph: a random tree plus extra edges, in random order."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    edges |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])))
    weight = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
    lines = [f"{j} {i} {draw(weight)!r}" if draw(st.booleans()) else f"{i} {j} {draw(weight)!r}" for i, j in edges]
    return "\n".join(draw(st.permutations(lines)))


@PROPERTY
@given(edge_lists())
def test_edge_list_text_round_trips(text):
    g = vp.load_edge_list(text)
    text_out = g.to_edge_list_text()
    again = vp.load_edge_list(text_out)
    assert again.to_edge_list_text() == text_out
    assert again.n == g.n
    assert np.array_equal(again.edge_index, g.edge_index)
    assert np.array_equal(again.edge_weight, g.edge_weight)
    assert np.array_equal(again.degrees, g.degrees)


@pytest.fixture(scope="module")
def planted_embeddings():
    # dim 3 starts in vector space and ends in Gram space; full dim is Gram throughout.
    g, _ = vp.planted_partition(4, 10, 0.6, 0.05, seed=0)
    basis = vp.decompose_transition(g)
    return [vp.build_embedding(basis, mode, t=t, dim=dim)
            for mode, t in (("exponential", 3.0), ("linearised", 1.0)) for dim in (3, None)]


@PROPERTY
@given(seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)), which=st.integers(0, 3))
def test_objective_trajectory_monotone_for_any_seed(planted_embeddings, seed, which):
    _, _, diag = vp.partition_vectors(planted_embeddings[which], seed)
    traj = diag.objective_trajectory
    assert len(traj) == sum(diag.sweeps_per_level)
    assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))


@PROPERTY
@given(
    p=st.integers(2, 8),
    extra_dims=st.integers(-6, 2),
    negatives=st.integers(0, 8),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**16),
)
def test_best_of_restarts_never_beats_the_exhaustive_optimum(p, extra_dims, negatives, data_seed, seed):
    dim = max(1, p - 1 + extra_dims)
    signature = np.where(np.arange(dim) < dim - min(negatives, dim), 1, -1)
    vectors = np.random.default_rng(data_seed).normal(size=(p, dim))
    emb = vp.Embedding(mode="exponential", time=1.0, dim=dim, vectors=vectors, signature=signature, total_weight=1.0)
    _, opt_value = vp.exhaustive_partition(emb)
    _, best_value, diag = vp.best_of_restarts(emb, 3, seed)
    assert best_value <= opt_value + 1e-9
    assert diag.paths_per_level[0] == ("gram" if p <= dim + 1 else "vector")


def random_weighted_graph(data_seed: int, n: int, density: float, weights: str) -> vp.Graph:
    """A random tree on n nodes plus each other pair with probability
    ``density``; unit weights, integer weights 1-4 (both leave exact gain
    ties) or floats log-uniform over 1e-3 to 1e3."""
    rng = np.random.default_rng(data_seed)
    edges = {(int(rng.integers(i)), i) for i in range(1, n)}
    iu, ju = np.triu_indices(n, k=1)
    edges |= {(int(i), int(j)) for i, j in zip(iu, ju) if rng.random() < density}
    if weights == "unit":
        w = np.ones(len(edges))
    elif weights == "integer":
        w = rng.integers(1, 5, size=len(edges)).astype(float)
    else:
        w = 10.0 ** rng.uniform(-3, 3, size=len(edges))
    return vp.load_edge_list("".join(f"{i} {j} {x!r}\n" for (i, j), x in zip(sorted(edges), w.tolist())))


@settings(max_examples=60, deadline=None, database=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    density=st.floats(0.05, 0.6),
    weights=st.sampled_from(["unit", "integer", "float"]),
    case=st.sampled_from([("linearised", 0.3), ("linearised", 1.0), ("linearised", 3.0), ("modularity", None)]),
    seed=st.one_of(st.none(), st.integers(0, 2**16)),
)
def test_the_graph_level_matches_its_dense_oracle_up_to_exact_ties(data_seed, n, density, weights, case, seed):
    mode, t = case
    g = random_weighted_graph(data_seed, n, density, weights)
    q = vp.QualityMatrix(g, mode, t)
    tol, slack, drift_bound = vp.vp.tolerances(mode, g.total_weight)
    partition, objective, diag = vp.partition_vectors(q, seed)
    traj = diag.objective_trajectory
    assert all(b >= a - slack for a, b in zip(traj, traj[1:]))
    plain = plain_sweep_partition(q, seed)  # the screen skips no move
    assert np.array_equal(partition.assignment, plain[0].assignment) and traj == plain[2].objective_trajectory
    dense_state = vp.vp.GramState(quality_gram(q))
    dense = vp.partition_vectors(q, seed, _gram=dense_state.gram)
    # The two runs in lockstep through every level, group graphs against group Grams.
    divergence = first_divergence([vp.vp.GraphState(q), dense_state], seed, tol, drift_bound)
    if divergence is None:
        assert np.array_equal(partition.assignment, dense[0].assignment) and objective == dense[1]
        return
    _, vector, rest, targets = divergence
    assert is_exact_tie([exact_gain(g, mode, t, vector, rest, target) for target in targets])
