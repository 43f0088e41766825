"""The graph levels of a ``QualityMatrix`` run against their dense oracle.

Every level of a full-dimension linearised or modularity run moves nodes on
a sparse graph (``vp.GraphState``): level 0 on the graph's adjacency, each
later one on the group graph of the level before. The oracle is the same
run on the dense quality matrix, ``helpers.quality_gram``, as a
``GramState``.
"""

import json
import tracemalloc

import numpy as np
import pytest

import vecpart as vp
from vecpart.cli import main, validate_report
from helpers import (
    dense_graph_level,
    dense_partition,
    plain_sweep_best_of_restarts,
    quality_gram,
    random_connected_graph,
    scaled_weight_graph,
)

CASES = [("linearised", 0.4), ("linearised", 1.0), ("linearised", 2.5), ("modularity", None)]


def same_states(q: vp.QualityMatrix) -> tuple[vp.vp.GraphState, vp.vp.GramState]:
    return vp.vp.GraphState(q), vp.vp.GramState(quality_gram(q))


@pytest.mark.parametrize("mode, t", CASES)
@pytest.mark.parametrize("seed", range(3))
def test_every_visit_picks_the_dense_move(mode, t, seed):
    # Random weights leave no exact gain ties. Random moves, into fresh and
    # emptied groups too, drive both states through the same assignments.
    g = random_connected_graph(seed, n=30, p=0.2, weighted=True)
    q = vp.QualityMatrix(g, mode, t)
    graph, dense = same_states(q)
    tol = vp.vp.tolerances(mode, g.total_weight)[0]
    rng = np.random.default_rng(seed)
    for _ in range(60):
        picks = [(graph.choose(i, tol), dense.choose(i, tol)) for i in range(g.n)]
        assert all(a == b for a, b in picks), picks
        i = int(rng.integers(g.n))
        beta = int(rng.integers(graph.num_groups + 1))
        if beta != graph.assignment[i]:
            graph.apply_move(i, beta)
            dense.apply_move(i, beta)
        assert graph.objective() == pytest.approx(dense.objective(), rel=1e-12, abs=1e-12 * g.total_weight)
    graph.revalidate(1e-9)
    dense.revalidate(1e-9)


def test_emptied_groups_are_kept_lowest_first_and_chosen_as_in_the_dense_rule():
    # A path 0-1-2-3-4 of unit weights; three moves empty groups 1, 4 and 2.
    q = vp.QualityMatrix(vp.load_edge_list("0 1\n1 2\n2 3\n3 4\n"), "modularity")
    graph, dense = same_states(q)
    for i, beta in ((1, 0), (4, 3), (2, 0)):
        graph.apply_move(i, beta)
        dense.apply_move(i, beta)
    assert graph.empties == [1, 2, 4]
    tol = vp.vp.tolerances("modularity", q.total_weight)[0]
    assert [graph.choose(i, tol) for i in range(q.n)] == [dense.choose(i, tol) for i in range(q.n)]
    graph.apply_move(3, 2)  # into an empty group that is not the lowest; group 3 keeps node 4
    assert graph.empties == [1, 4]
    graph.revalidate(1e-9)
    assert graph.empties == [1, 4]


@pytest.mark.parametrize("mode, t", CASES)
def test_screened_graph_sweeps_match_plain_sweeps(mode, t):
    g, _ = vp.planted_partition(4, 100, 0.1, 0.01, seed=2)
    q = vp.QualityMatrix(g, mode, t)
    screened = vp.best_of_restarts(q, 3)
    plain = plain_sweep_best_of_restarts(q, 3)
    assert np.array_equal(screened[0].assignment, plain[0].assignment)
    assert screened[1] == plain[1]
    for key in ("objective_trajectory", "sweeps_per_level", "moves_per_level", "paths_per_level"):
        assert getattr(screened[2], key) == getattr(plain[2], key)
    assert screened[2].visits_per_level[0] < plain[2].visits_per_level[0]
    assert all(a <= b for a, b in zip(screened[2].visits_per_level, plain[2].visits_per_level))


@pytest.mark.parametrize("mode, t", CASES)
def test_the_group_graph_is_the_dense_matrix_summed_per_group(mode, t):
    # Levels 1 and 2, whose self-loops sum those of level 1.
    g, _ = vp.planted_partition(4, 50, 0.2, 0.02, seed=0)
    q = vp.QualityMatrix(g, mode, t)
    tol = vp.vp.tolerances(mode, g.total_weight)[0]
    state, node_to_group = vp.vp.GraphState(q), np.arange(g.n)
    for _ in range(2):
        before = state.objective()
        labels, state = vp.vp._run_level(state, np.arange(state.num_groups), tol, vp.VPDiagnostics(), 1e-9, 1e-9)
        assert state.num_groups < labels.size
        node_to_group = labels[node_to_group]
        H = np.zeros((g.n, state.num_groups))
        H[np.arange(g.n), node_to_group] = 1.0
        expected = H.T @ quality_gram(q) @ H
        G = dense_graph_level(state)
        assert np.array_equal(G, G.T)
        assert np.max(np.abs(G - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert state.objective() == pytest.approx(np.trace(G), rel=1e-12)
        assert state.objective() >= before


@pytest.mark.parametrize("mode, t", [("linearised", 1.0), ("modularity", None)])
def test_a_level_that_ends_in_one_group_ends_the_run(mode, t):
    q = vp.QualityMatrix(vp.load_edge_list("0 1\n"), mode, t)
    tol = vp.vp.tolerances(mode, q.total_weight)[0]
    labels, last = vp.vp._run_level(vp.vp.GraphState(q), np.arange(2), tol, vp.VPDiagnostics(), 1e-9, 1e-9)
    assert labels.tolist() == [0, 0] and last.num_groups == 1 and last.indices.size == 0
    assert last.objective() == pytest.approx(np.trace(dense_graph_level(last)), abs=1e-15)
    partition, objective, diag = vp.partition_vectors(q)
    dense = dense_partition(q)
    assert partition.num_groups == 1 and diag.paths_per_level == ["graph", "graph"]
    assert np.array_equal(partition.assignment, dense[0].assignment) and objective == dense[1]


@pytest.mark.parametrize("k", [-280, 0, 250])
def test_modularity_near_the_ends_of_the_float_range(k):
    # Weights times 4**k, an exact power of two. Near 1e-169 the product of
    # two degree sums underflows to zero, so the objective of every level
    # must divide one of them by 2m first.
    g = scaled_weight_graph(k)
    state = vp.vp.GraphState(vp.QualityMatrix(g, "modularity"))
    tol = vp.vp.tolerances("modularity", g.total_weight)[0]
    while vp.vp._sweep(state, np.arange(g.n), tol)[0]:
        state.revalidate(1e-9 * np.sqrt(2.0 * g.total_weight))
    partition = vp.Partition.from_labels(state.assignment)
    two_m = 2.0 * g.total_weight
    assert state.objective() == pytest.approx(vp.modularity_score(g, partition) * two_m, rel=1e-12)
    assert state.compact()[1].objective() == pytest.approx(state.objective(), rel=1e-12)
    expected = vp.best_of_restarts(vp.QualityMatrix(scaled_weight_graph(0), "modularity"), 3)
    run = vp.best_of_restarts(vp.QualityMatrix(g, "modularity"), 3)
    assert run[0].canonical_key() == expected[0].canonical_key() and run[1] == expected[1]


def test_group_mass_drift_is_a_named_error():
    state = vp.vp.GraphState(vp.QualityMatrix(vp.load_edge_list("0 1\n1 2\n2 0\n"), "linearised", 1.0))
    state.apply_move(0, 1)
    state.revalidate(1e-9)
    state.group_mass[1] += 1e-6
    with pytest.raises(vp.StateDrift, match="group masses drifted"):
        state.revalidate(1e-9)


@pytest.mark.parametrize("mode, t", [("linearised", 1.0), ("modularity", None)])
def test_a_run_holds_no_dense_array(mode, t):
    g, _ = vp.planted_partition(10, 100, 0.1, 0.005, seed=1)
    q = vp.QualityMatrix(g, mode, t)
    tracemalloc.start()
    try:
        partition, _, diag = vp.best_of_restarts(q, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diag.paths_per_level[0] == "graph"
    assert peak < 8 * g.n * g.n / 4
    assert partition.num_groups == 10


class TestNoDenseLimit:
    """Physical memory below one n x n array: the graph level still runs."""

    @pytest.fixture
    def planted(self, tmp_path, monkeypatch):
        g, truth = vp.planted_partition(4, 25, 0.3, 0.02, seed=0)
        monkeypatch.setattr(vp.graph, "PHYSICAL_MEMORY", 8 * g.n * g.n - 1)
        path = tmp_path / "g.txt"
        path.write_text(g.to_edge_list_text())
        return g, truth, str(path)

    @pytest.mark.parametrize("args", [["--mode", "linearised", "--time", "1"], ["--mode", "modularity"]])
    def test_full_dimension_partition_ends_in_a_report(self, planted, capsys, args):
        _, _, path = planted
        assert main(["partition", path, *args, "--restarts", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert report["diagnostics"]["paths_per_level"][0] == "graph"

    def test_full_dimension_scan_ends_in_a_report(self, planted, capsys):
        _, _, path = planted
        assert main(["scan", path, "--mode", "linearised", "--tmin", "0.5", "--tmax", "2", "--npoints", "2"]) == 0
        validate_report(json.loads(capsys.readouterr().out))

    @pytest.mark.parametrize("mode, t", [("linearised", 1.0), ("modularity", None)])
    def test_a_dim_sweep_point_at_n_minus_1_runs(self, planted, mode, t):
        g, truth, _ = planted
        (record,) = vp.dim_sweep(g, truth, t, mode, [g.n - 1], restarts=2)
        assert record.dim == g.n - 1 and record.num_communities >= 1

    def test_a_full_dimension_exponential_run_is_still_too_large(self, planted, capsys):
        _, _, path = planted
        assert main(["partition", path, "--mode", "exponential", "--time", "1"]) == vp.TooLarge.exit_code == 28
        assert capsys.readouterr().err.startswith("error: TooLarge: a dense 100 x 100")

    def test_more_groups_than_a_dense_matrix_holds_give_the_same_partition(self, monkeypatch):
        # At t = 0.05 level 0 ends with more groups than a 60 x 60 array holds.
        g, _ = vp.planted_partition(4, 25, 0.3, 0.02, seed=0)
        q = vp.QualityMatrix(g, "linearised", 0.05)
        expected = vp.partition_vectors(q)
        monkeypatch.setattr(vp.graph, "PHYSICAL_MEMORY", 8 * 60 * 60)
        partition, objective, _ = vp.partition_vectors(q)
        assert np.array_equal(partition.assignment, expected[0].assignment) and objective == expected[1]

    @pytest.mark.parametrize("args", [["--mode", "linearised", "--time", "1"], ["--mode", "modularity"]])
    def test_a_path_whose_level_0_ends_in_n_over_2_groups_ends_in_a_report(self, tmp_path, monkeypatch, capsys, args):
        # Level 0 pairs the nodes of the path: below one c x c array, c = n / 2.
        n = 2000
        path = tmp_path / "path.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        monkeypatch.setattr(vp.graph, "PHYSICAL_MEMORY", 8 * (n // 2) ** 2 - 1)
        assert main(["partition", str(path), *args, "--restarts", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert set(report["diagnostics"]["paths_per_level"]) == {"graph"}


@pytest.mark.parametrize("mode, t", CASES)
def test_the_dense_oracle_runs_level_0_in_gram_space(mode, t):
    g = random_connected_graph(7, n=20, p=0.3, weighted=True)
    q = vp.QualityMatrix(g, mode, t)
    sparse, dense = vp.partition_vectors(q, 3), dense_partition(q, 3)
    assert dense[2].paths_per_level[0] == "gram" and sparse[2].paths_per_level[0] == "graph"
    assert np.array_equal(sparse[0].assignment, dense[0].assignment) and sparse[1] == dense[1]
