"""The graph level of a ``QualityMatrix`` run against its dense oracle.

Level 0 of a full-dimension linearised or modularity run moves nodes on the
graph's sparse adjacency (``vp.GraphState``). The oracle is the same level
on the dense quality matrix, ``helpers.quality_gram``, as a ``GramState``.
"""

import json
import tracemalloc

import numpy as np
import pytest

import vecpart as vp
from vecpart.cli import main, validate_report
from helpers import (
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
    assert screened[2].visits_per_level[1:] == plain[2].visits_per_level[1:]


@pytest.mark.parametrize("mode, t", CASES)
def test_the_group_matrix_is_the_dense_one_summed_per_group(mode, t):
    g, _ = vp.planted_partition(4, 50, 0.2, 0.02, seed=0)
    q = vp.QualityMatrix(g, mode, t)
    state = vp.vp.GraphState(q)
    order = np.arange(g.n)
    vp.vp._run_level(state, order, vp.vp.tolerances(mode, g.total_weight)[0], vp.VPDiagnostics(), 1e-9, 1e-9)
    labels, after = state.compact()
    G = after.gram
    H = np.zeros((g.n, labels.max() + 1))
    H[np.arange(g.n), labels] = 1.0
    expected = H.T @ quality_gram(q) @ H
    assert np.array_equal(G, G.T)
    assert np.max(np.abs(G - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.trace(G) == pytest.approx(state.objective(), rel=1e-12)


@pytest.mark.parametrize("k", [-280, 0, 250])
def test_modularity_near_the_ends_of_the_float_range(k):
    # Weights times 4**k, an exact power of two. Near 1e-169 the product of
    # two degree sums underflows to zero, so the objective and the group
    # matrix must divide one of them by 2m first.
    g = scaled_weight_graph(k)
    state = vp.vp.GraphState(vp.QualityMatrix(g, "modularity"))
    tol = vp.vp.tolerances("modularity", g.total_weight)[0]
    while vp.vp._sweep(state, np.arange(g.n), tol)[0]:
        state.revalidate(1e-9 * np.sqrt(2.0 * g.total_weight))
    partition = vp.Partition.from_labels(state.assignment)
    two_m = 2.0 * g.total_weight
    assert state.objective() == pytest.approx(vp.modularity_score(g, partition) * two_m, rel=1e-12)
    assert np.trace(state.compact()[1].gram) == pytest.approx(state.objective(), rel=1e-12)
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

    def test_a_group_matrix_beyond_memory_is_too_large(self, monkeypatch):
        # At t = 0.05 level 0 ends with more groups than a 60 x 60 array holds.
        g, _ = vp.planted_partition(4, 25, 0.3, 0.02, seed=0)
        monkeypatch.setattr(vp.graph, "PHYSICAL_MEMORY", 8 * 60 * 60)
        with pytest.raises(vp.TooLarge, match=r"^a dense \d+ x \d+ matrix needs"):
            vp.partition_vectors(vp.QualityMatrix(g, "linearised", 0.05))


@pytest.mark.parametrize("mode, t", CASES)
def test_the_dense_oracle_runs_level_0_in_gram_space(mode, t):
    g = random_connected_graph(7, n=20, p=0.3, weighted=True)
    q = vp.QualityMatrix(g, mode, t)
    sparse, dense = vp.partition_vectors(q, 3), dense_partition(q, 3)
    assert dense[2].paths_per_level[0] == "gram" and sparse[2].paths_per_level[0] == "graph"
    assert np.array_equal(sparse[0].assignment, dense[0].assignment) and sparse[1] == dense[1]
