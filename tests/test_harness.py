import re

import numpy as np
import pytest

import vecpart as vp
from helpers import pairgraph4


class TestGeometricGrid:
    def test_endpoints_and_spacing(self):
        grid = vp.geometric_grid(0.01, 10.0, 25)
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(10.0)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_grid_up_to_the_largest_float_does_not_warn(self):
        top = np.finfo(np.float64).max
        grid = vp.geometric_grid(1.0, top, 4)
        assert grid[0] == 1.0 and grid[-1] == top and np.all(np.isfinite(grid))
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("t_min,t_max,n_points", [(0.1, 100.0, 10), (0.01, 10.0, 25), (1.0, 1e300, 7), (3.0, 3.0, 2)])
    def test_grids_keep_the_bits_of_geomspace(self, t_min, t_max, n_points):
        grid = vp.geometric_grid(t_min, t_max, n_points)
        assert grid.tobytes() == np.geomspace(t_min, t_max, n_points).tobytes()

    def test_single_point(self):
        assert np.array_equal(vp.geometric_grid(2.0, 5.0, 1), [2.0])

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            vp.geometric_grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            vp.geometric_grid(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            vp.geometric_grid(1.0, 2.0, 0)

    def test_reversed_grid_is_an_invalid_parameter(self):
        with pytest.raises(vp.InvalidParameter, match="t_min <= t_max"):
            vp.geometric_grid(2.0, 1.0, 5)

    def test_infinite_t_max_is_an_invalid_parameter(self):
        with pytest.raises(vp.InvalidParameter, match="finite"):
            vp.geometric_grid(0.1, np.inf, 3)

    def test_grid_above_the_cap_is_too_large(self):
        cap = vp.harness.MAX_GRID_POINTS
        assert vp.geometric_grid(1.0, 2.0, cap).size == cap
        with pytest.raises(vp.TooLarge, match="grid points"):
            vp.geometric_grid(1.0, 2.0, cap + 1)

    def test_empty_grid_is_an_invalid_parameter(self):
        with pytest.raises(vp.InvalidParameter, match="n_points"):
            vp.geometric_grid(1.0, 2.0, 0)


class TestTimeScan:
    def test_pairgraph4_matches_exhaustive_everywhere(self):
        g = pairgraph4()
        basis = vp.decompose_transition(g)
        records = vp.time_scan(g, 0.01, 10.0, 25, mode="exponential", dim=3, restarts=5)
        assert len(records) == 25
        counts = [r.num_communities for r in records]
        assert counts[0] == 4 and counts[-1] == 2
        assert all(a >= b for a, b in zip(counts, counts[1:]))  # non-increasing
        assert sum(1 for a, b in zip(counts, counts[1:]) if a != b) == 1
        assert records[-1].partition.canonical_key() == (0, 0, 1, 1)
        for rec in records:
            emb = vp.build_embedding(basis, "exponential", t=rec.time, dim=3)
            opt_partition, opt_value = vp.exhaustive_partition(emb)
            assert rec.partition.canonical_key() == opt_partition.canonical_key()
            assert rec.objective == pytest.approx(opt_value, abs=1e-9)

    def test_single_point_equals_direct_call(self):
        g = pairgraph4()
        records = vp.time_scan(g, 5.0, 5.0, 1, mode="exponential", dim=3, restarts=5)
        assert len(records) == 1
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=5.0, dim=3)
        partition, value, _ = vp.best_of_restarts(emb, 5)
        assert records[0].partition.canonical_key() == partition.canonical_key()
        assert records[0].objective == value
        assert records[0].vi_to_previous is None

    def test_planted_partition_nmi_plateau(self):
        g, truth = vp.planted_partition(3, 10, 0.9, 0.05, seed=7)
        records = vp.time_scan(g, 0.1, 20.0, 12, dim=g.n - 1, restarts=5, truth=truth)
        assert any(r.num_communities == 3 and r.nmi == 1.0 for r in records)
        assert all(r.nmi is not None and r.uncertainty is not None for r in records)

    def test_vi_to_previous_recorded(self):
        g = pairgraph4()
        records = vp.time_scan(g, 0.1, 5.0, 4, dim=3)
        assert records[0].vi_to_previous is None
        assert all(r.vi_to_previous is not None for r in records[1:])
        # identical consecutive optima give VI 0
        stable = [r.vi_to_previous for r in records[1:] if r.num_communities == 4]
        if stable:
            assert stable[0] == pytest.approx(0.0, abs=1e-12)

    def test_restarts_never_hurt(self):
        g, _ = vp.planted_partition(3, 6, 0.8, 0.2, seed=3)
        one = vp.time_scan(g, 0.2, 8.0, 8, dim=g.n - 1, restarts=1)
        five = vp.time_scan(g, 0.2, 8.0, 8, dim=g.n - 1, restarts=5)
        for a, b in zip(one, five):
            assert b.objective >= a.objective - 1e-12

    def test_objective_round_trip(self):
        g, _ = vp.planted_partition(2, 5, 0.9, 0.1, seed=2)
        basis = vp.decompose_transition(g)
        for rec in vp.time_scan(g, 0.5, 4.0, 5, mode="linearised", dim=4):
            emb = vp.build_embedding(basis, "linearised", t=rec.time, dim=4)
            assert abs(vp.stability(emb, rec.partition) - rec.objective) <= 1e-9
            assert rec.num_communities == rec.partition.num_groups

    def test_deterministic(self):
        g, _ = vp.planted_partition(2, 5, 0.9, 0.1, seed=4)
        r1 = vp.time_scan(g, 0.1, 5.0, 6, dim=g.n - 1, restarts=3)
        r2 = vp.time_scan(g, 0.1, 5.0, 6, dim=g.n - 1, restarts=3)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.partition.assignment, b.partition.assignment)
            assert a.objective == b.objective

    def test_decomposes_once_with_the_pairs_the_embedding_reads(self, monkeypatch):
        calls = []
        real = vp.harness.decompose_transition

        def counting(g, dim=None):
            basis = real(g, dim=dim)
            calls.append((dim, basis.pairs))
            return basis

        monkeypatch.setattr(vp.harness, "decompose_transition", counting)
        g, _ = vp.planted_partition(6, 50, 0.3, 0.01, seed=0)
        records = vp.time_scan(g, 0.5, 5.0, 4, dim=4, restarts=1)
        assert calls == [(4, 6)]
        assert [r.dim for r in records] == [4] * 4

    @pytest.mark.parametrize("dim", [None, 9])
    def test_full_dimension_linearised_scan_decomposes_nothing(self, monkeypatch, dim):
        def fail(*args, **kwargs):
            raise AssertionError("decomposed at full dimension in linearised mode")

        monkeypatch.setattr(vp.harness, "decompose_transition", fail)
        g, _ = vp.planted_partition(2, 5, 0.9, 0.1, seed=2)
        records = vp.time_scan(g, 0.5, 4.0, 5, mode="linearised", dim=dim, restarts=2)
        for rec in records:
            assert rec.dim == g.n - 1
            assert rec.objective == vp.linearised_stability(g, rec.partition, rec.time)
            q = vp.QualityMatrix(g, "linearised", rec.time)
            partition, value, _ = vp.best_of_restarts(q, 2)
            assert np.array_equal(partition.assignment, rec.partition.assignment) and value == rec.objective

    def test_wrong_truth_size_rejected(self):
        g = pairgraph4()
        truth = vp.Partition.from_labels([0, 0, 1])
        with pytest.raises(vp.SizeMismatch):
            vp.time_scan(g, 0.1, 1.0, 2, dim=3, truth=truth)

    def test_modularity_mode_rejected(self):
        with pytest.raises(ValueError):
            vp.time_scan(pairgraph4(), 0.1, 1.0, 2, mode="modularity", dim=3)

    def test_unknown_mode_is_an_invalid_parameter(self):
        with pytest.raises(vp.InvalidParameter, match="exponential or linearised"):
            vp.time_scan(pairgraph4(), 0.1, 1.0, 2, mode="markov", dim=3)

    @pytest.mark.parametrize("t_min, t_max, n_points", [(1.0, 0.1, 2), (0.1, 1.0, 0)])
    def test_bad_grid_is_an_invalid_parameter_raised_before_decomposing(self, monkeypatch, t_min, t_max, n_points):
        def fail(*args, **kwargs):
            raise AssertionError("decomposed before checking the grid")

        monkeypatch.setattr(vp.harness, "decompose_transition", fail)
        with pytest.raises(vp.InvalidParameter):
            vp.time_scan(pairgraph4(), t_min, t_max, n_points, dim=3)


class TestBestOfRestarts:
    def test_no_restarts_is_an_invalid_parameter(self):
        emb = vp.build_embedding(vp.decompose_transition(pairgraph4()), "exponential", t=1.0, dim=3)
        with pytest.raises(vp.InvalidParameter, match="restarts"):
            vp.best_of_restarts(emb, 0)

    def test_restarts_share_one_level0_gram(self, monkeypatch):
        g, _ = vp.planted_partition(4, 25, 0.3, 0.02, seed=0)
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=2.0)
        level0 = []
        init = vp.vp.GramState.__init__

        def record(self, gram):
            if gram.shape == (g.n, g.n):
                level0.append(gram)
            init(self, gram)

        monkeypatch.setattr(vp.vp.GramState, "__init__", record)
        best = vp.best_of_restarts(emb, 3)
        assert len(level0) >= 3 and all(gram is level0[0] for gram in level0)  # one array for every run
        assert not level0[0].flags.writeable
        monkeypatch.setattr(vp.vp.GramState, "__init__", init)
        runs = [vp.partition_vectors(emb, seed) for seed in (None, 1, 2)]
        expected = max(runs, key=lambda run: run[1])  # max keeps the first of equal objectives
        assert np.array_equal(best[0].assignment, expected[0].assignment)
        assert best[1] == expected[1]
        assert best[2].objective_trajectory == expected[2].objective_trajectory


class TestDimSweep:
    def test_full_dimension_matches_direct_oracle(self):
        g, truth = vp.planted_partition(2, 4, 0.9, 0.1, seed=1)
        rows = vp.dim_sweep(g, truth, 1.0, "linearised", [g.n - 1], restarts=5)
        # rerun the same optimisation to recover the partition, then check the
        # reported objective against the direct matrix-form computation
        emb = vp.build_embedding(vp.decompose_transition(g), "linearised", t=1.0, dim=g.n - 1)
        partition, value, _ = vp.best_of_restarts(emb, 5)
        assert rows[0].objective == value
        assert value == pytest.approx(vp.linearised_stability(g, partition, 1.0), abs=1e-8)
        assert value == pytest.approx(vp.modularity_score(g, partition), abs=1e-8)

    def test_one_dimension_recovers_fiedler_aligned_truth(self):
        # pairgraph4's second eigenvector is (1, 1, -1, -1): its sign split
        # is the heavy-edge bipartition, so dim=1 at t=5 recovers it.
        g = pairgraph4()
        truth = vp.Partition.from_labels([0, 0, 1, 1])
        rows = vp.dim_sweep(g, truth, 5.0, "exponential", [1], restarts=5)
        assert rows[0].nmi == pytest.approx(1.0, abs=1e-12)
        assert rows[0].num_communities == 2

    @pytest.mark.parametrize("mode, t", [("exponential", 2.0), ("linearised", 1.0), ("modularity", None)])
    def test_rows_are_the_records_of_their_embeddings(self, mode, t):
        g, truth = vp.planted_partition(3, 6, 0.9, 0.1, seed=2)
        rows = vp.dim_sweep(g, truth, t, mode, [3, 1], restarts=2, seed=1)
        decompose = vp.decompose_modularity_matrix if mode == "modularity" else vp.decompose_transition
        basis = decompose(g)
        for row, dim in zip(rows, [3, 1]):
            emb = vp.build_embedding(basis, mode, t=t, dim=dim)
            partition, objective, _ = vp.best_of_restarts(emb, 2, seed=1)
            expected = vp.harness.scan_record(emb, partition, objective, truth)
            assert np.array_equal(row.partition.assignment, expected.partition.assignment)
            assert {**vars(row), "partition": None} == {**vars(expected), "partition": None}
            assert (row.time, row.mode, row.dim) == (t, mode, dim)
            assert row.vi_to_previous is None

    def test_statistical_nmi_profile(self):
        # Ensemble means over 20 fixed seeds: NMI non-decreasing up to
        # dim = k - 1 = 3 and flat within 0.05 beyond it, for both the
        # linearised and the modularity-matrix embeddings.
        dims = list(range(1, 11))
        for mode, t in (("linearised", 1.0), ("modularity", None)):
            acc = {d: [] for d in dims}
            for seed in range(20):
                g, truth = vp.planted_partition(4, 8, 0.9, 0.05, seed=seed)
                for row in vp.dim_sweep(g, truth, t, mode, dims, restarts=5):
                    acc[row.dim].append(row.nmi)
            means = [float(np.mean(acc[d])) for d in dims]
            assert means[0] <= means[1] + 1e-12
            assert means[1] <= means[2] + 1e-12
            assert means[2] >= 0.9
            assert all(m - means[2] < 0.05 for m in means[3:])


class TestLargestDimension:
    @pytest.fixture
    def no_decomposition(self, monkeypatch):
        def fail(*_args, **_kwargs):
            raise AssertionError("decomposed before checking the inputs")

        monkeypatch.setattr(vp.spectral, "_eigenpairs", fail)

    @pytest.mark.parametrize("mode,t", [("linearised", 1.0), ("modularity", None)])
    def test_sweeps_decompose_once_for_the_largest_dim(self, monkeypatch, mode, t):
        calls = []
        for name in ("decompose_transition", "decompose_modularity_matrix"):
            real = getattr(vp.harness, name)

            def counting(g, dim=None, real=real):
                calls.append(dim)
                return real(g, dim=dim)

            monkeypatch.setattr(vp.harness, name, counting)
        g, truth = vp.planted_partition(6, 50, 0.3, 0.01, seed=0)
        rows = vp.dim_sweep(g, truth, t, mode, [2, 5, 3], restarts=1)
        assert [row.dim for row in rows] == [2, 5, 3]
        assert calls == [5]
        calls.clear()
        vp.embedding_comparison(g, truth, [4, 2], restarts=1)
        assert calls == [4, 4]

    @pytest.mark.parametrize(
        "run",
        [
            lambda g, truth: vp.time_scan(g, 1.0, 2.0, 2, dim=g.n),
            lambda g, truth: vp.time_scan(g, 1.0, 2.0, 2, mode="linearised", dim=g.n),
            lambda g, truth: vp.dim_sweep(g, truth, 1.0, "linearised", [2, g.n], restarts=1),
            lambda g, truth: vp.embedding_comparison(g, truth, [g.n + 7, 2], restarts=1),
        ],
        ids=["scan", "linearised-scan", "dim-sweep", "comparison"],
    )
    def test_dim_of_n_or_more_fails_before_any_decomposition(self, no_decomposition, run):
        g, truth = vp.planted_partition(2, 4, 0.9, 0.1, seed=1)
        with pytest.raises(vp.DimOutOfRange, match=r"\[1, 7\]"):
            run(g, truth)

    @pytest.mark.parametrize(
        "mode, t, match",
        [
            ("markov", 1.0, "mode must be exponential or linearised or modularity, got 'markov'"),
            ("exponential", -1.0, "exponential mode needs a finite t >= 0, got -1.0"),
            ("linearised", -1.0, "linearised mode needs a finite t > 0, got -1.0"),
            ("linearised", None, "linearised mode needs a finite t > 0, got None"),
            ("modularity", 1.0, "modularity mode takes no time, got 1.0"),
        ],
        ids=["mode", "exponential-t", "linearised-t", "linearised-no-t", "modularity-t"],
    )
    def test_bad_mode_or_time_fails_before_any_decomposition(self, no_decomposition, mode, t, match):
        g, truth = vp.planted_partition(2, 4, 0.9, 0.1, seed=1)
        with pytest.raises(vp.InvalidParameter, match=re.escape(match)):
            vp.dim_sweep(g, truth, t, mode, [2], restarts=1)

    def test_no_dims_decompose_nothing(self, no_decomposition):
        g, truth = vp.planted_partition(2, 4, 0.9, 0.1, seed=1)
        assert vp.dim_sweep(g, truth, 1.0, "linearised", [], restarts=1) == []
        assert vp.dim_sweep(g, truth, None, "modularity", [], restarts=1) == []
        assert vp.embedding_comparison(g, truth, [], restarts=1) == []


class TestEmbeddingComparison:
    def test_full_dimension_sources_agree(self):
        for seed in (0, 1, 2):
            g, truth = vp.planted_partition(3, 5, 0.9, 0.1, seed=seed)
            rows = vp.embedding_comparison(g, truth, [g.n - 1], restarts=5)
            row = rows[0]
            assert abs(row.transition.modularity - row.modularity_matrix.modularity) <= 1e-6

    def test_reports_both_sources_per_dim(self):
        g, truth = vp.planted_partition(2, 5, 0.9, 0.1, seed=5)
        rows = vp.embedding_comparison(g, truth, [1, 2, 3], restarts=3)
        assert [row.dim for row in rows] == [1, 2, 3]
        for row in rows:
            for side in (row.transition, row.modularity_matrix):
                assert side.num_communities >= 1
                assert 0.0 <= side.uncertainty <= 1.0
                assert -1.0 <= side.modularity <= 1.0
