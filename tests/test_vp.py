import numpy as np
import pytest

import vecpart as vp
from helpers import (
    TRIANGLE_TEXT,
    SameGroup,
    group_sums,
    move_gain,
    pairgraph4,
    random_connected_graph,
    scaled_weight_graph,
    set_partitions,
    vector_path_best_of_restarts,
    vector_path_partition,
)


def make_embedding(vectors, signature=None, mode="exponential"):
    """Hand-built embedding over raw vectors, for optimiser-only tests."""
    vectors = np.asarray(vectors, dtype=float)
    if signature is None:
        signature = np.ones(vectors.shape[1], dtype=np.int64)
    return vp.Embedding(
        mode=mode,
        time=1.0,
        dim=vectors.shape[1],
        vectors=vectors,
        signature=np.asarray(signature, dtype=np.int64),
        total_weight=1.0,
    )


def raw_objective(vectors, signature, labels):
    c = int(np.max(labels)) + 1
    sums = np.zeros((c, vectors.shape[1]))
    np.add.at(sums, labels, vectors)
    return float((sums * sums * signature).sum())


class TestMoveGain:
    def test_singleton_to_empty_group_is_zero(self):
        state = vp.VPState(np.array([[1.0, 2.0], [0.5, -1.0]]), np.ones(2))
        assert move_gain(state, 0, state.num_groups) == 0.0

    def test_identical_vectors_merge_with_squared_norm_gain(self):
        x = np.array([0.3, -0.4])
        state = vp.VPState(np.stack([x, x]), np.ones(2))
        assert move_gain(state, 0, 1) == pytest.approx(float(x @ x), abs=1e-15)
        assert float(x @ x) > 0

    def test_same_group_rejected(self):
        state = vp.VPState(np.array([[1.0], [2.0]]), np.ones(1))
        with pytest.raises(SameGroup):
            move_gain(state, 0, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_twice_gain_equals_objective_difference(self, seed):
        # Recomputation oracle: 2 * gain must match the objective change of
        # actually applying the move, for random states and signatures.
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(6, 3))
        signature = rng.choice([1.0, -1.0], size=3)
        state = vp.VPState(vectors, signature)
        # scramble into a random partition first
        for i in range(6):
            target = int(rng.integers(0, state.num_groups))
            if target != state.assignment[i]:
                state.apply_move(i, target)
        for _ in range(10):
            i = int(rng.integers(0, 6))
            beta = int(rng.integers(0, state.num_groups + 1))
            if beta == state.assignment[i]:
                continue
            before = raw_objective(vectors, signature, state.assignment)
            gain = move_gain(state, i, beta)
            state.apply_move(i, beta)
            after = raw_objective(vectors, signature, state.assignment)
            assert 2.0 * gain == pytest.approx(after - before, abs=1e-9)

    def test_state_revalidate_catches_drift(self):
        state = vp.VPState(np.array([[1.0], [2.0]]), np.ones(1))
        state.group_sums[0] += 1.0
        with pytest.raises(vp.StateDrift, match="group sums drifted"):
            state.revalidate(1e-9)


    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("allow_detach", [True, False])
    def test_move_rule_matches_move_gain_oracle(self, seed, allow_detach):
        # The sweeps' move rule against move_gain: best gain over the other
        # groups, ties to the lowest index, a fresh group only when strictly
        # better and allowed, and no move unless the gain exceeds tol.
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(7, 3))
        signature = rng.choice([1.0, -1.0], size=3)
        state = vp.VPState(vectors, signature)
        for i in range(7):
            target = int(rng.integers(0, state.num_groups))
            if target != state.assignment[i]:
                state.apply_move(i, target)
        for i in range(7):
            alpha = int(state.assignment[i])
            can_detach = allow_detach and state.group_sizes[alpha] > 1
            targets = [b for b in range(state.num_groups) if b != alpha]
            gains = [move_gain(state, i, b) for b in targets]
            best = max(gains) if gains else -np.inf
            beta = targets[gains.index(best)] if gains else -1
            fresh = move_gain(state, i, state.num_groups)
            if can_detach and fresh > best:
                beta, best = state.num_groups, fresh
            expected = beta if best > 1e-12 else -1
            sx = signature * vectors[i]
            scores = state.group_sums @ sx
            vector_scores, vector_self_score = state.scores(i)
            assert np.array_equal(vector_scores, scores) and vector_self_score == float(sx @ vectors[i])
            assert vp.vp._choose_move(scores, alpha, float(sx @ vectors[i]), can_detach, 1e-12) == expected
            # the Gram state scores the same groups from the signed Gram
            gram_state = vp.vp.GramState((vectors * signature) @ vectors.T)
            gram_state.assignment = state.assignment.copy()
            gram_state.group_sizes = state.group_sizes.copy()
            gram_scores, gram_self_score = gram_state.scores(i)
            assert gram_scores == pytest.approx(scores, abs=1e-12)
            assert gram_self_score == pytest.approx(float(sx @ vectors[i]), abs=1e-12)


def input_layouts():
    """Vector arrays a level may be handed that it must not write into."""
    rng = np.random.default_rng(7)
    yield "f_contiguous", np.asfortranarray(rng.normal(size=(9, 3)))
    yield "single_column", rng.normal(size=(9, 1))
    read_only = rng.normal(size=(9, 3))
    read_only.setflags(write=False)
    yield "read_only", read_only


class TestColumnMajorSums:
    @pytest.mark.parametrize("name, vectors", list(input_layouts()))
    def test_moves_never_write_into_the_input_vectors(self, name, vectors):
        before = vectors.tobytes()
        state = vp.VPState(vectors, np.ones(vectors.shape[1]))
        assert not np.shares_memory(state.group_sums, vectors)
        state.apply_move(0, 1)
        state.apply_move(2, 1)
        state.apply_move(0, state.num_groups)  # a fresh group
        vp.vp._sweep(state, np.arange(9), 1e-12)
        state.revalidate(1e-9)
        assert vectors.tobytes() == before

    def test_group_sums_stay_column_major(self):
        rng = np.random.default_rng(3)
        state = vp.VPState(rng.normal(size=(12, 4)), rng.choice([1.0, -1.0], size=4))
        assert state.group_sums.flags.f_contiguous
        state.apply_move(0, 1)
        state.apply_move(0, state.num_groups)  # a fresh group grows the sums
        assert state.group_sums.shape == (13, 4) and state.group_sums.flags.f_contiguous
        state.revalidate(1e-9)
        assert state.group_sums.flags.f_contiguous
        assert np.array_equal(state.group_sums, group_sums(state.vectors, state.assignment))

    @pytest.mark.parametrize("dim", [14, 24])
    def test_self_scores_are_the_visit_products_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        vectors = rng.normal(size=(500, dim)) * rng.uniform(1e-3, 1e3, size=(500, 1))
        signature = rng.choice([1.0, -1.0], size=dim)
        state = vp.VPState(vectors, signature)
        for i in range(500):
            expected = float((signature * vectors[i]) @ vectors[i])
            assert np.float64(state.scores(i)[1]).tobytes() == np.float64(expected).tobytes()
            assert state.self_scores[i].tobytes() == np.float64(expected).tobytes()

    def test_objective_is_summed_in_row_major_order(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(40, 24)) * 10.0 ** rng.integers(-8, 8, size=(40, 24))
        signature = rng.choice([1.0, -1.0], size=24)
        state = vp.VPState(vectors, signature)
        Y = group_sums(vectors, state.assignment)
        assert state.objective() == float((Y * (Y * signature)).sum())


class TestPartitionVectors:
    def test_pairgraph4_large_time_finds_bipartition(self):
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=5.0, dim=3)
        partition, value, diag = vp.partition_vectors(emb)
        assert partition.canonical_key() == (0, 0, 1, 1)
        assert value == pytest.approx(np.exp(-5.0 / 3.0) / 2.0, abs=1e-9)
        assert diag.levels >= 1

    def test_pairgraph4_small_time_keeps_singletons(self):
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=0.01, dim=3)
        partition, _, _ = vp.partition_vectors(emb)
        assert partition.num_groups == 4

    def test_orthogonal_vectors_stay_singletons(self):
        emb = make_embedding(np.eye(4))
        partition, value, _ = vp.partition_vectors(emb)
        assert partition.num_groups == 4
        assert value == pytest.approx(4.0)

    def test_returned_objective_matches_stability(self):
        for seed in range(5):
            g = random_connected_graph(seed, n_range=(5, 10), weighted=True)
            basis = vp.decompose_transition(g)
            for mode, t in (("exponential", 2.0), ("linearised", 1.0)):
                emb = vp.build_embedding(basis, mode, t=t, dim=g.n - 1)
                partition, value, _ = vp.partition_vectors(emb)
                assert value == pytest.approx(vp.stability(emb, partition), abs=1e-9)

    def test_trajectory_monotone_non_decreasing(self):
        for seed in range(6):
            g = random_connected_graph(seed, n_range=(5, 10), weighted=True)
            emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=2.0, dim=g.n - 1)
            _, _, diag = vp.partition_vectors(emb)
            traj = diag.objective_trajectory
            assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))

    def test_deterministic(self):
        g = random_connected_graph(3, n_range=(6, 10), weighted=True)
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=1.0, dim=g.n - 1)
        for seed in (None, 5):
            p1, v1, _ = vp.partition_vectors(emb, seed)
            p2, v2, _ = vp.partition_vectors(emb, seed)
            assert np.array_equal(p1.assignment, p2.assignment)
            assert v1 == v2

    def test_sweep_order_relabelling_invariance_at_objective_level(self):
        # Feeding the vectors in a permuted order must reach the same
        # objective value once results are canonicalised.
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=5.0, dim=3)
        _, base_value, _ = vp.partition_vectors(emb)
        rng = np.random.default_rng(0)
        for _ in range(4):
            perm = rng.permutation(4)
            permuted = make_embedding(emb.vectors[perm])
            _, value, _ = vp.partition_vectors(permuted)
            assert value == pytest.approx(base_value, abs=1e-9)

    def test_level_cap_exceeded(self, monkeypatch):
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=5.0, dim=3)
        monkeypatch.setattr(vp.vp, "MAX_LEVELS", 1)
        with pytest.raises(vp.LevelCapExceeded):
            vp.partition_vectors(emb)

    def test_sweep_cap_exceeded(self, monkeypatch):
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=5.0, dim=3)
        monkeypatch.setattr(vp.vp, "MAX_SWEEPS", 1)
        with pytest.raises(vp.LevelCapExceeded, match="^level 0 still moves vectors after the sweep cap of 1 sweeps$"):
            vp.partition_vectors(emb)

    def test_the_sweep_cap_admits_a_level_that_ends_on_its_last_sweep(self, monkeypatch):
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=5.0, dim=3)
        expected = vp.partition_vectors(emb)
        most = max(expected[2].sweeps_per_level)
        assert most >= 2
        monkeypatch.setattr(vp.vp, "MAX_SWEEPS", most)
        assert vp.partition_vectors(emb)[0].canonical_key() == expected[0].canonical_key()
        monkeypatch.setattr(vp.vp, "MAX_SWEEPS", most - 1)
        with pytest.raises(vp.LevelCapExceeded, match=f"sweep cap of {most - 1} sweeps"):
            vp.partition_vectors(emb)

    def test_objective_decrease_raises_named_error(self, monkeypatch):
        values = iter([2.0, 1.0])
        monkeypatch.setattr(vp.vp.GramState, "objective", lambda state: next(values))
        with pytest.raises(vp.ObjectiveDecreased, match="from 2.0 to 1.0"):
            vp.partition_vectors(make_embedding([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.2]]))

    def test_objective_decrease_raises_named_error_on_a_vector_level(self, monkeypatch):
        # Four vectors of dimension 1 take the vector path (p > dim + 1); the
        # three of the test above take the Gram path. Both report a fall
        # through the same level loop.
        values = iter([2.0, 1.0])
        monkeypatch.setattr(vp.vp.VPState, "objective", lambda state: next(values))
        emb = make_embedding([[1.0], [0.9], [-1.0], [0.5]])
        with pytest.raises(vp.ObjectiveDecreased, match="from 2.0 to 1.0"):
            vp.partition_vectors(emb)

    def test_non_finite_objective_raises_named_error(self):
        with pytest.raises(vp.ObjectiveDecreased, match="nan"):
            vp.partition_vectors(make_embedding([[np.nan, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
    def test_modularity_result_independent_of_weight_scale(self, scale):
        # Modularity is invariant under scaling all weights, and so is the
        # optimiser once its tolerances are in units of Q. With a raw-unit
        # tolerance, scale 1e4 never terminated (two vectors swapped forever
        # on roundoff gains) and scale 1e6 failed the monotonicity check.
        g, _ = vp.planted_partition(4, 10, 0.5, 0.05, seed=0)
        scaled = vp.load_edge_list("".join(f"{i} {j} {w * scale!r}\n" for i, j, w in g.edges))
        p_ref, q_ref, _ = vp.partition_vectors(vp.build_embedding(vp.decompose_modularity_matrix(g), "modularity"))
        emb = vp.build_embedding(vp.decompose_modularity_matrix(scaled), "modularity")
        p, q, diag = vp.partition_vectors(emb)
        assert np.array_equal(p.assignment, p_ref.assignment)
        assert q == pytest.approx(q_ref, abs=1e-9)
        assert q == pytest.approx(vp.modularity_score(scaled, p), abs=1e-9)


class TestGramPath:
    def test_shape_rule_selects_the_path_of_each_level(self):
        rng = np.random.default_rng(0)
        # p <= dim + 1 from the start: every level in Gram space
        _, _, diag = vp.partition_vectors(make_embedding(rng.normal(size=(6, 5))))
        assert set(diag.paths_per_level) == {"gram"}
        # a low-dimensional start runs in vector space until p shrinks
        g, _ = vp.planted_partition(4, 10, 0.6, 0.02, seed=0)
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=3.0, dim=3)
        _, _, diag = vp.partition_vectors(emb)
        assert diag.paths_per_level[0] == "vector"
        assert diag.paths_per_level[-1] == "gram"
        assert diag.as_dict()["paths_per_level"] == diag.paths_per_level
        assert len(diag.paths_per_level) == diag.levels == len(diag.sweeps_per_level)

    def test_group_size_check_fires(self):
        state = vp.vp.GramState(np.eye(3))
        state.apply_move(0, 1)
        state.revalidate(1e-9)
        state.group_sizes[2] += 1
        with pytest.raises(vp.StateDrift, match="group sizes"):
            state.revalidate(1e-9)

    def test_compact_aggregates_the_gram(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(6, 4))
        signature = np.array([1.0, 1.0, -1.0, -1.0])
        state = vp.vp.GramState((vectors * signature) @ vectors.T)
        for i, beta in ((0, 2), (3, 2), (5, 6), (4, 1)):
            state.apply_move(i, beta)
        labels, next_state = state.compact()
        gram = next_state.gram
        assert labels.tolist() == [0, 1, 0, 0, 1, 2]
        sums = np.zeros((3, 4))
        np.add.at(sums, labels, vectors)
        assert gram == pytest.approx((sums * signature) @ sums.T, abs=1e-12)
        assert state.objective() == pytest.approx(np.trace(gram), abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("groups", ["one", "singletons", "mixed"])
    def test_compact_is_the_sparse_one_hot_product_bitwise(self, seed, groups):
        pytest.importorskip("scipy")
        from scipy import sparse

        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 150))
        X = rng.normal(size=(p, p)) * 10.0 ** rng.uniform(-8, 8, size=(p, 1))
        gram = X + X.T
        gram[rng.random((p, p)) < 0.05] = -0.0
        gram = np.maximum(gram, gram.T)  # symmetric, with its signed zeros
        if groups == "one":
            assignment = np.full(p, int(rng.integers(p)))
        elif groups == "singletons":
            assignment = rng.permutation(p)
        else:  # sizes from 1 to about p / 2, with empty groups between them
            assignment = rng.permutation(p)[np.minimum(rng.geometric(0.15, size=p), p) - 1]
        state = vp.vp.GramState(gram)
        state.assignment = assignment.copy()
        state.group_sizes = np.bincount(assignment, minlength=p)
        labels, next_state = state.compact()
        c = int(labels.max()) + 1
        assert c == {"one": 1, "singletons": p}.get(groups, c)
        onehot = sparse.csr_array((np.ones(p), (labels, np.arange(p))), shape=(c, p))
        expected = np.ascontiguousarray((onehot @ (onehot @ gram).T).T)
        assert next_state.gram.flags.c_contiguous
        assert next_state.gram.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p,dim", [(6, 5), (40, 3)])
    def test_a_level_without_moves_is_not_compacted(self, p, dim, monkeypatch):
        # Positive coordinates under an all -1 signature: every signed inner
        # product is negative, so no merge gains and every vector stays alone.
        vectors = np.random.default_rng(p).uniform(0.5, 1.5, size=(p, dim))
        emb = make_embedding(vectors, signature=-np.ones(dim, dtype=np.int64))
        compacted = []
        for cls in (vp.VPState, vp.vp.GramState):
            compact = cls.compact
            monkeypatch.setattr(cls, "compact", lambda self, compact=compact: compacted.append(1) or compact(self))
        partition, objective, diag = vp.partition_vectors(emb)
        assert compacted == []
        assert partition.num_groups == p and diag.levels == 1 and diag.moves_per_level == [0]
        assert objective == pytest.approx(-np.sum(vectors**2), rel=1e-12)
        state = vp.vp._first_state(emb)
        labels, after = vp.vp._run_level(state, np.arange(p), 1e-12, vp.VPDiagnostics(), 1e-9, 1e-9)
        assert after is state and labels.tolist() == list(range(p)) and labels.dtype == np.int64
        assert compacted == []

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("t", [1.0, 5.0])
    def test_gram_levels_match_vector_levels_on_planted_graphs(self, seed, t):
        g, _ = vp.planted_partition(4, 50, 0.2, 0.01, seed=seed)
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=t, dim=g.n - 1)
        signature = emb.signature.astype(float)
        order = np.arange(g.n)
        vector_diag, gram_diag = vp.VPDiagnostics(), vp.VPDiagnostics()
        labels_v, _ = vp.vp._run_level(vp.VPState(emb.vectors, signature), order, 1e-12, vector_diag, 1e-9, 1e-9)
        sums = group_sums(emb.vectors, labels_v)
        gram = (emb.vectors * signature) @ emb.vectors.T
        labels_g, next_state = vp.vp._run_level(vp.vp.GramState(gram), order, 1e-12, gram_diag, 1e-9, 1e-9)
        group_gram = next_state.gram
        assert np.array_equal(labels_v, labels_g)
        assert vector_diag.moves_per_level == gram_diag.moves_per_level
        assert gram_diag.objective_trajectory == pytest.approx(vector_diag.objective_trajectory, abs=1e-12)
        assert group_gram == pytest.approx((sums * signature) @ sums.T, abs=1e-12)
        for seed in (None, 3):
            p_gram, v_gram, diag = vp.partition_vectors(emb, seed)
            assert set(diag.paths_per_level) == {"gram"}
            p_vec, v_vec = vector_path_partition(emb, seed)
            assert np.array_equal(p_gram.assignment, p_vec.assignment)
            assert v_gram == v_vec


    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode, t", [("linearised", 0.5), ("linearised", 2.0), ("modularity", None)])
    def test_a_quality_matrix_runs_as_its_full_dimension_embedding(self, seed, mode, t):
        # Random weights leave no exact gain ties, so roundoff decides no move.
        g = random_connected_graph(seed, n=24, p=0.3, weighted=True)
        decompose = vp.decompose_modularity_matrix if mode == "modularity" else vp.decompose_transition
        emb = vp.build_embedding(decompose(g), mode, t=t)
        q = vp.QualityMatrix(g, mode, t)
        for order in (None, 5):
            p_graph, v_graph, diag = vp.partition_vectors(q, order)
            p_spec, v_spec, _ = vp.partition_vectors(emb, order)
            assert set(diag.paths_per_level) == {"graph"}
            assert np.array_equal(p_graph.assignment, p_spec.assignment)
            assert v_graph == pytest.approx(v_spec, abs=1e-10)
            if mode == "modularity":
                assert v_graph == vp.modularity_score(g, p_graph)
            else:
                assert v_graph == vp.linearised_stability(g, p_graph, t)

    def test_a_quality_matrix_shares_its_adjacency_read_only(self):
        q = vp.QualityMatrix(pairgraph4(), "linearised", 1.0)
        assert vp.vp._shared_gram(q) is None
        first, second = vp.vp._first_state(q), vp.vp._first_state(q)
        assert isinstance(first, vp.vp.GraphState)
        assert first.indices is second.indices is q.adjacency[1] and first.data is second.data
        assert not any(array.flags.writeable for array in q.adjacency)
        assert all(np.array_equal(a, b) for a, b in zip(q.adjacency, q.graph.adjacency()))

    def test_an_overflowing_objective_is_too_large(self):
        q = vp.QualityMatrix(vp.load_edge_list(TRIANGLE_TEXT), "linearised", 1e308)
        with pytest.raises(vp.TooLarge, match=r"^the linearised objective at t = 1e\+308 is inf"):
            vp.partition_vectors(q)


class TestExhaustivePartition:
    def test_single_vector(self):
        emb = make_embedding(np.array([[2.0, 1.0]]))
        partition, value = vp.exhaustive_partition(emb)
        assert partition.num_groups == 1
        assert value == pytest.approx(5.0)

    def test_pairgraph4_large_time(self):
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=5.0, dim=3)
        partition, value = vp.exhaustive_partition(emb)
        assert partition.canonical_key() == (0, 0, 1, 1)
        assert value == pytest.approx(np.exp(-5.0 / 3.0) / 2.0, abs=1e-12)

    def test_linearised_t1_maximises_modularity(self):
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "linearised", t=1.0, dim=3)
        partition, value = vp.exhaustive_partition(emb)
        # independent oracle: enumerate all set partitions, score modularity
        best_q = max(
            vp.modularity_score(g, vp.Partition.from_labels(labels))
            for labels in set_partitions(4)
        )
        assert value == pytest.approx(best_q, abs=1e-10)
        assert vp.modularity_score(g, partition) == pytest.approx(best_q, abs=1e-10)

    def test_agrees_with_test_side_enumeration(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(6, 2))
        emb = make_embedding(vectors, signature=[1, -1])
        partition, value = vp.exhaustive_partition(emb)
        sig = np.array([1.0, -1.0])
        best = max(raw_objective(vectors, sig, labels) for labels in set_partitions(6))
        assert value == pytest.approx(best, abs=1e-12)
        assert raw_objective(vectors, sig, np.asarray(partition.assignment)) == pytest.approx(
            best, abs=1e-12
        )

    def test_tie_breaks_toward_fewer_groups(self):
        # all-zero vectors: every partition scores 0, so the single group wins
        emb = make_embedding(np.zeros((4, 2)))
        partition, value = vp.exhaustive_partition(emb)
        assert partition.num_groups == 1
        assert value == 0.0

    def test_too_large_rejected(self):
        emb = make_embedding(np.zeros((11, 2)))
        with pytest.raises(vp.TooLarge):
            vp.exhaustive_partition(emb)


class TestHeuristicAgainstOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_never_above_and_usually_optimal(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(seed, n_range=(4, 8), weighted=True)
        basis = vp.decompose_transition(g)
        t = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        emb = vp.build_embedding(basis, "exponential", t=t, dim=g.n - 1)
        _, best_value, _ = vp.best_of_restarts(emb, 5)
        _, opt_value = vp.exhaustive_partition(emb)
        assert best_value <= opt_value + 1e-9

    def test_optimum_attainment_rate(self):
        hits = 0
        total = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            g = random_connected_graph(200 + seed, n_range=(4, 8), weighted=True)
            emb = vp.build_embedding(
                vp.decompose_transition(g),
                "exponential",
                t=float(rng.choice([0.5, 1.0, 2.0, 5.0])),
                dim=g.n - 1,
            )
            _, best_value, _ = vp.best_of_restarts(emb, 5)
            _, opt_value = vp.exhaustive_partition(emb)
            total += 1
            if abs(best_value - opt_value) <= 1e-9:
                hits += 1
        assert hits / total >= 0.9

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("extra_dims", [-1, 0, 3])
    def test_gram_path_against_oracle_with_mixed_signatures(self, seed, extra_dims):
        # dim >= p - 1, so every level runs in Gram space, on indefinite
        # signed Grams; the vector path is the second reference.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(4, 9))
        dim = p + extra_dims
        signature = np.where(np.arange(dim) < (dim + 1) // 2, 1, -1)
        emb = make_embedding(rng.normal(size=(p, dim)), signature=signature)
        _, opt_value = vp.exhaustive_partition(emb)
        _, best_value, diag = vp.best_of_restarts(emb, 5)
        assert set(diag.paths_per_level) == {"gram"}
        assert best_value <= opt_value + 1e-9
        _, vector_value = vector_path_best_of_restarts(emb, 5)
        assert best_value == pytest.approx(vector_value, abs=1e-9)

    def test_fiedler_limit_on_pairgraph4(self):
        g = pairgraph4()
        basis = vp.decompose_transition(g)
        emb = vp.build_embedding(basis, "exponential", t=500.0, dim=3)
        partition, _ = vp.exhaustive_partition(emb)
        fiedler = vp.Partition.from_labels((basis.eigenvectors[:, 1] < 0).astype(int))
        assert partition.canonical_key() == fiedler.canonical_key()


# The five mode and dimension combinations, each a graph -> embedding or quality matrix.
SCALING_RUNS = {
    "modularity-dim14": lambda g: vp.build_embedding(vp.decompose_modularity_matrix(g, dim=14), "modularity", dim=14),
    "modularity-full": lambda g: vp.QualityMatrix(g, "modularity"),
    "exponential-dim14": lambda g: vp.build_embedding(vp.decompose_transition(g, dim=14), "exponential", t=5.0, dim=14),
    "exponential-full": lambda g: vp.build_embedding(vp.decompose_transition(g), "exponential", t=5.0),
    "linearised-full": lambda g: vp.QualityMatrix(g, "linearised", 1.0),
}


class TestWeightScaling:
    @pytest.fixture(scope="class")
    def unscaled(self):
        g = scaled_weight_graph(0)
        runs = {}
        for name, make in SCALING_RUNS.items():
            partition, objective, _ = vp.best_of_restarts(make(g), 3)
            runs[name] = (partition.canonical_key(), objective)
        return runs

    @pytest.mark.parametrize("mode", ["exponential", "linearised", "modularity"])
    def test_tolerances_scale_with_the_weights(self, mode):
        # Modularity-mode gains scale like the weights and group sums like
        # their square root; the other modes do not scale. Total weight 0.5
        # makes the modularity unit 2m equal to 1, so every product is exact.
        base = vp.vp.tolerances(mode, 0.5)
        for k in (-20, 8, 20):
            scale = 4.0**k if mode == "modularity" else 1.0
            expected = (base[0] * scale, base[1] * scale, base[2] * np.sqrt(scale))
            assert vp.vp.tolerances(mode, 0.5 * 4.0**k) == expected

    @pytest.mark.parametrize("run", sorted(SCALING_RUNS))
    @pytest.mark.parametrize("k", [-20, -8, 8, 20])
    def test_weights_times_a_power_of_four_give_the_same_run(self, unscaled, k, run):
        emb = SCALING_RUNS[run](scaled_weight_graph(k))
        partition, objective, _ = vp.best_of_restarts(emb, 3)
        assert (partition.canonical_key(), objective) == unscaled[run]
