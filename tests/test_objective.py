import tracemalloc

import numpy as np
import pytest

import vecpart as vp
from helpers import (
    group_sums,
    kmeans_objective,
    linearised_autocov,
    pair_sum_objective,
    pairgraph4,
    random_connected_graph,
    random_partition,
    signed_inner,
)


class TestPartition:
    def test_from_labels_canonicalises(self):
        p = vp.Partition.from_labels([5, 5, 9, 9, 5])
        assert np.array_equal(p.assignment, [0, 0, 1, 1, 0])
        assert p.num_groups == 2
        assert np.array_equal(p.group_sizes(), [3, 2])

    def test_groups(self):
        p = vp.Partition.from_labels([0, 1, 0, 1])
        groups = p.groups()
        assert np.array_equal(groups[0], [0, 2])
        assert np.array_equal(groups[1], [1, 3])

    def test_invalid_direct_construction(self):
        with pytest.raises(ValueError):
            vp.Partition(assignment=np.array([0, 2]), num_groups=2)  # gap in labels
        with pytest.raises(ValueError):
            vp.Partition(assignment=np.array([0, 1]), num_groups=3)
        with pytest.raises(ValueError):
            vp.Partition(assignment=np.array([], dtype=np.int64), num_groups=1)

    def test_canonical_key_ignores_label_names(self):
        p1 = vp.Partition.from_labels([0, 0, 1, 1])
        p2 = vp.Partition.from_labels([1, 1, 0, 0])
        assert p1.canonical_key() == p2.canonical_key()


class TestAutocovarianceDirect:
    def test_t0_is_pi_minus_outer(self):
        g = pairgraph4()
        pi = g.degrees / (2 * g.total_weight)
        B0 = vp.autocovariance_direct(g, 0.0)
        assert np.max(np.abs(B0 - (np.diag(pi) - np.outer(pi, pi)))) <= 1e-12

    @pytest.mark.parametrize("seed,t", [(0, 0.5), (1, 1.0), (2, 3.0), (3, 12.0)])
    def test_rows_sum_to_zero(self, seed, t):
        g = random_connected_graph(seed, n_range=(4, 12), weighted=True)
        B = vp.autocovariance_direct(g, t)
        assert np.max(np.abs(B.sum(axis=1))) <= 1e-10

    def test_spectral_reconstruction(self):
        # Sum_{k >= 2} lam_k(t) (Pi v_k)(Pi v_k)^T reproduces the matrix
        # exponential route.
        g = pairgraph4()
        basis = vp.decompose_transition(g)
        t = 1.0
        weights = vp.scaled_eigenvalues(basis, "exponential", t)
        pv = basis.pi[:, None] * basis.eigenvectors
        recon = sum(weights[k] * np.outer(pv[:, k], pv[:, k]) for k in range(1, 4))
        assert np.max(np.abs(recon - vp.autocovariance_direct(g, t))) <= 1e-10

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_is_an_invalid_parameter(self, t):
        with pytest.raises(vp.InvalidParameter, match="finite"):
            vp.autocovariance_direct(pairgraph4(), t)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            vp.autocovariance_direct(pairgraph4(), -0.1)

    def test_an_n_that_fits_its_peak_but_not_its_budget_is_refused_before_allocating(self, monkeypatch):
        g = vp.load_edge_list("".join(f"{i} {i + 1}\n" for i in range(399)))
        one = 8 * g.n * g.n
        monkeypatch.setattr(vp.graph, "PHYSICAL_MEMORY", (vp.objective.AUTOCOVARIANCE_ARRAYS - 1) * one)
        tracemalloc.start()
        try:
            with pytest.raises(vp.TooLarge, match="^a dense 400 x 400 step holds 11 such matrices"):
                vp.autocovariance_direct(g, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one / 4

    @pytest.mark.parametrize("t", [1.0, 100.0])
    def test_its_peak_is_within_its_budget(self, t):
        import scipy.linalg  # noqa: F401  so the trace holds no import

        g, _ = vp.planted_partition(4, 100, 0.1, 0.01, seed=1)
        tracemalloc.start()
        try:
            vp.autocovariance_direct(g, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= vp.objective.AUTOCOVARIANCE_ARRAYS * 8 * g.n * g.n


class TestGroupSums:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("groups", ["one", "all", "some"])
    def test_bitwise_the_sequential_scatter_add(self, seed, groups):
        # np.add.at into zeros adds each group's members in index order, as
        # the per-column bincount must; -0.0 entries and wide magnitudes show
        # any other order or a different starting value.
        rng = np.random.default_rng(seed)
        p, dim = int(rng.integers(1, 40)), int(rng.integers(1, 16))
        c = {"one": 1, "all": p, "some": int(rng.integers(1, p + 1))}[groups]
        labels = rng.permutation(p) % c if groups == "all" else rng.integers(0, c, size=p)
        vectors = rng.standard_normal((p, dim)) * 10.0 ** rng.integers(-5, 300, size=(p, dim))
        vectors[rng.random((p, dim)) < 0.25] = -0.0
        expected = np.zeros((c, dim))
        np.add.at(expected, labels, vectors)
        sums = vp.objective.group_sums(vectors, labels, c)
        assert sums.tobytes() == expected.tobytes()
        assert sums.flags.c_contiguous

    def test_an_all_negative_zero_group_sums_to_positive_zero(self):
        sums = vp.objective.group_sums(np.full((3, 2), -0.0), np.array([0, 0, 1]), 2)
        assert sums.tobytes() == np.zeros((2, 2)).tobytes()

    def test_an_all_negative_zero_group_of_wide_vectors_sums_to_positive_zero(self):
        sums = vp.objective.group_sums(np.full((3, 50), -0.0), np.array([0, 0, 1]), 2)
        assert sums.tobytes() == np.zeros((2, 50)).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("layout", ["C", "F", "transposed view"])
    @pytest.mark.parametrize("loop", ["per group", "per column"])
    def test_both_loops_are_bitwise_the_scatter_add(self, seed, layout, loop):
        # group_sums loops per group when there are fewer groups than
        # columns, and per column otherwise; the labels leave groups of
        # range(c) empty, the top one included.
        rng = np.random.default_rng(seed)
        c = int(rng.integers(3, 30))
        dim = c + int(rng.integers(1, 60)) if loop == "per group" else int(rng.integers(1, c + 1))
        p = int(rng.integers(c, 3 * c))
        labels = rng.choice(np.arange(0, c - 1, 2), size=p)
        vectors = rng.standard_normal((p, dim)) * 10.0 ** rng.integers(-300, 300, size=(p, dim))
        vectors[rng.random((p, dim)) < 0.25] = -0.0
        if layout == "F":
            vectors = np.asfortranarray(vectors)
        elif layout == "transposed view":
            vectors = np.ascontiguousarray(vectors.T).T
        sums = vp.objective.group_sums(vectors, labels, c)
        assert sums.tobytes() == group_sums(vectors, labels, c).tobytes()
        assert sums.flags.c_contiguous
        assert not sums[c - 1].any()

    @pytest.mark.parametrize("dim", [1, 2, 40])
    def test_one_group_is_the_scatter_add(self, dim):
        rng = np.random.default_rng(dim)
        vectors = rng.standard_normal((30, dim)) * 10.0 ** rng.integers(-300, 300, size=(30, dim))
        labels = np.zeros(30, dtype=np.int64)
        sums = vp.objective.group_sums(vectors, labels, 1)
        assert sums.tobytes() == group_sums(vectors, labels).tobytes()

    @pytest.mark.parametrize("dim", [0, 3])
    def test_no_groups_is_an_empty_array(self, dim):
        assert vp.objective.group_sums(np.ones((0, dim)), np.zeros(0, dtype=np.int64), 0).shape == (0, dim)


class TestStability:
    def test_all_in_one_is_zero(self):
        g = pairgraph4()
        basis = vp.decompose_transition(g)
        p = vp.Partition.from_labels([0, 0, 0, 0])
        for mode, t in (("exponential", 2.0), ("linearised", 1.0)):
            emb = vp.build_embedding(basis, mode, t=t, dim=3)
            assert abs(vp.stability(emb, p)) <= 1e-10

    def test_all_singletons_equals_trace(self):
        for seed in range(4):
            g = random_connected_graph(seed, n_range=(4, 10), weighted=True)
            basis = vp.decompose_transition(g)
            p = vp.Partition.from_labels(range(g.n))
            for t in (0.5, 2.0):
                emb = vp.build_embedding(basis, "exponential", t=t, dim=g.n - 1)
                trace = float(np.trace(vp.autocovariance_direct(g, t)))
                assert vp.stability(emb, p) == pytest.approx(trace, abs=1e-8)

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_pairgraph4_bipartition_value(self, t):
        # Hand Gram computation: only the (1,1,-1,-1) eigendirection survives
        # the within-pair sums, leaving lam_2(t) / 2.
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=t, dim=3)
        p = vp.Partition.from_labels([0, 0, 1, 1])
        expected = np.exp(-t / 3.0) / 2.0
        assert vp.stability(emb, p) == pytest.approx(expected, abs=1e-9)
        direct = pair_sum_objective(vp.autocovariance_direct(g, t), p)
        assert vp.stability(emb, p) == pytest.approx(direct, abs=1e-9)

    def test_size_mismatch(self):
        emb = vp.build_embedding(vp.decompose_transition(pairgraph4()), "exponential", t=1.0, dim=3)
        with pytest.raises(vp.SizeMismatch):
            vp.stability(emb, vp.Partition.from_labels([0, 0, 1]))


class TestModularityScore:
    def test_all_in_one_is_zero(self):
        g = pairgraph4()
        assert vp.modularity_score(g, vp.Partition.from_labels([0] * 4)) == pytest.approx(0.0, abs=1e-15)

    def test_pairgraph4_bipartition_is_one_third(self):
        q = vp.modularity_score(pairgraph4(), vp.Partition.from_labels([0, 0, 1, 1]))
        assert q == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_two_triangles_with_bridge(self):
        g = vp.load_edge_list("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3\n")
        p = vp.Partition.from_labels([0, 0, 0, 1, 1, 1])
        # direct-formula oracle: full double loop over node pairs
        A = g.dense_adjacency()
        d = g.degrees
        two_m = 2 * g.total_weight
        q_oracle = sum(
            (A[i, j] - d[i] * d[j] / two_m) / two_m
            for i in range(6)
            for j in range(6)
            if p.assignment[i] == p.assignment[j]
        )
        assert vp.modularity_score(g, p) == pytest.approx(q_oracle, abs=1e-12)
        assert q_oracle == pytest.approx(5.0 / 14.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_on_random_weighted_graphs(self, seed):
        nx = pytest.importorskip("networkx")
        g = random_connected_graph(seed, n_range=(5, 12), weighted=True)
        partition = random_partition(np.random.default_rng(seed), g.n)
        G = nx.Graph()
        G.add_weighted_edges_from((int(i), int(j), float(w)) for (i, j), w in zip(g.edge_index, g.edge_weight))
        communities = [set(members.tolist()) for members in partition.groups()]
        expected = nx.community.modularity(G, communities, weight="weight")
        assert vp.modularity_score(g, partition) == pytest.approx(expected, abs=1e-12)


class TestLinearisedStability:
    def test_t1_equals_modularity_exactly(self):
        for seed in range(5):
            g = random_connected_graph(seed, n_range=(4, 10), weighted=True)
            rng = np.random.default_rng(seed)
            p = random_partition(rng, g.n)
            assert vp.linearised_stability(g, p, 1.0) == pytest.approx(
                vp.modularity_score(g, p), abs=1e-12
            )

    def test_all_in_one_is_zero(self):
        g = pairgraph4()
        p = vp.Partition.from_labels([0] * 4)
        for t in (0.5, 1.0, 2.0, 7.0):
            assert vp.linearised_stability(g, p, t) == pytest.approx(0.0, abs=1e-12)

    def test_pairgraph4_matches_pseudo_euclidean_stability(self):
        g = pairgraph4()
        basis = vp.decompose_transition(g)
        p = vp.Partition.from_labels([0, 0, 1, 1])
        for t in (0.5, 1.0, 2.0):
            emb = vp.build_embedding(basis, "linearised", t=t, dim=3)
            assert vp.linearised_stability(g, p, t) == pytest.approx(
                vp.stability(emb, p), abs=1e-8
            )
        # spot value at t = 2: only the top mode survives, mu_2(2) / 2 = 1/6
        assert vp.linearised_stability(g, p, 2.0) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_matches_pair_sum_of_assembled_matrix(self):
        for seed in range(4):
            g = random_connected_graph(seed, n_range=(4, 9), weighted=True)
            rng = np.random.default_rng(100 + seed)
            p = random_partition(rng, g.n)
            for t in (0.5, 2.0, 5.0):
                oracle = pair_sum_objective(linearised_autocov(g, t), p)
                assert vp.linearised_stability(g, p, t) == pytest.approx(oracle, abs=1e-10)

    def test_invalid_time(self):
        with pytest.raises(ValueError):
            vp.linearised_stability(pairgraph4(), vp.Partition.from_labels([0] * 4), 0.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_is_an_invalid_parameter(self, t):
        with pytest.raises(vp.InvalidParameter, match="finite"):
            vp.linearised_stability(pairgraph4(), vp.Partition.from_labels([0] * 4), t)


class TestEquivalenceChains:
    """Spectral-vector objectives against their direct matrix-form oracles."""

    def test_euclidean_chain(self):
        rng = np.random.default_rng(42)
        for seed in range(8):
            g = random_connected_graph(seed, n_range=(4, 16), weighted=True)
            basis = vp.decompose_transition(g)
            for t in (0.5, 1.0, 2.0, 5.0):
                emb = vp.build_embedding(basis, "exponential", t=t, dim=g.n - 1)
                B = vp.autocovariance_direct(g, t)
                for _ in range(3):
                    p = random_partition(rng, g.n)
                    assert abs(vp.stability(emb, p) - pair_sum_objective(B, p)) <= 1e-8

    def test_pseudo_euclidean_chain(self):
        rng = np.random.default_rng(43)
        for seed in range(8):
            g = random_connected_graph(seed, n_range=(4, 16), weighted=True)
            basis = vp.decompose_transition(g)
            for t in (0.5, 1.0, 2.0, 5.0):
                emb = vp.build_embedding(basis, "linearised", t=t, dim=g.n - 1)
                for _ in range(3):
                    p = random_partition(rng, g.n)
                    assert abs(vp.stability(emb, p) - vp.linearised_stability(g, p, t)) <= 1e-8

    def test_modularity_recovery(self):
        rng = np.random.default_rng(44)
        for seed in range(6):
            g = random_connected_graph(seed, n_range=(4, 16), weighted=True)
            emb = vp.build_embedding(vp.decompose_transition(g), "linearised", t=1.0, dim=g.n - 1)
            for _ in range(3):
                p = random_partition(rng, g.n)
                assert abs(vp.stability(emb, p) - vp.modularity_score(g, p)) <= 1e-10

    def test_modularity_mode_matches_modularity_score(self):
        rng = np.random.default_rng(45)
        for seed in range(6):
            g = random_connected_graph(seed, n_range=(4, 12), weighted=True)
            emb = vp.build_embedding(vp.decompose_modularity_matrix(g), "modularity", dim=g.n - 1)
            for _ in range(3):
                p = random_partition(rng, g.n)
                assert abs(vp.stability(emb, p) - vp.modularity_score(g, p)) <= 1e-10

    def test_relabelling_and_node_permutation_invariance(self):
        rng = np.random.default_rng(46)
        g = random_connected_graph(1, n_range=(6, 9), weighted=True)
        basis = vp.decompose_transition(g)
        emb = vp.build_embedding(basis, "exponential", t=1.5, dim=g.n - 1)
        p = random_partition(rng, g.n)
        # permuting group labels changes nothing
        relabel = rng.permutation(p.num_groups)
        p_relabelled = vp.Partition.from_labels(relabel[p.assignment])
        assert vp.stability(emb, p) == pytest.approx(vp.stability(emb, p_relabelled), abs=1e-12)
        assert vp.modularity_score(g, p) == pytest.approx(
            vp.modularity_score(g, p_relabelled), abs=1e-12
        )
        # permuting node ids along with the partition changes nothing
        perm = rng.permutation(g.n)
        inv = np.empty(g.n, dtype=int)
        inv[perm] = np.arange(g.n)
        lines = [f"{inv[i]} {inv[j]} {w!r}" for i, j, w in g.edges]
        g_perm = vp.load_edge_list("\n".join(lines))
        p_perm = vp.Partition.from_labels(p.assignment[perm])
        assert vp.modularity_score(g_perm, p_perm) == pytest.approx(
            vp.modularity_score(g, p), abs=1e-12
        )
        for t in (0.7, 2.0):
            assert vp.linearised_stability(g_perm, p_perm, t) == pytest.approx(
                vp.linearised_stability(g, p, t), abs=1e-12
            )


class TestKmeansObjective:
    def test_all_singletons(self):
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=1.0, dim=3)
        distortion, F = kmeans_objective(emb, vp.Partition.from_labels(range(4)))
        assert distortion == pytest.approx(0.0, abs=1e-12)
        assert F == pytest.approx(float((emb.vectors**2).sum()), abs=1e-12)

    def test_all_in_one(self):
        g = pairgraph4()
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=1.0, dim=3)
        distortion, F = kmeans_objective(emb, vp.Partition.from_labels([0] * 4))
        assert F == pytest.approx(0.0, abs=1e-12)
        assert distortion == pytest.approx(float((emb.vectors**2).sum()), abs=1e-12)

    def test_identity_against_direct_centroids(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(7, n=8, p=0.5, weighted=True)
        emb = vp.build_embedding(vp.decompose_transition(g), "exponential", t=1.0, dim=7)
        for _ in range(5):
            p = random_partition(rng, 8)
            distortion, F = kmeans_objective(emb, p)
            # direct definition of the distortion
            direct = 0.0
            for members in p.groups():
                centroid = emb.vectors[members].mean(axis=0)
                direct += float(((emb.vectors[members] - centroid) ** 2).sum())
            assert distortion == pytest.approx(direct, abs=1e-12)
            assert distortion == pytest.approx(float((emb.vectors**2).sum()) - F, abs=1e-10)


class TestSignedInner:
    def _embedding(self, signature):
        signature = np.asarray(signature, dtype=np.int64)
        dim = signature.size
        return vp.Embedding(
            mode="linearised",
            time=1.0,
            dim=dim,
            vectors=np.zeros((2, dim)),
            signature=signature,
            total_weight=1.0,
        )

    def test_plain_dot_product_with_positive_signature(self):
        emb = self._embedding([1, 1])
        assert signed_inner(emb, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_null_vector_of_indefinite_form(self):
        emb = self._embedding([1, -1])
        assert signed_inner(emb, np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 0.0

    def test_polarisation_identity_gives_linearised_covariance(self):
        # q(x_i + x_j) - q(x_i) - q(x_j) = 2 B_lin(t)_ij at full dimension
        for seed in range(4):
            g = random_connected_graph(seed, n_range=(4, 8), weighted=True)
            basis = vp.decompose_transition(g)
            for t in (0.8, 2.5):
                emb = vp.build_embedding(basis, "linearised", t=t, dim=g.n - 1)
                B = linearised_autocov(g, t)
                for i in range(g.n):
                    for j in range(i + 1, g.n):
                        xi, xj = emb.vectors[i], emb.vectors[j]
                        lhs = (
                            signed_inner(emb, xi + xj, xi + xj)
                            - signed_inner(emb, xi, xi)
                            - signed_inner(emb, xj, xj)
                        )
                        assert lhs == pytest.approx(2.0 * B[i, j], abs=1e-10)
