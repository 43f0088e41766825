import dataclasses
import tracemalloc

import numpy as np
import pytest

import vecpart as vp
from vecpart.cli import main
from helpers import CYCLE4_TEXT, TRIANGLE_TEXT, linearised_autocov, pairgraph4, quality_gram, random_connected_graph


def dense_transition_eigenvalues(g):
    """Oracle: eigenvalues of D^-1 A via the plain nonsymmetric solver."""
    M = g.dense_adjacency() / g.degrees[:, None]
    w = np.linalg.eigvals(M)
    assert np.max(np.abs(w.imag)) < 1e-10
    return np.sort(w.real)[::-1]


class TestDecomposeTransition:
    def test_pairgraph4_eigenvalues(self):
        basis = vp.decompose_transition(pairgraph4())
        # Hand computation from the symmetry eigenvectors (1,1,1,1),
        # (1,1,-1,-1), (1,-1,1,-1), (1,-1,-1,1) of M = A / 12.
        expected = np.array([1.0, 2.0 / 3.0, -5.0 / 6.0, -5.0 / 6.0])
        assert np.allclose(basis.eigenvalues, expected, atol=1e-10)
        assert np.allclose(basis.eigenvalues, dense_transition_eigenvalues(pairgraph4()), atol=1e-10)

    def test_triangle_eigenvalues(self):
        basis = vp.decompose_transition(vp.load_edge_list(TRIANGLE_TEXT))
        assert np.allclose(basis.eigenvalues, [1.0, -0.5, -0.5], atol=1e-10)

    def test_cycle4_eigenvalues_bipartite(self):
        g = vp.load_edge_list(CYCLE4_TEXT)
        basis = vp.decompose_transition(g)
        assert np.allclose(basis.eigenvalues, [1.0, 0.0, 0.0, -1.0], atol=1e-10)
        assert np.allclose(basis.eigenvalues, dense_transition_eigenvalues(g), atol=1e-10)
        assert basis.eigenvalues[-1] == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_on_random_graphs(self, seed):
        g = random_connected_graph(seed, n_range=(3, 15), weighted=seed % 2 == 0)
        basis = vp.decompose_transition(g)
        lam, V = basis.eigenvalues, basis.eigenvectors
        assert abs(lam[0] - 1.0) <= 1e-10
        assert np.all(lam >= -1.0 - 1e-10) and np.all(lam <= 1.0 + 1e-10)
        assert np.all(np.diff(lam) <= 1e-12)
        # v_1 is constant up to sign and scale
        v1 = V[:, 0]
        assert np.max(np.abs(v1 - v1[0])) <= 1e-8 * max(1.0, abs(v1[0]))
        # Pi-orthonormality
        gram = V.T @ (basis.pi[:, None] * V)
        assert np.max(np.abs(gram - np.eye(g.n))) <= 1e-8
        # eigen residual on M itself
        M = g.dense_adjacency() / g.degrees[:, None]
        assert np.max(np.abs(M @ V - V * lam[None, :])) <= 1e-8
        assert np.allclose(basis.pi, g.degrees / (2 * g.total_weight))

    def test_zero_degree_rejected(self):
        empty = np.empty((0, 2), dtype=np.int64)
        lone = vp.Graph(
            n=1,
            edge_index=empty,
            edge_weight=np.empty(0),
            degrees=np.zeros(1),
            total_weight=0.0,
        )
        with pytest.raises(vp.ZeroDegree):
            vp.decompose_transition(lone)

    def test_sign_convention_deterministic(self):
        b1 = vp.decompose_transition(pairgraph4())
        b2 = vp.decompose_transition(pairgraph4())
        assert np.array_equal(b1.eigenvectors, b2.eigenvectors)
        largest = np.abs(b1.eigenvectors).argmax(axis=0)
        assert np.all(b1.eigenvectors[largest, np.arange(4)] > 0)


class TestDecomposeModularityMatrix:
    def test_all_ones_is_zero_mode(self):
        basis = vp.decompose_modularity_matrix(pairgraph4())
        g = pairgraph4()
        B = g.dense_adjacency() - np.outer(g.degrees, g.degrees) / (2 * g.total_weight)
        assert np.max(np.abs(B @ np.ones(4))) <= 1e-10
        # the zero mode along the ones direction is carried explicitly
        overlaps = np.abs(basis.eigenvectors.sum(axis=0))
        k = int(np.argmax(overlaps))
        assert overlaps[k] == pytest.approx(2.0, abs=1e-12)  # sqrt(n)
        assert abs(basis.eigenvalues[k]) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_assembly_oracle(self, seed):
        g = random_connected_graph(seed, n_range=(3, 12), weighted=True)
        basis = vp.decompose_modularity_matrix(g)
        B = g.dense_adjacency() - np.outer(g.degrees, g.degrees) / (2 * g.total_weight)
        oracle = np.sort(np.linalg.eigvalsh(B))[::-1]
        assert np.allclose(basis.eigenvalues, oracle, atol=1e-8)
        # orthonormal eigenvectors and small residual
        U = basis.eigenvectors
        assert np.max(np.abs(U.T @ U - np.eye(g.n))) <= 1e-8
        assert np.max(np.abs(B @ U - U * basis.eigenvalues[None, :])) <= 1e-8

    def test_graph_without_edges_rejected(self):
        empty = np.empty((0, 2), dtype=np.int64)
        lone = vp.Graph(n=1, edge_index=empty, edge_weight=np.empty(0), degrees=np.zeros(1), total_weight=0.0)
        with pytest.raises(vp.ZeroDegree):
            vp.decompose_modularity_matrix(lone)

    def test_path4_has_negative_eigenvalue(self):
        g = vp.load_edge_list("0 1\n1 2\n2 3\n")
        basis = vp.decompose_modularity_matrix(g)
        B = g.dense_adjacency() - np.outer(g.degrees, g.degrees) / (2 * g.total_weight)
        oracle = np.sort(np.linalg.eigvalsh(B))[::-1]
        assert np.allclose(basis.eigenvalues, oracle, atol=1e-10)
        assert basis.eigenvalues.min() < -1e-6

    @pytest.mark.parametrize("n, dim", [(4, None), (300, 2)])  # the dense and the truncated path
    def test_overflowing_degree_products_are_named_error(self, n, dim):
        # Each degree is 2e200: the degree sum is finite, d @ d is not.
        g = vp.load_edge_list("".join(f"{i} {(i + 1) % n} 1e200\n" for i in range(n)))
        with pytest.raises(vp.TooLarge, match="modularity"):
            vp.decompose_modularity_matrix(g, dim=dim)
        assert np.all(np.isfinite(vp.decompose_transition(g, dim=dim).eigenvalues))

    @pytest.mark.parametrize("a, b", [(2, 3), (3, 5), (10, 15)])
    def test_dense_path_on_a_repeated_zero_eigenvalue(self, a, b):
        # B_Q of the complete bipartite graph K_a,b has rank one: n - 1 zero
        # eigenvalues, the ones direction among them.
        g = vp.load_edge_list("".join(f"{i} {a + j}\n" for i in range(a) for j in range(b)))
        n = g.n
        basis = vp.decompose_modularity_matrix(g)
        U, lam = basis.eigenvectors, basis.eigenvalues
        B = g.dense_adjacency() - np.outer(g.degrees, g.degrees) / (2 * g.total_weight)
        oracle = np.sort(np.linalg.eigvalsh(B))[::-1]
        assert np.sum(np.abs(oracle) <= 1e-10) == n - 1
        overlaps = np.abs(U.sum(axis=0))
        k = int(np.argmax(overlaps))
        assert overlaps[k] == pytest.approx(np.sqrt(n), abs=1e-12)
        assert np.max(np.delete(overlaps, k)) / np.sqrt(n) <= 1e-12
        assert np.max(np.abs(U.T @ U - np.eye(n))) <= 1e-10
        assert np.max(np.abs(B @ U - U * lam[None, :])) <= 1e-10
        assert np.max(np.abs(lam - oracle)) <= 1e-10

    def test_large_weights_below_the_overflow_still_decompose(self):
        g = vp.load_edge_list("0 1 1e153\n1 2 1e153\n2 3 1e153\n0 3 1e153\n")
        basis = vp.decompose_modularity_matrix(g)
        B = g.dense_adjacency() - np.outer(g.degrees, g.degrees) / (2 * g.total_weight)
        assert np.allclose(basis.eigenvalues, np.sort(np.linalg.eigvalsh(B))[::-1], rtol=0, atol=1e-12 * 4e153)


class TestScaledEigenvalues:
    def test_stationary_mode_weight_is_one(self):
        basis = vp.decompose_transition(pairgraph4())
        for t in (0.0, 1.0, 7.5):
            assert vp.scaled_eigenvalues(basis, "exponential", t)[0] == pytest.approx(1.0)
        for t in (0.5, 1.0, 7.5):
            assert vp.scaled_eigenvalues(basis, "linearised", t)[0] == pytest.approx(1.0)

    def test_exponential_value(self):
        basis = vp.decompose_transition(pairgraph4())
        # lam = 2/3 at t = 3 decays to exp(-3 * 1/3) = 1/e
        assert vp.scaled_eigenvalues(basis, "exponential", 3.0)[1] == pytest.approx(
            np.exp(-1.0), abs=1e-12
        )

    def test_linearised_at_t1_equals_eigenvalues(self):
        basis = vp.decompose_transition(pairgraph4())
        mu = vp.scaled_eigenvalues(basis, "linearised", 1.0)
        assert np.allclose(mu, basis.eigenvalues, atol=1e-12)
        assert mu[2] == pytest.approx(-5.0 / 6.0, abs=1e-10)

    def test_exponential_weights_positive_at_most_one(self):
        g = random_connected_graph(3, n_range=(5, 10))
        basis = vp.decompose_transition(g)
        for t in (0.0, 0.5, 2.0, 20.0):
            w = vp.scaled_eigenvalues(basis, "exponential", t)
            assert np.all(w > 0) and np.all(w <= 1.0 + 1e-12)

    def test_wrong_basis_rejected(self):
        basis = vp.decompose_modularity_matrix(pairgraph4())
        with pytest.raises(vp.ModeBasisMismatch):
            vp.scaled_eigenvalues(basis, "exponential", 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_eigenvalue_above_one_is_clipped(self):
        # A solver may return the stationary eigenvalue as 1 + eps, as on a
        # 3-node path; at t = 1e300 its exponential weight would overflow.
        basis = vp.decompose_transition(pairgraph4())
        lam = basis.eigenvalues.copy()
        lam[0] = np.nextafter(1.0, 2.0)
        above = dataclasses.replace(basis, eigenvalues=lam)
        for mode in ("exponential", "linearised"):
            assert vp.scaled_eigenvalues(above, mode, 1e300)[0] == 1.0


class TestBuildEmbedding:
    def test_exponential_weight_at_t3(self):
        basis = vp.decompose_transition(pairgraph4())
        emb = vp.build_embedding(basis, "exponential", t=3.0, dim=3)
        # squared norm of the first component column across nodes:
        # exp(-1) * sum_i (pi_i v_2i)^2 = exp(-1) * 1/4 for this graph
        col = emb.vectors[:, 0]
        assert float(col @ col) == pytest.approx(np.exp(-1.0) / 4.0, abs=1e-12)
        assert np.all(emb.signature == 1)
        assert emb.is_euclidean
        assert emb.time == 3.0 and emb.dim == 3

    def test_t0_full_dim_gram_matches_covariance_at_zero(self):
        g = random_connected_graph(5, n_range=(4, 9), weighted=True)
        basis = vp.decompose_transition(g)
        emb = vp.build_embedding(basis, "exponential", t=0.0, dim=g.n - 1)
        pi = basis.pi
        target = np.diag(pi) - np.outer(pi, pi)
        assert np.max(np.abs(emb.vectors @ emb.vectors.T - target)) <= 1e-10

    def test_linearised_signature_pairgraph4(self):
        basis = vp.decompose_transition(pairgraph4())
        emb = vp.build_embedding(basis, "linearised", t=1.0, dim=3)
        # mu_k(1) = lam_k, so mu = (2/3, -5/6, -5/6) on the retained modes
        assert np.array_equal(emb.signature, [1, -1, -1])
        assert not emb.is_euclidean
        sq = (emb.vectors**2).sum(axis=0)
        assert sq[0] == pytest.approx((2.0 / 3.0) / 4.0, abs=1e-12)
        assert sq[1] == pytest.approx((5.0 / 6.0) / 4.0, abs=1e-12)

    @pytest.mark.parametrize("mode,t", [("exponential", 2.0), ("linearised", 1.5)])
    def test_zero_sum(self, mode, t):
        for seed in range(4):
            g = random_connected_graph(seed, n_range=(4, 12), weighted=True)
            emb = vp.build_embedding(vp.decompose_transition(g), mode, t=t, dim=g.n - 1)
            assert np.max(np.abs(emb.vectors.sum(axis=0))) <= 1e-8

    def test_zero_sum_modularity(self):
        g = random_connected_graph(9, n_range=(5, 10))
        emb = vp.build_embedding(vp.decompose_modularity_matrix(g), "modularity", dim=g.n - 1)
        assert np.max(np.abs(emb.vectors.sum(axis=0))) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_identity_against_direct_autocovariance(self, seed):
        pytest.importorskip("scipy")
        g = random_connected_graph(seed, n_range=(4, 20), weighted=seed % 2 == 1)
        basis = vp.decompose_transition(g)
        for t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
            emb = vp.build_embedding(basis, "exponential", t=t, dim=g.n - 1)
            B = vp.autocovariance_direct(g, t)
            assert np.max(np.abs(emb.vectors @ emb.vectors.T - B)) <= 1e-8

    def test_monotone_shrinkage(self):
        g = random_connected_graph(2, n_range=(5, 10), weighted=True)
        basis = vp.decompose_transition(g)
        times = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0]
        embeddings = [vp.build_embedding(basis, "exponential", t=t, dim=g.n - 1) for t in times]
        for earlier, later in zip(embeddings, embeddings[1:]):
            assert np.all(np.abs(later.vectors) <= np.abs(earlier.vectors) + 1e-15)

    def test_asymptotic_dominance(self):
        # With a spectral gap lam_2 > lam_3 the second-to-first component
        # ratio decays by exactly exp(-t (lam_2 - lam_3) / 2), so the first
        # component dominates as t grows.
        checked = 0
        for seed in (0, 2, 4, 7):
            g = random_connected_graph(seed, n_range=(5, 8), weighted=True)
            basis = vp.decompose_transition(g)
            lam = basis.eigenvalues
            if lam[1] - lam[2] < 0.01:
                continue
            factor = np.exp(-200.0 * (lam[1] - lam[2]) / 2.0)
            assert factor < 1e-1
            at0 = vp.build_embedding(basis, "exponential", t=0.0, dim=g.n - 1)
            at200 = vp.build_embedding(basis, "exponential", t=200.0, dim=g.n - 1)
            mask = np.abs(at0.vectors[:, 0]) > 1e-12
            assert mask.any()
            r0 = np.abs(at0.vectors[mask, 1]) / np.abs(at0.vectors[mask, 0])
            r200 = np.abs(at200.vectors[mask, 1]) / np.abs(at200.vectors[mask, 0])
            assert np.all(r200 <= factor * r0 * (1.0 + 1e-6) + 1e-300)
            checked += 1
        assert checked >= 2

    def test_truncation_consistency(self):
        g = random_connected_graph(6, n_range=(6, 10), weighted=True)
        basis = vp.decompose_transition(g)
        for mode, t in (("exponential", 1.3), ("linearised", 2.0)):
            full = vp.build_embedding(basis, mode, t=t, dim=g.n - 1)
            for d in (1, 2, g.n - 2):
                part = vp.build_embedding(basis, mode, t=t, dim=d)
                assert np.array_equal(part.vectors, full.vectors[:, :d])
                assert np.array_equal(part.signature, full.signature[:d])

    def test_signature_sorted(self):
        # No permutation sorts the signature: the basis's descending order
        # under a weight monotone in it does, in every mode, from either solver.
        small = random_connected_graph(8, n_range=(6, 10))
        weighted = random_connected_graph(2, n_range=(12, 20), weighted=True)
        path = vp.load_edge_list("0 1\n1 2\n2 3\n")
        large, _ = vp.planted_partition(4, 100, 0.1, 0.01, seed=0)
        embeddings = []
        for g, dim in ((small, None), (weighted, None), (large, 14)):
            basis = vp.decompose_transition(g, dim=dim)
            assert (basis.pairs < g.n) == (dim is not None)  # ARPACK's at dim 14
            for mode in ("linearised", "exponential"):
                embeddings += [vp.build_embedding(basis, mode, t=t, dim=dim) for t in (0.5, 1.0, 3.0, 10.0, 50.0)]
        for g, dim in ((weighted, None), (path, None), (large, 14)):
            embeddings.append(vp.build_embedding(vp.decompose_modularity_matrix(g, dim=dim), "modularity", dim=dim))
        # The path's B_Q spectrum is (0.618, 0, -0.667, -1.618): the skipped
        # all-ones zero mode sits between the signs.
        assert embeddings[-2].signature.tolist() == [1, -1, -1]
        assert sum(np.any(emb.signature < 0) for emb in embeddings) >= 10
        for emb in embeddings:
            assert np.all(np.diff(emb.signature) <= 0)  # +1 block first, then -1 block
            assert emb.vectors.flags.c_contiguous

    def test_degenerate_eigenspace_rotation_invariance(self):
        # pairgraph4 has a two-dimensional eigenspace at -5/6; objectives
        # only see Gram values, so any orthonormal basis of it is equivalent.
        g = pairgraph4()
        basis = vp.decompose_transition(g)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        V = basis.eigenvectors.copy()
        V[:, 2:4] = V[:, 2:4] @ rot
        rotated = vp.SpectralBasis(
            source="transition",
            eigenvalues=basis.eigenvalues,
            eigenvectors=V,
            pi=basis.pi,
            total_weight=basis.total_weight,
        )
        rng = np.random.default_rng(0)
        for t in (0.5, 2.0):
            e1 = vp.build_embedding(basis, "exponential", t=t, dim=3)
            e2 = vp.build_embedding(rotated, "exponential", t=t, dim=3)
            for _ in range(5):
                p = vp.Partition.from_labels(rng.integers(0, 3, size=4))
                assert vp.stability(e1, p) == pytest.approx(vp.stability(e2, p), abs=1e-9)

    def test_dim_out_of_range(self):
        basis = vp.decompose_transition(pairgraph4())
        with pytest.raises(vp.DimOutOfRange):
            vp.build_embedding(basis, "exponential", t=1.0, dim=0)
        with pytest.raises(vp.DimOutOfRange):
            vp.build_embedding(basis, "exponential", t=1.0, dim=4)

    def test_mode_basis_mismatch(self):
        tb = vp.decompose_transition(pairgraph4())
        mb = vp.decompose_modularity_matrix(pairgraph4())
        with pytest.raises(vp.ModeBasisMismatch):
            vp.build_embedding(tb, "modularity", dim=2)
        with pytest.raises(vp.ModeBasisMismatch):
            vp.build_embedding(mb, "exponential", t=1.0, dim=2)

    def test_unknown_mode_is_an_invalid_parameter(self):
        basis = vp.decompose_transition(pairgraph4())
        with pytest.raises(vp.InvalidParameter, match="mode must be one of"):
            vp.build_embedding(basis, "markov", t=1.0, dim=2)

    def test_time_validation(self):
        basis = vp.decompose_transition(pairgraph4())
        with pytest.raises(ValueError):
            vp.build_embedding(basis, "exponential", t=-1.0, dim=2)
        with pytest.raises(ValueError):
            vp.build_embedding(basis, "linearised", t=0.0, dim=2)
        with pytest.raises(ValueError):
            vp.build_embedding(basis, "exponential", dim=2)

    @pytest.mark.parametrize("mode", ["exponential", "linearised"])
    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_is_an_invalid_parameter(self, mode, t):
        basis = vp.decompose_transition(pairgraph4())
        with pytest.raises(vp.InvalidParameter, match="finite"):
            vp.scaled_eigenvalues(basis, mode, t)
        with pytest.raises(vp.InvalidParameter, match="finite"):
            vp.build_embedding(basis, mode, t=t, dim=2)

    def test_modularity_embedding_excludes_ones_mode(self):
        g = random_connected_graph(11, n_range=(5, 9))
        basis = vp.decompose_modularity_matrix(g)
        emb = vp.build_embedding(basis, "modularity", dim=g.n - 1)
        assert emb.time is None
        # full-dimension signed Gram reproduces B_Q
        B = g.dense_adjacency() - np.outer(g.degrees, g.degrees) / (2 * g.total_weight)
        gram = (emb.vectors * emb.signature) @ emb.vectors.T
        assert np.max(np.abs(gram - B)) <= 1e-8


# Large enough for the truncated eigensolver: n = 400 and DIM + 2 pairs.
TRUNCATED_DIM = 12
SOURCES = ("transition", "modularity")


@pytest.fixture(scope="module")
def planted400():
    g, _ = vp.planted_partition(8, 50, 0.2, 0.01, seed=1)
    return g


def bases(g, source, dim=TRUNCATED_DIM):
    decompose = vp.decompose_transition if source == "transition" else vp.decompose_modularity_matrix
    return decompose(g), decompose(g, dim=dim)


def component_indices(basis):
    """Columns an embedding may use, in order: all but the stationary or ones mode."""
    columns = np.arange(basis.pairs)
    if basis.source == "transition":
        return columns[1:]
    return np.delete(columns, int(np.argmax(np.abs(basis.eigenvectors.sum(axis=0)))))


def component_eigenvalues(basis):
    """Eigenvalues an embedding may use, in order: without the stationary or ones mode."""
    return basis.eigenvalues[component_indices(basis)]


def signed_gram(emb):
    return (emb.vectors * emb.signature) @ emb.vectors.T


MODE_CASES = [("transition", "exponential", 2.0), ("transition", "linearised", 1.5), ("modularity", "modularity", None)]


class TestTruncatedEigensolver:
    @pytest.mark.parametrize("source", SOURCES)
    def test_holds_only_the_pairs_asked_for(self, planted400, source):
        dense, truncated = bases(planted400, source)
        assert dense.pairs == dense.n == 400
        assert truncated.pairs == TRUNCATED_DIM + 2 and truncated.n == 400
        assert truncated.eigenvectors.shape == (400, TRUNCATED_DIM + 2)

    @pytest.mark.parametrize("source", SOURCES)
    def test_eigenvalues_match_dense(self, planted400, source):
        dense, truncated = bases(planted400, source)
        lam = component_eigenvalues(truncated)
        assert np.max(np.abs(lam - component_eigenvalues(dense)[: lam.size])) <= 1e-10
        assert np.all(np.diff(truncated.eigenvalues) <= 0)

    @pytest.mark.parametrize("source,mode,t", MODE_CASES)
    def test_embedding_grams_match_dense(self, planted400, source, mode, t):
        dense, truncated = bases(planted400, source)
        g_dense = signed_gram(vp.build_embedding(dense, mode, t=t, dim=TRUNCATED_DIM))
        g_trunc = signed_gram(vp.build_embedding(truncated, mode, t=t, dim=TRUNCATED_DIM))
        assert np.max(np.abs(g_trunc - g_dense)) <= 1e-10 * np.max(np.abs(g_dense))

    @pytest.mark.parametrize("source,mode,t", MODE_CASES)
    def test_partitions_match_dense(self, planted400, source, mode, t):
        dense, truncated = bases(planted400, source)
        p_dense, obj_dense, _ = vp.partition_vectors(vp.build_embedding(dense, mode, t=t, dim=TRUNCATED_DIM))
        p_trunc, obj_trunc, _ = vp.partition_vectors(vp.build_embedding(truncated, mode, t=t, dim=TRUNCATED_DIM))
        assert np.array_equal(p_trunc.assignment, p_dense.assignment)
        assert obj_trunc == pytest.approx(obj_dense, rel=1e-9)

    @pytest.mark.parametrize("source", SOURCES)
    def test_repeat_calls_are_byte_identical(self, planted400, source):
        _, first = bases(planted400, source)
        _, second = bases(planted400, source)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    @pytest.mark.parametrize("source", SOURCES)
    def test_degenerate_spectrum_is_repeatable(self, source):
        # On a complete graph every nontrivial eigenvalue is equal, so the
        # Krylov space breaks down and ARPACK restarts from a random vector.
        complete, _ = vp.planted_partition(1, 300, 1.0, 1.0, seed=0)
        _, first = bases(complete, source)
        _, second = bases(complete, source)
        assert first.pairs == TRUNCATED_DIM + 2
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    def test_ones_mode_held_once_when_few_eigenvalues_are_positive(self):
        # A complete graph with weights 1 + 0.12 u has a modularity spectrum
        # near -1 with only a few positive eigenvalues, fewer than dim.
        n, dim = 300, 20
        iu, ju = np.triu_indices(n, k=1)
        w = 1.0 + 0.12 * np.random.default_rng(0).random(iu.size)
        text = "".join(f"{i} {j} {float(x)!r}\n" for i, j, x in zip(iu, ju, w))
        dense, truncated = bases(vp.load_edge_list(text), "modularity", dim)
        assert 0 < np.sum(dense.eigenvalues > 1e-9) < dim
        assert truncated.pairs == dim + 2
        overlaps = np.abs(truncated.eigenvectors.sum(axis=0)) / np.sqrt(n)
        assert np.sum(overlaps > 1e-6) == 1
        lam = component_eigenvalues(truncated)
        assert np.max(np.abs(lam - component_eigenvalues(dense)[: lam.size])) <= 1e-10
        e_dense = vp.build_embedding(dense, "modularity", dim=dim)
        e_trunc = vp.build_embedding(truncated, "modularity", dim=dim)
        assert np.array_equal(e_trunc.signature, e_dense.signature)
        assert np.max(np.abs(signed_gram(e_trunc) - signed_gram(e_dense))) <= 1e-10

    @pytest.mark.parametrize("source,mode,t", MODE_CASES)
    def test_dim_beyond_held_pairs_rejected(self, planted400, source, mode, t):
        _, truncated = bases(planted400, source)
        assert vp.build_embedding(truncated, mode, t=t, dim=TRUNCATED_DIM + 1).dim == TRUNCATED_DIM + 1
        with pytest.raises(vp.DimOutOfRange, match="holds 14 of 400"):
            vp.build_embedding(truncated, mode, t=t, dim=TRUNCATED_DIM + 2)
        with pytest.raises(vp.DimOutOfRange):
            vp.build_embedding(truncated, mode, t=t)

    @pytest.mark.parametrize("source", SOURCES)
    def test_small_graphs_and_large_pair_counts_stay_dense(self, planted400, source):
        small = random_connected_graph(4, n_range=(20, 30))
        assert bases(small, source, dim=2)[1].pairs == small.n
        assert bases(planted400, source, dim=100)[1].pairs == 400

    @pytest.mark.parametrize("source", SOURCES)
    def test_crossover_at_a_tenth_of_n(self, planted400, source):
        # dim + 2 pairs: 40 of 400 is truncated, 41 is dense.
        decompose = vp.decompose_transition if source == "transition" else vp.decompose_modularity_matrix
        assert decompose(planted400, dim=38).pairs == 40
        assert decompose(planted400, dim=39).pairs == 400

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("dim", [0, 4])
    def test_dim_out_of_range_fails_before_any_other_check(self, source, dim, monkeypatch):
        def no_decomposition(*_args, **_kwargs):
            raise AssertionError("decomposed before checking the dimension")

        monkeypatch.setattr(vp.spectral, "_eigenpairs", no_decomposition)
        # Squared degrees 4e400 overflow: the modularity check would raise TooLarge.
        g = vp.load_edge_list(CYCLE4_TEXT.replace("\n", " 1e200\n"))
        decompose = vp.decompose_transition if source == "transition" else vp.decompose_modularity_matrix
        with pytest.raises(vp.DimOutOfRange, match=rf"^dim must be in \[1, 3\], got {dim}$"):
            decompose(g, dim=dim)

    @pytest.mark.parametrize("source", SOURCES)
    def test_exhausted_product_budget_is_eigensolver_failure(self, planted400, source, monkeypatch, tmp_path):
        operator = vp.spectral._operator
        products = []

        def counted(g, source):
            apply, norm = operator(g, source)
            return lambda x: products.append(1) or apply(x), norm

        monkeypatch.setattr(vp.spectral, "_operator", counted)
        monkeypatch.setattr(vp.spectral, "LANCZOS_MAX_MATVECS", 60)
        with pytest.raises(
            vp.EigensolverFailure, match=f"^{source} truncated eigendecomposition did not converge in 60 products$"
        ):
            bases(planted400, source)
        assert len(products) == 60
        path = tmp_path / "g.txt"
        path.write_text(planted400.to_edge_list_text())
        mode = "exponential" if source == "transition" else "modularity"
        args = ["partition", str(path), "--mode", mode, "--dim", str(TRUNCATED_DIM), "--output", str(tmp_path / "r.json")]
        assert main(args) == vp.EigensolverFailure.exit_code == 21


def ring(n):
    return vp.load_edge_list("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))


def grid(side):
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return vp.load_edge_list("".join(f"{i} {j}\n" for i, j in edges))


def star(n):
    return vp.load_edge_list("".join(f"0 {i}\n" for i in range(1, n)))


def reweighted(g, weights):
    return vp.load_edge_list("".join(f"{i} {j} {float(w)!r}\n" for (i, j), w in zip(g.edge_index.tolist(), weights)))


# (graph, dim): spectra that are hard for a single-vector Krylov solver.
LANCZOS_CASES = [
    ("ring", 1),
    ("ring", 5),
    ("ring", 14),
    ("complete", 14),
    ("star", 14),
    ("grid", 14),
    ("wide-weights", 1),
    ("wide-weights", 14),
    ("few-positive", 20),
]


@pytest.fixture(scope="module")
def lanczos_graphs():
    """Double eigenvalues (ring, grid), one eigenvalue of multiplicity n - 1
    or n - 2 (complete graph, star), weights spanning e^-20 to e^20, and a
    modularity spectrum with fewer positive eigenvalues than the dim."""
    planted, _ = vp.planted_partition(4, 100, 0.1, 0.01, seed=0)
    wide = np.exp(np.random.default_rng(1).uniform(-20.0, 20.0, planted.num_edges))
    complete, _ = vp.planted_partition(1, 300, 1.0, 1.0, seed=0)
    near = 1.0 + 0.12 * np.random.default_rng(0).random(complete.num_edges)
    return {
        "ring": ring(400),
        "complete": complete,
        "star": star(400),
        "grid": grid(20),
        "wide-weights": reweighted(planted, wide),
        "few-positive": reweighted(complete, near),
    }


def oracle_operator(g, source):
    """The matrix the truncated solver solves, built with SciPy from the
    edges: S = D^-1/2 A D^-1/2, or P B_Q P - s J as a LinearOperator."""
    pytest.importorskip("scipy")
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator

    i, j = g.edge_index.T
    A = sparse.coo_matrix((np.tile(g.edge_weight, 2), (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(g.n, g.n))
    if source == "transition":
        inv_sqrt_d = sparse.diags(1.0 / np.sqrt(g.degrees))
        return (inv_sqrt_d @ A @ inv_sqrt_d).tocsr(), 1.0
    A = A.tocsr()
    d, two_m = g.degrees, 2.0 * g.total_weight
    e = np.full(g.n, 1.0 / np.sqrt(g.n))
    shift = 2.0 * (d.max() + d @ d / two_m)

    def apply(x):
        x = np.ravel(x)
        c = e @ x
        y = A @ (x - c * e)
        y -= d * (d @ (x - c * e)) / two_m
        return y - (e @ y) * e - shift * c * e

    return LinearOperator((g.n, g.n), matvec=apply, dtype=np.float64), shift


def dense_oracle(M, n):
    return np.linalg.eigvalsh(M @ np.eye(n))


class TestLanczosAgainstOracles:
    @pytest.mark.parametrize("name,dim", LANCZOS_CASES)
    @pytest.mark.parametrize("source", SOURCES)
    def test_leading_pairs_match_eigsh_and_eigh(self, lanczos_graphs, name, dim, source):
        pytest.importorskip("scipy")
        from scipy.sparse.linalg import eigsh

        g = lanczos_graphs[name]
        k = dim + 2 if source == "transition" else dim + 1
        w, U = vp.spectral._eigenpairs(g, source, dim)
        assert w.shape == (k,) and U.shape == (g.n, k)
        M, norm = oracle_operator(g, source)
        w_arpack = eigsh(M, k=k, which="LA", v0=np.random.default_rng(0).standard_normal(g.n), tol=0)[0]
        w_dense = dense_oracle(M, g.n)[-k:]
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - np.sort(w_arpack))) <= 1e-10 * norm
        assert np.max(np.abs(w - w_dense)) <= 1e-10 * norm
        residuals = np.linalg.norm(M @ U - U * w, axis=0)
        assert np.max(residuals) <= 1e-12 * norm
        assert np.max(np.abs(U.T @ U - np.eye(k))) <= 1e-12

    @pytest.mark.parametrize("source", SOURCES)
    def test_a_double_eigenvalue_is_found_twice(self, lanczos_graphs, source):
        # On the ring, every eigenvalue but the extreme ones is double; one
        # Krylov space holds one direction of each eigenspace.
        g = lanczos_graphs["ring"]
        decompose = vp.decompose_transition if source == "transition" else vp.decompose_modularity_matrix
        basis = decompose(g, dim=1)
        # S = A / 2 and, off the ones vector, B_Q = A: eigenvalues cos(2 pi j / n) and twice that.
        scale = 1.0 if source == "transition" else 2.0
        assert component_eigenvalues(basis) == pytest.approx(np.full(2, scale * np.cos(2 * np.pi / g.n)), abs=1e-12)


class TestDenseSolver:
    def test_transition_matrix_has_the_sparse_entries(self, planted400):
        dense = vp.spectral._dense_operator(planted400, "transition")
        indptr, indices, data = vp.spectral._similar_transition(planted400)
        sparse = np.zeros_like(dense)
        sparse[np.repeat(np.arange(planted400.n), np.diff(indptr)), indices] = data
        assert dense.tobytes() == sparse.tobytes()

    def test_modularity_matrix_is_the_operator(self, planted400):
        dense = vp.spectral._dense_operator(planted400, "modularity")
        apply, scale = vp.spectral._operator(planted400, "modularity")
        applied = apply(np.eye(planted400.n))
        assert scale == vp.spectral._ones_shift(planted400)
        assert np.max(np.abs(dense - applied)) <= 1e-14 * scale
        assert np.array_equal(dense, dense.T)

    def test_dense_failure_is_eigensolver_failure(self, monkeypatch, tmp_path):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        g = pairgraph4()
        with pytest.raises(vp.EigensolverFailure, match="^transition eigendecomposition failed: Eigenvalues"):
            vp.decompose_transition(g)
        path = tmp_path / "g.txt"
        path.write_text(g.to_edge_list_text())
        for source in SOURCES:
            assert main(["decompose", str(path), "--source", source]) == vp.EigensolverFailure.exit_code


class TestDenseBudget:
    @pytest.mark.parametrize("source", SOURCES)
    def test_an_n_that_fits_one_array_but_not_four_is_refused_before_allocating(self, source, monkeypatch):
        g = vp.load_edge_list("".join(f"{i} {i + 1}\n" for i in range(399)))
        one = 8 * g.n * g.n
        monkeypatch.setattr(vp.graph, "PHYSICAL_MEMORY", 3 * one)
        vp.graph.check_dense(g.n)  # one array fits
        decompose = vp.decompose_transition if source == "transition" else vp.decompose_modularity_matrix
        tracemalloc.start()
        try:
            with pytest.raises(vp.TooLarge, match="^a dense 400 x 400 step holds 6 such matrices"):
                decompose(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one / 4


def rank_one_gram(q: vp.QualityMatrix) -> np.ndarray:
    """The dense quality matrix with its rank-one term formed whole: the
    per-entry formula the row-block forms must reproduce bit for bit."""
    g = q.graph
    d = np.asarray(g.degrees, dtype=np.float64)
    two_m = 2.0 * g.total_weight
    G = g.dense_adjacency()
    if q.mode == "modularity":
        G -= np.multiply.outer(d, d) / two_m
        return G
    pi = d / two_m
    G *= q.time / two_m
    G -= np.multiply.outer(pi, pi)
    G.flat[:: g.n + 1] += (1.0 - q.time) * pi
    return G


def taken_embedding(basis, mode, t, dim):
    """Oracle: ``build_embedding``'s vectors from a fancy-indexed copy of the kept columns."""
    keep = component_indices(basis)[:dim]
    X = np.take(basis.eigenvectors, keep, axis=1)
    if mode == "modularity":
        weights = basis.eigenvalues[keep]
    else:
        weights = vp.spectral.scaled_eigenvalues(basis, mode, t)[keep]
        X *= basis.pi[:, None]
    X *= np.sqrt(np.abs(weights))
    return X


class TestEmbeddingMemory:
    @pytest.mark.parametrize("source,mode,t", MODE_CASES)
    def test_a_full_dimension_embedding_holds_one_array_above_the_basis(self, source, mode, t):
        g, _ = vp.planted_partition(10, 100, 0.1, 0.005, seed=1)
        basis = bases(g, source)[0]
        tracemalloc.start()
        try:
            emb = vp.build_embedding(basis, mode, t=t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * g.n * g.n
        assert emb.vectors.flags.c_contiguous
        assert emb.vectors.tobytes() == taken_embedding(basis, mode, t, g.n - 1).tobytes()

    @pytest.mark.parametrize("source,mode,t", MODE_CASES)
    def test_every_dimension_copies_the_columns_it_keeps(self, planted400, source, mode, t):
        for basis in bases(planted400, source):
            held = basis.pairs - 1
            skipped = int(np.setdiff1d(np.arange(basis.pairs), component_indices(basis))[0])
            for dim in sorted({1, 2, skipped - 1, skipped, skipped + 1, held // 2, held} & set(range(1, held + 1))):
                emb = vp.build_embedding(basis, mode, t=t, dim=dim)
                assert emb.vectors.flags.c_contiguous
                assert emb.vectors.tobytes() == taken_embedding(basis, mode, t, dim).tobytes()


class TestModularityMatrixMemory:
    def test_holds_one_dense_array_and_keeps_its_bits(self):
        g, _ = vp.planted_partition(10, 100, 0.1, 0.005, seed=1)
        tracemalloc.start()
        try:
            B = vp.spectral._modularity_matrix(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * g.n * g.n
        assert B.tobytes() == rank_one_gram(vp.QualityMatrix(g, "modularity")).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 18, 34])
    def test_every_row_block_is_subtracted(self, n):
        g = vp.load_edge_list("".join(f"{i} {i + 1} {1 + i % 3}\n" for i in range(n - 1)))
        assert vp.spectral._modularity_matrix(g).tobytes() == rank_one_gram(vp.QualityMatrix(g, "modularity")).tobytes()
        # the test oracle of the graph level forms the linearised matrix the same way
        for q in (vp.QualityMatrix(g, "linearised", 0.7), vp.QualityMatrix(g, "modularity")):
            assert quality_gram(q).tobytes() == rank_one_gram(q).tobytes()


class TestSpectralHealth:
    @pytest.mark.parametrize("source", SOURCES)
    def test_both_solvers(self, planted400, source):
        dense, truncated = bases(planted400, source)
        h_dense = vp.spectral.spectral_health(planted400, dense, TRUNCATED_DIM)
        h_trunc = vp.spectral.spectral_health(planted400, truncated, TRUNCATED_DIM)
        assert (h_dense["solver"], h_dense["pairs"]) == ("eigh", 400)
        assert (h_trunc["solver"], h_trunc["pairs"]) == ("lanczos", TRUNCATED_DIM + 2)
        for health in (h_dense, h_trunc):
            assert 0 <= health["max_residual"] <= 1e-10
        lam = component_eigenvalues(dense)
        expected_gap = lam[TRUNCATED_DIM - 1] - lam[TRUNCATED_DIM]
        assert h_trunc["gap_at_dim"] == pytest.approx(expected_gap, abs=1e-10)
        assert h_dense["gap_at_dim"] == pytest.approx(expected_gap, abs=1e-12)

    def test_no_gap_at_full_dimension(self):
        g = pairgraph4()
        health = vp.spectral.spectral_health(g, vp.decompose_transition(g), 3)
        assert health["gap_at_dim"] is None
        assert health["max_residual"] <= 1e-12

    def test_residual_detects_a_wrong_pair(self):
        g = pairgraph4()
        basis = vp.decompose_transition(g)
        shifted = vp.SpectralBasis(
            source="transition",
            eigenvalues=basis.eigenvalues + np.array([0.0, 0.1, 0.0, 0.0]),
            eigenvectors=basis.eigenvectors,
            pi=basis.pi,
            total_weight=basis.total_weight,
        )
        assert vp.spectral.spectral_health(g, shifted, 1)["max_residual"] == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("source", SOURCES)
    def test_dense_and_sparse_residuals_of_a_full_basis_agree(self, planted400, source, monkeypatch):
        basis, _ = bases(planted400, source)
        dense = vp.spectral._max_residual(planted400, basis)
        product = vp.spectral._product
        monkeypatch.setattr(vp.spectral, "_product", lambda g, source, dense: product(g, source))
        assert 0 < dense <= 1e-10
        assert vp.spectral._max_residual(planted400, basis) == pytest.approx(dense, abs=1e-14)


def quality_graphs():
    yield "planted200", vp.planted_partition(4, 50, 0.2, 0.02, seed=0)[0]
    yield "weighted", random_connected_graph(3, n=30, p=0.3, weighted=True)


class TestQualityMatrix:
    @pytest.mark.parametrize("name, g", list(quality_graphs()))
    @pytest.mark.parametrize("mode, t", [("linearised", 0.3), ("linearised", 1.0), ("linearised", 3.0), ("modularity", None)])
    def test_gram_is_the_full_dimension_spectral_gram(self, name, g, mode, t):
        decompose = vp.decompose_modularity_matrix if mode == "modularity" else vp.decompose_transition
        emb = vp.build_embedding(decompose(g), mode, t=t)
        spectral = vp.vp._shared_gram(emb)
        graph = quality_gram(vp.QualityMatrix(g, mode, t))
        assert graph.shape == spectral.shape == (g.n, g.n)
        assert np.max(np.abs(graph - spectral)) <= 1e-12 * np.max(np.abs(graph))
        if (name, t) == ("planted200", 3.0):  # 1 - 3 (1 - lam) changes sign inside the spectrum
            assert set(emb.signature.tolist()) == {-1, 1}

    def test_gram_against_the_matrix_form_oracle(self):
        g = random_connected_graph(4, n=12, weighted=True)
        assert quality_gram(vp.QualityMatrix(g, "linearised", 0.7)) == pytest.approx(linearised_autocov(g, 0.7), abs=1e-15)
        d = g.degrees
        B = g.dense_adjacency() - np.outer(d, d) / (2.0 * g.total_weight)
        assert quality_gram(vp.QualityMatrix(g, "modularity")) == pytest.approx(B, abs=1e-13)

    def test_stands_in_for_a_full_dimension_embedding(self):
        g = pairgraph4()
        q = vp.QualityMatrix(g, "linearised", 2.0)
        assert (q.n, q.dim, q.total_weight, q.time) == (4, 3, 24.0, 2.0)
        assert vp.QualityMatrix(g, "modularity").time is None

    @pytest.mark.parametrize(
        "mode, t",
        [("linearised", None), ("linearised", 0.0), ("linearised", np.inf), ("linearised", np.nan),
         ("modularity", 1.0), ("exponential", 1.0), ("markov", None)],
    )
    def test_outside_its_domain_is_an_invalid_parameter(self, mode, t):
        with pytest.raises(vp.InvalidParameter):
            vp.QualityMatrix(pairgraph4(), mode, t)

    def test_modularity_checks_the_degree_products(self):
        g = vp.load_edge_list("0 1 1e200\n1 2 1e200\n2 3 1e200\n0 3 1e200\n")
        with pytest.raises(vp.TooLarge):
            vp.QualityMatrix(g, "modularity")
        assert np.isfinite(vp.partition_vectors(vp.QualityMatrix(g, "linearised", 1.0))[1])

    @pytest.mark.parametrize(
        "mode, dim, expected",
        [("linearised", None, True), ("modularity", None, True), ("linearised", 9, True),
         ("modularity", 9, True), ("linearised", 8, False), ("modularity", 3, False),
         ("exponential", None, False), ("exponential", 9, False), ("linearised", 10, False)],
    )
    def test_chosen_from_mode_and_dimension_alone(self, mode, dim, expected):
        assert vp.spectral.uses_quality_matrix(mode, dim, 10) is expected
