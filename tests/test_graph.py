import io
import tracemalloc

import numpy as np
import pytest

import vecpart as vp
from vecpart.cli import _load_partition_file
from helpers import (
    PAIRGRAPH4_TEXT,
    TRIANGLE_TEXT,
    first_appearance_labels,
    pairgraph4,
    random_connected_graph,
)


class TestLoadEdgeList:
    def test_pairgraph4(self):
        g = pairgraph4()
        assert g.n == 4
        assert g.total_weight == 24.0
        assert np.array_equal(g.degrees, [12.0, 12.0, 12.0, 12.0])
        assert g.num_edges == 6

    def test_stream_input(self):
        g = vp.load_edge_list(io.StringIO(PAIRGRAPH4_TEXT))
        assert g.n == 4 and g.total_weight == 24.0

    def test_unit_weight_default(self):
        g = vp.load_edge_list(TRIANGLE_TEXT)
        assert g.n == 3
        assert g.total_weight == 3.0
        assert np.array_equal(g.degrees, [2.0, 2.0, 2.0])

    def test_self_loop_rejected(self):
        with pytest.raises(vp.SelfLoop, match="line 1"):
            vp.load_edge_list("0 0 1")
        with pytest.raises(vp.SelfLoop, match="^line 2: self-loop at node 3$"):
            vp.load_edge_list("0 1\n3 3\n")

    def test_zero_weight_rejected(self):
        with pytest.raises(vp.NonPositiveWeight):
            vp.load_edge_list("0 1 0.0")

    def test_negative_weight_rejected(self):
        with pytest.raises(vp.NonPositiveWeight):
            vp.load_edge_list("0 1 -2")

    def test_nan_weight_rejected(self):
        with pytest.raises(vp.NonPositiveWeight):
            vp.load_edge_list("0 1 nan")

    def test_infinite_weight_rejected(self):
        with pytest.raises(vp.NonFiniteWeight, match="line 2"):
            vp.load_edge_list("0 1\n1 2 inf\n")

    def test_overflowing_degree_sums_rejected(self):
        # every weight is finite, but each degree sums two of them to inf
        with pytest.raises(vp.TooLarge, match="overflow"):
            vp.load_edge_list("0 1 1e308\n1 2 1e308\n2 3 1e308\n0 3 1e308\n")

    def test_malformed_lines(self):
        with pytest.raises(vp.MalformedLine, match="line 1"):
            vp.load_edge_list("0 1 2 3")
        with pytest.raises(vp.MalformedLine):
            vp.load_edge_list("a b")
        with pytest.raises(vp.MalformedLine):
            vp.load_edge_list("0 1 heavy")
        with pytest.raises(vp.MalformedLine):
            vp.load_edge_list("")

    def test_duplicate_consistent_edges_deduplicated(self):
        g = vp.load_edge_list("0 1 2\n1 0 2\n1 2\n")
        assert g.num_edges == 2
        assert g.total_weight == 3.0

    def test_duplicate_conflicting_edges_rejected(self):
        with pytest.raises(vp.ConflictingDuplicateEdge, match="line 2"):
            vp.load_edge_list("0 1 2\n1 0 3\n")

    def test_disconnected_rejected(self):
        with pytest.raises(vp.Disconnected):
            vp.load_edge_list("0 1\n2 3\n")

    def test_stray_huge_node_id_rejected_before_allocating_by_id(self):
        # Three edges cannot connect 2,000,001 nodes. The check must come
        # before anything sized by the largest id, which took ~20 MB here.
        tracemalloc.start()
        try:
            with pytest.raises(vp.Disconnected, match="2000001 nodes has only 3 edges"):
                vp.load_edge_list("0 1\n1 2\n0 2000000\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_index_below_base(self):
        # ids are zero-based, so -1 is the first id below the base
        with pytest.raises(vp.MalformedLine, match="^line 1: negative node id"):
            vp.load_edge_list("-1 0\n")
        with pytest.raises(vp.MalformedLine, match="^line 2: negative node id"):
            vp.load_edge_list("0 1\n1 -3\n")

    def test_comments_and_blank_lines_skipped(self):
        g = vp.load_edge_list("# header\n\n0 1\n  \n1 2\n0 2\n")
        assert g.n == 3 and g.num_edges == 3


class TestGraphInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_degree_sum_is_twice_total_weight(self, seed):
        g = random_connected_graph(seed, n_range=(4, 12), weighted=True)
        assert float(g.degrees.sum()) == 2.0 * g.total_weight

    @pytest.mark.parametrize("seed", range(6))
    def test_serialisation_round_trip(self, seed):
        g = random_connected_graph(seed, n_range=(4, 12), weighted=True)
        g2 = vp.load_edge_list(g.to_edge_list_text())
        assert g2.n == g.n
        assert np.array_equal(g2.edge_index, g.edge_index)
        assert np.array_equal(g2.edge_weight, g.edge_weight)
        assert g2.sha256() == g.sha256()

    def test_planted_serialisation_pinned(self):
        g, _ = vp.planted_partition(3, 10, 0.9, 0.05, seed=7)
        text = g.to_edge_list_text()
        assert g.num_edges == 139 and len(text) == 1296
        assert text.startswith("0 1 1.0\n0 2 1.0\n0 3 1.0\n")
        assert g.sha256() == "bdc8c0384f3cd49aa9a52e836e17b82559445de569cc0d68b99bf24aba0abc92"

    def test_weighted_serialisation_pinned(self):
        g = vp.load_edge_list("0 1 0.1\n1 2 2.5e-07\n2 3 3\n0 3 1e-300\n1 3 7.25\n")
        assert g.to_edge_list_text() == "0 1 0.1\n0 3 1e-300\n1 2 2.5e-07\n1 3 7.25\n2 3 3.0\n"
        assert g.sha256() == "11aa64ba68091d26126861ef5c42687a6d97aec4ca554e52984bc3829fdfbda9"
        assert g.edges == [(0, 1, 0.1), (0, 3, 1e-300), (1, 2, 2.5e-07), (1, 3, 7.25), (2, 3, 3.0)]
        assert all(type(v) is t for e in g.edges for v, t in zip(e, (int, int, float)))

    def test_adjacency_symmetric(self):
        from scipy import sparse

        g = pairgraph4()
        A = g.dense_adjacency()
        assert np.array_equal(A, A.T)
        indptr, indices, data = g.adjacency()
        assert np.array_equal(sparse.csr_matrix((data, indices, indptr), shape=A.shape).toarray(), A)
        assert A[0, 1] == 10.0 and A[1, 2] == 1.0 and A[0, 0] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_adjacency_is_sorted_compressed_rows(self, seed):
        g = random_connected_graph(seed, n=30, p=0.2, weighted=True)
        indptr, indices, data = g.adjacency()
        rows = np.repeat(np.arange(g.n), np.diff(indptr))
        assert indptr[0] == 0 and indptr[-1] == 2 * g.num_edges and np.all(np.diff(indptr) > 0)
        assert np.all((rows[1:] > rows[:-1]) | (indices[1:] > indices[:-1]))
        A = np.zeros((g.n, g.n))
        A[rows, indices] = data
        assert np.array_equal(A, g.dense_adjacency())
        assert np.add.reduceat(data, indptr[:-1]) == pytest.approx(g.degrees, rel=1e-12)

    def test_arrays_read_only(self):
        g = pairgraph4()
        with pytest.raises(ValueError):
            g.degrees[0] = 5.0


class TestLoadLfr:
    NETWORK = "1\t2\n2\t1\n3\t4\n4\t3\n1\t3\n3\t1\n"
    COMMUNITY = "1\t1\n2\t1\n3\t2\n4\t2\n"

    def test_well_formed_pair(self):
        g, truth = vp.load_lfr(self.NETWORK, self.COMMUNITY)
        assert g.n == 4
        assert g.total_weight == 3.0
        assert truth.num_groups == 2
        assert np.array_equal(truth.assignment, [0, 0, 1, 1])

    def test_space_separated_accepted(self):
        g, truth = vp.load_lfr(self.NETWORK.replace("\t", " "), self.COMMUNITY.replace("\t", " "))
        assert g.n == 4 and truth.num_groups == 2

    def test_asymmetric_edge_rejected(self):
        with pytest.raises(vp.AsymmetricEdgeList):
            vp.load_lfr("1\t2\n", "1\t1\n2\t1\n")

    def test_label_canonicalisation(self):
        labels = "1\t5\n2\t5\n3\t9\n4\t9\n"
        _, truth = vp.load_lfr(self.NETWORK, labels)
        assert truth.num_groups == 2
        assert np.array_equal(truth.assignment, [0, 0, 1, 1])

    def test_missing_label_rejected(self):
        with pytest.raises(vp.MissingCommunityLabel, match="3"):
            vp.load_lfr(self.NETWORK, "1\t1\n2\t1\n4\t2\n")

    def test_stray_huge_label_id_gives_a_short_message(self):
        # One stray id used to list all 2,999,997 missing nodes (25.9 MB).
        with pytest.raises(vp.MissingCommunityLabel) as info:
            vp.load_lfr(self.NETWORK, "1\t1\n2\t1\n3000000\t2\n")
        message = str(info.value)
        assert message.startswith("2999997 node(s) have no community label: 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...")
        assert len(message) < 200

    def test_network_node_without_label(self):
        with pytest.raises(vp.MissingCommunityLabel):
            vp.load_lfr("1\t5\n5\t1\n", "1\t1\n2\t1\n")

    def test_disconnected_rejected(self):
        with pytest.raises(vp.Disconnected):
            vp.load_lfr("1\t2\n2\t1\n3\t4\n4\t3\n", self.COMMUNITY)


class TestLineReader:
    """The four readers of id lines share one line loop: blank and '#' lines
    are skipped, and a bad line raises MalformedLine naming the reader's
    prefix and the line number."""

    READERS = ("edge list", "LFR network", "LFR community", "partition file")
    VALID = {
        "edge list": "0 1\n1 2\n",
        "LFR network": "1 2\n2 1\n2 3\n3 2\n",
        "LFR community": "1 1\n2 1\n3 2\n",
        "partition file": "0 0\n1 0\n2 1\n",
    }

    def parse(self, reader, text, tmp_path):
        """What ``reader`` reads from ``text``, and the prefix of its messages."""
        if reader == "edge list":
            return vp.load_edge_list(text).edges, "line"
        if reader == "LFR network":
            return vp.load_lfr(text, self.VALID["LFR community"])[0].edges, "network line"
        if reader == "LFR community":
            return vp.load_lfr(self.VALID["LFR network"], text)[1].assignment.tolist(), "community line"
        path = tmp_path / "partition.txt"
        path.write_text(text)
        return _load_partition_file(str(path)).assignment.tolist(), f"{path} line"

    @pytest.mark.parametrize("reader", READERS)
    def test_blank_and_comment_lines_skipped(self, reader, tmp_path):
        first, *rest = self.VALID[reader].splitlines(keepends=True)
        padded = "# header\n\n" + first + "   \n# 1 2\n" + "".join(rest)
        assert self.parse(reader, padded, tmp_path)[0] == self.parse(reader, self.VALID[reader], tmp_path)[0]

    @pytest.mark.parametrize(
        "bad, message", [("1", "expected"), ("1 2 3 4", "expected"), ("a 1", "non-integer"), ("1 b", "non-integer")]
    )
    @pytest.mark.parametrize("reader", READERS)
    def test_bad_line_names_the_prefix_and_line(self, reader, bad, message, tmp_path):
        _, prefix = self.parse(reader, self.VALID[reader], tmp_path)
        with pytest.raises(vp.MalformedLine) as info:
            self.parse(reader, f"# header\n\n{bad}\n{self.VALID[reader]}", tmp_path)
        assert str(info.value).startswith(f"{prefix} 3: {message}")

    def test_undecodable_stream_is_malformed(self):
        stream = io.TextIOWrapper(io.BytesIO(b"0 1\n1 2 \xff\n0 2\n"), encoding="utf-8")
        with pytest.raises(vp.MalformedLine, match=r"^line \d+ or later: not utf-8 text \(byte 0xff"):
            vp.load_edge_list(stream)

    def test_undecodable_line_is_at_or_after_the_line_named(self):
        # The decoder reads ahead, so the line named may precede the bad one.
        bad = 5001
        data = b"0 1\n" * (bad - 1) + b"1 2 \xe9\n0 2\n"
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        with pytest.raises(vp.MalformedLine) as info:
            vp.load_edge_list(stream)
        named = int(str(info.value).split()[1])
        assert 1 <= named <= bad


class TestPlantedPartition:
    def test_all_probabilities_one_gives_complete_graph(self):
        g, truth = vp.planted_partition(2, 4, 1.0, 1.0, seed=0)
        assert g.n == 8
        assert g.num_edges == 8 * 7 // 2
        assert np.array_equal(g.degrees, np.full(8, 7.0))
        assert truth.num_groups == 2
        assert np.array_equal(truth.assignment, [0] * 4 + [1] * 4)

    def test_example_instance_connected(self):
        g, truth = vp.planted_partition(3, 10, 0.9, 0.05, seed=7)
        assert g.n == 30
        assert truth.num_groups == 3

    def test_edge_count_matches_recount_of_sampled_pairs(self):
        # Replays the documented sampling contract independently.
        k, size, p_in, p_out, seed = 3, 10, 0.9, 0.05, 7
        g, _ = vp.planted_partition(k, size, p_in, p_out, seed)
        n = k * size
        group = np.arange(n) // size
        iu, ju = np.triu_indices(n, k=1)
        p_pair = np.where(group[iu] == group[ju], p_in, p_out)
        for attempt in range(100):
            rng = np.random.default_rng([seed, attempt])
            keep = rng.random(iu.size) < p_pair
            expected = np.stack([iu[keep], ju[keep]], axis=1)
            if np.array_equal(expected, g.edge_index):
                return
        pytest.fail("no attempt reproduced the returned edge set")

    @pytest.mark.parametrize(
        "k, size, p_in, p_out, seed",
        [(3, 10, 0.9, 0.05, 7), (4, 25, 0.3, 0.02, 1), (2, 4, 1.0, 1.0, 0), (5, 6, 0.6, 0.6, 3), (1, 40, 0.2, 0.2, 2**40)],
    )
    def test_the_first_connected_sample_of_the_contract_is_returned(self, k, size, p_in, p_out, seed):
        # The contract replayed over the full triangle, attempt by attempt.
        g, _ = vp.planted_partition(k, size, p_in, p_out, seed)
        n = k * size
        group = np.arange(n) // size
        iu, ju = np.triu_indices(n, k=1)
        p_pair = np.where(group[iu] == group[ju], p_in, p_out)
        for attempt in range(100):
            keep = np.random.default_rng([seed, attempt]).random(iu.size) < p_pair
            expected = np.stack([iu[keep], ju[keep]], axis=1)
            if vp.graph._is_connected(n, expected):
                assert np.array_equal(g.edge_index, expected)
                return
        pytest.fail("no attempt of the replay is connected")

    @staticmethod
    def count_connectivity_checks(monkeypatch) -> list:
        calls = []
        check = vp.graph._is_connected
        monkeypatch.setattr(vp.graph, "_is_connected", lambda n, e: calls.append(n) or check(n, e))
        return calls

    def test_connected_first_sample_is_checked_once(self, monkeypatch):
        calls = self.count_connectivity_checks(monkeypatch)
        vp.planted_partition(3, 10, 0.9, 0.05, seed=7)
        assert calls == [30]

    @pytest.mark.parametrize("seed", range(4))
    def test_one_check_per_attempt(self, monkeypatch, seed):
        # Two complete groups of 5 connect iff some cross pair is kept;
        # replay the sampling contract to find the first such attempt.
        group = np.arange(10) // 5
        iu, ju = np.triu_indices(10, k=1)
        cross = group[iu] != group[ju]
        p_pair = np.where(cross, 0.02, 1.0)
        attempts = next(
            a + 1 for a in range(100) if (cross & (np.random.default_rng([seed, a]).random(iu.size) < p_pair)).any()
        )
        calls = self.count_connectivity_checks(monkeypatch)
        g, _ = vp.planted_partition(2, 5, 1.0, 0.02, seed)
        assert calls == [10] * attempts
        assert g.num_edges > 2 * 10  # both groups' 10 pairs and a cross pair

    def test_generation_failed_when_groups_cannot_connect(self):
        with pytest.raises(vp.GenerationFailed):
            vp.planted_partition(2, 4, 0.05, 0.0, seed=1)

    def test_deterministic_for_fixed_seed(self):
        g1, t1 = vp.planted_partition(2, 5, 0.9, 0.2, seed=11)
        g2, t2 = vp.planted_partition(2, 5, 0.9, 0.2, seed=11)
        assert np.array_equal(g1.edge_index, g2.edge_index)
        assert np.array_equal(g1.edge_weight, g2.edge_weight)
        assert np.array_equal(t1.assignment, t2.assignment)

    def test_a_size_whose_pairs_do_not_fit_is_refused_before_allocating(self, monkeypatch):
        n = 400
        one = 8 * n * n
        monkeypatch.setattr(vp.graph, "PHYSICAL_MEMORY", 2 * one)
        tracemalloc.start()
        try:
            with pytest.raises(vp.TooLarge, match="^a dense 400 x 400 step holds 3 such matrices"):
                vp.planted_partition(4, n // 4, 0.1, 0.01, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one / 4

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            vp.planted_partition(0, 4, 0.9, 0.1, seed=0)
        with pytest.raises(ValueError):
            vp.planted_partition(2, 1, 0.9, 0.1, seed=0)
        with pytest.raises(ValueError):
            vp.planted_partition(2, 4, 0.5, 0.9, seed=0)


class TestConnectivity:
    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        from vecpart.graph import _is_connected

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < rng.uniform(0.0, 0.3)
        edge_index = np.stack([iu[keep], ju[keep]], axis=1)
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(map(tuple, edge_index))
        assert _is_connected(n, edge_index) == nx.is_connected(reference)

    @staticmethod
    def oracle(n, edge_index):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        ones = np.ones(edge_index.shape[0], dtype=np.int8)
        adj = coo_matrix((ones, (edge_index[:, 0], edge_index[:, 1])), shape=(n, n))
        return connected_components(adj, directed=False)[0] == 1

    @staticmethod
    def edges(pairs):
        """Rows (i, j) with i < j, distinct and in row-major order, as _build_graph takes them."""
        e = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        return np.unique(e[e[:, 0] != e[:, 1]], axis=0)

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_csgraph_on_random_graphs(self, seed):
        from vecpart.graph import _is_connected

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        # A random spanning tree plus random chords is connected; cutting the
        # nodes into two sets and dropping every edge across them is not.
        parent = rng.integers(0, np.arange(1, n))
        tree = np.stack([np.arange(1, n), parent], axis=1)
        chords = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        relabel = rng.permutation(n)
        connected = self.edges(relabel[np.concatenate([tree, chords])])
        side = np.zeros(n, dtype=bool)
        side[rng.permutation(n)[: rng.integers(1, n)]] = True
        split = connected[side[connected[:, 0]] == side[connected[:, 1]]]
        for edge_index, expected in ((connected, True), (split, False)):
            assert self.oracle(n, edge_index) == expected
            assert _is_connected(n, edge_index) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_csgraph_on_sparse_random_graphs(self, seed):
        from vecpart.graph import _is_connected

        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 500))
        edge_index = self.edges(rng.integers(0, n, size=(int(n * rng.uniform(0.5, 1.5)), 2)))
        assert _is_connected(n, edge_index) == self.oracle(n, edge_index)

    def test_isolated_top_id(self):
        from vecpart.graph import _build_graph, _is_connected

        # nodes 0..8 carry n - 1 = 9 edges, so only the component check can
        # see that node 9 has none
        edge_index = self.edges([(k, k + 1) for k in range(8)] + [(0, 2)])
        assert not self.oracle(10, edge_index)
        assert not _is_connected(10, edge_index)
        assert _is_connected(9, edge_index)
        with pytest.raises(vp.Disconnected, match="10 nodes is not connected"):
            _build_graph(10, edge_index, np.ones(edge_index.shape[0]))

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_path_with_one_edge_removed(self, shuffled):
        from vecpart.graph import _is_connected

        n = 64
        label = np.random.default_rng(5).permutation(n) if shuffled else np.arange(n)
        path = np.stack([label[:-1], label[1:]], axis=1)
        assert _is_connected(n, self.edges(path))
        for cut in range(n - 1):
            edge_index = self.edges(np.delete(path, cut, axis=0))
            assert not self.oracle(n, edge_index)
            assert not _is_connected(n, edge_index)

    def test_long_path_with_shuffled_labels(self):
        # a diameter of n - 1; each round at least halves the trees, so the
        # rounds grow with log n, not with the diameter
        from vecpart.graph import _is_connected

        n = 200_000
        label = np.random.default_rng(7).permutation(n)
        path = self.edges(np.stack([label[:-1], label[1:]], axis=1))
        assert self.oracle(n, path)
        assert _is_connected(n, path)
        cut = np.delete(path, n // 3, axis=0)
        assert not self.oracle(n, cut)
        assert not _is_connected(n, cut)


class TestCanonicalLabels:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(-5, 40, size=int(rng.integers(1, 60)))
        out, k = vp.graph.canonical_labels(labels)
        assert out.dtype == np.int64
        assert out.tolist() == first_appearance_labels(labels)
        assert k == len(set(labels.tolist()))

    def test_sequences_and_empty_input(self):
        out, k = vp.graph.canonical_labels([7, 7, 3, 9, 3])
        assert out.tolist() == [0, 0, 1, 2, 1] and k == 3
        out, k = vp.graph.canonical_labels([])
        assert out.size == 0 and k == 0


class TestPartitionLabels:
    """A partition's labels are exactly 0..num_groups-1, each used."""

    @pytest.mark.parametrize(
        "labels, c",
        [([0, -1, 1], 2), ([0, 1, 2], 2), ([0, 2, 2], 3), ([1, 1, 1], 1), ([0, 0, -5], 1)],
        ids=["negative", "at-c", "missing", "missing-zero", "negative-one-group"],
    )
    def test_a_bad_label_is_rejected_with_one_message(self, labels, c):
        with pytest.raises(vp.InvalidParameter, match=r"^labels must cover exactly 0\.\.num_groups-1$"):
            vp.Partition(assignment=np.array(labels), num_groups=c)

    @pytest.mark.parametrize("labels, c", [([0], 1), ([1, 0, 1], 2), ([2, 0, 1, 0], 3)])
    def test_labels_covering_every_group_are_accepted(self, labels, c):
        p = vp.Partition(assignment=np.array(labels), num_groups=c)
        assert p.assignment.tolist() == labels and not p.assignment.flags.writeable
