"""Weighted undirected graphs and node partitions: validation, file ingestion and
benchmark sampling."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import (
    AsymmetricEdgeList,
    ConflictingDuplicateEdge,
    Disconnected,
    GenerationFailed,
    InvalidParameter,
    MalformedLine,
    MissingCommunityLabel,
    NonFiniteWeight,
    NonPositiveWeight,
    SelfLoop,
    TooLarge,
)

try:  # the builtin module loads far less than hashlib and OpenSSL, as in random.py
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.11 and before
    except ImportError:
        from hashlib import sha256 as _sha256

# The dense n x n float64 arrays a step holds at once may not exceed the
# machine's physical memory.
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_dense(n: int, arrays: int = 1) -> None:
    """Raise TooLarge when ``arrays`` dense n x n float64 arrays, the most
    the caller holds at once, would not fit in the machine's physical
    memory. Runs before the first such allocation."""
    size = arrays * 8 * n * n
    if size > PHYSICAL_MEMORY:
        held = "matrix needs" if arrays == 1 else f"step holds {arrays} such matrices,"
        raise TooLarge(
            f"a dense {n} x {n} {held} {size / 2**30:.1f} GiB, "
            f"more than the {PHYSICAL_MEMORY / 2**30:.1f} GiB of physical memory"
        )


def csr_adjacency(n: int, edge_index: np.ndarray, edge_weight: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetric adjacency of n nodes and these undirected edges, each
    listed once, in compressed sparse row form: (indptr, indices, data), row
    i's entries at indptr[i]:indptr[i + 1], columns ascending."""
    i = edge_index[:, 0]
    j = edge_index[:, 1]
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], np.concatenate([edge_weight, edge_weight])[order]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable connected weighted undirected graph.

    Each undirected edge is stored exactly once with ``i < j``; the adjacency
    is symmetric by construction and free of self-loops. ``degrees[i]`` is the
    weighted degree sum over row i of the adjacency, and ``total_weight`` is
    half the degree sum, so ``degrees.sum() == 2 * total_weight`` exactly.
    """

    n: int
    edge_index: np.ndarray  # (E, 2) int64, each row sorted i < j, rows sorted
    edge_weight: np.ndarray  # (E,) float64, strictly positive
    degrees: np.ndarray  # (n,) float64
    total_weight: float  # m

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[0])

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(*self.edge_index.T.tolist(), self.edge_weight.tolist()))

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``csr_adjacency`` of the graph, with no empty row when n >= 2."""
        return csr_adjacency(self.n, self.edge_index, self.edge_weight)

    def dense_adjacency(self) -> np.ndarray:
        check_dense(self.n)
        A = np.zeros((self.n, self.n))
        i = self.edge_index[:, 0]
        j = self.edge_index[:, 1]
        A[i, j] = self.edge_weight
        A[j, i] = self.edge_weight
        return A

    def to_edge_list_text(self) -> str:
        """Canonical serialisation: one "i j w" line per edge, sorted by (i, j).

        Weights are printed with full precision so that parsing the text
        reproduces the graph edge for edge.
        """
        return "".join(f"{i} {j} {w!r}\n" for i, j, w in self.edges)

    def sha256(self) -> str:
        """Content hash of the canonical serialisation."""
        return _sha256(self.to_edge_list_text().encode("utf-8")).hexdigest()


def canonical_labels(labels: Sequence[int] | np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel to 0..k-1 in order of first appearance; returns (labels, k)."""
    values, first, inverse = np.unique(
        np.asarray(labels, dtype=np.int64).reshape(-1), return_index=True, return_inverse=True
    )
    rank = np.empty(values.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(values.size)
    return rank[inverse], int(values.size)


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of nodes to non-overlapping groups labelled 0..c-1: a found
    partition or the ground truth it is scored against."""

    assignment: np.ndarray  # (n,) int64
    num_groups: int

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        n = a.size
        if n < 1:
            raise InvalidParameter("partition over an empty node set")
        c = self.num_groups
        if not 1 <= c <= n:
            raise InvalidParameter(f"num_groups must be in [1, {n}], got {c}")
        if a.min() < 0 or a.max() >= c or not np.bincount(a.reshape(-1), minlength=c).all():
            raise InvalidParameter("labels must cover exactly 0..num_groups-1")
        a.setflags(write=False)

    @classmethod
    def from_labels(cls, labels: Sequence[int] | np.ndarray) -> Partition:
        """Build a partition from arbitrary labels, canonicalised by first appearance."""
        a, c = canonical_labels(labels)
        return cls(assignment=a, num_groups=c)

    @property
    def n(self) -> int:
        return int(self.assignment.size)

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_groups)

    def groups(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.assignment == s) for s in range(self.num_groups)]

    def canonical_key(self) -> tuple[int, ...]:
        """First-appearance relabelling, for comparing set partitions."""
        return tuple(canonical_labels(self.assignment)[0].tolist())


def _is_connected(n: int, edge_index: np.ndarray) -> bool:
    """Whether the n nodes form one component, by hook-and-compress.

    Every node points at the root of its tree, the smallest id in it. A
    round hooks each root to the smallest root it shares an edge with, then
    pointer-jumps every node to its new root. A root that hooks to none is
    hooked to by a neighbour, so each round at least halves the trees of
    every component: at most ceil(log2 n) + 1 rounds, whatever the diameter.
    """
    parent = np.arange(n)
    i, j = edge_index[:, 0], edge_index[:, 1]
    while True:
        ri, rj = parent[i], parent[j]
        cross = ri != rj  # an edge inside one tree stays inside it
        if not cross.any():
            return bool((parent == 0).all())
        i, j, ri, rj = i[cross], j[cross], ri[cross], rj[cross]
        np.minimum.at(parent, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _edge_arrays(edges: dict[tuple[int, int], float]) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) -> w entries with i < j as _build_graph's sorted arrays."""
    items = sorted(edges.items())
    edge_index = np.array([k for k, _ in items], dtype=np.int64).reshape(-1, 2)
    return edge_index, np.array([w for _, w in items], dtype=np.float64)


def _build_graph(n: int, edge_index: np.ndarray, edge_weight: np.ndarray) -> Graph:
    """Assemble and validate a Graph from distinct (i, j) rows with i < j in
    row-major order and their weights; the arrays are kept, made read-only."""
    if n < 1:
        raise MalformedLine("graph has no nodes")
    num_edges = edge_index.shape[0]
    if num_edges < n - 1:  # before anything sized by the largest node id
        raise Disconnected(f"graph with {n} nodes has only {num_edges} edges and is not connected")
    if not _is_connected(n, edge_index):
        raise Disconnected(f"graph with {n} nodes is not connected")
    degrees = np.zeros(n, dtype=np.float64)
    with np.errstate(over="ignore"):
        np.add.at(degrees, edge_index[:, 0], edge_weight)
        np.add.at(degrees, edge_index[:, 1], edge_weight)
        two_m = float(degrees.sum())
        # Every degree is positive; below about 5.6e-309 its reciprocal,
        # which D^-1/2 and d d^T / 2m need, overflows.
        tiny = np.flatnonzero(~np.isfinite(1.0 / degrees))
    if not np.isfinite(two_m):
        raise TooLarge(f"the weighted degrees sum to {two_m}: the weights overflow float64")
    if tiny.size:
        bad = int(tiny[0])
        raise TooLarge(f"node {bad} has degree {float(degrees[bad])!r}: its reciprocal overflows float64")
    total_weight = two_m / 2.0
    for arr in (edge_index, edge_weight, degrees):
        arr.setflags(write=False)
    return Graph(
        n=n,
        edge_index=edge_index,
        edge_weight=edge_weight,
        degrees=degrees,
        total_weight=total_weight,
    )


def read_lines(
    stream: IO[str] | str, prefix: str, form: str, extra: int = 0
) -> Iterator[tuple[int, int, int, list[str]]]:
    """Yield (line number, first id, second id, the fields after them) for
    each line of ``stream`` that is neither blank nor a '#' comment.

    ``stream`` is either an open text stream or the raw text itself. A line
    holds two integer ids and up to ``extra`` more fields; otherwise
    MalformedLine names ``prefix``, the line number and the expected
    ``form``. A stream that does not decode also raises MalformedLine; the
    decoder reads ahead, so the bad byte lies at or after the line named.
    """
    lines = stream.splitlines() if isinstance(stream, str) else stream
    lineno = 0
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if not 2 <= len(fields) <= 2 + extra:
                raise MalformedLine(f"{prefix} {lineno}: expected {form}, got {line!r}")
            try:
                i, j = int(fields[0]), int(fields[1])
            except ValueError:
                raise MalformedLine(f"{prefix} {lineno}: non-integer field in {line!r}") from None
            yield lineno, i, j, fields[2:]
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise MalformedLine(f"{prefix} {lineno + 1} or later: not {exc.encoding} text (byte {byte:#04x})") from None


def load_edge_list(stream: IO[str] | str) -> Graph:
    """Parse "i j [w]" lines with zero-based node ids into a validated Graph.

    ``stream`` is either an open text stream or the raw text itself. Blank
    lines and lines starting with '#' are skipped; the weight defaults to 1.
    Duplicate (i, j) / (j, i) lines are tolerated when their weights agree
    exactly and rejected otherwise.
    """
    edges: dict[tuple[int, int], float] = {}
    max_node = -1
    for lineno, i, j, rest in read_lines(stream, "line", "'i j [w]'", extra=1):
        try:
            w = float(rest[0]) if rest else 1.0
        except ValueError:
            raise MalformedLine(f"line {lineno}: non-numeric weight {rest[0]!r}") from None
        if i < 0 or j < 0:
            raise MalformedLine(f"line {lineno}: negative node id in {i} {j}")
        if i == j:
            raise SelfLoop(f"line {lineno}: self-loop at node {i}")
        if not w > 0:
            raise NonPositiveWeight(f"line {lineno}: weight {w} on edge ({i}, {j})")
        if w == np.inf:
            raise NonFiniteWeight(f"line {lineno}: weight {w} on edge ({i}, {j})")
        key = (i, j) if i < j else (j, i)
        if key in edges and edges[key] != w:
            raise ConflictingDuplicateEdge(
                f"line {lineno}: edge {key} given weights {edges[key]} and {w}"
            )
        edges[key] = w
        max_node = max(max_node, i, j)
    if not edges:
        raise MalformedLine("no edges found in input")
    return _build_graph(max_node + 1, *_edge_arrays(edges))


def load_lfr(network: IO[str] | str, community: IO[str] | str) -> tuple[Graph, Partition]:
    """Read an LFR-style benchmark pair (network.dat, community.dat).

    The network file lists every undirected unit-weight edge in both
    orientations with one-based node ids; the community file assigns one
    label per node and determines the node count. Fields may be separated
    by tabs or spaces.
    """
    labels: dict[int, int] = {}
    for lineno, node, lab, _ in read_lines(community, "community line", "'node label'"):
        if node < 1:
            raise MalformedLine(f"community line {lineno}: node ids are one-based, got {node}")
        if node in labels and labels[node] != lab:
            raise MalformedLine(f"community line {lineno}: node {node} relabelled")
        labels[node] = lab
    if not labels:
        raise MalformedLine("community file has no labels")
    n = max(labels)
    missing = n - len(labels)
    if missing:
        first = ", ".join(itertools.islice((str(v) for v in range(1, n + 1) if v not in labels), 10))
        more = ", ..." if missing > 10 else ""
        raise MissingCommunityLabel(f"{missing} node(s) have no community label: {first}{more}")

    oriented: set[tuple[int, int]] = set()
    for lineno, i, j, _ in read_lines(network, "network line", "'i j'"):
        if i == j:
            raise SelfLoop(f"network line {lineno}: self-loop at node {i}")
        if i > n or j > n or i < 1 or j < 1:
            raise MissingCommunityLabel(
                f"network line {lineno}: node {max(i, j)} has no community label"
            )
        oriented.add((i, j))
    for i, j in sorted(oriented):
        if (j, i) not in oriented:
            raise AsymmetricEdgeList(f"edge ({i}, {j}) is listed in one orientation only")
    edges = {(i - 1, j - 1): 1.0 for i, j in oriented if i < j}
    if not edges:
        raise MalformedLine("network file has no edges")
    g = _build_graph(n, *_edge_arrays(edges))
    return g, Partition.from_labels([labels[v] for v in range(1, n + 1)])


def planted_partition(
    k: int, size: int, p_in: float, p_out: float, seed: int
) -> tuple[Graph, Partition]:
    """Sample a unit-weight planted-partition graph with k groups of equal size.

    Sampling contract, stable so tests can replay it independently: nodes are
    0..k*size-1 with node i in group ``i // size``; candidate pairs are the
    row-major upper triangle of the node grid; attempt a = 0, 1, ... draws
    ``numpy.random.default_rng([seed, a])`` and one uniform array over all
    pairs, keeping a pair when its uniform is below the probability for its
    type. The first connected sample out of 100 attempts is returned.
    """
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    if size < 2:
        raise InvalidParameter(f"size must be >= 2, got {size}")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise InvalidParameter(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    n = k * size
    # Sampling the bench graphs peaks at 0.71-0.83 n x n arrays (tracemalloc,
    # n = 1000 and 2000); a complete graph peaks at 6.6, most of it the graph.
    check_dense(n, 3)
    group = np.arange(n) // size
    # Pair (i, j) of the triangle has flat index start[i] + j - i - 1. Only
    # pairs with a uniform below p_in can be kept, as p_out <= p_in, so only
    # those are located, and only cross-group ones need the p_out test.
    rows = np.arange(n)
    start = rows * (2 * n - rows - 1) // 2
    group_end = (group + 1) * size
    for attempt in range(100):
        uniform = np.random.default_rng([seed, attempt]).random(n * (n - 1) // 2)
        flat = np.flatnonzero(uniform < p_in)
        i = np.searchsorted(start, flat, side="right") - 1
        j = flat - start[i] + i + 1
        keep = (j < group_end[i]) | (uniform[flat] < p_out)
        edge_index = np.stack([i[keep], j[keep]], axis=1)
        try:
            g = _build_graph(n, edge_index, np.ones(edge_index.shape[0]))
        except Disconnected:
            continue
        return g, Partition.from_labels(group)
    raise GenerationFailed(
        f"no connected sample in 100 attempts "
        f"(k={k}, size={size}, p_in={p_in}, p_out={p_out}, seed={seed})"
    )
