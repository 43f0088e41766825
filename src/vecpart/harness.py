"""Experiment orchestration: time scans, dimension sweeps, embedding comparisons.

``time_scan`` and ``dim_sweep`` run one routine, ``_sweep``, which checks
every input before it decomposes anything. A full-dimension linearised or
modularity point decomposes nothing: it optimises the graph's
``QualityMatrix``. The other points share one basis, decomposed once for
the largest dimension they embed at. One builder, ``scan_record``, makes
every record. All results are deterministic for fixed seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, SizeMismatch, TooLarge
from .graph import Graph, Partition
from .metrics import nmi, uncertainty_coefficient, variation_of_information
from .objective import modularity_score
from .spectral import (
    MODES,
    QualityMatrix,
    build_embedding,
    check_dim,
    check_time,
    decompose_modularity_matrix,
    decompose_transition,
    uses_quality_matrix,
)
from .vp import VPDiagnostics, partition_vectors

# Each grid point is one best-of-restarts run and one report record of n
# labels: 10,000 points at n = 1000 already report ten million labels. The
# check runs before np.geomspace allocates a grid sized by a typo.
MAX_GRID_POINTS = 10_000


@dataclass
class ScanRecord:
    """One optimised partition: a point of a time scan, a dim of a dim sweep, or a ``partition`` run."""

    time: float | None
    mode: str
    dim: int
    partition: Partition
    objective: float
    num_communities: int
    nmi: float | None = None
    uncertainty: float | None = None
    vi_to_previous: float | None = None


@dataclass
class EmbeddingResult:
    modularity: float
    num_communities: int
    uncertainty: float


@dataclass
class ComparisonRow:
    dim: int
    transition: EmbeddingResult
    modularity_matrix: EmbeddingResult


def geometric_grid(t_min: float, t_max: float, n_points: int) -> np.ndarray:
    if not 0 < t_min <= t_max < math.inf:
        raise InvalidParameter(f"need finite 0 < t_min <= t_max, got {t_min}, {t_max}")
    if n_points < 1:
        raise InvalidParameter(f"n_points must be >= 1, got {n_points}")
    if n_points > MAX_GRID_POINTS:
        raise TooLarge(f"{n_points} grid points exceeds the limit of {MAX_GRID_POINTS}")
    with np.errstate(over="ignore"):  # near the float64 limit, geomspace overflows before it sets its end points
        return np.geomspace(t_min, t_max, n_points)


def best_of_restarts(
    emb, restarts: int, seed: int = 0
) -> tuple[Partition, float, VPDiagnostics]:
    """Best of one natural-order run plus shuffled-order restarts.

    Restart k (k >= 1) visits the vectors in the order drawn from seed
    ``seed + k``. The highest objective wins; ties keep the earliest run.
    ``emb`` is an ``Embedding`` or a ``QualityMatrix``. All runs share one
    level-0 Gram, the embedding's ``gram``, when level 0 runs in Gram space;
    on a ``QualityMatrix`` they share the graph's ``adjacency()``.
    """
    if restarts < 1:
        raise InvalidParameter(f"restarts must be >= 1, got {restarts}")
    best = partition_vectors(emb)
    for k in range(1, restarts):
        candidate = partition_vectors(emb, seed=seed + k)
        if candidate[1] > best[1]:
            best = candidate
    return best


def scan_record(emb, partition: Partition, objective: float, truth: Partition | None = None) -> ScanRecord:
    """The record of ``partition``, optimised over ``emb`` (an ``Embedding``
    or a ``QualityMatrix``): its time, mode and dim, the community count,
    and NMI and uncertainty against ``truth`` when one is given."""
    return ScanRecord(
        time=emb.time,
        mode=emb.mode,
        dim=emb.dim,
        partition=partition,
        objective=objective,
        num_communities=partition.num_groups,
        nmi=None if truth is None else nmi(truth, partition),
        uncertainty=None if truth is None else uncertainty_coefficient(truth, partition),
    )


def _sweep(g: Graph, truth, mode: str, modes: tuple[str, ...], times, dims, restarts: int, seed: int) -> list[ScanRecord]:
    """The best-of-restarts record of every (t, dim) point, times outer.

    First, before anything is decomposed, raise on a mode outside ``modes``,
    a time ``mode`` does not take, a dim outside [1, n - 1] (None is n - 1)
    or a truth of another size. A point where ``uses_quality_matrix``
    optimises the graph's ``QualityMatrix``; the others embed one basis,
    decomposed for the largest of their dims.
    """
    if mode not in modes:
        raise InvalidParameter(f"mode must be {' or '.join(modes)}, got {mode!r}")
    for t in times:
        check_time(mode, t)
    for dim in dims:
        check_dim(dim, g.n)
    if truth is not None and truth.n != g.n:
        raise SizeMismatch(f"ground truth covers {truth.n} nodes, graph has {g.n}")
    embedded = [g.n - 1 if dim is None else dim for dim in dims if not uses_quality_matrix(mode, dim, g.n)]
    if embedded and mode == "modularity":
        basis = decompose_modularity_matrix(g, dim=max(embedded))
    elif embedded:
        basis = decompose_transition(g, dim=max(embedded))
    records = []
    for t in times:
        for dim in dims:
            if uses_quality_matrix(mode, dim, g.n):
                emb = QualityMatrix(g, mode, t)
            else:
                emb = build_embedding(basis, mode, t=t, dim=dim)
            partition, objective, _ = best_of_restarts(emb, restarts, seed)
            records.append(scan_record(emb, partition, objective, truth))
    return records


def time_scan(
    g: Graph,
    t_min: float,
    t_max: float,
    n_points: int,
    mode: str = "exponential",
    dim: int | None = None,
    seed: int = 0,
    restarts: int = 5,
    truth: Partition | None = None,
) -> list[ScanRecord]:
    """Optimise the partition on a geometric grid of Markov times.

    One transition decomposition is shared by all grid points; at full
    dimension in linearised mode there is none, and each grid point
    optimises the graph's ``QualityMatrix`` at its time. Each record
    stores the best-of-restarts partition, its objective, the community
    count, the variation of information against the preceding optimum, and
    NMI / uncertainty against the ground truth when one is given.
    """
    times = geometric_grid(t_min, t_max, n_points).tolist()
    records = _sweep(g, truth, mode, ("exponential", "linearised"), times, [dim], restarts, seed)
    for previous, record in zip(records, records[1:]):
        record.vi_to_previous = variation_of_information(previous.partition, record.partition)
    return records


def dim_sweep(
    g: Graph,
    truth: Partition,
    t: float | None,
    mode: str,
    dims: list[int],
    seed: int = 0,
    restarts: int = 5,
) -> list[ScanRecord]:
    """Optimise at a fixed time across embedding dimensions, scoring vs truth.

    One decomposition serves every dim; a full-dimension (n - 1 or None)
    linearised or modularity dim needs none, and optimises the graph's
    ``QualityMatrix`` as ``partition`` does. Modularity mode takes ``t`` None.
    """
    return _sweep(g, truth, mode, MODES, [t], dims, restarts, seed)


def embedding_comparison(
    g: Graph,
    truth: Partition,
    dims: list[int],
    seed: int = 0,
    restarts: int = 5,
) -> list[ComparisonRow]:
    """Modularity optimisation from two spectral embeddings, side by side.

    For each dimension, the same optimiser maximises modularity once over the
    transition-matrix embedding (linearised at t = 1) and once over the
    modularity-matrix embedding; each side reports the modularity of its
    partition, the community count, and the uncertainty coefficient vs truth.
    Each side is a ``dim_sweep``, so each source is decomposed once.
    """

    def result(record: ScanRecord) -> EmbeddingResult:
        return EmbeddingResult(modularity_score(g, record.partition), record.num_communities, record.uncertainty)

    transition = dim_sweep(g, truth, 1.0, "linearised", dims, seed, restarts)
    modularity = dim_sweep(g, truth, None, "modularity", dims, seed, restarts)
    return [ComparisonRow(a.dim, result(a), result(b)) for a, b in zip(transition, modularity)]
