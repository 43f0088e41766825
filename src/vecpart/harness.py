"""Experiment orchestration: time scans, dimension sweeps, embedding comparisons.

Each routine decomposes the graph once, for the largest dimension it
embeds at, and reuses the basis across grid points, dimensions and
embedding sources. A full-dimension linearised scan decomposes nothing: it
optimises the graph's ``QualityMatrix`` at each grid point. All results
are deterministic for fixed seeds.
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
    QualityMatrix,
    build_embedding,
    check_dim,
    decompose_modularity_matrix,
    decompose_transition,
    uses_quality_matrix,
)
from .vp import VPDiagnostics, _shared_gram, partition_vectors

# Each grid point is one best-of-restarts run and one report record of n
# labels: 10,000 points at n = 1000 already report ten million labels. The
# check runs before np.geomspace allocates a grid sized by a typo.
MAX_GRID_POINTS = 10_000


@dataclass
class ScanRecord:
    """One grid point of a Markov-time scan."""

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
class DimSweepRow:
    dim: int
    nmi: float
    uncertainty: float
    num_communities: int
    objective: float


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
    level-0 Gram when level 0 runs in Gram space.
    """
    if restarts < 1:
        raise InvalidParameter(f"restarts must be >= 1, got {restarts}")
    gram = _shared_gram(emb)
    best = partition_vectors(emb, _gram=gram)
    for k in range(1, restarts):
        candidate = partition_vectors(emb, seed=seed + k, _gram=gram)
        if candidate[1] > best[1]:
            best = candidate
    return best


def _check_truth(g: Graph, truth: Partition) -> None:
    if truth.n != g.n:
        raise SizeMismatch(f"ground truth covers {truth.n} nodes, graph has {g.n}")


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
    if mode not in ("exponential", "linearised"):
        raise InvalidParameter(f"time_scan mode must be exponential or linearised, got {mode!r}")
    if truth is not None:
        _check_truth(g, truth)
    times = geometric_grid(t_min, t_max, n_points)
    graph_space = uses_quality_matrix(mode, dim, g.n)
    basis = None if graph_space else decompose_transition(g, dim=dim)
    records: list[ScanRecord] = []
    previous: Partition | None = None
    for t in times:
        if graph_space:
            emb = QualityMatrix(g, mode, float(t))
        else:
            emb = build_embedding(basis, mode, t=float(t), dim=dim)
        partition, objective, _ = best_of_restarts(emb, restarts, seed)
        record = ScanRecord(
            time=float(t),
            mode=mode,
            dim=emb.dim,
            partition=partition,
            objective=objective,
            num_communities=partition.num_groups,
        )
        if truth is not None:
            record.nmi = nmi(truth, partition)
            record.uncertainty = uncertainty_coefficient(truth, partition)
        if previous is not None:
            record.vi_to_previous = variation_of_information(previous, partition)
        records.append(record)
        previous = partition
    return records


def dim_sweep(
    g: Graph,
    truth: Partition,
    t: float | None,
    mode: str,
    dims: list[int],
    seed: int = 0,
    restarts: int = 5,
) -> list[DimSweepRow]:
    """Optimise at a fixed time across embedding dimensions, scoring vs truth."""
    _check_truth(g, truth)
    for dim in dims:
        check_dim(dim, g.n)
    largest = max(dims, default=None)
    if mode == "modularity":
        basis = decompose_modularity_matrix(g, dim=largest)
    else:
        basis = decompose_transition(g, dim=largest)
    rows: list[DimSweepRow] = []
    for dim in dims:
        emb = build_embedding(basis, mode, t=t, dim=dim)
        partition, objective, _ = best_of_restarts(emb, restarts, seed)
        rows.append(
            DimSweepRow(
                dim=dim,
                nmi=nmi(truth, partition),
                uncertainty=uncertainty_coefficient(truth, partition),
                num_communities=partition.num_groups,
                objective=objective,
            )
        )
    return rows


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
    """
    _check_truth(g, truth)
    for dim in dims:
        check_dim(dim, g.n)
    largest = max(dims, default=None)
    basis_t = decompose_transition(g, dim=largest)
    basis_q = decompose_modularity_matrix(g, dim=largest)
    rows: list[ComparisonRow] = []
    for dim in dims:
        results = []
        for basis, mode, t in ((basis_t, "linearised", 1.0), (basis_q, "modularity", None)):
            emb = build_embedding(basis, mode, t=t, dim=dim)
            partition, _, _ = best_of_restarts(emb, restarts, seed)
            results.append(
                EmbeddingResult(
                    modularity=modularity_score(g, partition),
                    num_communities=partition.num_groups,
                    uncertainty=uncertainty_coefficient(truth, partition),
                )
            )
        rows.append(ComparisonRow(dim=dim, transition=results[0], modularity_matrix=results[1]))
    return rows
