"""Experiment orchestration over the paper's two axes, Markov time and dimension.

``scan`` runs any grid of times x dims and checks every input before it
decomposes anything; ``time_scan`` runs it on a geometric grid of times at
one dim. A full-dimension linearised or modularity point decomposes
nothing: it optimises the graph's ``QualityMatrix``. The other points share
one basis, decomposed once for the largest dimension they embed at. One
builder, ``scan_record``, makes every record. All results are
deterministic for fixed seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, SizeMismatch, TooLarge
from .graph import Graph, Partition
from .metrics import nmi, uncertainty_coefficient, variation_of_information
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
    """One optimised partition: a (time, dim) point of a ``scan`` or a ``partition`` run."""

    time: float | None
    mode: str
    dim: int
    partition: Partition
    objective: float
    num_communities: int
    nmi: float | None = None
    uncertainty: float | None = None
    vi_to_previous: float | None = None


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


def scan(
    g: Graph,
    mode: str,
    times: list[float | None],
    dims: list[int | None],
    truth: Partition | None = None,
    seed: int = 0,
    restarts: int = 5,
) -> list[ScanRecord]:
    """The best-of-restarts record of every point of the grid ``times`` x
    ``dims``, times outer: the paper's two axes, Markov time and the number
    of eigenvectors, on at most one decomposition.

    First, before anything is decomposed, raise on a mode outside MODES, a
    time ``mode`` does not take (modularity mode takes None), a dim outside
    [1, n - 1] (None is n - 1) or a truth of another size; then an empty
    grid returns [] and decomposes nothing. A point where
    ``uses_quality_matrix`` optimises the graph's ``QualityMatrix``; the
    others embed one basis, decomposed for the largest of their dims.
    """
    if mode not in MODES:
        raise InvalidParameter(f"mode must be {' or '.join(MODES)}, got {mode!r}")
    for t in times:
        check_time(mode, t)
    for dim in dims:
        check_dim(dim, g.n)
    if truth is not None and truth.n != g.n:
        raise SizeMismatch(f"ground truth covers {truth.n} nodes, graph has {g.n}")
    if len(times) == 0 or len(dims) == 0:
        return []
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
    if mode not in ("exponential", "linearised"):
        raise InvalidParameter(f"mode must be exponential or linearised, got {mode!r}")
    records = scan(g, mode, times, [dim], truth, seed, restarts)
    for previous, record in zip(records, records[1:]):
        record.vi_to_previous = variation_of_information(previous.partition, record.partition)
    return records
