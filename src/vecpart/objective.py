"""Partition quality objectives and their direct matrix-form counterparts.

Every spectral-embedding objective here has an independent computation path
straight from the adjacency (matrix exponential for Markov stability, plain
degree sums for the linearised variant and modularity). The two routes are
kept separate on purpose: the direct path is the oracle the embedding path
is tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeMismatch
from .graph import Graph, Partition, check_dense
from .spectral import Embedding, check_time

# The dense n x n arrays ``autocovariance_direct`` holds at its peak: the
# ``scipy.linalg.expm`` workspace peaks at 10.0 of them (``tracemalloc``, n =
# 400 and 1000, t from 0.01 to 1e4).
AUTOCOVARIANCE_ARRAYS = 11


def _check_nodes(expected: int, p: Partition) -> None:
    if p.n != expected:
        raise SizeMismatch(f"partition covers {p.n} nodes, expected {expected}")


def group_sums(vectors: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    """Per-group sums y_s of ``vectors`` under the labels 0..c-1, shape (c, dim).

    One ``bincount`` per column adds each group's members in index order to
    zeros, so the bits are those of ``np.add.at`` into zeros.
    """
    sums = np.empty((c, vectors.shape[1]))
    for k in range(vectors.shape[1]):
        sums[:, k] = np.bincount(labels, weights=vectors[:, k], minlength=c)
    return sums


def stability(emb: Embedding, p: Partition) -> float:
    """Total signed squared length of the group sum vectors.

    For a full-dimension exponential embedding this equals the Markov
    stability of the partition at the embedding's time; for a linearised
    embedding, the linearised stability. Modularity-mode values are divided
    by 2m so the all-positive case reproduces the modularity score.
    """
    _check_nodes(emb.n, p)
    Y = group_sums(emb.vectors, p.assignment, p.num_groups)
    r = float((Y * Y * emb.signature).sum())
    if emb.mode == "modularity":
        r /= 2.0 * emb.total_weight
    return r


def autocovariance_direct(g: Graph, t: float) -> np.ndarray:
    """Diffusion autocovariance B(t) = Pi exp(-t (I - M)) - pi^T pi.

    Computed with a dense matrix exponential, independent of any spectral
    decomposition; rows sum to zero because exp(-t (I - M)) is row-stochastic.
    """
    check_time("exponential", t)
    check_dense(g.n, AUTOCOVARIANCE_ARRAYS)
    import scipy.linalg

    d = np.asarray(g.degrees, dtype=np.float64)
    pi = d / (2.0 * g.total_weight)
    M = g.dense_adjacency() / d[:, None]
    P = scipy.linalg.expm(-t * (np.eye(g.n) - M))
    return pi[:, None] * P - np.outer(pi, pi)


def _within_group_weight(g: Graph, p: Partition) -> np.ndarray:
    """Per-group sum of adjacency entries over both orientations."""
    a = p.assignment
    gi = a[g.edge_index[:, 0]]
    gj = a[g.edge_index[:, 1]]
    same = gi == gj
    W = np.zeros(p.num_groups)
    np.add.at(W, gi[same], 2.0 * g.edge_weight[same])
    return W


def linearised_stability(g: Graph, p: Partition, t: float) -> float:
    """Linearised Markov stability at resolution t, straight from A, d, m.

    Summing Pi [(1 - t) I + t M] - pi^T pi over within-group pairs reduces to
    (1 - t) P_s + t W_s / 2m - P_s^2 per group, where P_s is the group's
    stationary mass and W_s its internal weight. At t = 1 this is modularity.
    """
    check_time("linearised", t)
    _check_nodes(g.n, p)
    two_m = 2.0 * g.total_weight
    W = _within_group_weight(g, p)
    P_s = np.bincount(p.assignment, weights=g.degrees, minlength=p.num_groups) / two_m
    return float(((1.0 - t) * P_s + t * W / two_m - P_s**2).sum())


def modularity_score(g: Graph, p: Partition) -> float:
    """Newman modularity Q: linearised stability at t = 1."""
    return linearised_stability(g, p, 1.0)
