"""Partition quality objectives and their direct matrix-form counterparts.

Every spectral-embedding objective here has an independent computation path
straight from the adjacency (matrix exponential for Markov stability, plain
degree sums for the linearised variant and modularity). The two routes are
kept separate on purpose: the direct path is the oracle the embedding path
is tested against.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import InvalidParameter, NonEuclideanEmbedding, SizeMismatch
from .graph import Graph, Partition
from .spectral import Embedding


def _check_nodes(expected: int, p: Partition) -> None:
    if p.n != expected:
        raise SizeMismatch(f"partition covers {p.n} nodes, expected {expected}")


def group_sum_vectors(emb: Embedding, p: Partition) -> np.ndarray:
    """Per-group sums y_s of the embedding vectors, shape (c, dim)."""
    _check_nodes(emb.n, p)
    Y = np.zeros((p.num_groups, emb.dim))
    np.add.at(Y, p.assignment, emb.vectors)
    return Y


def stability(emb: Embedding, p: Partition) -> float:
    """Total signed squared length of the group sum vectors.

    For a full-dimension exponential embedding this equals the Markov
    stability of the partition at the embedding's time; for a linearised
    embedding, the linearised stability. Modularity-mode values are divided
    by 2m so the all-positive case reproduces the modularity score.
    """
    Y = group_sum_vectors(emb, p)
    r = float((Y * Y * emb.signature).sum())
    if emb.mode == "modularity":
        r /= 2.0 * emb.total_weight
    return r


def autocovariance_direct(g: Graph, t: float) -> np.ndarray:
    """Diffusion autocovariance B(t) = Pi exp(-t (I - M)) - pi^T pi.

    Computed with a dense matrix exponential, independent of any spectral
    decomposition; rows sum to zero because exp(-t (I - M)) is row-stochastic.
    """
    if not 0 <= t < math.inf:
        raise InvalidParameter(f"t must be finite and >= 0, got {t}")
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


def modularity_score(g: Graph, p: Partition) -> float:
    """Newman modularity Q, straight from adjacency, degrees and m."""
    _check_nodes(g.n, p)
    two_m = 2.0 * g.total_weight
    W = _within_group_weight(g, p)
    deg = np.bincount(p.assignment, weights=g.degrees, minlength=p.num_groups)
    return float((W / two_m - (deg / two_m) ** 2).sum())


def linearised_stability(g: Graph, p: Partition, t: float) -> float:
    """Linearised Markov stability at resolution t, straight from A, d, m.

    Summing Pi [(1 - t) I + t M] - pi^T pi over within-group pairs reduces to
    (1 - t) P_s + t W_s / 2m - P_s^2 per group, where P_s is the group's
    stationary mass and W_s its internal weight. At t = 1 this is modularity.
    """
    if not 0 < t < math.inf:
        raise InvalidParameter(f"t must be finite and > 0, got {t}")
    _check_nodes(g.n, p)
    two_m = 2.0 * g.total_weight
    W = _within_group_weight(g, p)
    P_s = np.bincount(p.assignment, weights=g.degrees, minlength=p.num_groups) / two_m
    return float(((1.0 - t) * P_s + t * W / two_m - P_s**2).sum())


def kmeans_objective(emb: Embedding, p: Partition) -> tuple[float, float]:
    """k-means distortion and the normalised score F it is equivalent to.

    Returns (distortion, F) where distortion is the within-group squared
    distance to the group centroids and F sums ||y_s||^2 / |g_s|. The two are
    linked by distortion = sum_i ||x_i||^2 - F. Only defined for Euclidean
    (exponential-mode) embeddings.
    """
    if emb.mode != "exponential":
        raise NonEuclideanEmbedding(f"k-means objective needs exponential mode, got {emb.mode!r}")
    Y = group_sum_vectors(emb, p)
    sizes = p.group_sizes().astype(np.float64)
    F = float(((Y * Y).sum(axis=1) / sizes).sum())
    centroids = Y / sizes[:, None]
    diff = emb.vectors - centroids[p.assignment]
    distortion = float((diff * diff).sum())
    return distortion, F


def signed_inner(emb: Embedding, a: np.ndarray, b: np.ndarray) -> float:
    """Signature-weighted inner product sum_k sigma_k a_k b_k."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (emb.dim,) or b.shape != (emb.dim,):
        raise SizeMismatch(
            f"vectors must have dimension {emb.dim}, got {a.shape} and {b.shape}"
        )
    return float(np.dot(emb.signature * a, b))
