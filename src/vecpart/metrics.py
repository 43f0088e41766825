"""Partition comparison measures built on a shared contingency table.

Natural logarithms throughout. NMI and the uncertainty coefficient are
ratios, so the log base cancels; the variation of information is reported
in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch
from .graph import Partition


@dataclass(frozen=True, eq=False)
class Contingency:
    """Joint group counts of two partitions over the same node set."""

    counts: np.ndarray  # (c1, c2) int64
    n: int

    @classmethod
    def from_partitions(cls, p1: Partition, p2: Partition) -> Contingency:
        if p1.n != p2.n:
            raise SizeMismatch(f"partitions cover {p1.n} and {p2.n} nodes")
        counts = np.zeros((p1.num_groups, p2.num_groups), dtype=np.int64)
        np.add.at(counts, (p1.assignment, p2.assignment), 1)
        counts.setflags(write=False)
        return cls(counts=counts, n=p1.n)

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def _entropy(totals: np.ndarray, n: int) -> float:
    p = totals[totals > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(cont: Contingency) -> float:
    rows, cols = np.nonzero(cont.counts)
    joint = cont.counts[rows, cols].astype(np.float64)
    outer = cont.row_totals[rows].astype(np.float64) * cont.col_totals[cols]
    return float((joint / cont.n * np.log(joint * cont.n / outer)).sum())


def nmi(p1: Partition, p2: Partition) -> float:
    """Mutual information normalised by the geometric mean of the entropies.

    Conventions for degenerate entropies: 1 when both partitions are
    all-in-one, 0 when exactly one of them is.
    """
    cont = Contingency.from_partitions(p1, p2)
    h1 = _entropy(cont.row_totals, cont.n)
    h2 = _entropy(cont.col_totals, cont.n)
    if h1 == 0.0 and h2 == 0.0:
        return 1.0
    if h1 == 0.0 or h2 == 0.0:
        return 0.0
    value = _mutual_information(cont) / np.sqrt(h1 * h2)
    return float(min(max(value, 0.0), 1.0))


def uncertainty_coefficient(truth: Partition, computed: Partition) -> float:
    """I(truth; computed) / H(computed): how much of the computed partition's
    information is about the ground truth.

    Equals 1 exactly when the computed partition is a coarsening of the
    truth (joining truth groups loses no information about it). When the
    computed partition is all-in-one its entropy vanishes; by convention the
    value is then 1 if the truth is also all-in-one and 0 otherwise.
    """
    cont = Contingency.from_partitions(truth, computed)
    h_truth = _entropy(cont.row_totals, cont.n)
    h_comp = _entropy(cont.col_totals, cont.n)
    if h_comp == 0.0:
        return 1.0 if h_truth == 0.0 else 0.0
    value = _mutual_information(cont) / h_comp
    return float(min(max(value, 0.0), 1.0))


def variation_of_information(p1: Partition, p2: Partition) -> float:
    """H(p1|p2) + H(p2|p1) in nats; 0 iff the set partitions are identical."""
    cont = Contingency.from_partitions(p1, p2)
    h1 = _entropy(cont.row_totals, cont.n)
    h2 = _entropy(cont.col_totals, cont.n)
    return float(max(h1 + h2 - 2.0 * _mutual_information(cont), 0.0))


def sankey_links(p1: Partition, p2: Partition) -> list[tuple[int, int, int]]:
    """Nonzero contingency cells as (group_in_p1, group_in_p2, node_count).

    Sorted by (group_in_p1, group_in_p2); counts sum to n. This is the data
    behind a Sankey diagram of how one partition's groups flow into the
    other's; rendering is out of scope.
    """
    cont = Contingency.from_partitions(p1, p2)
    rows, cols = np.nonzero(cont.counts)
    return [(int(u), int(v), int(cont.counts[u, v])) for u, v in zip(rows, cols)]


def sankey_to_json(links: list[tuple[int, int, int]]) -> list[dict]:
    return [{"from": u, "to": v, "count": c} for u, v, c in links]
