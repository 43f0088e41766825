"""Multiscale community detection on weighted graphs via spectral max-sum
vector partitioning.

The pipeline: decompose the random-walk transition matrix (or the modularity
matrix), embed the nodes as time-dependent spectral vectors, and optimise
Markov stability, its linearised variant, or modularity as a max-sum vector
partitioning problem with a Louvain-style heuristic.
"""

from .errors import (
    AsymmetricEdgeList,
    ConflictingDuplicateEdge,
    DimOutOfRange,
    Disconnected,
    EigensolverFailure,
    GenerationFailed,
    InvalidParameter,
    LevelCapExceeded,
    MalformedLine,
    MissingCommunityLabel,
    ModeBasisMismatch,
    NonFiniteWeight,
    NonPositiveWeight,
    ObjectiveDecreased,
    SelfLoop,
    SizeMismatch,
    StateDrift,
    TooLarge,
    VecpartError,
    ZeroDegree,
)
from .graph import Graph, Partition, load_edge_list, load_lfr, planted_partition
from .harness import ScanRecord, best_of_restarts, geometric_grid, scan, time_scan
from .metrics import (
    Contingency,
    nmi,
    sankey_links,
    sankey_to_json,
    uncertainty_coefficient,
    variation_of_information,
)
from .objective import (
    autocovariance_direct,
    linearised_stability,
    modularity_score,
    stability,
)
from .spectral import (
    Embedding,
    QualityMatrix,
    SpectralBasis,
    build_embedding,
    decompose_modularity_matrix,
    decompose_transition,
    scaled_eigenvalues,
)
from .vp import (
    VPDiagnostics,
    VPState,
    exhaustive_partition,
    partition_vectors,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricEdgeList",
    "ConflictingDuplicateEdge",
    "Contingency",
    "DimOutOfRange",
    "Disconnected",
    "EigensolverFailure",
    "Embedding",
    "GenerationFailed",
    "InvalidParameter",
    "Graph",
    "LevelCapExceeded",
    "MalformedLine",
    "MissingCommunityLabel",
    "ModeBasisMismatch",
    "NonFiniteWeight",
    "NonPositiveWeight",
    "ObjectiveDecreased",
    "Partition",
    "QualityMatrix",
    "ScanRecord",
    "SelfLoop",
    "SizeMismatch",
    "SpectralBasis",
    "StateDrift",
    "TooLarge",
    "VPDiagnostics",
    "VPState",
    "VecpartError",
    "ZeroDegree",
    "autocovariance_direct",
    "best_of_restarts",
    "build_embedding",
    "decompose_modularity_matrix",
    "decompose_transition",
    "exhaustive_partition",
    "geometric_grid",
    "linearised_stability",
    "load_edge_list",
    "load_lfr",
    "modularity_score",
    "nmi",
    "partition_vectors",
    "planted_partition",
    "sankey_links",
    "sankey_to_json",
    "scaled_eigenvalues",
    "scan",
    "stability",
    "time_scan",
    "uncertainty_coefficient",
    "variation_of_information",
]
