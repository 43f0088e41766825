"""Exception types raised by the library, each with a stable CLI exit code."""


class VecpartError(Exception):
    """Base class for all vecpart errors."""

    exit_code = 1


class MalformedLine(VecpartError):
    """An input line does not match the expected format."""

    exit_code = 10


class NonPositiveWeight(VecpartError):
    """An edge weight is zero, negative, or not a number."""

    exit_code = 11


class SelfLoop(VecpartError):
    """An input edge connects a node to itself."""

    exit_code = 12


class Disconnected(VecpartError):
    """The graph has more than one connected component."""

    exit_code = 13


class ConflictingDuplicateEdge(VecpartError):
    """The same edge appears twice with different weights."""

    exit_code = 14


class AsymmetricEdgeList(VecpartError):
    """A directed edge list is missing the reverse orientation of an edge."""

    exit_code = 15


class MissingCommunityLabel(VecpartError):
    """A node has no ground-truth community label."""

    exit_code = 16


class GenerationFailed(VecpartError):
    """A random graph generator could not produce a connected sample."""

    exit_code = 17


class NonFiniteWeight(VecpartError):
    """An edge weight is infinite."""

    exit_code = 18


class InvalidParameter(VecpartError, ValueError):
    """A library call got a parameter outside its domain: an unknown mode, an
    empty, reversed or infinite time grid, no restarts, a missing, negative
    or non-finite Markov time, labels that do not form a partition,
    out-of-range planted-partition parameters, or an embedding with no
    vectors."""

    exit_code = 19


class ZeroDegree(VecpartError):
    """A node with zero degree makes the random-walk operator undefined, and
    a graph without edges the modularity matrix."""

    exit_code = 20


class EigensolverFailure(VecpartError):
    """The eigenvalue solver did not converge."""

    exit_code = 21


class DimOutOfRange(VecpartError):
    """Requested embedding dimension is outside [1, n - 1]."""

    exit_code = 22


class ModeBasisMismatch(VecpartError):
    """Embedding mode is incompatible with the spectral basis source."""

    exit_code = 23


class SizeMismatch(VecpartError):
    """Two objects that must cover the same node set have different sizes."""

    exit_code = 24


# Exit code 25 is retired: it belonged to an error of a k-means helper that
# the package no longer has. Do not reuse it.

# Exit code 26 is retired: it belonged to an error of a move-gain helper that
# the package no longer has. Do not reuse it.


class LevelCapExceeded(VecpartError):
    """The optimiser hit one of its safety caps without converging: the cap
    on aggregation levels or the cap on the sweeps of one level."""

    exit_code = 27


class TooLarge(VecpartError):
    """Input too large to handle: beyond the exhaustive enumeration limit or
    the scan grid limit, a graph whose dense n x n matrix would exceed the
    machine's physical memory, weights whose degree sums, reciprocal
    degrees, or degree products in the modularity matrix, overflow the
    floating-point range, or a Markov time so large that the reported
    objective does."""

    exit_code = 28


class ObjectiveDecreased(VecpartError):
    """The optimiser's objective fell across a sweep or became non-finite."""

    exit_code = 29


class StateDrift(VecpartError):
    """The optimiser's incrementally kept group sums or group sizes disagree
    with a recount from the group members."""

    exit_code = 30
