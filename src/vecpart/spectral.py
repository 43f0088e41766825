"""Spectral decompositions and time-parameterised node-vector embeddings.

Two decompositions are supported: the random-walk transition matrix
M = D^-1 A (computed through its symmetric similar matrix for a real,
stable spectrum) and the modularity matrix B_Q = A - d d^T / 2m. Either
yields node vectors whose signed Gram matrix reproduces the corresponding
partition-quality matrix, which turns community detection into max-sum
vector partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._pcg import PCG64
from .errors import DimOutOfRange, EigensolverFailure, InvalidParameter, ModeBasisMismatch, TooLarge, ZeroDegree
from .graph import Graph, check_dense

MODES = ("exponential", "linearised", "modularity")

# Component weights with magnitude below this are treated as zero and kept
# on the positive side of the signature, so the signature does not flap when
# an eigenvalue weight crosses zero along a time sweep.
ZERO_WEIGHT_TOL = 1e-12

# The truncated eigensolver (``_leading_pairs``) runs where its Lanczos
# basis of m vectors (``_basis_size``) fits TRUNCATED_BASIS_FITS times in n,
# so never below 300 nodes; elsewhere numpy's eigh (LAPACK syevd) runs. Time
# ratio truncated / dense at the last truncated dim and the first dense one
# (transition; modularity), median of 5, planted_partition(n // 50, 50, 0.2,
# 4 / n), 2-CPU x86_64, OpenBLAS at one | two threads:
#   n = 300:  2.3, 2.2; 2.3, 2.3 | 2.5, 2.6; 2.4, 2.5  (dense 12 ms)
#   n = 400:  1.4, 1.5; 1.7, 1.7 | 1.5, 1.6; 1.9, 1.9  (dense 23 ms)
#   n = 1000: 0.85, 0.96; 1.02, 0.88 | 1.4, 1.4; 1.3, 1.4
#   n = 2000: 0.90, 0.92; 0.95, 0.93 | 1.0, 1.1; 1.1, 1.1
# The edge suits n >= 1000 at one thread; two move it below dim 97 at
# n = 1000, and at n = 400 dense is as fast from dim 14. No constant fits all.
TRUNCATED_BASIS_FITS = 5

# A dense decomposition holds at most this many n x n float64 arrays at once.
# Its peak is inside numpy.linalg.eigh, which holds the input, LAPACK's copy
# of it, syevd's workspace of 2 n^2 + 6 n floats and the eigenvectors. At
# n = 1000 and 2000, for either source on planted-partition graphs, the peak
# traced allocation (tracemalloc, which does not see LAPACK's workspace) was
# 4.01 arrays and the peak-RSS delta in a fresh process 5.2-5.6 arrays.
DENSE_EIGH_ARRAYS = 6


# The truncated eigensolver converges a Ritz pair when its residual estimate
# is at most LANCZOS_TOL times the operator's norm, and fails with
# EigensolverFailure after LANCZOS_MAX_MATVECS products. Its basis holds at
# least LANCZOS_MIN_BASIS vectors; ARPACK's 20 failed on long paths at dim 1.
LANCZOS_TOL = 1e-14
LANCZOS_MAX_MATVECS = 50_000
LANCZOS_MIN_BASIS = 60


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Leading eigenpairs of the transition or modularity matrix.

    A basis holds either all n eigenpairs (the dense solver) or the leading
    ``pairs`` < n of them (the truncated solver). Eigenvalues are sorted
    descending and eigenvectors are stored as columns. Transition
    eigenvectors v_k are normalised so v_k^T diag(pi) v_l is the identity;
    modularity eigenvectors are orthonormal in the standard inner product,
    with the all-ones direction carried explicitly as the zero mode.
    """

    source: str  # "transition" | "modularity"
    eigenvalues: np.ndarray  # (pairs,) descending
    eigenvectors: np.ndarray  # (n, pairs), column k pairs with eigenvalues[k]
    pi: np.ndarray  # stationary distribution d / 2m
    total_weight: float

    @property
    def n(self) -> int:
        return int(self.eigenvectors.shape[0])

    @property
    def pairs(self) -> int:
        return int(self.eigenvalues.size)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Node vectors x_i in a (pseudo-)Euclidean space of dimension ``dim``.

    ``signature`` holds one +1/-1 per component. The components follow the
    basis's descending eigenvalues under a weight monotone in them, so every
    +1 precedes every -1. The squared length of a vector under this
    signature is sum_k signature[k] * x[k]**2. ``time`` is None for
    modularity-sourced embeddings, which have no time parameter.
    """

    mode: str  # "exponential" | "linearised" | "modularity"
    time: float | None
    dim: int
    vectors: np.ndarray  # (n, dim)
    signature: np.ndarray  # (dim,) of +1 / -1
    total_weight: float

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def is_euclidean(self) -> bool:
        return bool(np.all(self.signature > 0))

    @cached_property
    def gram(self) -> np.ndarray:
        """The signed Gram (X S) X^T of the vectors, formed once, read-only:
        every optimiser run whose level 0 is in Gram space shares it."""
        gram = (np.asarray(self.vectors, dtype=np.float64) * self.signature.astype(np.float64)) @ self.vectors.T
        gram.setflags(write=False)
        return gram


def _fix_signs(V: np.ndarray) -> None:
    """In place, make each column's largest-magnitude entry positive, for determinism."""
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V *= signs


def check_dim(dim: int | None, n: int) -> None:
    """Raise DimOutOfRange unless an embedding of n nodes can have dimension
    ``dim``; None is the full n - 1. Runs before any decomposition."""
    if dim is not None and not 1 <= dim <= n - 1:
        raise DimOutOfRange(f"dim must be in [1, {n - 1}], got {dim}")


def check_time(mode: str, t: float | None) -> None:
    """Raise InvalidParameter unless ``t`` is a Markov time of ``mode``:
    finite and >= 0 in exponential mode, finite and > 0 in linearised mode,
    None in modularity mode, which takes no time."""
    if mode == "modularity":
        if t is not None:
            raise InvalidParameter(f"modularity mode takes no time, got {t}")
        return
    exponential = mode == "exponential"
    if t is None or not (0 <= t if exponential else 0 < t) or t == math.inf:
        raise InvalidParameter(f"{mode} mode needs a finite t {'>=' if exponential else '>'} 0, got {t}")


def _similar_transition(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S = D^-1/2 A D^-1/2 in the compressed sparse row form of
    ``Graph.adjacency``, exactly symmetric."""
    indptr, indices, data = g.adjacency()
    inv_sqrt_d = 1.0 / np.sqrt(np.asarray(g.degrees, dtype=np.float64))
    rows = np.repeat(np.arange(g.n), np.diff(indptr))
    return indptr, indices, data * (inv_sqrt_d[rows] * inv_sqrt_d[indices])


def _csr_product(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
    """x -> M x for one vector x, M given in compressed sparse row form with
    no empty row, as ``Graph.adjacency`` gives it; one temporary of nnz floats."""
    starts = indptr[:-1]

    def apply(x: np.ndarray) -> np.ndarray:
        y = x[indices]
        y *= data
        return np.add.reduceat(y, starts)

    return apply


def _product(g: Graph, source: str):
    """x -> S x for the transition source, x -> B_Q x for the modularity one,
    on one vector. B_Q x = A x - d (d^T x) / 2m is applied as sparse plus
    rank one, so neither matrix is formed densely.
    """
    if source == "transition":
        return _csr_product(*_similar_transition(g))
    A = _csr_product(*g.adjacency())
    d = np.asarray(g.degrees, dtype=np.float64)
    two_m = 2.0 * g.total_weight
    return lambda x: A(x) - d * (d @ x) / two_m


def _ones_shift(g: Graph) -> float:
    """Twice a bound on the spectral norm of B_Q: max degree plus d^T d / 2m."""
    d = np.asarray(g.degrees, dtype=np.float64)
    return 2.0 * (float(d.max()) + float(d @ d) / (2.0 * g.total_weight))


def _operator(g: Graph, source: str):
    """The symmetric operator the truncated eigensolver solves for ``source``,
    as x -> op x on one vector, and its spectral norm or a bound on it.

    For the transition source, the sparse S = D^-1/2 A D^-1/2, of norm 1.
    For the modularity source, P B_Q P - s J, with P the projector off the
    unit ones vector e and J = e e^T. It agrees with B_Q off e and sends e
    to -s e. With s from ``_ones_shift``, -s lies below every eigenvalue of
    B_Q, so the ones direction is the lowest pair and never among the
    leading ones, and s bounds the norm.
    """
    if source == "transition":
        return _product(g, source), 1.0
    e = np.full(g.n, 1.0 / np.sqrt(g.n))
    shift = _ones_shift(g)
    product = _product(g, "modularity")

    def apply(x: np.ndarray) -> np.ndarray:
        c = e @ x
        y = product(x - e * c)
        return y - e * (e @ y) - e * (shift * c)

    return apply, shift


def _modularity_matrix(g: Graph) -> np.ndarray:
    """The dense B_Q = A - d d^T / 2m, for the dense eigensolver. Raises
    TooLarge as ``Graph.dense_adjacency`` does, before any allocation.

    The rank-one term is formed and subtracted a sixteenth of the rows at a
    time, so the step holds one n x n array and a temporary of at most a
    sixteenth of one, with the bits of the whole-matrix formula."""
    d = np.asarray(g.degrees, dtype=np.float64)
    two_m = 2.0 * g.total_weight
    B = g.dense_adjacency()
    step = max(1, g.n // 16)
    for start in range(0, g.n, step):
        outer = np.multiply.outer(d[start : start + step], d)
        outer /= two_m
        B[start : start + step] -= outer
    return B


def _dense_operator(g: Graph, source: str) -> np.ndarray:
    """The dense matrix of ``_operator(g, source)``, built with numpy alone
    in one n x n array.

    S is ``_similar_transition``'s entries scattered into zeros. For the
    modularity source, P B_Q P - s J = B_Q - e b^T - b e^T + (e^T b - s) J,
    with b = B_Q e; every entry of J is 1 / n. It is shifted a block of rows
    at a time, as ``_modularity_matrix`` is, with a temporary of at most a
    sixteenth of one array.
    """
    n = g.n
    if source == "transition":
        check_dense(n)
        indptr, indices, data = _similar_transition(g)
        S = np.zeros((n, n))
        S[np.repeat(np.arange(n), np.diff(indptr)), indices] = data
        return S
    step = max(1, n // 16)
    e = 1.0 / np.sqrt(n)
    M = _modularity_matrix(g)
    b = M.sum(axis=1) * e
    corner = (e * float(b.sum()) - _ones_shift(g)) / n
    for start in range(0, n, step):
        block = np.add.outer(b[start : start + step], b)
        block *= e
        block -= corner
        M[start : start + step] -= block
    return M


def _orthogonalise(w: np.ndarray, *blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Remove from w, in place, its components along the orthonormal rows of
    each block: classical Gram-Schmidt, repeated while a pass shrinks w by
    more than a factor sqrt(2), at most three passes. Returns w, its
    coefficients along the first block's rows and its norm."""
    coefficients = np.zeros(blocks[0].shape[0])
    norm = math.sqrt(w @ w)
    for _ in range(3):
        for b, B in enumerate(blocks):
            c = B @ w
            w -= c @ B
            if b == 0:
                coefficients += c
        shrunk, norm = norm, math.sqrt(w @ w)
        if norm > shrunk / math.sqrt(2.0):
            break
    return w, coefficients, norm


def _basis_size(k: int) -> int:
    """The m vectors ``_lanczos`` holds for k pairs: max(2k + 1,
    LANCZOS_MIN_BASIS); a restart keeps k + (m - k) // 2 of them."""
    return max(2 * k + 1, LANCZOS_MIN_BASIS)


def _lanczos(apply, k: int, start: np.ndarray, locked: np.ndarray, tol: float, fresh) -> tuple[np.ndarray, np.ndarray]:
    """The k algebraically largest eigenpairs of the symmetric ``apply``
    restricted to the complement of the orthonormal rows of ``locked``, by
    thick-restart Lanczos (Wu and Simon 2000) with full reorthogonalisation.

    The basis holds m = ``_basis_size(k)`` vectors, the m ``_eigenpairs``
    reads to pick this solver. When it is full, the k + (m - k) // 2 leading
    Ritz vectors and the residual vector restart it. The projected matrix is
    read off the reorthogonalisation coefficients, so it needs no restart
    bookkeeping. A Krylov space that becomes invariant, as on a spectrum
    with few distinct eigenvalues, continues from the vector ``fresh()``.
    The k pairs are converged when each Ritz residual estimate is at most
    ``tol``. Returns the eigenvalues ascending and the eigenvectors as rows.
    """
    n = start.size
    m = _basis_size(k)
    V = np.empty((m + 1, n))
    T = np.zeros((m, m))
    off = (locked,) if locked.shape[0] else ()
    w, _, norm = _orthogonalise(start, locked)
    V[0] = w / norm
    kept = 0
    while True:
        for j in range(kept, m):
            w, h, beta = _orthogonalise(apply(V[j]), V[: j + 1], *off)
            T[: j + 1, j] = h
            T[j, : j + 1] = h
            if beta <= tol:  # an invariant subspace: continue in a new direction
                beta = 0.0
                w, _, norm = _orthogonalise(fresh(), V[: j + 1], *off)
                V[j + 1] = w / norm
            else:
                V[j + 1] = w / beta
        theta, Y = np.linalg.eigh(T)
        if np.all(np.abs(beta * Y[m - 1, m - k :]) <= tol):
            return theta[m - k :], Y[:, m - k :].T @ V[:m]
        kept = k + (m - k) // 2
        V[:kept] = Y[:, m - kept :].T @ V[:m]
        V[kept] = V[m]
        T[:] = 0.0
        T[np.arange(kept), np.arange(kept)] = theta[m - kept :]


def _leading_pairs(apply, n: int, k: int, norm: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The k algebraically largest eigenpairs of the symmetric ``apply`` on
    R^n, of spectral norm at most ``norm``: eigenvalues ascending, unit
    eigenvectors as the columns of an (n, k) array.

    Every start and fresh vector is the next n uniforms of one PCG64 stream
    of seed 0, less 0.5: ``default_rng(0).random(n) - 0.5``, bit for bit,
    from the package's own generator, so a solve never loads
    ``numpy.random``. ARPACK starts from a uniform vector too. A single
    Krylov space holds one direction of each eigenspace, so it may
    miss a repeated eigenvalue's other copies. The result is then checked:
    a Lanczos run from a fresh vector off the pairs found converges the
    largest eigenvalue left. While that lies above the k-th found by more
    than the tolerance, it replaces the k-th and the check runs again.
    Residuals are measured against ``norm``, so eigenvalues near 0 converge
    too. Raises EigensolverFailure after LANCZOS_MAX_MATVECS products.
    """
    matvecs = 0

    def counted(x: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        if matvecs == LANCZOS_MAX_MATVECS:
            raise EigensolverFailure(f"{what} truncated eigendecomposition did not converge in {matvecs} products")
        matvecs += 1
        return apply(x)

    tol = LANCZOS_TOL * norm
    stream = PCG64(0)

    def fresh() -> np.ndarray:
        return stream.random(n) - 0.5

    lam, X = _lanczos(counted, k, fresh(), np.empty((0, n)), tol, fresh)
    while True:
        theta, y = _lanczos(counted, 1, fresh(), X, tol, fresh)
        if theta[0] <= lam[0] + tol:
            return lam, X.T
        lam = np.append(lam[1:], theta)
        X = np.concatenate([X[1:], y])
        order = np.argsort(lam, kind="stable")
        lam, X = lam[order], X[order]


def _eigenpairs(g: Graph, source: str, dim: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``_operator(g, source)`` in ascending order, for an
    embedding of dimension ``dim``, None for the full n - 1.

    The embedding reads the leading dim + 1 pairs of its basis (the
    stationary or all-ones mode and dim components); one more pair is kept
    so the eigenvalue gap at the cut is known. Those are k = dim + 2 pairs,
    or dim + 1 off the modularity source's ones mode. Where the Lanczos
    basis for k pairs fits TRUNCATED_BASIS_FITS times in n,
    ``_leading_pairs`` computes the k algebraically largest with numpy
    alone; its fixed start and restart vectors make the result
    deterministic for a given operator. Otherwise every pair, by
    ``numpy.linalg.eigh`` (LAPACK ``syevd``) on ``_dense_operator``, less
    the modularity matrix's lowest pair: its shifted ones direction.
    """
    if dim is not None:
        k = dim + 2 if source == "transition" else dim + 1
        if TRUNCATED_BASIS_FITS * _basis_size(k) <= g.n:
            apply, norm = _operator(g, source)
            return _leading_pairs(apply, g.n, k, norm, source)
    check_dense(g.n, DENSE_EIGH_ARRAYS)
    try:
        w, U = np.linalg.eigh(_dense_operator(g, source))
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"{source} eigendecomposition failed: {exc}") from exc
    return (w, U) if source == "transition" else (w[1:], U[:, 1:])


def _basis(g: Graph, source: str, w: np.ndarray, V: np.ndarray) -> SpectralBasis:
    """Sort the pairs (w, V) descending, fix the column signs and freeze them."""
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    _fix_signs(V)
    pi = np.asarray(g.degrees, dtype=np.float64) / (2.0 * g.total_weight)
    for arr in (w, V, pi):
        arr.setflags(write=False)
    return SpectralBasis(source=source, eigenvalues=w, eigenvectors=V, pi=pi, total_weight=g.total_weight)


def _check_modularity_matrix(g: Graph) -> None:
    """Raise ZeroDegree for a graph without edges, and TooLarge when the
    degree products d d^T overflow: B_Q = A - d d^T / 2m needs them."""
    if not g.total_weight > 0:
        raise ZeroDegree("the graph has no edges: the modularity matrix is undefined")
    d = np.asarray(g.degrees, dtype=np.float64)
    with np.errstate(over="ignore"):
        dd = float(d @ d)
    if not np.isfinite(dd):
        raise TooLarge(f"the squared degrees sum to {dd}: the weights overflow the modularity matrix")


def decompose_transition(g: Graph, dim: int | None = None) -> SpectralBasis:
    """Eigendecompose the random-walk transition matrix M = D^-1 A for an
    embedding of dimension ``dim``, by default the full n - 1.

    The eigenproblem is solved on the symmetric similar matrix
    S = D^-1/2 A D^-1/2, whose eigenpairs (lam, u) map to eigenpairs
    (lam, sqrt(2m) D^-1/2 u) of M normalised against diag(pi). With ``dim``
    small against n, only the leading dim + 2 eigenpairs are computed, by
    Lanczos on the sparse S; otherwise all n, by numpy on the dense S, which
    has the same entries. Raises DimOutOfRange, as ``check_dim`` does,
    before any other check.
    """
    check_dim(dim, g.n)
    d = np.asarray(g.degrees, dtype=np.float64)
    if np.any(d <= 0):
        bad = int(np.argmin(d))
        raise ZeroDegree(f"node {bad} has zero degree")
    w, U = _eigenpairs(g, "transition", dim)
    U *= (np.sqrt(2.0 * g.total_weight) * (1.0 / np.sqrt(d)))[:, None]
    return _basis(g, "transition", w, U)


def decompose_modularity_matrix(g: Graph, dim: int | None = None) -> SpectralBasis:
    """Eigendecompose the modularity matrix B_Q = A - d d^T / 2m for an
    embedding of dimension ``dim``, by default the full n - 1.

    The all-ones direction is an exact zero mode of B_Q. Both solvers work
    on a matrix that shifts it below the spectrum (see ``_operator`` and
    ``_dense_operator``), so the pairs they return lie off the ones vector,
    which is then re-inserted exactly with eigenvalue 0, so downstream
    consumers can exclude it unambiguously. With ``dim`` small against n,
    only the leading dim + 1 eigenpairs off the ones direction are computed,
    by Lanczos; otherwise all n - 1, by numpy. Raises DimOutOfRange, as
    ``check_dim`` does, before any other check, then as
    ``_check_modularity_matrix`` does.
    """
    check_dim(dim, g.n)
    _check_modularity_matrix(g)
    n = g.n
    beta, U = _eigenpairs(g, "modularity", dim)
    ones = np.full((n, 1), 1.0 / np.sqrt(n))
    return _basis(g, "modularity", np.append(beta, 0.0), np.concatenate([U, ones], axis=1))


def scaled_eigenvalues(basis: SpectralBasis, mode: str, t: float) -> np.ndarray:
    """Time-scaled eigenvalue weights, in basis order.

    Exponential mode returns exp(-t (1 - lam_k)), strictly positive and at
    most 1; linearised mode returns 1 - t (1 - lam_k), which is unbounded
    and may be negative, and raises TooLarge, naming t, when a weight
    overflows. Eigenvalues are clipped at 1 first: the stationary one may
    come out as 1 + eps, whose weight would overflow at a large t.
    """
    if basis.source != "transition":
        raise ModeBasisMismatch(f"scaled eigenvalues need a transition basis, got {basis.source!r}")
    if mode not in ("exponential", "linearised"):
        raise ModeBasisMismatch(f"no eigenvalue scaling for mode {mode!r}")
    check_time(mode, t)
    lam = np.minimum(basis.eigenvalues, 1.0)
    if mode == "linearised":
        with np.errstate(over="ignore"):
            weights = 1.0 - t * (1.0 - lam)
        if not np.isfinite(weights).all():
            raise TooLarge(f"the linearised weights 1 - t (1 - lambda) overflow at t = {t}")
        return weights
    with np.errstate(over="ignore"):  # -t (1 - lam) may be -inf: its weight exp(-inf) is 0
        return np.exp(-t * (1.0 - lam))


def _ones_mode_index(U: np.ndarray) -> int:
    """Column with the largest overlap with the all-ones direction."""
    return int(np.argmax(np.abs(U.sum(axis=0))))


def _skipped_column(basis: SpectralBasis) -> int:
    """The basis column no embedding uses: the stationary mode of a
    transition basis, the all-ones zero mode of a modularity basis."""
    return 0 if basis.source == "transition" else _ones_mode_index(basis.eigenvectors)


def build_embedding(
    basis: SpectralBasis, mode: str, t: float | None = None, dim: int | None = None
) -> Embedding:
    """Build the node-vector embedding for one mode at one time.

    Modes
    -----
    exponential
        Component k of x_i is sqrt(exp(-t (1 - lam_{k+1}))) pi_i v_{k+1,i};
        the signature is all +1 and the Gram matrix at full dimension equals
        the diffusion autocovariance B(t).
    linearised
        Component weights mu_k(t) = 1 - t (1 - lam_k) may be negative; each
        component carries sqrt(|mu|) and contributes with sign(mu), giving a
        pseudo-Euclidean embedding whose signed Gram matrix at full dimension
        equals the linearised autocovariance.
    modularity
        Components are sqrt(|beta_k|) u_{k,i} over the ``dim`` leading
        eigenvalues of the modularity matrix, excluding the all-ones zero
        mode, with sign(beta_k) in the signature.

    The retained components are the leading ones in the basis's descending
    eigenvalue order. Every mode's weight is monotone in the eigenvalue, so
    that order already puts all +1 components before all -1 components.
    """
    if mode not in MODES:
        raise InvalidParameter(f"mode must be one of {MODES}, got {mode!r}")
    n = basis.n
    skip = _skipped_column(basis)
    if dim is None:
        dim = n - 1
    if not 1 <= dim <= basis.pairs - 1:
        held = f" (the basis holds {basis.pairs} of {n} eigenpairs)" if basis.pairs < n else ""
        raise DimOutOfRange(f"dim must be in [1, {basis.pairs - 1}]{held}, got {dim}")
    # The kept columns are the leading dim + 1 less the skipped one, or the
    # leading dim when it lies past them. One C-ordered copy of them, scaled
    # in place: two slices, copied from the F-ordered eigenvectors with no
    # temporary.
    head = min(skip, dim)
    keep = np.delete(np.arange(dim + 1), head)
    X = np.empty((n, dim))
    X[:, :head] = basis.eigenvectors[:, :head]
    X[:, head:] = basis.eigenvectors[:, head + 1 : dim + 1]
    if mode == "modularity":
        if basis.source != "modularity":
            raise ModeBasisMismatch("modularity mode needs a modularity basis")
        weights = basis.eigenvalues[keep]
        time_field: float | None = None
    else:
        weights = scaled_eigenvalues(basis, mode, t)[keep]
        X *= basis.pi[:, None]
        time_field = float(t)
    X *= np.sqrt(np.abs(weights))

    signature = np.where(weights < -ZERO_WEIGHT_TOL, -1, 1).astype(np.int64)
    X.setflags(write=False)
    signature.setflags(write=False)
    return Embedding(
        mode=mode,
        time=time_field,
        dim=int(dim),
        vectors=X,
        signature=signature,
        total_weight=basis.total_weight,
    )


def uses_quality_matrix(mode: str, dim: int | None, n: int) -> bool:
    """Whether a run in ``mode`` at dimension ``dim`` on n nodes optimises a
    ``QualityMatrix`` instead of an embedding: linearised and modularity mode
    at full dimension, ``dim`` None or n - 1. The one place this is chosen.
    """
    return mode in ("linearised", "modularity") and dim in (None, n - 1)


@dataclass(frozen=True, eq=False)
class QualityMatrix:
    """A graph's partition-quality matrix, in place of a full-dimension embedding.

    At full dimension n - 1, the signed Gram of a linearised embedding at
    time t is (1 - t) Pi + t A / 2m - pi pi^T, and that of a modularity
    embedding is B_Q = A - d d^T / 2m: a sparse matrix, a diagonal and a
    rank-one term. ``partition_vectors`` optimises it on sparse graphs, the
    graph and then its group graphs (``vp.GraphState``), with no
    eigendecomposition, no vectors and no dense array. ``dim`` is that of
    the embedding it stands in for. A modularity matrix takes no time, and
    raises as ``_check_modularity_matrix`` does.
    """

    graph: Graph
    mode: str  # "linearised" | "modularity"
    time: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("linearised", "modularity"):
            raise InvalidParameter(f"a quality matrix is linearised or modularity, got {self.mode!r}")
        check_time(self.mode, self.time)
        if self.mode == "modularity":
            _check_modularity_matrix(self.graph)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def dim(self) -> int:
        return self.graph.n - 1

    @property
    def total_weight(self) -> float:
        return self.graph.total_weight


def _max_residual(g: Graph, basis: SpectralBasis) -> float:
    """Largest ||S u - lam u|| over the held pairs, u a unit eigenvector of the
    symmetric matrix solved: S = D^-1/2 A D^-1/2, or B_Q. A basis of all n
    pairs is checked against the dense matrix, a truncated one against the
    sparse product the solver applied, a column at a time, which needs no
    n x n array."""
    full = basis.pairs == basis.n
    if full:
        M = _dense_operator(g, "transition") if basis.source == "transition" else _modularity_matrix(g)
    else:
        product = _product(g, basis.source)
    # A transition eigenvector v is stored pi-normalised; u = sqrt(pi) v is the unit one.
    scale = np.sqrt(basis.pi)[:, None] if basis.source == "transition" else 1.0
    worst = 0.0
    block = 256  # columns at a time, so a full basis needs no further n x n array
    for start in range(0, basis.pairs, block):
        cols = slice(start, start + block)
        U = scale * basis.eigenvectors[:, cols]
        if full:
            R = M @ U
        else:
            R = np.empty(U.shape)
            for c in range(U.shape[1]):
                R[:, c] = product(U[:, c])
        R -= U * basis.eigenvalues[cols]
        worst = max(worst, float(np.linalg.norm(R, axis=0).max()))
    return worst


def spectral_health(g: Graph, basis: SpectralBasis, dim: int) -> dict:
    """Numerical health of ``basis`` for an embedding of dimension ``dim``.

    ``solver`` is "eigh" for a basis of all n pairs and "lanczos" for a
    truncated one; ``pairs`` is the number held; ``max_residual`` is the
    largest eigen-residual over them; ``gap_at_dim`` is the drop from the
    last eigenvalue the embedding reads to the next one, or None when the
    basis holds no next one. A gap near zero means the retained eigenspace,
    and so the embedding, depends on the eigensolver and not on the graph
    alone.
    """
    lam = np.delete(basis.eigenvalues, _skipped_column(basis))
    return {
        "solver": "eigh" if basis.pairs == basis.n else "lanczos",
        "pairs": basis.pairs,
        "max_residual": _max_residual(g, basis),
        "gap_at_dim": float(lam[dim - 1] - lam[dim]) if dim < lam.size else None,
    }
