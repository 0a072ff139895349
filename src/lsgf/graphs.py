"""Weighted undirected graphs, their Laplacians, and small-graph spectral tools.

Graphs are stored in CSR form with both triangle halves present so that row
slices enumerate full neighborhoods.  SparseGraph.from_edges is the one
normalizer of edge lists, the only code that orders pairs and merges
duplicates; SparseGraph.edges is the one view of the upper half.  Laplacians
carry a certified upper bound on their largest eigenvalue; every spectral
interval in the package is [0, lambda_max_bound] of the Laplacian at hand.

Importing this module loads only numpy and scipy's compiled sparse
routines (see _kernels), which assemble the CSR arrays as scipy.sparse
would: connectivity is a vectorized union-find over the edge arrays, and
the few tools that need scipy.sparse, scipy.linalg or scipy.sparse.csgraph
(to_scipy, hop_distances, eigendecompose, lanczos_lambda_max) import them
when called, so that reading a graph and filtering on it does not pay for
loading them.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels


def as_signal(n, values):
    """Validate a vertex signal: real 1-D of length n, finite entries."""
    f = np.asarray(values, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"signal has shape {f.shape}, expected ({n},)")
    return _finite(f)


def as_block(n, values):
    """Validate a signal of shape (n,) or a block of column signals of shape
    (n, B), with finite entries."""
    f = np.asarray(values, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[0] != n:
        raise ValueError(f"block has shape {f.shape}, expected ({n},) or "
                         f"({n}, B)")
    return _finite(f)


def _finite(f):
    if not np.all(np.isfinite(f)):
        raise ValueError("signal contains non-finite entries")
    return f


@dataclass
class SparseGraph:
    """Undirected weighted graph in CSR form (both halves stored)."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    coords: np.ndarray | None = None

    @classmethod
    def from_edges(cls, n, src, dst, weights, coords=None):
        """Build from an undirected edge list.

        Each edge may appear once in either orientation, or in both
        orientations with equal weight.  Self-loops, non-positive weights and
        conflicting duplicates are rejected.  Disconnected graphs are
        accepted with a warning.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if not (src.shape == dst.shape == w.shape):
            raise ValueError("edge arrays must have matching lengths")
        if src.size and (src.min() < 0 or dst.min() < 0
                         or src.max() >= n or dst.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(src == dst):
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("edge weights must be positive and finite")

        lo, hi, w = _merge_pairs(n, src, dst, w)
        # the pairs ascend by (lo, hi), so with every (hi, lo) entry listed
        # before the (lo, hi) ones each row's columns come out ascending
        indptr, indices, weights = _kernels.coo_to_csr(
            n, np.concatenate([hi, lo]), np.concatenate([lo, hi]),
            np.concatenate([w, w]))
        g = cls(n=n, indptr=indptr, indices=indices, weights=weights,
                coords=None if coords is None else np.asarray(coords, float))
        if lo.size and np.any(component_roots(n, lo, hi)):
            warnings.warn("graph is disconnected", stacklevel=2)
        return g

    @property
    def n_edges(self):
        return self.weights.size // 2

    def degrees(self):
        """Weighted degree of every vertex."""
        # float even without edges, where bincount answers in int
        return np.bincount(_row_index(self.indptr), weights=self.weights,
                           minlength=self.n).astype(np.float64, copy=False)

    def edges(self):
        """(src, dst, w): every edge once, with src < dst, in CSR order."""
        rows = _row_index(self.indptr)
        # positions, not a mask, so that the mask is scanned once
        upper = np.flatnonzero(rows < self.indices)
        return rows[upper], self.indices[upper], self.weights[upper]

    def to_scipy(self):
        return _scipy_csr(self.n, self.indptr, self.indices, self.weights)

    def hop_distances(self, source):
        """Unweighted hop count from source; -1 marks unreachable vertices."""
        import scipy.sparse.csgraph  # here: it loads scipy.linalg
        dist = scipy.sparse.csgraph.shortest_path(
            self.to_scipy(), unweighted=True, indices=source)
        return np.where(np.isinf(dist), -1, dist).astype(np.int64)

    def is_connected(self):
        """True when the graph has one component or no vertices at all.

        That is when every vertex's component root is vertex 0.
        """
        return not np.any(component_roots(self.n, *self.edges()[:2]))


def _merge_pairs(n, src, dst, w):
    """(lo, hi, w) with each pair once, lo < hi, sorted by the int64 key
    lo * n + hi < n^2; its temporaries end here, before the CSR build
    allocates.

    Pairs already in key order, as SparseGraph.edges lists them, need no
    sort.  Otherwise copies of a pair that do not clash are identical, and
    a clash shows whatever their order, so the first sort need not be
    stable.  Only when it finds one does a stable sort redo the test, so
    that the conflict named is the earliest in input order.
    """
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    key = lo * n + hi
    if np.all(key[1:] > key[:-1]):
        return lo, hi, w
    for kind in ("quicksort", "stable"):
        order = np.argsort(key, kind=kind)
        sorted_key, sorted_w = key[order], w[order]
        first = np.diff(sorted_key, prepend=-1) != 0
        clash = np.flatnonzero(
            ~first & (np.diff(sorted_w, prepend=sorted_w[:1]) != 0))
        if not clash.size:
            return lo[order[first]], hi[order[first]], sorted_w[first]
    k = order[clash].min()
    raise ValueError(f"conflicting duplicate edge ({lo[k]}, {hi[k]})")


def _scipy_csr(n, indptr, indices, data):
    import scipy.sparse  # here: no request path builds a scipy matrix
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _row_index(indptr):
    """The row of every entry of a CSR matrix, in its index dtype."""
    return np.repeat(np.arange(indptr.size - 1, dtype=indptr.dtype),
                     np.diff(indptr))


def component_roots(n, src, dst):
    """The smallest vertex of each vertex's connected component.

    src and dst list the edges, in either orientation, as integer arrays.  A
    vectorized union-find in the hook-and-shortcut style of Shiloach and
    Vishkin (J. Algorithms 3, 1982): each round hooks every root that has an
    edge to a smaller root onto the smallest such root, then shortcuts
    parent = parent[parent] until every vertex points at a root, and drops
    the edges inside one tree.  Parents only ever decrease, so the trees
    stay acyclic and each root is its tree's smallest vertex.  A root that
    neither hooks nor is hooked onto in a round has only neighbours that
    hooked onto smaller roots, so it hooks in the next one: the trees with
    edges leaving them at least halve every two rounds.  Hooking onto any
    smaller root instead of the smallest would take a round per leaf of a
    star whose centre is its largest vertex.
    """
    parent = np.arange(n)
    src, dst = np.asarray(src), np.asarray(dst)
    while src.size:
        a, b = parent[src], parent[dst]
        cross = a != b
        if not cross.all():  # true in the first round unless a loop is given
            if not cross.any():
                break
            src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent


@dataclass
class Laplacian:
    """CSR Laplacian of a graph with a certified spectral upper bound.

    kind is 'combinatorial' (L = D - W) or 'normalized'
    (D^{-1/2} L D^{-1/2}, spectrum inside [0, 2]).  lambda_max_bound is a
    guaranteed upper bound on the largest eigenvalue; polynomial filters are
    fit on [0, lambda_max_bound].
    """

    kind: str
    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    lambda_max_bound: float
    graph: SparseGraph | None = None
    # lambda_bar -> CSR arrays of its Chebyshev operator
    _operators: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def matvec(self, x):
        return _kernels.csr_matvec(self.indptr, self.indices, self.data, x)

    def chebyshev_operator(self, lambda_bar):
        """CSR arrays (indptr, indices, data) of M = 4 L / lambda_bar - 2 I.

        M is 2 S for the S = 2 L / lambda_bar - I that maps [0, lambda_bar]
        onto [-1, 1], the operator every Chebyshev kernel takes.  The
        interval must be finite and cover the recorded bound.  M is built on
        the first request for each lambda_bar and kept; it shares this
        Laplacian's indptr and indices when every row stores its diagonal,
        as build_laplacian's rows do unless a vertex has no edge, and
        otherwise the missing entries are inserted by scipy's sparse
        subtraction L * scale - I * shift.
        """
        if not np.isfinite(lambda_bar):
            raise ValueError(f"approximant interval [0, {lambda_bar:g}] is "
                             "not finite")
        if lambda_bar < self.lambda_max_bound * (1.0 - 1e-12):
            raise ValueError(
                f"approximant interval [0, {lambda_bar:g}] does not cover "
                f"the Laplacian's recorded bound {self.lambda_max_bound:g}")
        op = self._operators.get(lambda_bar)
        if op is None:
            scale = 4.0 / lambda_bar
            # M = scale (L - lambda_bar / 2 I): the shift is 2 up to the
            # rounding of scale
            shift = scale * (lambda_bar / 2.0)
            rows = _row_index(self.indptr)
            diag = np.flatnonzero(self.indices == rows)
            if np.array_equal(rows[diag], np.arange(self.n)):
                data = np.multiply(self.data, scale)
                data[diag] -= shift
                op = self.indptr, self.indices, data
            else:
                eye = (np.arange(self.n + 1), np.arange(self.n),
                       np.full(self.n, shift))
                op = _kernels.csr_minus(
                    self.n, (self.indptr, self.indices, self.data * scale),
                    eye)
            self._operators[lambda_bar] = op
        return op

    def to_scipy(self):
        return _scipy_csr(self.n, self.indptr, self.indices, self.data)

    def toarray(self):
        return _kernels._operator(self.indptr, self.indices,
                                  self.data).toarray()

    def with_lambda_bound(self, value):
        """Copy of this Laplacian with a replacement spectral upper bound."""
        if not (np.isfinite(value) and value > 0):
            raise ValueError("spectral bound must be positive and finite")
        return Laplacian(kind=self.kind, n=self.n, indptr=self.indptr,
                         indices=self.indices, data=self.data,
                         lambda_max_bound=float(value), graph=self.graph)


def build_laplacian(graph, kind="combinatorial"):
    """Assemble the Laplacian of the given kind.

    The recorded bound is max over edges (m, n) of d(m) + d(n) for the
    combinatorial kind and 2 for the normalized kind.  The CSR arrays are
    those of scipy's diags(d) - W, and of
    diags(d^-1/2) @ (diags(d) - W) @ diags(d^-1/2) for the normalized kind,
    bit for bit: rows sorted, int32 indices while they fit, an isolated
    vertex's zero diagonal dropped, and a normalized entry rounded as
    (d_i^-1/2 a_ij) d_j^-1/2.
    """
    if kind not in ("combinatorial", "normalized"):
        raise ValueError(f"unknown laplacian kind {kind!r}")
    deg = graph.degrees()
    w = graph.weights
    if kind == "combinatorial":
        diag = deg
        # both halves are stored, so the maximum over stored entries is the
        # one over edges; added in place, to keep one temporary of nnz floats
        ends = deg[graph.indices]
        ends += np.repeat(deg, np.diff(graph.indptr))
        bound = float(np.max(ends)) if ends.size else 1.0
    else:
        if np.any(deg == 0):
            raise ValueError("normalized laplacian requires nonzero degrees")
        dinv = 1.0 / np.sqrt(deg)
        # each side's scaling rounds as scipy's products round it; an entry
        # that underflows to zero is dropped by the subtraction below
        diag = (dinv * deg) * dinv
        w = (dinv[_row_index(graph.indptr)] * w) * dinv[graph.indices]
        bound = 2.0
    stored = np.flatnonzero(diag)
    d = (np.r_[0, np.cumsum(diag != 0)], stored, diag[stored])
    indptr, indices, data = _kernels.csr_minus(
        graph.n, d, (graph.indptr, graph.indices, w))
    # int32 indices, as scipy chose them, so the kernels' operators share
    # these arrays
    return Laplacian(kind=kind, n=graph.n, indptr=indptr, indices=indices,
                     data=data, lambda_max_bound=bound, graph=graph)


def quadratic_form(lap, f):
    """f' L f, the smoothness energy of a signal."""
    f = as_signal(lap.n, f)
    return float(_kernels._dot(f, lap.matvec(f)))


@dataclass
class EigenDecomposition:
    """Full dense eigendecomposition of a Laplacian.

    values are ascending; tiny negative round-off is clamped to zero.  Each
    eigenvector's largest-magnitude entry is made positive, which pins the
    sign deterministically.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self):
        return self.values.size

    @property
    def lambda_max(self):
        return float(self.values[-1])

    def fourier(self, f):
        """Forward graph Fourier transform U' f."""
        return self.vectors.T @ f

    def inverse_fourier(self, fhat):
        return self.vectors @ fhat


def eigendecompose(lap, max_n=10000):
    """Dense eigendecomposition; refuses graphs above max_n vertices.

    For larger graphs use polynomial-mode operations, which never need the
    eigenvectors.
    """
    if lap.n > max_n:
        raise ValueError(
            f"graph has {lap.n} vertices > max_n={max_n}; "
            "use polynomial-mode filtering instead of a dense factorization")
    import scipy.linalg  # here, so that loading a graph does not load it
    vals, vecs = scipy.linalg.eigh(lap.toarray())
    vals = np.maximum(vals, 0.0)
    # the null eigenvalue is structural; keep roundoff from hiding it
    if vals.size and vals[-1] > 0:
        vals[vals <= vals[-1] * 1e-12] = 0.0
    flip = np.take_along_axis(
        vecs, np.argmax(np.abs(vecs), axis=0)[None, :], axis=0)[0] < 0
    vecs[:, flip] = -vecs[:, flip]
    return EigenDecomposition(values=vals, vectors=vecs)


def lanczos_lambda_max(lap, steps=30, seed=0):
    """Estimate of the largest Laplacian eigenvalue, inflated by 1.01.

    Runs `steps` Lanczos steps (at most N) from a Gaussian start vector by
    the plain three-term recurrence, holding three N-vectors, so O(steps*N)
    time and O(N) memory.  Without re-orthogonalization the Lanczos vectors
    lose orthogonality, but only along Ritz vectors that have converged
    (Paige, LAA 34, 1980): that shows up as duplicate copies of converged
    Ritz values, while the extreme Ritz value stays accurate.  Returns 1.01
    times the largest Ritz value, capped at the Laplacian's analytic bound.
    The inflation is a heuristic margin for the downward bias of Ritz
    values, not a certificate; the cap keeps the result from ever exceeding
    the recorded bound.  The recurrence stops early when the Krylov space
    is exhausted, judged relative to that bound so that the test does not
    depend on the scale of the edge weights.
    """
    rng = np.random.default_rng(seed)
    n = lap.n
    steps = min(steps, n)
    v = rng.standard_normal(n)
    # the kernels' einsum dot rather than BLAS: with the other CPU busy, a
    # threaded BLAS dot of 90k entries waited 8 ms for its threads (2 CPUs),
    # twenty times a step's sparse product
    nrm = np.sqrt(_kernels._dot(v, v))
    if nrm == 0:
        raise ValueError("zero start vector")
    v /= nrm
    alphas = []
    betas = []
    beta = 0.0
    v_prev = np.zeros(n)
    for k in range(steps):
        w = lap.matvec(v)
        alpha = _kernels._dot(v, w)
        alphas.append(alpha)
        w -= alpha * v
        w -= beta * v_prev
        beta = np.sqrt(_kernels._dot(w, w))
        if k == steps - 1 or beta <= 1e-12 * lap.lambda_max_bound:
            break
        betas.append(beta)
        w /= beta
        v_prev, v = v, w
    import scipy.linalg
    top = scipy.linalg.eigvalsh_tridiagonal(
        alphas, betas, select="i", select_range=(len(alphas) - 1,) * 2)[0]
    return min(lap.lambda_max_bound, 1.01 * float(top))
