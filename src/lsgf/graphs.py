"""Weighted undirected graphs, their Laplacians, and small-graph spectral tools.

Graphs are stored in CSR form with both triangle halves present so that row
slices enumerate full neighborhoods.  Laplacians carry a certified upper
bound on their largest eigenvalue; every spectral interval in the package is
[0, lambda_max_bound] of the Laplacian at hand.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

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

        # sort pairs in (min, max) order; the stable sort keeps input order
        # within a pair, so the conflict reported is the earliest one
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        first = np.diff(lo * n + hi, prepend=-1) != 0
        clash = np.flatnonzero(~first & (np.diff(w, prepend=w[:1]) != 0))
        if clash.size:
            k = clash[np.argmin(order[clash])]
            raise ValueError(f"conflicting duplicate edge ({lo[k]}, {hi[k]})")
        lo, hi, w = lo[first], hi[first], w[first]
        adj = scipy.sparse.coo_matrix(
            (np.r_[w, w], (np.r_[lo, hi], np.r_[hi, lo])), shape=(n, n)).tocsr()
        adj.sort_indices()
        g = cls(n=n,
                indptr=adj.indptr.astype(np.int64),
                indices=adj.indices.astype(np.int64),
                weights=adj.data.astype(np.float64),
                coords=None if coords is None else np.asarray(coords, float))
        if lo.size and not g.is_connected():
            warnings.warn("graph is disconnected", stacklevel=2)
        return g

    @property
    def n_edges(self):
        return self.weights.size // 2

    def degrees(self):
        """Weighted degree of every vertex."""
        out = np.zeros(self.n)
        np.add.at(out, np.repeat(np.arange(self.n), np.diff(self.indptr)),
                  self.weights)
        return out

    def to_scipy(self):
        return scipy.sparse.csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(self.n, self.n))

    def hop_distances(self, source):
        """Unweighted hop count from source; -1 marks unreachable vertices."""
        dist = scipy.sparse.csgraph.shortest_path(
            self.to_scipy(), unweighted=True, indices=source)
        return np.where(np.isinf(dist), -1, dist).astype(np.int64)

    def is_connected(self):
        """True when the graph has one component or no vertices at all."""
        return self.n == 0 or scipy.sparse.csgraph.connected_components(
            self.to_scipy(), directed=False, return_labels=False) == 1


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

    def matvec(self, x):
        return _kernels.csr_matvec(self.indptr, self.indices, self.data, x)

    def to_scipy(self):
        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr),
                                       shape=(self.n, self.n))

    def toarray(self):
        return self.to_scipy().toarray()

    def with_lambda_bound(self, value):
        """Copy of this Laplacian with a replacement spectral upper bound."""
        if value <= 0:
            raise ValueError("spectral bound must be positive")
        return Laplacian(kind=self.kind, n=self.n, indptr=self.indptr,
                         indices=self.indices, data=self.data,
                         lambda_max_bound=float(value), graph=self.graph)


def build_laplacian(graph, kind="combinatorial"):
    """Assemble the Laplacian of the given kind.

    The recorded bound is max over edges (m, n) of d(m) + d(n) for the
    combinatorial kind and 2 for the normalized kind.
    """
    if kind not in ("combinatorial", "normalized"):
        raise ValueError(f"unknown laplacian kind {kind!r}")
    w = graph.to_scipy()
    deg = graph.degrees()
    if kind == "combinatorial":
        lap = scipy.sparse.diags(deg) - w
        if graph.n_edges:
            rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
            bound = float(np.max(deg[rows] + deg[graph.indices]))
        else:
            bound = 1.0
    else:
        if np.any(deg == 0):
            raise ValueError("normalized laplacian requires nonzero degrees")
        dinv = 1.0 / np.sqrt(deg)
        lap = scipy.sparse.diags(dinv) @ (scipy.sparse.diags(deg) - w) \
            @ scipy.sparse.diags(dinv)
        bound = 2.0
    lap = scipy.sparse.csr_matrix(lap)
    lap.sort_indices()
    # scipy's own index dtype, so the kernels' operators share these arrays
    return Laplacian(kind=kind, n=graph.n, indptr=lap.indptr,
                     indices=lap.indices, data=lap.data.astype(np.float64),
                     lambda_max_bound=bound, graph=graph)


def quadratic_form(lap, f):
    """f' L f, the smoothness energy of a signal."""
    f = as_signal(lap.n, f)
    return float(f @ lap.matvec(f))


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

    Runs a fully reorthogonalized Lanczos iteration from a Gaussian start
    vector and returns 1.01 times the largest Ritz value, capped at the
    Laplacian's analytic bound.  The inflation is a heuristic margin for the
    downward bias of Ritz values, not a certificate; the cap keeps the
    result from ever exceeding the recorded bound.
    """
    rng = np.random.default_rng(seed)
    n = lap.n
    steps = min(steps, n)
    v = rng.standard_normal(n)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero start vector")
    v /= nrm
    basis = np.zeros((steps, n))
    alphas = []
    betas = []
    beta = 0.0
    v_prev = np.zeros(n)
    for k in range(steps):
        basis[k] = v
        w = lap.matvec(v)
        alpha = v @ w
        alphas.append(alpha)
        w = w - alpha * v - beta * v_prev
        w = w - basis[:k + 1].T @ (basis[:k + 1] @ w)
        beta = np.linalg.norm(w)
        if beta < 1e-12:
            break
        v_prev = v
        v = w / beta
        if k < steps - 1:
            betas.append(beta)
    t = np.diag(alphas)
    if betas:
        off = np.array(betas[:len(alphas) - 1])
        t[np.arange(len(off)), np.arange(len(off)) + 1] = off
        t[np.arange(len(off)) + 1, np.arange(len(off))] = off
    ritz = scipy.linalg.eigvalsh(t)
    return min(lap.lambda_max_bound, 1.01 * float(ritz[-1]))
