"""Low-level CSR and Chebyshev recurrence kernels on scipy's compiled
sparse routines.

Every Chebyshev entry point takes the raw CSR arrays (indptr, indices, data)
of an operator M = 2 S and runs the same three-term recurrence,
T_k+1(S) x = M T_k(S) x - T_k-1(S) x, one sparse product and one vector
pass per step; the entry points differ only in what they accumulate from the
vectors T_k(S) x.  For a Laplacian L and interval [0, lambda_bar],
S = 2 L / lambda_bar - I and M is built once per interval and kept by
Laplacian.chebyshev_operator, on L's own indptr and indices.  Results are
deterministic: the sparse product sums each row in storage order.

cheb_apply_stack filters x through J polynomials in one recurrence and
accumulates all J outputs with one compiled call per step.  Its output for
a group of B columns is B contiguous (J, N) slabs, i.e. the rows of a
(B J, N) matrix Y, and step k >= 1 is Y += A_k T_k, where T_k holds the B
columns of T_k(S) x as rows and A_k is the block-diagonal (B J) x B CSR
matrix with the coefficients c_k in each column.  scipy's csr_matvecs runs
that update as one axpy per output row, so every element takes one rounded
product and one add per step in ascending k, as a multiply-then-add per
band would: rows equal standalone cheb_apply calls (its row 0) bit for bit,
signed zeros included, since step 0 stores c_0 T_0(S) x rather than adding
it to zero.

Moments mu_k = x . T_k(S) x take half the recurrence.  Since
T_i T_j = (T_{i+j} + T_{|i-j|}) / 2 and S is symmetric,
mu_2k = 2 |T_k(S) x|^2 - mu_0 and mu_2k-1 = 2 <T_k(S) x, T_k-1(S) x> - mu_1,
so n moments cost ceil((n - 1) / 2) sparse products per column, not n - 1.

x may be one signal of shape (N,) or a block of B column signals of shape
(N, B); the column axis comes last in every output shape.  A block is split
into at most W contiguous column groups, W being the number of CPUs in the
process's affinity mask.  Each group runs as one recurrence, the first on
the calling thread and the others on a module pool of W - 1 threads, and
writes into its own slice of one preallocated output; a block of fewer than
_THREADED_MIN_ROWS rows runs its groups in turn on the calling thread.  A
one-column group runs the (N,) path.  The sparse products and the stack's
accumulation give each column the same bits at any group width, so the
applied filters equal per-column calls bit for bit; a group's moments are
einsum reductions over its columns, which may round differently from a
single column's.  With W = 1 or B = 1 the call runs inline.  Workers call
only private helpers and make no BLAS call: BLAS runs threads of its own,
and sharing the CPUs with them slowed the recurrences.

The calling thread keeps to the same rule on request paths: single-vector
reductions (dots, norms, CG's inner products, the Clenshaw coefficient
combinations) go through the einsum _dot and _norm here, not BLAS.  After
one threaded BLAS ddot of 10k or more entries, or a gemv such as a
(6,) @ (6, 90000) product, an OpenBLAS helper thread spins for about
130 ms of CPU (13 ticks in /proc/self/task/*/stat) on the CPU that the
second worker needs; a 2-column filter_all on a 20k-vertex sensor graph
(J = 6, K = 40) then took 23-29 ms instead of 15-18 ms (2 CPUs).  Dense
products with real work, such as exact mode's eigenvector transforms and
OMP, keep BLAS.

The sparse products and the CSR assembly call scipy's compiled sparsetools
routines, the ones behind scipy.sparse's @, tocsr and subtraction, with the
same arguments, so the results are scipy's bit for bit.  The module is
loaded from its file, scipy/sparse/_sparsetools*, without importing the
scipy.sparse package: that package loads numpy.f2py, numpy.testing and
numpy.ma through scipy's array API layer, about 0.2 s and 16 MB of every
CLI process.  If the file is missing or does not load, the module comes
from scipy.sparse itself; BACKEND names the path taken.
"""

import importlib.machinery
import importlib.util
import os
import threading

import numpy as np

# shorter columns run their groups one after another: below it the threads'
# hand-offs of the interpreter lock cost about what the parallel recurrences
# save.  With one accumulation call per step, a 2-column filter_all (sensor
# graphs, J = 6, K = 40, 2 CPUs) ran faster threaded in 0-2 of 10 trials at
# 2000 rows, 3-4 at 5000, 5-6 at 10000 and 10 at 20000
_THREADED_MIN_ROWS = 6144

_pool = None
_pool_lock = threading.Lock()


def n_workers():
    """W: the number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def probe_blocks(count):
    """Consecutive ranges of at most W indices that cover range(count)."""
    w = n_workers()
    return [range(s, min(s + w, count)) for s in range(0, count, w)]


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here so that importing lsgf starts no thread machinery
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max(1, n_workers() - 1),
                                       thread_name_prefix="lsgf-kernels")
        return _pool


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _by_columns(run, out, x):
    """run(out[..., g], x[:, g]) for each column group g of the block x."""
    if x.ndim == 1:
        run(out, x)
        return out
    b = x.shape[1]
    w = max(1, min(n_workers(), b))
    edges = [i * b // w for i in range(w + 1)]
    groups = [lo if hi - lo == 1 else slice(lo, hi)
              for lo, hi in zip(edges, edges[1:])]
    if x.shape[0] < _THREADED_MIN_ROWS:
        for g in groups:
            run(out[..., g], x[:, g])
        return out
    futures = [_executor().submit(run, out[..., g], x[:, g])
               for g in groups[1:]]
    try:
        # the first group runs here: one pool thread fewer, and one set of
        # recurrence vectors in this thread's heap rather than a new one
        run(out[..., groups[0]], x[:, groups[0]])
    finally:
        for f in futures:
            f.exception()  # wait for every group before raising any error
    for f in futures:
        f.result()
    return out


def _load_sparsetools():
    """(BACKEND, module) of scipy's compiled sparse routines."""
    name = "scipy.sparse._sparsetools"
    # find_spec locates a top-level package without importing it
    spec = importlib.util.find_spec("scipy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if spec else ():
        path = os.path.join(spec.submodule_search_locations[0], "sparse",
                            "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
            except ImportError:
                break
            return "sparsetools", module
    from scipy.sparse import _sparsetools
    return "scipy.sparse", _sparsetools


BACKEND, _sparsetools = _load_sparsetools()


class _CSR:
    """A square CSR matrix whose @ is scipy.sparse's: csr_matvec for a
    vector or an (N, 1) column, csr_matvecs for an (N, B) block, each into
    a zeroed C-contiguous output."""

    __slots__ = ("indptr", "indices", "data")

    def __init__(self, indptr, indices, data):
        # the routines take one index dtype: cast only when the two differ
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        idx = np.promote_types(indptr.dtype, indices.dtype)
        self.indptr = indptr.astype(idx, copy=False)
        self.indices = indices.astype(idx, copy=False)
        self.data = np.asarray(data)

    def __matmul__(self, x):
        x = np.asarray(x)
        n = self.indptr.shape[0] - 1
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"matmul: operand of shape {x.shape} does not "
                             f"fit a ({n}, {n}) matrix")
        out = np.zeros((n,) + x.shape[1:], np.result_type(self.data, x))
        if x.ndim == 1 or x.shape[1] == 1:
            _sparsetools.csr_matvec(n, n, self.indptr, self.indices,
                                    self.data, x.ravel(), out.ravel())
        else:
            _sparsetools.csr_matvecs(n, n, x.shape[1], self.indptr,
                                     self.indices, self.data, x.ravel(),
                                     out.ravel())
        return out

    def toarray(self):
        n = self.indptr.shape[0] - 1
        out = np.zeros((n, n), self.data.dtype)
        _sparsetools.csr_todense(n, n, self.indptr, self.indices, self.data,
                                 out)
        return out


_operator = _CSR


def coo_to_csr(n, rows, cols, data):
    """(indptr, indices, data) of the n x n COO entries, as scipy's tocsr
    places them: row by row, each row's entries in input order.  rows and
    cols must share an index dtype; no duplicates are summed."""
    indptr = np.empty(n + 1, rows.dtype)
    indices = np.empty_like(cols)
    out = np.empty_like(data)
    _sparsetools.coo_tocsr(n, n, rows.size, rows, cols, data, indptr,
                           indices, out)
    return indptr, indices, out


def csr_minus(n, a, b):
    """(indptr, indices, data) of A - B for n x n CSR triples, as scipy's
    sparse subtraction makes it: entries that come out zero are dropped,
    rows are sorted when both inputs are canonical, and the index dtype is
    int32 unless the entry count needs int64."""
    maxnnz = int(a[0][-1]) + int(b[0][-1])
    idx = np.int32 if max(n, maxnnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(n + 1, idx)
    indices = np.empty(maxnnz, idx)
    data = np.empty(maxnnz, np.result_type(a[2], b[2]))
    _sparsetools.csr_minus_csr(
        n, n, *(arr.astype(idx, copy=False) for arr in a[:2]), a[2],
        *(arr.astype(idx, copy=False) for arr in b[:2]), b[2],
        indptr, indices, data)
    nnz = indptr[-1]
    return indptr, indices[:nnz], data[:nnz]


def csr_matvec(indptr, indices, data, x):
    """y = A @ x for CSR arrays.  Handles empty rows (isolated vertices)."""
    return _operator(indptr, indices, data) @ x


def _dot(u, v):
    return np.einsum("i...,i...->...", u, v)


def _norm(u):
    return np.sqrt(_dot(u, u))


def _chebyshev_vectors(m, n_terms, x):
    """Yield T_k(S) x for k = 0 .. n_terms-1, m the operator M = 2 S."""
    t0 = np.array(x, dtype=np.float64)
    yield t0
    if n_terms == 1:
        return
    t1 = m @ t0
    t1 *= 0.5
    yield t1
    for _ in range(2, n_terms):
        # one sparse product and one vector pass per step
        t2 = m @ t1
        t2 -= t0
        yield t2
        t0, t1 = t1, t2


def _stack(m, coeff_rows, out, x):
    # out is (J, N) for a vector, or for a group of B columns a (J, N, B)
    # view of a C-contiguous (B, J, N) buffer: either way y below is the
    # (B J, N) matrix Y of the module notes, and rows holds T_k as B rows
    n_bands, n_terms = coeff_rows.shape
    b = 1 if x.ndim == 1 else x.shape[1]
    n = x.shape[0]
    y = out if x.ndim == 1 else out.transpose(2, 0, 1)
    indptr = np.arange(b * n_bands + 1, dtype=np.intc)
    indices = np.repeat(np.arange(b, dtype=np.intc), n_bands)
    coeffs = coeff_rows.astype(np.float64, casting="same_kind", copy=False)
    data = np.tile(coeffs.T, (1, b))  # row k: c_k for each column
    rows = None if b == 1 else np.empty((b, n))
    vectors = _chebyshev_vectors(m, n_terms, x)
    for k, (c, t) in enumerate(zip(data, vectors)):
        if k == 0:
            np.multiply(coeffs[:, 0].reshape((n_bands,) + (1,) * x.ndim), t,
                        out=out)
            continue
        if rows is not None:
            rows[...] = t.T
        _sparsetools.csr_matvecs(b * n_bands, b, n, indptr, indices, c,
                                 t if rows is None else rows, y)


def _moments(m, out, x):
    # mu_0 and mu_1 directly, the rest by the doubling identities above
    n = out.shape[0]
    if n == 0:
        return
    prev = None
    for k, t in enumerate(_chebyshev_vectors(m, n // 2 + 1, x)):
        if k == 0:
            out[0] = _dot(t, t)
        elif k == 1:
            out[1] = _dot(prev, t)
        else:
            out[2 * k - 1] = 2.0 * _dot(t, prev) - out[1]
        if 0 < 2 * k < n:
            out[2 * k] = 2.0 * _dot(t, t) - out[0]
        prev = t


def _apply(indptr, indices, data, coeff_rows, x):
    # a block's output is stored column by column: each column's (J, N)
    # result is one contiguous slice, as _stack writes it
    x = np.asarray(x)
    shape = (coeff_rows.shape[0], x.shape[0])
    out = np.empty(shape) if x.ndim == 1 \
        else np.empty((x.shape[1],) + shape).transpose(1, 2, 0)
    m = _operator(indptr, indices, data)
    return _by_columns(lambda o, xg: _stack(m, coeff_rows, o, xg), out, x)


def cheb_apply(indptr, indices, data, coeffs, x):
    """y = sum_k coeffs[k] T_k(S) x for the CSR operator M = 2 S: row 0 of
    cheb_apply_stack with the one row coeffs."""
    return _apply(indptr, indices, data, np.asarray(coeffs)[None], x)[0]


def cheb_apply_stack(indptr, indices, data, coeff_rows, x):
    """Apply several polynomials of the same operator in one recurrence.

    coeff_rows has shape (J, K+1).  The Chebyshev vectors T_k(S) x are shared
    across the J polynomials; each output row accumulates its own coefficients
    in ascending k, so row j is identical to a standalone cheb_apply with
    coeff_rows[j].  The output has shape (J,) + x.shape; for a block it is
    stored column by column, so that each column's (J, N) result is one
    contiguous slice.
    """
    return _apply(indptr, indices, data, np.asarray(coeff_rows), x)


def cheb_moments(indptr, indices, data, n_moments, x):
    """m[k] = x . T_k(S) x for k = 0 .. n_moments-1, per column of a block.

    The recurrence runs only to T_m(S) x, m = ceil((n_moments - 1) / 2), so
    the call costs m columns per column of x rather than n_moments - 1.
    """
    x = np.asarray(x)
    out = np.empty((n_moments,) + x.shape[1:])
    m = _operator(indptr, indices, data)
    return _by_columns(lambda o, xg: _moments(m, o, xg), out, x)
