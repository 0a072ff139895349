"""Low-level CSR and Chebyshev recurrence kernels on scipy.sparse.

The graph operator arrives as raw CSR arrays (indptr, indices, data).  Every
Chebyshev entry point runs the same three-term recurrence for
S = (A - center I) / half and differs only in what it accumulates from the
vectors T_k(S) x.  Results are deterministic: the sparse product sums each
row in storage order.

x may be one signal of shape (N,) or a block of B column signals of shape
(N, B); the column axis comes last in every output shape.  A block is split
into at most W contiguous column groups, W being the number of CPUs in the
process's affinity mask.  Each group runs as one recurrence, the first on
the calling thread and the others on a module pool of W - 1 threads, and
writes into its own slice of one preallocated output; a block of fewer than
_THREADED_MIN_ROWS rows runs its groups in turn on the calling thread.  A
one-column group runs the (N,) path, so each column of a block equals the
call on that column alone bit for bit.  With W = 1 or B = 1 the call runs
inline.  Workers call only private helpers and make no BLAS call: BLAS runs
threads of its own, and sharing the CPUs with them slowed the recurrences.
"""

import os
import threading

import numpy as np
import scipy.sparse

# shorter columns run their groups one after another: the threads break
# even at about 5000 rows, below which their hand-offs of the interpreter
# lock cost more than the parallel recurrences save (sensor graphs, J = 6,
# K = 40, 2 CPUs)
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


def _operator(indptr, indices, data):
    n = indptr.shape[0] - 1
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def csr_matvec(indptr, indices, data, x):
    """y = A @ x for CSR arrays.  Handles empty rows (isolated vertices)."""
    return _operator(indptr, indices, data) @ x


def _chebyshev_vectors(a, n_terms, center, half, x):
    """Yield T_k(S) x for k = 0 .. n_terms-1."""
    t0 = np.array(x, dtype=np.float64)
    yield t0
    if n_terms == 1:
        return
    # in place, so that a worker holds few temporaries; the operations and
    # their order are those of 2.0 * (a @ t1 - center * t1) / half - t0
    shifted = np.empty_like(t0)
    t1 = a @ t0
    t1 -= np.multiply(center, t0, out=shifted)
    t1 /= half
    yield t1
    for _ in range(2, n_terms):
        t2 = a @ t1
        t2 -= np.multiply(center, t1, out=shifted)
        t2 *= 2.0
        t2 /= half
        t2 -= t0
        yield t2
        t0, t1 = t1, t2


def _stack(a, coeff_rows, center, half, out, x):
    vectors = _chebyshev_vectors(a, coeff_rows.shape[1], center, half, x)
    for k, (c, t) in enumerate(zip(coeff_rows.T, vectors)):
        # row by row, so that a worker holds no (J, N) temporary
        for j in range(c.size):
            if k == 0:
                np.multiply(c[j], t, out=out[j])
            else:
                out[j] += c[j] * t


def _moments(a, center, half, out, x):
    vectors = _chebyshev_vectors(a, out.shape[0], center, half, x)
    for k, t in zip(range(out.shape[0]), vectors):
        if k == 0:
            x = t  # the contiguous float64 copy, whatever x's strides
        out[k] = np.einsum("i...,i...->...", x, t)


def _apply(indptr, indices, data, coeff_rows, center, half, x, out):
    a = _operator(indptr, indices, data)
    return _by_columns(
        lambda o, xg: _stack(a, coeff_rows, center, half, o, xg), out, x)


def cheb_apply(indptr, indices, data, coeffs, center, half, x):
    """y = sum_k coeffs[k] T_k(S) x with S = (A - center I) / half."""
    x = np.asarray(x)
    return _apply(indptr, indices, data, np.asarray(coeffs)[None], center,
                  half, x, np.empty((1,) + x.shape))[0]


def cheb_apply_stack(indptr, indices, data, coeff_rows, center, half, x):
    """Apply several polynomials of the same operator in one recurrence.

    coeff_rows has shape (J, K+1).  The Chebyshev vectors T_k(S) x are shared
    across the J polynomials; each output row accumulates its own coefficients
    in ascending k, so row j is identical to a standalone cheb_apply with
    coeff_rows[j].  The output has shape (J,) + x.shape; for a block it is
    stored column by column, so that each column's (J, N) result is one
    contiguous slice.
    """
    x = np.asarray(x)
    coeff_rows = np.asarray(coeff_rows)
    shape = (coeff_rows.shape[0], x.shape[0])
    out = np.empty(shape) if x.ndim == 1 \
        else np.empty((x.shape[1],) + shape).transpose(1, 2, 0)
    return _apply(indptr, indices, data, coeff_rows, center, half, x, out)


def cheb_moments(indptr, indices, data, n_moments, center, half, x):
    """m[k] = x . T_k(S) x for k = 0 .. n_moments-1, per column of a block."""
    x = np.asarray(x)
    out = np.empty((n_moments,) + x.shape[1:])
    a = _operator(indptr, indices, data)
    return _by_columns(lambda o, xg: _moments(a, center, half, o, xg), out,
                       x)
