"""Low-level CSR and Chebyshev recurrence kernels on scipy.sparse.

The graph operator arrives as raw CSR arrays (indptr, indices, data).  Every
Chebyshev entry point runs the same three-term recurrence for
S = (A - center I) / half and differs only in what it accumulates from the
vectors T_k(S) x.  Results are deterministic: the sparse product sums each
row in storage order.
"""

import numpy as np
import scipy.sparse


def _operator(indptr, indices, data):
    n = indptr.shape[0] - 1
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def csr_matvec(indptr, indices, data, x):
    """y = A @ x for CSR arrays.  Handles empty rows (isolated vertices)."""
    return _operator(indptr, indices, data) @ x


def _chebyshev_vectors(indptr, indices, data, n_terms, center, half, x):
    """Yield T_k(S) x for k = 0 .. n_terms-1."""
    a = _operator(indptr, indices, data)
    t0 = np.array(x, dtype=np.float64)
    yield t0
    if n_terms == 1:
        return
    t1 = (a @ t0 - center * t0) / half
    yield t1
    for _ in range(2, n_terms):
        t2 = 2.0 * (a @ t1 - center * t1) / half - t0
        yield t2
        t0, t1 = t1, t2


def _stack(indptr, indices, data, coeff_rows, center, half, x):
    out = None
    vectors = _chebyshev_vectors(indptr, indices, data, coeff_rows.shape[1],
                                 center, half, x)
    for c, t in zip(coeff_rows.T, vectors):
        term = np.multiply.outer(c, t)
        if out is None:
            out = term
        else:
            out += term
    return out


def cheb_apply(indptr, indices, data, coeffs, center, half, x):
    """y = sum_k coeffs[k] T_k(S) x with S = (A - center I) / half."""
    return _stack(indptr, indices, data, np.asarray(coeffs)[None], center,
                  half, x)[0]


def cheb_apply_stack(indptr, indices, data, coeff_rows, center, half, x):
    """Apply several polynomials of the same operator in one recurrence.

    coeff_rows has shape (J, K+1).  The Chebyshev vectors T_k(S) x are shared
    across the J polynomials; each output row accumulates its own coefficients
    in ascending k, so row j is identical to a standalone cheb_apply with
    coeff_rows[j].
    """
    return _stack(indptr, indices, data, np.asarray(coeff_rows), center,
                  half, x)


def cheb_moments(indptr, indices, data, n_moments, center, half, x):
    """m[k] = x . T_k(S) x for k = 0 .. n_moments-1."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([x @ t for t in _chebyshev_vectors(
        indptr, indices, data, n_moments, center, half, x)])
