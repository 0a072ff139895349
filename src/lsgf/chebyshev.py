"""Chebyshev polynomial approximation of spectral kernels.

A fitted polynomial p of degree K is applied to a Laplacian through the
three-term recurrence, costing K sparse matrix-vector products and touching
only K-hop neighborhoods; no eigendecomposition is involved.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from . import _kernels
from .graphs import as_block, as_signal


def jackson_coefficients(degree):
    """Damping factors that suppress Gibbs oscillation in a degree-K fit.

    g[0] is 1 and the factors taper smoothly to near zero at k = K, trading
    a wider transition band for monotone band edges.
    """
    k = np.arange(degree + 1)
    n = degree + 1
    return ((degree - k + 1) * np.cos(np.pi * k / n)
            + np.sin(np.pi * k / n) / np.tan(np.pi / n)) / n


@dataclass
class ChebyshevApprox:
    """Polynomial approximant of a kernel on [0, lambda_bar].

    coeffs[k] multiplies T_k of the affinely mapped argument; the constant
    term is stored directly (no halving convention), so evaluation is a
    plain Chebyshev series.
    """

    degree: int
    coeffs: np.ndarray
    lambda_bar: float
    jackson: bool = False

    def __call__(self, lam):
        lam = np.clip(np.asarray(lam, dtype=np.float64), 0.0, self.lambda_bar)
        s = 2.0 * lam / self.lambda_bar - 1.0
        return chebval(s, self.coeffs)


def chebyshev_fit(kernel, degree, lambda_bar, jackson=False):
    """Collocation fit of a callable kernel on [0, lambda_bar].

    Samples the kernel at max(4 * degree, 256) Chebyshev points of the first
    kind and projects onto T_0 .. T_K by the discrete cosine sums.  With
    jackson=True the coefficients are damped by the Jackson factors.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if lambda_bar <= 0:
        raise ValueError("lambda_bar must be positive")
    m = max(4 * degree, 256)
    theta = np.pi * (np.arange(m) + 0.5) / m
    s = np.cos(theta)
    lam = (s + 1.0) * lambda_bar / 2.0
    vals = np.asarray(kernel(lam), dtype=np.float64)
    if vals.shape != lam.shape:
        raise ValueError("kernel must evaluate elementwise on arrays")
    k = np.arange(degree + 1)
    coeffs = (2.0 / m) * (np.cos(np.outer(k, theta)) @ vals)
    coeffs[0] /= 2.0
    if jackson:
        coeffs = coeffs * jackson_coefficients(degree)
    return ChebyshevApprox(degree=degree, coeffs=coeffs,
                           lambda_bar=float(lambda_bar), jackson=jackson)


def _check_interval(p, lap):
    if p.lambda_bar < lap.lambda_max_bound * (1.0 - 1e-12):
        raise ValueError(
            f"approximant interval [0, {p.lambda_bar:g}] does not cover the "
            f"Laplacian's recorded bound {lap.lambda_max_bound:g}")


def apply_poly_filter(p, lap, f):
    """p(L) f via the three-term recurrence; O(degree * |E|) work.

    The output at vertex i depends only on vertices within degree hops of i,
    and is exactly zero beyond.
    """
    f = as_signal(lap.n, f)
    _check_interval(p, lap)
    half = p.lambda_bar / 2.0
    return _kernels.cheb_apply(lap.indptr, lap.indices, lap.data, p.coeffs,
                               half, half, f)


def _bank_rows(approxes, lap):
    """(J, K+1) zero-padded coefficient rows and the shared half-interval."""
    lb = approxes[0].lambda_bar
    for p in approxes:
        if p.lambda_bar != lb:
            raise ValueError("bank approximants must share one interval")
        _check_interval(p, lap)
    nk = max(p.coeffs.size for p in approxes)
    rows = np.zeros((len(approxes), nk))
    for j, p in enumerate(approxes):
        rows[j, :p.coeffs.size] = p.coeffs
    return rows, lb / 2.0


def apply_poly_bank(approxes, lap, f):
    """Apply several approximants sharing one recurrence; rows match
    apply_poly_filter per band bit-for-bit.

    f is a signal or an (N, B) block of column signals; the output has shape
    (J,) + f.shape and its column b equals the call on f[:, b] alone.
    """
    f = as_block(lap.n, f)
    if not approxes:
        return np.zeros((0,) + f.shape)
    rows, half = _bank_rows(approxes, lap)
    return _kernels.cheb_apply_stack(lap.indptr, lap.indices, lap.data, rows,
                                     half, half, f)


def apply_poly_bank_adjoint(approxes, lap, u):
    """sum_j p_j(L) u_j for a (J, N) block: the adjoint of apply_poly_bank.

    Clenshaw's recurrence with vector coefficients a_k = sum_j c_jk u_j,
    b_k = a_k + 2 S b_{k+1} - b_{k+2}, result a_0 + S b_1 - b_2, costs K
    sparse products for the whole bank instead of K per band.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (len(approxes), lap.n):
        raise ValueError(f"block has shape {u.shape}, expected "
                         f"({len(approxes)}, {lap.n})")
    if not approxes:
        return np.zeros(lap.n)
    rows, half = _bank_rows(approxes, lap)

    def scaled(b):
        lb = _kernels.csr_matvec(lap.indptr, lap.indices, lap.data, b)
        return (lb - half * b) / half

    b1, b2 = rows[:, -1] @ u, np.zeros(lap.n)
    for k in range(rows.shape[1] - 2, 0, -1):
        b1, b2 = rows[:, k] @ u + 2.0 * scaled(b1) - b2, b1
    if rows.shape[1] == 1:
        return b1
    return rows[:, 0] @ u + scaled(b1) - b2


def sup_error(p, kernel, n_grid=2000):
    """Max absolute deviation of p from the kernel on a uniform grid."""
    grid = np.linspace(0.0, p.lambda_bar, n_grid)
    return float(np.max(np.abs(p(grid) - np.asarray(kernel(grid)))))


def poly_atom(p, lap, center):
    """Column of p(L) at the given vertex (a polynomial-localized atom)."""
    delta = np.zeros(lap.n)
    delta[center] = 1.0
    return apply_poly_filter(p, lap, delta)
