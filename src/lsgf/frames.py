"""Localized filter-frame dictionaries: analysis, synthesis, inverses.

A dictionary pairs a filter bank with a set of center vertices per band.
The atom for band j at vertex i is g_j(L) applied to the delta at i;
analysis evaluates every filtered signal at its band's centers, synthesis
filters the upsampled coefficient vectors and sums the bands.

Exact mode diagonalizes the Laplacian (small graphs); polynomial mode
replaces every kernel with a Chebyshev approximant and never factorizes.
With all vertices as centers and kernels whose squared sum G is pinched
between A and B, the dictionary is a frame with those bounds, which drives
the error guarantees of the approximate inverses here.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .chebyshev import (apply_poly_bank, apply_poly_bank_adjoint,
                        apply_poly_filter, chebyshev_fit)
from .graphs import as_block, as_signal


@dataclass
class Coefficients:
    """Per-band coefficient vectors sampled at each band's centers."""

    bands: list
    centers: list
    n: int
    provenance: str | None = None

    @property
    def n_bands(self):
        return len(self.bands)

    @property
    def n_atoms(self):
        return int(sum(v.size for v in self.bands))

    def norm(self):
        return float(np.sqrt(sum(float(v @ v) for v in self.bands)))

    def copy_with(self, bands):
        return Coefficients(bands=[np.asarray(b, dtype=np.float64)
                                   for b in bands],
                            centers=self.centers, n=self.n,
                            provenance=self.provenance)


@dataclass
class FrameBounds:
    """Extremes of G over the evaluation set (exact spectrum or a grid)."""

    lower: float
    upper: float
    basis: str

    @property
    def ratio(self):
        if self.lower <= 0:
            raise ValueError("not a frame: lower bound is zero")
        return self.upper / self.lower


@dataclass
class InverseInfo:
    converged: bool
    n_iter: int
    residual: float


def _check_centers(n, n_bands, centers):
    if len(centers) != n_bands:
        raise ValueError("one center set per band required")
    out = []
    for j, c in enumerate(centers):
        c = np.asarray(c, dtype=np.int64)
        if c.ndim != 1:
            raise ValueError(f"band {j}: center set must be 1-D")
        if c.size and (c.min() < 0 or c.max() >= n):
            raise ValueError(f"band {j}: center out of range")
        if np.unique(c).size != c.size:
            raise ValueError(f"band {j}: duplicate centers")
        out.append(np.sort(c))
    return out


class Dictionary:
    """Filter-bank dictionary over a Laplacian with per-band centers."""

    def __init__(self, lap, bank, mode, centers=None, eig=None, approx=None):
        if mode not in ("exact", "poly"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "exact" and eig is None:
            raise ValueError("exact mode needs an eigendecomposition")
        if mode == "poly" and approx is None:
            raise ValueError("poly mode needs fitted approximants")
        self.lap = lap
        self.bank = bank
        self.mode = mode
        if centers is None:
            centers = [np.arange(lap.n)] * bank.n_kernels
        self.centers = _check_centers(lap.n, bank.n_kernels, centers)
        self.eig = eig
        self.approx = approx
        if mode == "exact":
            self._diag = np.vstack([np.atleast_1d(g(eig.values))
                                    for g in bank.kernels])
        self.token = self._fingerprint()

    @property
    def n(self):
        return self.lap.n

    @property
    def n_bands(self):
        return self.bank.n_kernels

    @property
    def n_atoms(self):
        return int(sum(c.size for c in self.centers))

    def is_complete(self):
        return all(c.size == self.lap.n for c in self.centers)

    def _fingerprint(self):
        h = hashlib.sha256()
        h.update(self.mode.encode())
        h.update(self.lap.kind.encode())
        h.update(np.int64(self.lap.n).tobytes())
        h.update(self.lap.indptr.tobytes())
        h.update(self.lap.indices.tobytes())
        h.update(self.lap.data.tobytes())
        h.update(self.bank.design.encode())
        for g in self.bank.kernels:
            h.update(g.family.encode())
            for key in sorted(g.params):
                h.update(key.encode())
                h.update(repr(g.params[key]).encode())
            if g.warp is not None:
                h.update(g.warp.kind.encode())
                h.update(repr(g.warp.nu).encode())
        if self.approx is not None:
            for p in self.approx:
                h.update(p.coeffs.tobytes())
        for c in self.centers:
            h.update(c.tobytes())
        return h.hexdigest()

    def kernel_values(self, j, lam):
        """Band j's transfer function: exact kernel or its approximant."""
        fn = self.bank.kernels[j] if self.mode == "exact" else self.approx[j]
        return fn(lam)

    def filter_all(self, f):
        """(J, N) matrix of g_j(L) f for every band.

        f may also be an (N, B) block of column signals; the result is then
        (J, N, B), and column b equals the call on f[:, b] alone.
        """
        f = as_block(self.lap.n, f)
        if self.mode == "exact":
            if f.ndim == 2:
                return np.stack([self.filter_all(c) for c in f.T], axis=-1)
            fhat = self.eig.fourier(f)
            return self.eig.inverse_fourier((self._diag * fhat).T).T
        return apply_poly_bank(self.approx, self.lap, f)

    def adjoint(self, u):
        """sum_j g_j(L) u_j for a (J, N) block: the adjoint of filter_all."""
        if self.mode == "exact":
            u = np.asarray(u, dtype=np.float64)
            if u.shape != self._diag.shape:
                raise ValueError(f"block has shape {u.shape}, expected "
                                 f"{self._diag.shape}")
            uhat = self.eig.fourier(u.T).T
            return self.eig.inverse_fourier(np.sum(self._diag * uhat, axis=0))
        return apply_poly_bank_adjoint(self.approx, self.lap, u)

    def filter_band(self, j, f):
        f = as_signal(self.lap.n, f)
        if self.mode == "exact":
            fhat = self.eig.fourier(f)
            return self.eig.inverse_fourier(self._diag[j] * fhat)
        return apply_poly_filter(self.approx[j], self.lap, f)

    def atom(self, j, i):
        """Atom of band j centered at vertex i (column of g_j(L))."""
        delta = np.zeros(self.lap.n)
        delta[i] = 1.0
        return self.filter_band(j, delta)

    def band_matrix(self, j):
        """Dense g_j(L) (exact mode only)."""
        if self.mode != "exact":
            raise ValueError("dense band matrices need exact mode")
        u = self.eig.vectors
        return (u * self._diag[j]) @ u.T

    def materialize(self):
        """(N, M) atom matrix, bands in order, centers ascending per band."""
        cols = []
        for j in range(self.n_bands):
            if self.mode == "exact":
                cols.append(self.band_matrix(j)[:, self.centers[j]])
            else:
                block = np.empty((self.lap.n, self.centers[j].size))
                for k, i in enumerate(self.centers[j]):
                    block[:, k] = self.atom(j, int(i))
                cols.append(block)
        return np.hstack(cols) if cols else np.zeros((self.lap.n, 0))

    def band_eig_indices(self, j, tol=1e-8):
        """Eigenvalue indices where band j's kernel is nonzero (exact mode)."""
        if self.mode != "exact":
            raise ValueError("spectral supports need exact mode")
        return np.flatnonzero(np.abs(self._diag[j]) > tol)


def dictionary_exact(lap, bank, eig, centers=None):
    return Dictionary(lap, bank, "exact", centers=centers, eig=eig)


def dictionary_poly(lap, bank, degree, jackson=False, centers=None):
    approx = [chebyshev_fit(g, degree, bank.lambda_bar, jackson=jackson)
              for g in bank.kernels]
    return Dictionary(lap, bank, "poly", centers=centers, approx=approx)


def analysis(d, f):
    """Inner products of the signal with every atom, band by band."""
    filtered = d.filter_all(f)
    bands = [filtered[j][d.centers[j]].copy() for j in range(d.n_bands)]
    return Coefficients(bands=bands, centers=d.centers, n=d.lap.n,
                        provenance=d.token)


def synthesis(d, c):
    """Adjoint of analysis: filter the upsampled coefficients and sum."""
    if c.n != d.lap.n or c.n_bands != d.n_bands:
        raise ValueError("coefficients do not match the dictionary shape")
    if c.provenance is not None and c.provenance != d.token:
        raise ValueError("coefficients were computed with a different "
                         "dictionary (provenance mismatch)")
    up = np.zeros((d.n_bands, d.lap.n))
    for j in range(d.n_bands):
        up[j, c.centers[j]] = c.bands[j]
    return d.adjoint(up)


def frame_bounds(d, basis="exact_sigma", eig=None, n_grid=2000):
    """Extremes of the squared kernel sum G.

    With complete center sets these are frame bounds of the dictionary.  In
    polynomial mode G uses the fitted approximants, so the bounds reflect
    what the fast transform actually applies.  basis='exact_sigma' evaluates
    at the true eigenvalues (needs a decomposition); 'grid' uses a uniform
    grid on [0, lambda_bar].
    """
    if basis == "exact_sigma":
        ev = eig if eig is not None else d.eig
        if ev is None:
            raise ValueError("exact_sigma basis needs an eigendecomposition")
        pts = ev.values
    elif basis == "grid":
        pts = np.linspace(0.0, d.bank.lambda_bar, n_grid)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    g = np.zeros(pts.size)
    for j in range(d.n_bands):
        g += np.asarray(d.kernel_values(j, pts)) ** 2
    return FrameBounds(lower=float(g.min()), upper=float(g.max()),
                       basis=basis)


def inverse_single_pass(d, c, bounds):
    """One-shot reconstruction 2/(A+B) times the synthesis."""
    return (2.0 / (bounds.lower + bounds.upper)) * synthesis(d, c)


def single_pass_error_bound(bounds):
    """Relative error guarantee r/(2+r), r = B/A - 1, for the single pass."""
    r = bounds.ratio - 1.0
    return r / (2.0 + r)


def inverse_frame_iteration(d, c, bounds, n_iter):
    """Frame algorithm: n_iter corrections of the single-pass estimate.

    The error after n_iter steps contracts like ((B-A)/(B+A))^(n_iter+1);
    with a tight frame (A = B) the initial estimate is already exact.
    """
    if n_iter < 0:
        raise ValueError("n_iter must be >= 0")
    scale = 2.0 / (bounds.lower + bounds.upper)
    f0 = scale * synthesis(d, c)
    f = f0
    for _ in range(n_iter):
        f = f0 + f - scale * synthesis(d, analysis(d, f))
    return f


def solve_cg(op, b, tol, max_iter, precond=None):
    """Conjugate gradients for a symmetric positive semidefinite operator.

    precond, if given, is the diagonal of a preconditioner.  Stops at a
    relative residual of tol, after max_iter iterations, or on vanishing
    curvature, and returns the iterate with the smallest relative residual
    together with convergence info.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), InverseInfo(True, 0, 0.0)
    x = np.zeros_like(b)
    r = b.copy()
    z = r if precond is None else r / precond
    p = z.copy()
    rz = float(r @ z)
    best_x, best_res = x.copy(), np.linalg.norm(r) / bnorm
    it = 0
    for it in range(1, max_iter + 1):
        ap = op(p)
        denom = float(p @ ap)
        if denom <= 0:
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        rel = np.linalg.norm(r) / bnorm
        if rel < best_res:
            best_res, best_x = rel, x.copy()
        if rel <= tol:
            return best_x, InverseInfo(True, it, best_res)
        z = r if precond is None else r / precond
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return best_x, InverseInfo(False, it, best_res)


def inverse_cg(d, c, tol=1e-10, max_iter=1000):
    """Conjugate gradients on the normal equations of the synthesis.

    Solves (Phi Phi*) f = Phi c, tracking the best iterate; returns it with
    convergence info.  With coefficients produced by analysis the right-hand
    side lies in the frame operator's range, so rank deficiency (bands that
    vanish on part of the spectrum) leaves the unreachable component at zero.
    """
    return solve_cg(lambda p: synthesis(d, analysis(d, p)), synthesis(d, c),
                    tol, max_iter)


def atom_norms_exact(d):
    """Per-band exact atom norms at the centers (exact mode)."""
    out = []
    for j in range(d.n_bands):
        bm = d.band_matrix(j)
        out.append(np.linalg.norm(bm[:, d.centers[j]], axis=0))
    return out


def atom_norm_estimate(d, n_probes=50, seed=0):
    """Stochastic per-band atom norms via filtered Gaussian probes.

    The sample standard deviation across probes of the filtered white signal
    at vertex i estimates the norm of the atom centered there.  Works in
    either mode, never materializes atoms, and streams the probes through
    Welford's running mean and sum of squared deviations.
    """
    if n_probes < 2:
        raise ValueError("need at least two probes for a standard deviation")
    mean = np.zeros((d.n_bands, d.lap.n))
    m2 = np.zeros_like(mean)
    for ts in _kernels.probe_blocks(n_probes):
        samples = d.filter_all(np.column_stack(
            [np.random.default_rng([seed, t]).standard_normal(d.lap.n)
             for t in ts]))
        for b, t in enumerate(ts):
            sample = samples[..., b]
            delta = sample - mean
            mean += delta / (t + 1)
            m2 += delta * (sample - mean)
    return [np.sqrt(m2[j][d.centers[j]] / (n_probes - 1))
            for j in range(d.n_bands)]


def cumulative_coherence(d, k):
    """Largest sum of k absolute normalized correlations against one atom.

    An orthonormal dictionary gives zero; a duplicated atom forces the
    one-term value to one.
    """
    atoms = d.materialize()
    m = atoms.shape[1]
    if not 1 <= k <= m - 1:
        raise ValueError("k must be between 1 and n_atoms - 1")
    nrm = np.linalg.norm(atoms, axis=0)
    if np.any(nrm == 0):
        raise ValueError("dictionary contains a zero atom")
    psi = atoms / nrm
    gram = np.abs(psi.T @ psi)
    np.fill_diagonal(gram, 0.0)
    if k == 1:
        return float(gram.max())
    part = np.partition(gram, m - k, axis=0)[m - k:]
    return float(part.sum(axis=0).max())
