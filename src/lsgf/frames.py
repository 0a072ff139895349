"""Localized filter-frame dictionaries: analysis, synthesis, inverses.

A dictionary pairs a filter bank with a set of center vertices per band.
The atom for band j at vertex i is g_j(L) applied to the delta at i;
analysis evaluates every filtered signal at its band's centers, synthesis
filters the upsampled coefficient vectors and sums the bands.

Exact mode diagonalizes the Laplacian (small graphs); polynomial mode
replaces every kernel with a Chebyshev approximant and never factorizes.
Either way, explicit atoms come from identity columns filtered through all
bands at once, and stochastic estimates from one probe loop.
With all vertices as centers and kernels whose squared sum G is pinched
between A and B, the dictionary is a frame with those bounds, which drives
the error guarantees of the approximate inverses here.
"""

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import chebadd, chebder, chebmul, chebroots

from . import _kernels
from .chebyshev import (ChebyshevApprox, apply_poly_bank,
                        apply_poly_bank_adjoint, apply_poly_filter,
                        chebyshev_fit)
from .graphs import as_block

# identity columns times bands filtered per call when atoms are formed
_BLOCK = 256


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
        return float(np.sqrt(sum(float(_kernels._dot(v, v))
                                 for v in self.bands)))

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
    """CG outcome; precond_* describe the polynomial preconditioner r(L)
    (its degree D and certificate eps), None for plain CG."""

    converged: bool
    n_iter: int
    residual: float
    precond_degree: int | None = None
    precond_eps: float | None = None


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
        c = np.sort(c)
        if np.any(c[1:] == c[:-1]):
            raise ValueError(f"band {j}: duplicate centers")
        out.append(c)
    return out


def _truncation_errors(q, r):
    """l1 norms of the Chebyshev coefficients of q r_D - 1 for every D,
    r_D the series r truncated after T_D."""
    # T_i T_j = (T_{i+j} + T_{|i-j|}) / 2: column i holds the series q T_i
    i = np.arange(r.size)
    prod = np.zeros((q.size + r.size - 1, r.size))
    for j, qj in enumerate(q):
        prod[i + j, i] += qj / 2.0
        prod[np.abs(i - j), i] += qj / 2.0
    partial = np.cumsum(prod * r, axis=1)
    partial[0] -= 1.0
    return np.abs(partial).sum(axis=0)


class Dictionary:
    """Filter-bank dictionary over a Laplacian with per-band centers."""

    def __init__(self, lap, bank, centers=None, eig=None, approx=None):
        if (eig is None) == (approx is None):
            raise ValueError("a dictionary needs either an "
                             "eigendecomposition or fitted approximants")
        self.lap = lap
        self.bank = bank
        self.mode = "exact" if approx is None else "poly"
        if centers is None:
            # complete: one index array, valid by construction, for all
            # bands rather than a sorted copy per band
            self.centers = [np.arange(lap.n)] * bank.n_kernels
        else:
            self.centers = _check_centers(lap.n, bank.n_kernels, centers)
        # atoms run band by band, centers ascending: the flat index where
        # each band after the first starts, so np.split(a, offsets) cuts
        # any array in atom order into its bands
        self.offsets = np.cumsum([c.size for c in self.centers])[:-1]
        self.eig = eig
        self.approx = approx
        if eig is not None:
            self._diag = bank.evaluate(eig.values)
        self._dual_fit = None
        self._duals = {}

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

    @cached_property
    def token(self):
        """SHA-256, on first read, of what the dictionary applies: the mode,
        L's CSR arrays, the kernels at the eigenvalues (or lambda_bar and
        the approximants' coefficients), the band sizes and the centers."""
        # arrays go to the hash as buffers: tobytes() would copy each one
        h = hashlib.sha256()
        h.update(self.mode.encode())
        for a in (self.lap.indptr, self.lap.indices, self.lap.data):
            h.update(np.ascontiguousarray(a))
        if self.mode == "exact":
            h.update(np.ascontiguousarray(self._diag))
        else:
            h.update(np.float64(self.approx[0].lambda_bar))
            for p in self.approx:
                h.update(np.ascontiguousarray(p.coeffs))
        h.update(np.array([c.size for c in self.centers], dtype=np.int64))
        for c in self.centers:
            h.update(np.ascontiguousarray(c))
        return h.hexdigest()

    def frame_symbol(self):
        """q = sum_j p_j^2 as one Chebyshev series of degree 2K (poly mode).

        With complete centers the frame operator Phi Phi* is q(L); the
        coefficients come from product linearization of the approximants.
        """
        if self.mode != "poly":
            raise ValueError("the frame symbol series needs poly mode")
        q = np.zeros(1)
        for p in self.approx:
            q = chebadd(q, chebmul(p.coeffs, p.coeffs))
        lb = self.approx[0].lambda_bar
        return ChebyshevApprox(degree=q.size - 1, coeffs=q, lambda_bar=lb)

    def dual_errors(self):
        """eps of every dual degree D from 0 to 8K, as one array (poly mode).

        Built with the degree-8K fit on first request; see dual.
        """
        if self._dual_fit is None:
            q = self.frame_symbol()
            top = 8 * max(p.degree for p in self.approx)
            floor = np.finfo(np.float64).eps * float(np.abs(q.coeffs).sum())
            if floor == 0.0:
                self._dual_fit = (None, np.full(top + 1, np.inf))
            else:
                fit = chebyshev_fit(
                    lambda lam: 1.0 / np.maximum(q(lam), floor), top,
                    q.lambda_bar)
                self._dual_fit = (fit, _truncation_errors(q.coeffs,
                                                          fit.coeffs))
        return self._dual_fit[1]

    def dual(self, degree):
        """(r, eps): a degree-D approximant r of 1/q on [0, lambda_bar].

        Poly mode, D from 0 to 8K, K the approximants' degree.  r is the
        degree-D truncation of one degree-8K fit of 1/q, so every D shares
        that fit and r does not depend on which degrees were asked before.
        eps is the l1 norm of the Chebyshev coefficients of q r - 1, which
        bounds sup |q r - 1| over the interval since |T_k| <= 1 there.  q is
        floored at machine epsilon times its own l1 norm before the
        reciprocal is fitted, so a q that vanishes on part of the interval
        gives eps >= 1 rather than an overflow.  The fit and every degree's
        eps are built on first request; r is cached per requested degree.
        """
        eps = self.dual_errors()
        fit = self._dual_fit[0]
        if not 0 <= degree < eps.size:
            raise ValueError(f"dual degree {degree} outside [0, "
                             f"{eps.size - 1}]")
        if fit is None:
            return None, np.inf
        if degree not in self._duals:
            self._duals[degree] = ChebyshevApprox(
                degree=degree, coeffs=fit.coeffs[:degree + 1].copy(),
                lambda_bar=fit.lambda_bar)
        return self._duals[degree], float(eps[degree])

    def filter_all(self, f):
        """(J, N) matrix of g_j(L) f for every band.

        f may also be an (N, B) block of column signals; the result is then
        (J, N, B), and column b equals the call on f[:, b] alone: bit for bit
        in poly mode, up to rounding in exact mode.
        """
        f = as_block(self.lap.n, f)
        if self.mode == "exact":
            fhat = self.eig.fourier(f)
            if f.ndim == 2:
                # one (N, N) @ (N, J B) product for the whole block
                w = self._diag.T[:, :, None] * fhat[:, None, :]
                y = self.eig.inverse_fourier(w.reshape(self.lap.n, -1))
                return y.reshape(w.shape).transpose(1, 0, 2)
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

    def _per_atom(self, reduce):
        """reduce of every atom, as one array whose last axis is atom order.

        Identity columns at the sorted union of the center sets pass through
        filter_all in blocks of w = max(1, _BLOCK // J): every column goes
        once through the recurrence the bands share, and the working set
        stays O(N x _BLOCK).  reduce maps each (J, N, w) block to a
        (..., J, w) array, whose entries are scattered to their atoms.
        """
        flat = np.concatenate(self.centers)
        union, col = np.unique(flat, return_inverse=True)
        band = np.searchsorted(self.offsets, np.arange(flat.size), "right")
        w = max(1, _BLOCK // self.n_bands)
        # the atoms of each block, as consecutive runs of this order
        order = np.argsort(col, kind="stable")
        runs = np.split(order, np.searchsorted(col[order],
                                               np.arange(w, union.size, w)))
        shape = reduce(np.zeros((self.n_bands, self.lap.n, 0))).shape[:-2]
        out = np.empty(shape + (flat.size,))
        for s, k in zip(range(0, union.size, w), runs):
            eye = np.zeros((self.lap.n, min(w, union.size - s)))
            eye[union[s:s + w], np.arange(eye.shape[1])] = 1.0
            out[..., k] = reduce(self.filter_all(eye))[..., band[k],
                                                       col[k] - s]
        return out

    def atom(self, j, i):
        """Atom of band j centered at vertex i (column of g_j(L))."""
        delta = np.zeros((self.lap.n, 1))
        delta[i] = 1.0
        return self.filter_all(delta)[j, :, 0]

    def materialize(self):
        """(N, M) atom matrix, columns in atom order (see offsets)."""
        return self._per_atom(lambda y: y.transpose(1, 0, 2))

    def band_eig_indices(self, j, tol=1e-8):
        """Eigenvalue indices where band j's kernel is nonzero (exact mode)."""
        if self.mode != "exact":
            raise ValueError("spectral supports need exact mode")
        return np.flatnonzero(np.abs(self._diag[j]) > tol)


def dictionary_exact(lap, bank, eig, centers=None):
    return Dictionary(lap, bank, centers=centers, eig=eig)


def dictionary_poly(lap, bank, degree, jackson=False, centers=None):
    approx = [chebyshev_fit(g, degree, bank.lambda_bar, jackson=jackson)
              for g in bank.kernels]
    return Dictionary(lap, bank, centers=centers, approx=approx)


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
    polynomial mode G is the frame symbol q = sum_j p_j^2 of the fitted
    approximants, so the bounds reflect what the fast transform actually
    applies; exact mode sums the bank's squared kernels.
    basis='exact_sigma' evaluates at the true eigenvalues (needs a
    decomposition); 'grid' uses a uniform grid on [0, lambda_bar].  In
    polynomial mode the grid also takes both ends and every real part in
    [-1, 1] of a root of q' (the companion matrix of chebder(q), of size
    2K - 1, not the Laplacian), so that the extremes of q on the interval
    are among the points: the bounds are then certified, where a grid alone
    can only under-report B and over-report A.
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
    if d.mode == "exact":
        g = d.bank.squared_sum(pts)
    else:
        q = d.frame_symbol()
        if basis == "grid":
            s = chebroots(chebder(q.coeffs)).real
            s = np.concatenate([[-1.0, 1.0], s[np.abs(s) <= 1.0]])
            pts = np.concatenate([pts, (s + 1.0) * (q.lambda_bar / 2.0)])
        g = q(pts)
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

    precond, if given, maps a residual to the preconditioned residual
    M^-1 r, M symmetric positive definite.  Stops at a relative residual
    ||b - op(x)|| / ||b|| of tol (unpreconditioned), after max_iter
    iterations, or on vanishing curvature, and returns the iterate with the
    smallest relative residual together with convergence info.  A
    right-hand side whose norm overflows is refused.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    # the kernels' einsum reductions: see _kernels on BLAS threads
    bnorm = _kernels._norm(b)
    if not np.isfinite(bnorm):
        raise ValueError(f"right-hand side has norm {bnorm}; CG needs a "
                         "finite one")
    if bnorm == 0:
        return np.zeros_like(b), InverseInfo(True, 0, 0.0)
    x = np.zeros_like(b)
    r = b.copy()
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = float(_kernels._dot(r, z))
    best_x, best_res = x.copy(), _kernels._norm(r) / bnorm
    it = 0
    for it in range(1, max_iter + 1):
        ap = op(p)
        denom = float(_kernels._dot(p, ap))
        if denom <= 0:
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        rel = _kernels._norm(r) / bnorm
        if rel < best_res:
            best_res, best_x = rel, x.copy()
        if rel <= tol:
            return best_x, InverseInfo(True, it, best_res)
        z = r if precond is None else precond(r)
        rz_new = float(_kernels._dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return best_x, InverseInfo(False, it, best_res)


def _preconditioner(d, tol):
    """(r, eps) of the dual that preconditions inverse_cg, or None.

    r(L) is positive definite, as CG needs, only when eps < 1.
    """
    if d.mode != "poly" or not d.is_complete():
        return None
    k = max(p.degree for p in d.approx)
    met = np.flatnonzero(d.dual_errors()[2 * k:] <= tol)
    r, eps = d.dual(2 * k + int(met[0]) if met.size else 8 * k)
    return (r, eps) if eps < 1.0 else None


def inverse_cg(d, c, tol=1e-10, max_iter=1000):
    """Conjugate gradients on the normal equations of the synthesis.

    Solves (Phi Phi*) f = Phi c, tracking the best iterate; returns it with
    convergence info.  With coefficients produced by analysis the right-hand
    side lies in the frame operator's range, so rank deficiency (bands that
    vanish on part of the spectrum) leaves the unreachable component at zero.

    In poly mode with complete centers Phi Phi* = q(L), and CG is
    preconditioned with r(L), r the degree-D dual of q (Dictionary.dual):
    D is the smallest degree in [2K, 8K], K the approximants' degree, whose
    certificate eps is at most tol, else 8K.  Since |q r - 1| <= eps
    on the spectrum, one iteration usually reaches tol.  Exact mode, center
    subsets and duals with eps >= 1 (q vanishing on part of the interval)
    run plain CG.  The stopping test is the same in every case.
    """
    rhs = synthesis(d, c)
    dual = _preconditioner(d, tol)
    precond = None if dual is None \
        else (lambda v: apply_poly_filter(dual[0], d.lap, v))
    f, info = solve_cg(lambda p: synthesis(d, analysis(d, p)), rhs, tol,
                       max_iter, precond=precond)
    if dual is not None:
        info.precond_degree, info.precond_eps = dual[0].degree, dual[1]
    return f, info


def atom_norms_exact(d):
    """Per-band exact atom norms at the centers, in either mode.

    The atoms come in identity blocks filtered through all bands at once,
    never as a dense N x N matrix.
    """
    norms = d._per_atom(lambda y: np.linalg.norm(y, axis=1))
    return np.split(norms, d.offsets)


def filtered_probes(d, n_probes, draw):
    """(ts, filter_all of the probes draw(t), t in ts) per probe block.

    Blocks hold at most W probes in poly mode.  Exact mode filters a block
    in dense products whose rounding depends on the block's width, so there
    each probe is a block of its own and the result does not depend on the
    number of CPUs.  The generator keeps no reference to a yielded block.
    """
    blocks = _kernels.probe_blocks(n_probes) if d.mode == "poly" \
        else [[t] for t in range(n_probes)]
    for ts in blocks:
        yield ts, d.filter_all(np.column_stack([draw(t) for t in ts]))


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

    def draw(t):
        return np.random.default_rng([seed, t]).standard_normal(d.lap.n)

    for ts, samples in filtered_probes(d, n_probes, draw):
        for b, t in enumerate(ts):
            # m2 += delta * (sample - mean) with the sample's own slice as
            # scratch: one (J, N) temporary fewer, the same arithmetic
            sample = samples[..., b]
            delta = sample - mean
            mean += delta / (t + 1)
            sample -= mean
            delta *= sample
            m2 += delta
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
