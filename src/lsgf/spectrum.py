"""Cumulative spectral density estimation.

The spectral CDF P(z) is the fraction of Laplacian eigenvalues at or below
z.  Small graphs get the exact step function from a dense factorization;
large graphs get a stochastic estimate: Hutchinson trace probes combined
with Jackson-damped Chebyshev approximations of spectral step functions,
interpolated monotonically between grid points.

The energy CDF replaces eigenvalue counts with the spectral energy of
training signals (DC component excluded), and is used to adapt filter banks
to a signal class.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .chebyshev import jackson_coefficients
from .graphs import as_signal


@dataclass
class SpectralCDF:
    """Nondecreasing map [0, lambda_bar] -> [0, 1] with value 1 at the top.

    When built from an exact eigendecomposition the eigenvalues are kept and
    evaluation is the exact step function; otherwise evaluation goes through
    a monotone piecewise-cubic interpolant of the grid values.
    """

    grid: np.ndarray
    values: np.ndarray
    eigenvalues: np.ndarray | None = None
    _interp: object = field(init=False, repr=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must hold at least two points")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if self.values.shape != self.grid.shape:
            raise ValueError("values must match grid")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values must be nondecreasing")
        # scipy.interpolate loads slowly and most CLI commands build no CDF
        from scipy.interpolate import PchipInterpolator
        self._interp = PchipInterpolator(self.grid, self.values)

    @property
    def lambda_bar(self):
        return float(self.grid[-1])

    def __call__(self, z, side="right"):
        """Fraction of spectrum <= z (side='right') or < z (side='left').

        The side distinction only matters for exact step evaluation.
        """
        z = np.asarray(z, dtype=np.float64)
        if self.eigenvalues is not None:
            n = self.eigenvalues.size
            out = np.searchsorted(self.eigenvalues, z, side=side) / n
        else:
            out = np.clip(self._interp(np.clip(z, 0.0, self.lambda_bar)),
                          0.0, 1.0)
            out = np.where(z >= self.lambda_bar, 1.0, out)
            out = np.where(z < 0.0, 0.0, out)
        return out if out.ndim else float(out)

    def quantile(self, q):
        """Generalized inverse: smallest z with P(z) >= q."""
        q = np.asarray(q, dtype=np.float64)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantile levels must lie in [0, 1]")
        if self.eigenvalues is not None:
            n = self.eigenvalues.size
            k = np.clip(np.ceil(q * n).astype(np.int64), 1, n)
            out = self.eigenvalues[k - 1]
        else:
            zs = np.linspace(0.0, self.lambda_bar, 4001)
            ps = np.clip(self._interp(zs), 0.0, 1.0)
            ps = np.maximum.accumulate(ps)
            idx = np.searchsorted(ps, q, side="left")
            out = zs[np.clip(idx, 0, zs.size - 1)]
        return out if out.ndim else float(out)

    def density(self, z):
        """Derivative of the interpolant (zero floor); a spectral-density
        proxy used to locate sparse regions of the spectrum."""
        z = np.clip(np.asarray(z, dtype=np.float64), 0.0, self.lambda_bar)
        out = np.maximum(self._interp.derivative()(z), 0.0)
        return out if out.ndim else float(out)


def exact_spectral_cdf(eig, lambda_bar=None):
    """Step CDF from an exact eigendecomposition.

    The stored grid carries a point just before and at every distinct
    eigenvalue so the interpolant hugs the steps; evaluation itself uses the
    eigenvalues and is exact.
    """
    vals = np.sort(np.asarray(eig.values, dtype=np.float64))
    n = vals.size
    top = float(vals[-1]) if lambda_bar is None else float(lambda_bar)
    if top < vals[-1]:
        raise ValueError("lambda_bar below the largest eigenvalue")
    uniq, counts = np.unique(vals, return_counts=True)
    cum = np.cumsum(counts) / n
    eps = max(top, 1.0) * 1e-9
    pts = [(0.0, counts[0] / n if uniq[0] == 0.0 else 0.0)]
    prev_cum = pts[0][1]
    for u, c in zip(uniq, cum):
        if u <= 0.0:
            continue
        if u - eps > pts[-1][0] + eps:
            pts.append((u - eps, prev_cum))
        pts.append((u, c))
        prev_cum = c
    if top > pts[-1][0] + eps:
        pts.append((top, 1.0))
    grid = np.array([p[0] for p in pts])
    values = np.array([p[1] for p in pts])
    return SpectralCDF(grid=grid, values=values, eigenvalues=vals)


def _step_coefficients(z, lambda_bar, degree):
    """Chebyshev coefficients of the indicator 1{lambda <= z} on the mapped
    interval, one row per threshold when z is an array; closed form via the
    arccos of the mapped threshold."""
    s = np.clip(2.0 * z / lambda_bar - 1.0, -1.0, 1.0)
    theta = np.arccos(s)[..., None]
    k = np.arange(1, degree + 1)
    return np.concatenate([1.0 - theta / np.pi,
                           -2.0 * np.sin(k * theta) / (np.pi * k)], axis=-1)


def _monotone_cdf(grid, values):
    """Clamp to [0, 1], make nondecreasing by a running maximum, end at 1."""
    values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
    values[-1] = 1.0
    return SpectralCDF(grid=grid, values=values)


def rademacher_probe(n, seed, index):
    """Sign probe from a stream keyed by (seed, probe index), so results do
    not depend on how probes are batched."""
    rng = np.random.default_rng([seed, index])
    return rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0


def _probe_moments(lap, n_moments, block):
    """Rows of Chebyshev moments x' T_k(S) x, k < n_moments, one row per
    column x of an (N, B) block; S maps [0, lambda_bar] onto [-1, 1]."""
    half = lap.lambda_max_bound / 2.0
    return _kernels.cheb_moments(lap.indptr, lap.indices, lap.data,
                                 n_moments, half, half, block).T


def estimate_spectral_cdf(lap, n_probes=10, kpm_degree=30, n_grid=50,
                          seed=0):
    """Stochastic spectral CDF on n_grid points spanning [0, lambda_bar].

    For each grid point z the quantity tr(p_z(L)) / N is estimated with
    Rademacher probes, where p_z is the degree-kpm_degree Jackson-damped
    Chebyshev approximation of the step at z.  One Chebyshev moment
    recurrence per probe serves every grid point.  Estimates are clamped to
    [0, 1], repaired to be nondecreasing by a running maximum, and the last
    value is pinned to 1.
    """
    if n_probes < 1 or kpm_degree < 1 or n_grid < 2:
        raise ValueError("n_probes, kpm_degree >= 1 and n_grid >= 2 required")
    lam_bar = lap.lambda_max_bound
    moments = sum(m for ts in _kernels.probe_blocks(n_probes)
                  for m in _probe_moments(lap, kpm_degree + 1, np.column_stack(
                      [rademacher_probe(lap.n, seed, t) for t in ts])))
    moments /= n_probes
    grid = np.linspace(0.0, lam_bar, n_grid)
    steps = (_step_coefficients(grid, lam_bar, kpm_degree)
             * jackson_coefficients(kpm_degree))
    return _monotone_cdf(grid, (steps @ moments) / lap.n)


def _dc_direction(lap):
    # null vector of the connected-graph Laplacian for each kind
    if lap.kind == "normalized":
        d = np.sqrt(lap.graph.degrees()) if lap.graph is not None else None
        if d is None:
            raise ValueError("normalized energy CDF needs the source graph")
        return d / np.linalg.norm(d)
    return np.full(lap.n, 1.0 / np.sqrt(lap.n))


def estimate_energy_cdf(lap, signals, mode="stochastic", eig=None, n_grid=50,
                        kpm_degree=30):
    """Cumulative spectral energy distribution of training signals.

    Each signal is normalized by its full norm, then its DC component (the
    Laplacian's null direction) is removed; the value at z is the summed
    energy at frequencies in (0, z] over the summed non-DC energy.  Exact
    mode sums squared Fourier coefficients; stochastic mode reads the energy
    of every Jackson-damped step p_z off the signals' Chebyshev moments
    mu_k = y' T_k(S) y, k <= 2K, instead of filtering per grid point.

    Raises on an all-zero or constant training signal, which carries no
    non-DC energy to distribute.
    """
    if mode not in ("exact", "stochastic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and eig is None:
        raise ValueError("exact mode needs an eigendecomposition")
    y = np.atleast_2d(np.asarray(signals, dtype=np.float64))
    if y.shape[1] != lap.n:
        raise ValueError("training signals must have one column per vertex")
    lam_bar = lap.lambda_max_bound
    grid = np.linspace(0.0, lam_bar, n_grid)
    dc = _dc_direction(lap)
    rows = np.empty_like(y)
    for t in range(y.shape[0]):
        yt = as_signal(lap.n, y[t])
        nrm = np.linalg.norm(yt)
        if nrm == 0:
            raise ValueError(f"training signal {t} is identically zero")
        yc = yt - dc * (dc @ yt)
        if np.linalg.norm(yc) <= 1e-12 * nrm:
            raise ValueError(f"training signal {t} is constant (DC only)")
        rows[t] = yc / nrm
    den = float(np.sum(rows ** 2))
    if mode == "exact":
        lower = np.searchsorted(eig.values, 1e-12 * lam_bar, side="left")
        hi = np.maximum(np.searchsorted(eig.values, grid, side="right"),
                        lower)
        cum = np.cumsum(np.r_[0.0, np.sum(eig.fourier(rows.T) ** 2, axis=1)])
        return _monotone_cdf(grid, (cum[hi] - cum[lower]) / den)
    mu = sum(m for ts in _kernels.probe_blocks(len(rows))
             for m in _probe_moments(lap, 2 * kpm_degree + 1,
                                     rows[ts.start:ts.stop].T))
    # T_i T_j = (T_{i+j} + T_{|i-j|}) / 2 gives ||p(S) y||^2 = c' H c
    k = np.arange(kpm_degree + 1)
    gram = (mu[k[:, None] + k] + mu[np.abs(k[:, None] - k)]) / 2.0
    steps = (_step_coefficients(grid, lam_bar, kpm_degree)
             * jackson_coefficients(kpm_degree))
    return _monotone_cdf(grid, np.einsum("gi,ij,gj->g", steps, gram, steps)
                         / den)
