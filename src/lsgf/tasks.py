"""Denoising and sparse-approximation tasks built on filter-frame analysis.

Denoising soft-thresholds analysis coefficients with per-band thresholds
chosen by minimizing an unbiased estimate of the coefficient-domain risk;
the threshold scales with each atom's norm, so centers with weak atoms are
shrunk more aggressively.  Compression either greedily refits a small atom
subset (orthogonal matching pursuit) or keeps the largest normalized
analysis coefficients.
"""

from dataclasses import dataclass, field

import numpy as np

from .frames import (analysis, atom_norm_estimate, atom_norms_exact,
                     frame_bounds, inverse_cg, inverse_frame_iteration,
                     inverse_single_pass)

DELTA_SNR_CAP_DB = 300.0
# largest noise level whose square, the unit of the SURE risk, is finite
SIGMA_MAX = float(np.sqrt(np.finfo(np.float64).max))


@dataclass
class Metrics:
    nmse: float
    delta_snr_db: float | None = None


def metrics(clean, estimate, noisy=None):
    """NMSE of the estimate and, given the noisy input, the SNR gain.

    Exact reconstructions (and any gain beyond it) report the sentinel cap
    of 300 dB instead of infinity.
    """
    clean = np.asarray(clean, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    err = float(np.sum((estimate - clean) ** 2))
    sig = float(np.sum(clean ** 2))
    if sig == 0:
        raise ValueError("clean signal is identically zero")
    nmse = err / sig
    delta = None
    if noisy is not None:
        noise = float(np.sum((np.asarray(noisy) - clean) ** 2))
        if err == 0 or (noise > 0 and
                        10.0 * np.log10(noise / err) >= DELTA_SNR_CAP_DB):
            delta = DELTA_SNR_CAP_DB
        elif noise == 0:
            delta = -DELTA_SNR_CAP_DB if err > 0 else DELTA_SNR_CAP_DB
        else:
            delta = 10.0 * np.log10(noise / err)
    return Metrics(nmse=nmse, delta_snr_db=delta)


def sure_threshold_band(alpha, norms, sigma, candidates=None):
    """Threshold minimizing the unbiased risk estimate for one band.

    The objective sums min(alpha_i^2, t^2 sigma^2 n_i^2) plus twice the
    coefficient noise variance for every coefficient surviving the
    threshold.  It is piecewise in t with breakpoints |alpha_i| / (sigma
    n_i), and each candidate is scored in the limit from above, where the
    survival indicator of the breakpoint coefficient has just switched off.
    Ties pick the smaller threshold.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    norms = np.asarray(norms, dtype=np.float64)
    if alpha.shape != norms.shape:
        raise ValueError("alpha and norms must align")
    if alpha.size == 0:
        return 0.0
    if not 0 < sigma <= SIGMA_MAX or np.any(norms <= 0):
        raise ValueError("sigma must be positive, with a finite square, "
                         "and atom norms positive")
    b = np.abs(alpha) / (sigma * norms)
    if candidates is None:
        candidates = np.unique(np.concatenate([[0.0], b]))
    else:
        candidates = np.unique(np.asarray(candidates, dtype=np.float64))
        if candidates[0] < 0:
            raise ValueError("candidate thresholds must be nonnegative")
    order = np.argsort(b, kind="stable")
    b_s = b[order]
    # the risk in units of sigma^2, which then never appears squared
    pref = np.concatenate([[0.0], np.cumsum((alpha[order] / sigma) ** 2)])
    suff_n2 = np.concatenate([np.cumsum((norms[order] ** 2)[::-1])[::-1],
                              [0.0]])
    m = np.searchsorted(b_s, candidates, side="right")
    obj = pref[m] + (candidates ** 2 + 2.0) * suff_n2[m]
    return float(candidates[int(np.argmin(obj))])


def sure_thresholds(coeffs, norms, sigma, scaling_bands=()):
    """Per-band thresholds; bands passing DC are exempt (threshold zero).

    Scaling-type coefficients carry the signal's local mean, whose
    magnitude says nothing about noise, so they are never shrunk.
    """
    out = np.zeros(coeffs.n_bands)
    scaling = set(int(j) for j in scaling_bands)
    for j in range(coeffs.n_bands):
        if j in scaling:
            continue
        a = np.asarray(coeffs.bands[j], dtype=np.float64)
        n = np.asarray(norms[j], dtype=np.float64)
        # zero-norm atoms come from bands with no spectral support; their
        # coefficients are zero and need no threshold
        ok = n > 0
        if not np.any(ok):
            continue
        out[j] = sure_threshold_band(a[ok], n[ok], sigma)
    return out


def soft_threshold(coeffs, norms, sigma, thresholds):
    """Shrink each coefficient by its own threshold Upsilon_j sigma n_ij."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    bands = []
    for j in range(coeffs.n_bands):
        a = coeffs.bands[j]
        cut = thresholds[j] * sigma * np.asarray(norms[j])
        bands.append(np.sign(a) * np.maximum(0.0, np.abs(a) - cut))
    return coeffs.copy_with(bands)


@dataclass
class DenoiseConfig:
    sigma: float
    inverse: str = "cg"
    cg_tol: float = 1e-10
    cg_max_iter: int = 1000
    frame_iterations: int = 10
    norm_probes: int = 50
    norm_seed: int = 0


def _atom_norms(d, cfg):
    if d.mode == "exact":
        return atom_norms_exact(d)
    return atom_norm_estimate(d, n_probes=cfg.norm_probes,
                              seed=cfg.norm_seed)


def reconstruct(d, coeffs, method="cg", tol=1e-10, max_iter=1000,
                n_iter=10):
    """Signal from coefficients by 'cg', 'frame_iter' or 'single_pass'.

    Returns the estimate and the CG info (None for the other two).  The
    frame-bound methods take bounds at the true eigenvalues in exact mode
    and on a grid of [0, lambda_bar] in poly mode.
    """
    if method == "cg":
        return inverse_cg(d, coeffs, tol=tol, max_iter=max_iter)
    if method not in ("frame_iter", "single_pass"):
        raise ValueError(f"unknown inverse {method!r}")
    bounds = frame_bounds(d, basis="exact_sigma" if d.mode == "exact"
                          else "grid")
    if method == "frame_iter":
        return inverse_frame_iteration(d, coeffs, bounds, n_iter), None
    return inverse_single_pass(d, coeffs, bounds), None


def denoise(d, noisy, cfg):
    """Analysis, per-band SURE soft thresholding, approximate inversion.

    Returns the estimate and a report holding the thresholds, atom norms
    and any solver info.
    """
    # the norms first: their probe filtering is the request's memory peak,
    # and the coefficients need not be held through it
    norms = _atom_norms(d, cfg)
    coeffs = analysis(d, noisy)
    thresholds = sure_thresholds(coeffs, norms, cfg.sigma,
                                 scaling_bands=d.bank.scaling_indices())
    shrunk = soft_threshold(coeffs, norms, cfg.sigma, thresholds)
    fhat, info = reconstruct(d, shrunk, cfg.inverse, tol=cfg.cg_tol,
                             max_iter=cfg.cg_max_iter,
                             n_iter=cfg.frame_iterations)
    report = {"thresholds": thresholds, "norms": norms, "solver": info}
    return fhat, report


def add_noise(f, sigma, seed=0):
    rng = np.random.default_rng(seed)
    return np.asarray(f, dtype=np.float64) + sigma * rng.standard_normal(
        np.asarray(f).size)


# ---------------------------------------------------------------------------
# sparse approximation
# ---------------------------------------------------------------------------

@dataclass
class OmpResult:
    indices: np.ndarray
    coefficients: np.ndarray
    reconstruction: np.ndarray
    residual_norms: np.ndarray
    nmse_path: np.ndarray = field(default=None)


def omp(atoms, f, n_terms):
    """Orthogonal matching pursuit over an explicit atom matrix.

    Atoms are normalized internally; returned coefficients multiply the
    original unnormalized columns.  Argmax ties resolve to the lowest
    column index and selected atoms are never reconsidered.
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    n, m = atoms.shape
    if f.shape != (n,):
        raise ValueError("signal length must match atom rows")
    nrm = np.linalg.norm(atoms, axis=0)
    # bands whose response sits entirely above the true spectrum yield
    # all-zero atoms; they are simply never selectable
    usable = nrm > nrm.max() * 1e-14 if nrm.max() > 0 else \
        np.zeros(m, dtype=bool)
    if not 1 <= n_terms <= int(usable.sum()):
        raise ValueError("n_terms must be between 1 and the count of "
                         "nonzero atoms")
    psi = np.where(usable, atoms / np.where(usable, nrm, 1.0), 0.0)
    resid = f.copy()
    selected = []
    res_norms = np.empty(n_terms)
    sol = np.empty(0)
    for t in range(n_terms):
        corr = np.abs(psi.T @ resid)
        corr[~usable] = -np.inf
        corr[selected] = -np.inf
        pick = int(np.argmax(corr))
        selected.append(pick)
        block = psi[:, selected]
        sol, *_ = np.linalg.lstsq(block, f, rcond=None)
        resid = f - block @ sol
        res_norms[t] = np.linalg.norm(resid)
    idx = np.array(selected, dtype=np.int64)
    coefs = sol / nrm[idx]
    recon = atoms[:, idx] @ coefs
    fnorm2 = float(f @ f)
    path = res_norms ** 2 / fnorm2 if fnorm2 > 0 else res_norms * 0
    return OmpResult(indices=idx, coefficients=coefs, reconstruction=recon,
                     residual_norms=res_norms, nmse_path=path)


def flat_index_to_atom(d, flat):
    """Map a flat atom column index to its (band, center vertex) pair."""
    if not 0 <= flat < d.n_atoms:
        raise IndexError("flat index out of range")
    j = int(np.searchsorted(d.offsets, flat, side="right"))
    return j, int(np.concatenate(d.centers)[flat])


def compress_omp(d, f, n_terms):
    """OMP over the materialized dictionary; returns the pursuit result and
    the (band, vertex) pair of every selected atom."""
    atoms = d.materialize()
    result = omp(atoms, f, n_terms)
    pairs = [flat_index_to_atom(d, int(i)) for i in result.indices]
    return result, pairs


def compress_hard_threshold(d, f, n_terms, cfg=None):
    """Keep the n_terms largest normalized analysis coefficients and invert.

    Selection scores are |alpha| over the atom norm; ties resolve to the
    lexicographically first (band, center position).
    """
    return _hard_threshold_curve(d, f, [n_terms], cfg)[0]


def _hard_threshold_curve(d, f, budgets, cfg=None):
    """compress_hard_threshold at every budget, sharing one analysis and one
    set of atom norms; returns one (fhat, kept, info) per budget."""
    if cfg is None:
        cfg = DenoiseConfig(sigma=1.0)
    coeffs = analysis(d, f)
    alpha = np.concatenate(coeffs.bands)
    norms = np.concatenate(_atom_norms(d, cfg))
    # atoms from bands outside the occupied spectrum have ~zero norm and
    # carry ~zero coefficients; score them zero instead of dividing by zero
    ok = norms > 1e-14
    scores = np.where(ok, np.abs(alpha) / np.where(ok, norms, 1.0), 0.0)
    if not all(1 <= n_terms <= scores.size for n_terms in budgets):
        raise ValueError("n_terms must be between 1 and the atom count")
    # a stable sort: ties go to the lower flat index
    order = np.argsort(-scores, kind="stable")
    out = []
    for n_terms in budgets:
        keep = np.zeros(scores.size, dtype=bool)
        keep[order[:n_terms]] = True
        bands = np.split(np.where(keep, alpha, 0.0), d.offsets)
        kept = coeffs.copy_with(bands)
        fhat, info = reconstruct(d, kept, cfg.inverse, tol=cfg.cg_tol,
                                 max_iter=cfg.cg_max_iter,
                                 n_iter=cfg.frame_iterations)
        out.append((fhat, kept, info))
    return out
