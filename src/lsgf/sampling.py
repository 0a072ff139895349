"""Center-vertex selection and reconstruction from subsampled bands.

Weights for random selection come from stochastic estimates of the filtered
energy a band can deliver at each vertex; a signal-adapted variant boosts
vertices where the analyzed signal actually lives.  A deterministic greedy
selector and an exact uniqueness partition (which turns a complete frame
into a basis) round out the selection tools.  band_reconstruct recovers a
band's filtered signal from its samples by a penalized least-squares solve
that never factorizes the Laplacian.
"""

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chebyshev import apply_poly_filter
from .filters import effective_support
from .frames import filtered_probes, solve_cg
from .spectrum import rademacher_probe


@dataclass
class CenterSets:
    """Chosen vertices per band with their selection weights."""

    sets: list
    weights: list

    @property
    def n_bands(self):
        return len(self.sets)

    @property
    def total(self):
        return int(sum(s.size for s in self.sets))


def nonuniform_weights(d, n_probes=10, seed=0):
    """(J, N) selection weights from filtered sign probes.

    Weight of vertex i in band j is the mean squared value of p_j(L) eta at
    i over Rademacher probes eta, which tracks the diagonal of p_j(L)^2;
    each band's row is normalized to sum to one.
    """
    if d.mode != "poly":
        raise ValueError("sampling weights are estimated in polynomial mode")
    if n_probes < 1:
        raise ValueError("n_probes must be at least 1")
    acc = np.zeros((d.n_bands, d.lap.n))
    draw = partial(rademacher_probe, d.lap.n, seed)
    for ts, samples in filtered_probes(d, n_probes, draw):
        samples **= 2
        for b in range(len(ts)):
            acc += samples[..., b]
    acc /= n_probes
    sums = acc.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError("a band produced identically zero probe energy")
    return acc / sums


def signal_adapted_weights(d, f, n_probes=10, seed=0):
    """Band weights reweighted toward the signal's own energy pattern.

    Multiplies the probe-based weights by log(1 + |g_j(L) f|) per vertex.
    A band in which the filtered signal vanishes identically keeps its
    unadapted weights.
    """
    base = nonuniform_weights(d, n_probes=n_probes, seed=seed)
    filtered = np.abs(d.filter_all(f))
    boost = np.log1p(filtered)
    out = np.empty_like(base)
    for j in range(d.n_bands):
        row = base[j] * boost[j]
        s = row.sum()
        out[j] = base[j] if s <= 0 else row / s
    return out


def uniform_weights(n_bands, n):
    return np.full((n_bands, n), 1.0 / n)


def draw_centers(weights, counts, seed=0):
    """Weighted draws without replacement, independently per band.

    The counts[j] positive-weight vertices with the largest keys log(u) / w,
    u uniform, win (Efraimidis & Spirakis, IPL 2006): exactly the law of
    drawing one vertex at a time in proportion to the remaining weights,
    though a seed gives other sets than such successive draws.  The stored
    weight of a chosen vertex is its original normalized weight in the band.
    """
    weights = np.asarray(weights, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if weights.ndim != 2 or counts.shape != (weights.shape[0],):
        raise ValueError("need one count per weight row")
    if np.any(counts < 0):
        raise ValueError(f"counts must be nonnegative, got {counts.tolist()}")
    rng = np.random.default_rng(seed)
    sets, wts = [], []
    for j in range(weights.shape[0]):
        w = weights[j] / weights[j].sum()
        support = np.flatnonzero(w > 0)
        if counts[j] > support.size:
            raise ValueError(
                f"band {j}: requested {counts[j]} centers but only "
                f"{support.size} vertices have positive weight")
        # largest log(u)/w is smallest -log(u)/w, a standard exponential / w
        race = rng.standard_exponential(support.size) / w[support]
        top = np.argpartition(race, counts[j] - 1)[:counts[j]] \
            if counts[j] else []
        sets.append(np.sort(support[top]))
        wts.append(w[sets[-1]])
    return CenterSets(sets=sets, weights=wts)


def greedy_centers(d, counts, prune_level=0.01):
    """Deterministic centers per band by atom mass with suppression.

    Scores all bands' centers by the l1 norms of their atoms in one pass
    over identity blocks.  Each band then takes its best-scored center and
    damps unchosen centers its atom covers: entries above prune_level times
    the atom's peak scale their scores by one minus their relative size.
    Scores within N eps of the top, the rounding bound of an N-term sum,
    tie, and ties go to the lowest vertex, whatever the summation order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    sizes = np.array([c.size for c in d.centers])
    if counts.shape != sizes.shape or np.any((counts < 1) | (counts > sizes)):
        raise ValueError("need one count per band, from 1 to the band's "
                         "number of centers")
    scores = np.split(d._per_atom(lambda y: np.abs(y).sum(axis=1)),
                      d.offsets)
    tie = d.n * np.finfo(np.float64).eps
    sets = []
    for j, (centers, s) in enumerate(zip(d.centers, scores)):
        for _ in range(counts[j]):
            # a chosen center is marked by a score of -inf and never damped
            i = int(np.flatnonzero(s >= (1.0 - tie) * s.max())[0])
            s[i] = -np.inf
            atom = np.abs(d.atom(j, centers[i]))
            mask = (atom[centers] > prune_level * atom.max()) & (s > -np.inf)
            s[mask] *= 1.0 - atom[centers[mask]] / atom.max()
        sets.append(centers[s == -np.inf])
    return CenterSets(sets=sets, weights=[np.ones(c.size) for c in sets])


def _band_cdf_increment(kernel, cdf):
    if kernel.family == "ideal_band" and kernel.warp is None:
        a, b = kernel.params["a"], kernel.params["b"]
        hi = cdf(b, side="right") if kernel.params.get("closed_right") \
            else cdf(b, side="left")
        return max(float(hi - cdf(a, side="left")), 0.0)
    a, b = effective_support(kernel)
    return max(float(cdf(b) - cdf(a)), 0.0)


def allocate_samples(cdf, bank, total, band_energies=None):
    """Split a sample budget across bands by spectral mass.

    Each band's share is the CDF increment over its effective support
    (where the squared kernel reaches half its peak), optionally scaled by
    1 + its share of the provided band energies.  Shares are rounded by
    largest remainder to preserve the total, and every band receives at
    least one sample.
    """
    n_bands = bank.n_kernels
    if total < n_bands:
        raise ValueError("budget smaller than the number of bands")
    inc = np.array([_band_cdf_increment(g, cdf) for g in bank.kernels])
    if inc.sum() <= 0:
        inc = np.ones(n_bands)
    if band_energies is not None:
        e = np.asarray(band_energies, dtype=np.float64)
        if e.shape != (n_bands,) or np.any(e < 0):
            raise ValueError("band_energies must be nonnegative, one per band")
        if e.sum() > 0:
            inc = inc * (1.0 + e / e.sum())
    share = inc / inc.sum()
    raw = total * share
    counts = np.floor(raw).astype(np.int64)
    frac = raw - counts
    # ties in the remainders resolve toward lower band indices
    order = np.lexsort((np.arange(n_bands), -frac))
    for idx in order[:total - counts.sum()]:
        counts[idx] += 1
    while np.any(counts == 0):
        give = int(np.flatnonzero(counts == 0)[0])
        take = int(np.argmax(counts))
        counts[take] -= 1
        counts[give] += 1
    return counts


def default_band_penalty(p, fit_degree=None):
    """Penalty polynomial (1 - p^2)^2 refit as a Chebyshev series.

    Vanishes where the band response is exactly one and grows off-band, so
    it pushes reconstructions toward the band's spectral subspace.
    """
    from .chebyshev import chebyshev_fit
    if fit_degree is None:
        fit_degree = 2 * p.degree
    return chebyshev_fit(lambda lam: (1.0 - np.asarray(p(lam)) ** 2) ** 2,
                         fit_degree, p.lambda_bar)


def band_reconstruct(lap, vertices, omega, alpha, phi, kappa=1e4, tol=1e-8,
                     max_iter=2000):
    """Recover a band's filtered signal from weighted vertex samples.

    Solves (kappa M' W^-1 M + phi(L)) z = kappa M' W^-1 alpha by conjugate
    gradients with a diagonal preconditioner, where M samples the chosen
    vertices, W holds their selection weights, and phi is an off-band
    penalty polynomial.  Returns the solution and solver info.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    omega = np.asarray(omega, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if not (vertices.shape == omega.shape == alpha.shape):
        raise ValueError("vertices, omega, alpha must align")
    if np.any(omega <= 0):
        raise ValueError("selection weights must be positive")
    n = lap.n
    data_diag = np.zeros(n)
    data_diag[vertices] = kappa / omega
    rhs = np.zeros(n)
    rhs[vertices] = kappa * alpha / omega

    # scalar spectral average of phi stands in for diag(phi(L))
    phi_bar = float(np.mean(phi(np.linspace(0.0, phi.lambda_bar, 512))))
    diag = data_diag + max(phi_bar, 1e-12)

    def op(x):
        return data_diag * x + apply_poly_filter(phi, lap, x)

    return solve_cg(op, rhs, tol, max_iter, precond=lambda r: r / diag)


def uniqueness_partition(eig, bank, tol=1e-8):
    """Assign every vertex to exactly one band so each band's vertices form
    a uniqueness set for its spectral subspace.

    Bands must partition the eigenvalue indices disjointly (ideal
    partitions do).  Bands are processed in order of decreasing subspace
    dimension; each selects its vertices by column-pivoted orthogonal
    triangularization of the restricted eigenvector block.  If a selection
    goes rank deficient the band order is backtracked.  The result turns a
    complete dictionary into a critically sampled basis.
    """
    n = eig.n
    supports = []
    count = np.zeros(n, dtype=np.int64)
    for j, g in enumerate(bank.kernels):
        idx = np.flatnonzero(np.abs(np.asarray(g(eig.values))) > tol)
        supports.append(idx)
        count[idx] += 1
    if not np.all(count == 1):
        raise ValueError("bank kernels must cover each eigenvalue exactly "
                         "once (an ideal partition)")

    import scipy.linalg  # here, so that starting the CLI does not load it
    n_bands = bank.n_kernels
    base_order = sorted(range(n_bands), key=lambda j: (-supports[j].size, j))

    def attempt(order):
        available = np.arange(n)
        chosen = [None] * n_bands
        for j in order:
            dim = supports[j].size
            if dim == 0:
                chosen[j] = np.empty(0, dtype=np.int64)
                continue
            block = eig.vectors[np.ix_(available, supports[j])]
            _, rmat, piv = scipy.linalg.qr(block.T, pivoting=True,
                                           mode="economic")
            diag = np.abs(np.diag(rmat))
            if diag.size < dim or diag[-1] <= tol * max(diag[0], tol):
                return None
            sel = np.sort(available[piv[:dim]])
            chosen[j] = sel
            available = np.setdiff1d(available, sel, assume_unique=True)
        return chosen

    tried = set()
    orders = itertools.chain([base_order],
                             itertools.permutations(range(n_bands)))
    for order in orders:
        order = tuple(order)
        if order in tried:
            continue
        tried.add(order)
        chosen = attempt(order)
        if chosen is not None:
            return CenterSets(sets=chosen,
                              weights=[np.ones(c.size) for c in chosen])
    raise ValueError("no band ordering produced full-rank selections")
