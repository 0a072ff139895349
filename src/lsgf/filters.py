"""Spectral kernel and filter-bank design.

A Kernel is a scalar function of the Laplacian eigenvalue on [0, lambda_bar],
optionally precomposed with a monotone warping of that interval.  A
FilterBank is an ordered collection of kernels; its squared magnitude sum
G(lambda) controls the frame bounds of the resulting dictionary, and the
perfect-reconstruction designs here keep G identically 1.

Design families:

* ideal partitions of [0, lambda_bar] (uniform, octave, or count-balanced
  through a spectral CDF);
* uniform translates of hann / itersine / meyer prototypes with 50% overlap;
* cosine-tapered lapped bands ("dct");
* monomial-rise / spline / power-decay wavelets plus a companion scaling
  kernel ("sgwt"), which is deliberately not a tight design;
* the diffusion (heat) kernel exp(-tau lambda).

Warpings: logarithmic, spectral-CDF, log of spectral-CDF, and energy-CDF;
each maps [0, lambda_bar] onto itself monotonically, so warped
perfect-reconstruction designs stay perfect-reconstruction.
"""

from dataclasses import dataclass, field

import numpy as np

from .spectrum import SpectralCDF


@dataclass(frozen=True)
class Warping:
    """Monotone nondecreasing map of [0, lambda_bar] onto itself."""

    kind: str
    lambda_bar: float
    nu: float = 1.0
    cdf: SpectralCDF | None = None

    def __post_init__(self):
        if self.kind not in ("log", "spectrum_cdf", "log_spectrum_cdf",
                            "energy_cdf"):
            raise ValueError(f"unknown warping kind {self.kind!r}")
        if self.kind != "spectrum_cdf" and not (np.isfinite(self.nu)
                                                and self.nu > 0):
            raise ValueError("nu must be positive and finite")
        if self.kind != "log" and self.cdf is None:
            raise ValueError(f"{self.kind} warping needs a CDF")

    def _cdf_part(self, lam):
        # affine renormalization pins warp(0) = 0 even when the CDF carries
        # point mass at zero
        p0 = self.cdf(0.0)
        top = self.cdf(self.lambda_bar)
        if top - p0 <= 0:
            raise ValueError("CDF carries no mass above zero")
        frac = (self.cdf(lam) - p0) / (top - p0)
        return self.lambda_bar * np.clip(frac, 0.0, 1.0)

    def __call__(self, lam):
        lam = np.clip(np.asarray(lam, dtype=np.float64), 0.0, self.lambda_bar)
        lb = self.lambda_bar
        if self.kind == "log":
            out = lb * np.log1p(self.nu * lam) / np.log1p(self.nu * lb)
        elif self.kind in ("spectrum_cdf", "energy_cdf"):
            out = self._cdf_part(lam)
        else:  # log_spectrum_cdf
            m = self._cdf_part(lam)
            out = lb * np.log1p(self.nu * m) / np.log1p(self.nu * lb)
        return np.clip(out, 0.0, lb)


def _meyer_aux(t):
    return t ** 4 * (35.0 - 84.0 * t + 70.0 * t ** 2 - 20.0 * t ** 3)


def _sgwt_mother(x):
    """Monomial rise, cubic spline bridge on [1, 2], power-law decay."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    lo = x < 1.0
    hi = x > 2.0
    mid = ~(lo | hi)
    out[lo] = x[lo] ** 2
    xm = x[mid]
    out[mid] = -5.0 + 11.0 * xm - 6.0 * xm ** 2 + xm ** 3
    with np.errstate(divide="ignore"):
        out[hi] = 4.0 / x[hi] ** 2
    return out


@dataclass(frozen=True)
class Kernel:
    """Scalar spectral kernel on [0, lambda_bar], optionally warped.

    Evaluation clamps arguments into [0, lambda_bar], so values above the
    recorded bound read off the kernel's endpoint value.
    """

    family: str
    lambda_bar: float
    params: dict = field(default_factory=dict)
    warp: Warping | None = None

    def _base(self, lam):
        p = self.params
        fam = self.family
        if fam == "ideal_band":
            hi_ok = lam <= p["b"] if p.get("closed_right") else lam < p["b"]
            return np.where((lam >= p["a"]) & hi_ok, 1.0, 0.0)
        if fam in ("hann_translate", "itersine_translate", "meyer_translate"):
            x = (lam - p["center"]) / (2.0 * p["halfwidth"])
            inside = np.abs(x) <= 0.5
            x = np.where(inside, x, 0.5)
            if fam == "hann_translate":
                val = np.cos(np.pi * x)
            elif fam == "itersine_translate":
                val = np.sin(0.5 * np.pi * np.cos(np.pi * x) ** 2)
            else:
                val = np.cos(0.5 * np.pi * _meyer_aux(2.0 * np.abs(x)))
            return np.where(inside, val, 0.0)
        if fam == "dct_band":
            lo, hi = p["lo"], p["hi"]
            eta_lo, eta_hi = p["eta_lo"], p["eta_hi"]
            val = np.ones_like(lam)
            if eta_lo > 0:
                u = np.clip((lam - (lo - 0.5 * eta_lo)) / eta_lo, 0.0, 1.0)
                val = val * np.sin(0.5 * np.pi * u)
            else:
                val = val * (lam >= lo)
            if eta_hi > 0:
                u = np.clip((lam - (hi - 0.5 * eta_hi)) / eta_hi, 0.0, 1.0)
                val = val * np.cos(0.5 * np.pi * u)
            else:
                val = val * (lam <= hi)
            return val
        if fam == "sgwt_wavelet":
            return _sgwt_mother(p["scale"] * lam)
        if fam == "sgwt_scaling":
            return p["gamma"] * np.exp(-(lam / (0.6 * p["lmin"])) ** 4)
        if fam == "diffusion":
            return np.exp(-p["tau"] * lam)
        raise ValueError(f"unknown kernel family {self.family!r}")

    def __call__(self, lam):
        lam = np.clip(np.asarray(lam, dtype=np.float64), 0.0, self.lambda_bar)
        if self.warp is not None:
            lam = self.warp(lam)
        out = self._base(lam)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class FilterBank:
    """Ordered kernels over a common interval [0, lambda_bar]."""

    kernels: tuple
    lambda_bar: float
    design: str

    @property
    def n_kernels(self):
        return len(self.kernels)

    def evaluate(self, lam):
        """(J, len(lam)) matrix of kernel values."""
        lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
        return np.vstack([np.atleast_1d(g(lam)) for g in self.kernels])

    def squared_sum(self, lam):
        """G(lambda) = sum_j |g_j(lambda)|^2."""
        vals = self.evaluate(lam) ** 2
        out = vals.sum(axis=0)
        return out if np.asarray(lam).ndim else float(out[0])

    def scaling_indices(self, tol=1e-12):
        """Kernels that pass DC, i.e. g_j(0) > tol."""
        return [j for j, g in enumerate(self.kernels)
                if float(g(0.0)) > tol]


def _partition_edges(lambda_bar, n_bands, spacing, cdf):
    if n_bands < 1:
        raise ValueError("need at least one band")
    if spacing == "uniform":
        q = np.arange(1, n_bands) / n_bands
        edges = (cdf.quantile(q) if cdf is not None
                 else q * lambda_bar)
    elif spacing == "octave":
        m = np.arange(1, n_bands)
        q = 2.0 ** (m - n_bands)
        edges = (cdf.quantile(q) if cdf is not None
                 else q * lambda_bar)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    edges = np.atleast_1d(np.asarray(edges, dtype=np.float64))
    full = np.concatenate([[0.0], edges, [lambda_bar]])
    if np.any(np.diff(full) <= 0):
        raise ValueError("degenerate band edges; spectrum too concentrated "
                         "for this band count")
    return full


def make_ideal_partition(lambda_bar, n_bands, spacing="uniform", cdf=None):
    """Indicator kernels on a partition of [0, lambda_bar].

    Bands are half-open [a, b) except the last, which closes at lambda_bar.
    With a CDF, uniform spacing balances eigenvalue counts across bands and
    octave spacing makes counts dyadic (the two lowest bands smallest).
    """
    full = _partition_edges(lambda_bar, n_bands, spacing, cdf)
    kernels = tuple(
        Kernel("ideal_band", lambda_bar,
               {"a": float(full[j]), "b": float(full[j + 1]),
                "closed_right": j == n_bands - 1})
        for j in range(n_bands))
    name = f"ideal_{spacing}" + ("_cdf" if cdf is not None else "")
    return FilterBank(kernels=kernels, lambda_bar=lambda_bar, design=name)


_TRANSLATE_FAMILIES = {
    "hann": "hann_translate",
    "itersine": "itersine_translate",
    "meyer": "meyer_translate",
}


def make_uniform_translates(lambda_bar, n_kernels, prototype="itersine",
                            warp=None):
    """Half-overlapping translates of a perfect-reconstruction prototype.

    Centers sit at j * lambda_bar / (J - 1); each kernel spans two spacings,
    so interior points are covered by exactly two kernels whose squares sum
    to one.  An optional warping is applied to every kernel, which preserves
    the unit squared sum.
    """
    if n_kernels < 2:
        raise ValueError("translate banks need at least two kernels")
    if prototype not in _TRANSLATE_FAMILIES:
        raise ValueError(f"unknown prototype {prototype!r}")
    step = lambda_bar / (n_kernels - 1)
    kernels = tuple(
        Kernel(_TRANSLATE_FAMILIES[prototype], lambda_bar,
               {"center": j * step, "halfwidth": step}, warp=warp)
        for j in range(n_kernels))
    name = f"{prototype}_translates"
    if warp is not None:
        name += f"_{warp.kind}"
    return FilterBank(kernels=kernels, lambda_bar=lambda_bar, design=name)


def make_dct_bands(lambda_bar, n_bands, warp=None):
    """Cosine-tapered lapped bands with unit squared sum.

    Uniform band edges; at each interior edge the outgoing band rolls off
    with a quarter-wave cosine while the incoming band rises with the
    matching sine, over a transition of half a band width.
    """
    if n_bands < 1:
        raise ValueError("need at least one band")
    edges = np.linspace(0.0, lambda_bar, n_bands + 1)
    eta = lambda_bar / (2.0 * n_bands) if n_bands > 1 else 0.0
    kernels = []
    for j in range(n_bands):
        kernels.append(Kernel(
            "dct_band", lambda_bar,
            {"lo": float(edges[j]), "hi": float(edges[j + 1]),
             "eta_lo": eta if j > 0 else 0.0,
             "eta_hi": eta if j < n_bands - 1 else 0.0},
            warp=warp))
    name = "dct_bands" if warp is None else f"dct_bands_{warp.kind}"
    return FilterBank(kernels=tuple(kernels), lambda_bar=lambda_bar,
                      design=name)


def make_log_warped_translates(lambda_bar, n_kernels, prototype="hann",
                               nu=10.0):
    """Wavelet-style translates: uniform in log(1 + nu * lambda)."""
    warp = Warping("log", lambda_bar, nu=nu)
    bank = make_uniform_translates(lambda_bar, n_kernels, prototype,
                                   warp=warp)
    return FilterBank(kernels=bank.kernels, lambda_bar=lambda_bar,
                      design=f"{prototype}_wavelet_log")


def make_adapted_translates(lambda_bar, n_kernels, cdf, prototype="itersine",
                            wavelet=False, nu=10.0, energy=False):
    """Translates adapted to a spectral or energy CDF.

    With wavelet=False kernels are uniform in the CDF coordinate (balanced
    eigenvalue counts per band); with wavelet=True they are uniform in
    log(1 + nu * CDF coordinate), concentrating kernels where the CDF (and
    hence the spectrum or signal energy) is dense at the low end.
    """
    if energy:
        kind = "energy_cdf"
        if wavelet:
            raise ValueError("energy adaptation is defined without the log")
    else:
        kind = "log_spectrum_cdf" if wavelet else "spectrum_cdf"
    warp = Warping(kind, lambda_bar, nu=nu, cdf=cdf)
    return make_uniform_translates(lambda_bar, n_kernels, prototype,
                                   warp=warp)


def make_sgwt(lambda_bar, n_kernels, k_scale=20.0):
    """Wavelets at log-spaced scales plus a companion scaling kernel.

    The design minimum lambda_min = lambda_bar / k_scale sets the coarsest
    scale 2 / lambda_min and the finest 1 / lambda_bar; the scaling kernel's
    height gamma matches the peak of the root squared wavelet sum.  This
    bank is not a tight design: its squared sum fluctuates.
    """
    if n_kernels < 2:
        raise ValueError("need a scaling kernel plus at least one wavelet")
    if not (np.isfinite(k_scale) and k_scale > 0):
        raise ValueError("k_scale must be positive and finite")
    lmin = lambda_bar / k_scale
    n_scales = n_kernels - 1
    if n_scales == 1:
        scales = np.array([2.0 / lmin])
    else:
        scales = np.exp(np.linspace(np.log(2.0 / lmin),
                                    np.log(1.0 / lambda_bar), n_scales))
    wavelets = [Kernel("sgwt_wavelet", lambda_bar, {"scale": float(t)})
                for t in scales]
    grid = np.linspace(0.0, lambda_bar, 4001)
    wav_sq = np.zeros_like(grid)
    for g in wavelets:
        wav_sq += g(grid) ** 2
    gamma = float(np.sqrt(wav_sq.max()))
    scaling = Kernel("sgwt_scaling", lambda_bar,
                     {"gamma": gamma, "lmin": lmin})
    return FilterBank(kernels=tuple([scaling] + wavelets),
                      lambda_bar=lambda_bar, design="sgwt")


def shift_edges_to_sparse_regions(bank, cdf, window_frac=0.4, n_scan=801):
    """Move ideal-partition edges to nearby low-density spectral regions.

    Each interior edge is relocated to the point of least CDF density within
    a window of window_frac times the smaller adjacent band width.  Band
    order is preserved.  Only ideal partitions are supported.
    """
    if any(k.family != "ideal_band" for k in bank.kernels):
        raise ValueError("edge shifting applies to ideal partitions")
    edges = [bank.kernels[0].params["a"]]
    for k in bank.kernels:
        edges.append(k.params["b"])
    edges = np.asarray(edges)
    new = edges.copy()
    for m in range(1, edges.size - 1):
        wl = window_frac * (edges[m] - edges[m - 1])
        wr = window_frac * (edges[m + 1] - edges[m])
        w = min(wl, wr)
        zs = np.linspace(edges[m] - w, edges[m] + w, n_scan)
        dens = cdf.density(zs)
        new[m] = zs[int(np.argmin(dens))]
    if np.any(np.diff(new) <= 0):
        raise ValueError("edge shifting produced a degenerate partition")
    n_bands = bank.n_kernels
    kernels = tuple(
        Kernel("ideal_band", bank.lambda_bar,
               {"a": float(new[j]), "b": float(new[j + 1]),
                "closed_right": j == n_bands - 1})
        for j in range(n_bands))
    return FilterBank(kernels=kernels, lambda_bar=bank.lambda_bar,
                      design=bank.design + "_shifted")


def effective_support(kernel, n_scan=4001, level=0.5):
    """Interval where the squared kernel reaches level times its maximum."""
    grid = np.linspace(0.0, kernel.lambda_bar, n_scan)
    sq = np.asarray(kernel(grid)) ** 2
    peak = sq.max()
    if peak <= 0:
        raise ValueError("kernel is identically zero on the interval")
    mask = sq >= level * peak
    return float(grid[mask][0]), float(grid[mask][-1])
