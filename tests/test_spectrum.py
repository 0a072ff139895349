"""Spectral and energy CDF estimation against exact small-graph oracles."""

import numpy as np
import pytest

from lsgf import _kernels
from lsgf.chebyshev import jackson_coefficients
from lsgf.generators import (cycle_graph, erdos_renyi_graph, path_graph,
                             sensor_graph)
from lsgf.generators import piecewise_smooth_signal
from lsgf.graphs import build_laplacian, eigendecompose
from lsgf.spectrum import (SpectralCDF, _dc_direction, _step_coefficients,
                           estimate_energy_cdf, estimate_spectral_cdf,
                           exact_spectral_cdf, rademacher_probe)


def _raw_to_cdf(values):
    values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
    values[-1] = 1.0
    return values


def _spectral_cdf_per_grid_point(lap, n_probes=10, kpm_degree=30,
                                 n_grid=50, seed=0):
    # reference: one scalar step expansion and one dot product per z
    m = lap.chebyshev_operator(lap.lambda_max_bound)
    moments = sum(_kernels.cheb_moments(*m, kpm_degree + 1,
                                        rademacher_probe(lap.n, seed, t))
                  for t in range(n_probes)) / n_probes
    damp = jackson_coefficients(kpm_degree)
    grid = np.linspace(0.0, lap.lambda_max_bound, n_grid)
    values = np.array([
        (_step_coefficients(z, lap.lambda_max_bound, kpm_degree) * damp)
        @ moments / lap.n for z in grid])
    return _raw_to_cdf(values)


def _energy_cdf_per_grid_point(lap, signals, mode, eig=None, n_grid=50,
                               kpm_degree=30):
    # reference: filter every signal with the step approximant of every z
    # (stochastic) or sum its Fourier energies below every z (exact)
    lam_bar = lap.lambda_max_bound
    m = lap.chebyshev_operator(lam_bar)
    grid = np.linspace(0.0, lam_bar, n_grid)
    dc = _dc_direction(lap)
    damp = jackson_coefficients(kpm_degree)
    num = np.zeros(n_grid)
    den = 0.0
    for yt in np.atleast_2d(signals):
        yc = (yt - dc * (dc @ yt)) / np.linalg.norm(yt)
        den += yc @ yc
        if mode == "exact":
            co = eig.fourier(yc) ** 2
            lower = np.searchsorted(eig.values, 1e-12 * lam_bar, side="left")
            for i, z in enumerate(grid):
                hi = np.searchsorted(eig.values, z, side="right")
                num[i] += np.sum(co[lower:hi])
        else:
            for i, z in enumerate(grid):
                c = _step_coefficients(z, lam_bar, kpm_degree) * damp
                fz = _kernels.cheb_apply(*m, c, yc)
                num[i] += fz @ fz
    return _raw_to_cdf(num / den)


@pytest.fixture(scope="module")
def c4_cdf():
    lap = build_laplacian(cycle_graph(4), kind="combinatorial")
    return exact_spectral_cdf(eigendecompose(lap))


def test_exact_cdf_steps(c4_cdf):
    # eigenvalues 0, 2, 2, 4; interior steps probed a hair off the exact
    # point since eigh can place a duplicate on either side of it
    assert c4_cdf(0.0) == pytest.approx(0.25)
    assert c4_cdf(1.9) == pytest.approx(0.25)
    assert c4_cdf(2.0 + 1e-9) == pytest.approx(0.75)
    assert c4_cdf(2.0 - 1e-9, side="left") == pytest.approx(0.25)
    assert c4_cdf(4.0 + 1e-9) == 1.0
    assert c4_cdf(-1.0) == 0.0


def test_exact_cdf_quantiles(c4_cdf):
    assert c4_cdf.quantile(0.25) == pytest.approx(0.0)
    assert c4_cdf.quantile(0.5) == pytest.approx(2.0)
    assert c4_cdf.quantile(0.75) == pytest.approx(2.0)
    assert c4_cdf.quantile(1.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        c4_cdf.quantile(1.5)


def test_exact_cdf_quantile_path3():
    lap = build_laplacian(path_graph(3), kind="combinatorial")
    cdf = exact_spectral_cdf(eigendecompose(lap))
    assert cdf.quantile(1.0 / 3.0) == pytest.approx(0.0, abs=1e-9)
    assert cdf.quantile(2.0 / 3.0) == pytest.approx(1.0, abs=1e-9)


def test_exact_cdf_respects_wider_interval():
    lap = build_laplacian(path_graph(3), kind="combinatorial")
    eig = eigendecompose(lap)
    cdf = exact_spectral_cdf(eig, lambda_bar=lap.lambda_max_bound)
    assert cdf.lambda_bar == lap.lambda_max_bound
    assert cdf(lap.lambda_max_bound) == 1.0
    with pytest.raises(ValueError, match="largest eigenvalue"):
        exact_spectral_cdf(eig, lambda_bar=1.0)


def test_cdf_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        SpectralCDF(grid=[0.0, 1.0, 2.0], values=[0.0, 0.5, 0.4])
    with pytest.raises(ValueError, match="strictly increasing"):
        SpectralCDF(grid=[0.0, 1.0, 1.0], values=[0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="at least two"):
        SpectralCDF(grid=[0.0], values=[1.0])
    for grid in ([-1.0, 1.0, 2.0], [0.0, 1.0, np.inf], [np.nan, 1.0, 2.0]):
        with pytest.raises(ValueError, match="finite and start"):
            SpectralCDF(grid=grid, values=[0.0, 0.5, 1.0])
    for values in ([-0.1, 0.5, 1.0], [0.0, 0.5, 0.9], [0.0, 0.5, 1.5],
                   [0.0, 0.5, np.nan], [0.0, np.nan, 1.0]):
        with pytest.raises(ValueError, match=r"in \[0, 1\] and end at 1"):
            SpectralCDF(grid=[0.0, 1.0, 2.0], values=values)


def test_interpolated_cdf_behavior():
    cdf = SpectralCDF(grid=[0.0, 1.0, 2.0, 4.0],
                      values=[0.0, 0.3, 0.6, 1.0])
    zs = np.linspace(-0.5, 5.0, 101)
    vals = cdf(zs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(cdf.density(np.linspace(0, 4, 41)) >= 0.0)
    # generalized inverse: P(quantile(q)) >= q up to grid resolution
    for q in (0.1, 0.35, 0.8):
        z = cdf.quantile(q)
        assert cdf(z) >= q - 1e-3


def test_step_coefficients_match_quadrature():
    # independent oracle: Gauss-Chebyshev quadrature of the projection
    # integrals for the indicator of [-1, s] on the canonical interval
    lam_bar, degree = 3.0, 25
    nodes = np.cos((np.arange(20000) + 0.5) * np.pi / 20000)
    for z in (0.3, 1.0, 2.2):
        s = 2.0 * z / lam_bar - 1.0
        f = (nodes <= s).astype(np.float64)
        c = _step_coefficients(z, lam_bar, degree)
        for k in range(degree + 1):
            tk = np.cos(k * np.arccos(nodes))
            quad = (2.0 - (k == 0)) * np.mean(f * tk)
            assert abs(c[k] - quad) < 2e-4


def test_step_coefficients_rows_match_scalar_thresholds():
    zs = np.array([[0.0, 0.7], [1.5, 3.0]])
    rows = _step_coefficients(zs, 3.0, 12)
    assert rows.shape == (2, 2, 13)
    for idx in np.ndindex(zs.shape):
        assert np.array_equal(rows[idx], _step_coefficients(zs[idx], 3.0, 12))
    assert _step_coefficients(1.0, 3.0, 12).shape == (13,)


def test_rademacher_probe_reproducible():
    a = rademacher_probe(500, seed=3, index=7)
    b = rademacher_probe(500, seed=3, index=7)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) == {-1.0, 1.0}
    assert not np.array_equal(a, rademacher_probe(500, seed=3, index=8))
    assert not np.array_equal(a, rademacher_probe(500, seed=4, index=7))


def test_estimate_on_path3():
    lap = build_laplacian(path_graph(3), kind="combinatorial")
    est = estimate_spectral_cdf(lap, n_probes=30, kpm_degree=50, seed=0)
    assert abs(est(2.0) - 2.0 / 3.0) <= 0.1


def test_estimate_close_to_exact_on_er():
    g = erdos_renyi_graph(150, 0.1, seed=1)
    lap = build_laplacian(g, kind="combinatorial")
    exact = exact_spectral_cdf(eigendecompose(lap),
                               lambda_bar=lap.lambda_max_bound)
    zs = np.linspace(0.0, lap.lambda_max_bound, 400)
    for seed in range(3):
        est = estimate_spectral_cdf(lap, seed=seed)
        assert np.abs(est(zs) - exact(zs)).max() <= 0.05


def test_estimate_is_valid_cdf():
    g = sensor_graph(70, seed=1)
    lap = build_laplacian(g, kind="normalized")
    est = estimate_spectral_cdf(lap, seed=5)
    assert est.lambda_bar == 2.0
    assert est(2.0) == 1.0
    vals = est(np.linspace(0, 2, 200))
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_spectral_cdf_matches_per_grid_point_products(kind):
    lap = build_laplacian(sensor_graph(120, seed=4), kind=kind)
    for seed, degree, n_grid in ((0, 30, 50), (3, 7, 11)):
        est = estimate_spectral_cdf(lap, kpm_degree=degree, n_grid=n_grid,
                                    seed=seed)
        ref = _spectral_cdf_per_grid_point(lap, kpm_degree=degree,
                                           n_grid=n_grid, seed=seed)
        assert np.abs(est.values - ref).max() <= 1e-14


def test_estimate_argument_guards():
    lap = build_laplacian(path_graph(4), kind="combinatorial")
    with pytest.raises(ValueError):
        estimate_spectral_cdf(lap, n_probes=0)
    with pytest.raises(ValueError):
        estimate_spectral_cdf(lap, n_grid=1)


def test_energy_cdf_exact_single_mode_is_step():
    g = path_graph(6)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    k = 3
    q = estimate_energy_cdf(lap, eig.vectors[:, k], mode="exact", eig=eig)
    lam = eig.values[k]
    cell = lap.lambda_max_bound / (q.grid.size - 1)
    # the step resolves within one grid cell of the eigenvalue
    assert q(lam - cell) <= 0.02
    assert q(lam + cell) >= 0.98
    assert q(lap.lambda_max_bound) == 1.0


def test_energy_cdf_ignores_dc():
    g = path_graph(6)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    base = eig.vectors[:, 2]
    shifted = base + 5.0  # large DC offset
    qa = estimate_energy_cdf(lap, base, mode="exact", eig=eig)
    qb = estimate_energy_cdf(lap, shifted, mode="exact", eig=eig)
    zs = np.linspace(0, lap.lambda_max_bound, 100)
    assert np.abs(qa(zs) - qb(zs)).max() < 1e-8


def test_energy_cdf_stochastic_close_to_exact():
    g = sensor_graph(90, seed=2)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    sigs = np.stack([piecewise_smooth_signal(g, seed=s, eig=eig)
                     for s in range(3)])
    qe = estimate_energy_cdf(lap, sigs, mode="exact", eig=eig)
    qs = estimate_energy_cdf(lap, sigs, mode="stochastic", kpm_degree=60)
    zs = np.linspace(0, lap.lambda_max_bound, 300)
    assert np.abs(qe(zs) - qs(zs)).max() <= 0.05


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_energy_cdf_matches_per_grid_point_filtering(kind):
    g = sensor_graph(150, seed=6)
    lap = build_laplacian(g, kind=kind)
    eig = eigendecompose(lap)
    rng = np.random.default_rng(2)
    sigs = np.vstack([rng.standard_normal((2, g.n)),
                      piecewise_smooth_signal(g, seed=1, eig=eig)])
    for degree, n_grid in ((30, 50), (60, 37), (5, 2)):
        qs = estimate_energy_cdf(lap, sigs, n_grid=n_grid,
                                 kpm_degree=degree)
        ref = _energy_cdf_per_grid_point(lap, sigs, "stochastic",
                                         n_grid=n_grid, kpm_degree=degree)
        assert np.abs(qs.values - ref).max() <= 1e-12
    for n_grid in (50, 301):
        qe = estimate_energy_cdf(lap, sigs, mode="exact", eig=eig,
                                 n_grid=n_grid)
        ref = _energy_cdf_per_grid_point(lap, sigs, "exact", eig=eig,
                                         n_grid=n_grid)
        assert np.abs(qe.values - ref).max() <= 1e-12


def _count_columns(monkeypatch):
    # sparse products counted where the kernels make them
    columns = []
    operator = _kernels._operator

    class Counting:
        def __init__(self, a):
            self.a = a

        def __matmul__(self, x):
            columns.append(1 if x.ndim == 1 else x.shape[1])
            return self.a @ x

    monkeypatch.setattr(_kernels, "_operator",
                        lambda *csr: Counting(operator(*csr)))
    return columns


def test_energy_cdf_costs_k_columns_per_signal(monkeypatch):
    # moments up to T_2K come from the vectors up to T_K: K sparse products
    # per signal, whatever the grid; filtering per grid point would cost
    # n_grid * K
    g = sensor_graph(80, seed=4)
    lap = build_laplacian(g, kind="combinatorial")
    sigs = np.random.default_rng(0).standard_normal((3, g.n))
    columns = _count_columns(monkeypatch)
    estimate_energy_cdf(lap, sigs, n_grid=50, kpm_degree=30)
    assert sum(columns) == 30 * 3


def test_spectral_cdf_costs_half_k_columns_per_probe(monkeypatch):
    # moments up to T_K come from the vectors up to T_ceil(K/2)
    lap = build_laplacian(sensor_graph(80, seed=4), kind="combinatorial")
    columns = _count_columns(monkeypatch)
    for degree in (30, 7):
        columns.clear()
        estimate_spectral_cdf(lap, n_probes=5, kpm_degree=degree)
        assert sum(columns) == 5 * -(-degree // 2)


def test_energy_cdf_checks_mode_before_signals():
    lap = build_laplacian(path_graph(5), kind="combinatorial")
    with pytest.raises(ValueError, match="mode"):
        estimate_energy_cdf(lap, np.zeros(5), mode="bogus")
    with pytest.raises(ValueError, match="eigendecomposition"):
        estimate_energy_cdf(lap, np.zeros(5), mode="exact")


def test_energy_cdf_rejects_degenerate_signals():
    lap = build_laplacian(path_graph(5), kind="combinatorial")
    with pytest.raises(ValueError, match="zero"):
        estimate_energy_cdf(lap, np.zeros(5))
    with pytest.raises(ValueError, match="constant"):
        estimate_energy_cdf(lap, np.full(5, 3.0))
    with pytest.raises(ValueError, match="column per vertex"):
        estimate_energy_cdf(lap, np.ones(4))
    with pytest.raises(ValueError, match="mode"):
        estimate_energy_cdf(lap, np.arange(5.0), mode="bogus")


def test_energy_cdf_normalized_dc_direction():
    # for the degree-normalized operator the null direction is sqrt(deg)
    g = sensor_graph(30, seed=3)
    lap = build_laplacian(g, kind="normalized")
    with pytest.raises(ValueError, match="constant"):
        estimate_energy_cdf(lap, np.sqrt(g.degrees()))
