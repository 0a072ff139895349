"""Polynomial fitting and fast filtering against dense spectral oracles."""

import numpy as np
import pytest

from lsgf.chebyshev import (apply_poly_bank, apply_poly_filter,
                            chebyshev_fit, jackson_coefficients, poly_atom,
                            sup_error)
from lsgf.generators import (erdos_renyi_graph, grid_graph, path_graph,
                             sensor_graph)
from lsgf.graphs import build_laplacian, eigendecompose


def heat(lb, tau=10.0):
    return lambda x: np.exp(-tau * x / lb)


def test_fit_reproduces_polynomial_exactly():
    # degree-3 target is inside the degree-5 space
    lb = 6.0
    target = lambda x: 1.0 - 0.5 * x + 0.1 * x ** 3
    p = chebyshev_fit(target, 5, lb)
    grid = np.linspace(0, lb, 400)
    assert np.abs(p(grid) - target(grid)).max() < 1e-12


def test_heat_kernel_sup_error_small():
    lb = 12.0
    p = chebyshev_fit(heat(lb), 40, lb)
    assert sup_error(p, heat(lb)) <= 1e-8


@pytest.mark.parametrize("degree", [0, 1, 2, 40, 63, 64, 100, 320])
def test_fit_matches_the_cosine_sums(degree):
    # the FFT's DCT against the (K+1) x m cosine sums it replaces; the two
    # round differently, by a few ulps of the coefficients' l1 norm
    lb = 7.3
    m = max(4 * degree, 256)
    theta = np.pi * (np.arange(m) + 0.5) / m
    lam = (np.cos(theta) + 1.0) * lb / 2.0
    for kernel in (heat(lb), lambda x: (x > 1.3).astype(np.float64),
                   lambda x: np.sin(3.0 * x) ** 2):
        want = (2.0 / m) * (np.cos(np.outer(np.arange(degree + 1), theta))
                            @ kernel(lam))
        want[0] /= 2.0
        got = chebyshev_fit(kernel, degree, lb).coeffs
        tol = 64 * np.finfo(np.float64).eps * np.abs(want).sum()
        assert np.abs(got - want).max() <= tol


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -2.0])
def test_fit_refuses_a_bad_interval(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        chebyshev_fit(lambda x: x, 5, bad)


def test_call_clips_outside_interval():
    lb = 4.0
    p = chebyshev_fit(heat(lb), 20, lb)
    assert p(np.array([-1.0]))[0] == p(np.array([0.0]))[0]
    assert p(np.array([99.0]))[0] == p(np.array([lb]))[0]


def test_jackson_damping():
    g = jackson_coefficients(30)
    assert g[0] == pytest.approx(1.0)
    assert np.all(np.diff(g) < 0)
    assert 0 < g[-1] < 0.02
    # damped step stays within small overshoot while plain fit rings
    lb = 2.0
    step = lambda x: (x <= 1.0).astype(np.float64)
    plain = chebyshev_fit(step, 30, lb)
    damped = chebyshev_fit(step, 30, lb, jackson=True)
    grid = np.linspace(0, lb, 2001)
    assert plain(grid).max() > 1.05
    assert damped(grid).max() < 1.02
    assert damped(grid).min() > -0.02


def test_apply_matches_dense_functional_calculus():
    g = erdos_renyi_graph(50, 0.15, seed=3)
    for kind in ("combinatorial", "normalized"):
        lap = build_laplacian(g, kind=kind)
        eig = eigendecompose(lap)
        p = chebyshev_fit(heat(lap.lambda_max_bound), 35,
                          lap.lambda_max_bound)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(g.n)
        fast = apply_poly_filter(p, lap, f)
        dense = eig.vectors @ (p(eig.values) * eig.fourier(f))
        assert np.abs(fast - dense).max() < 1e-9


def test_k_hop_localization_is_exact():
    # a degree-K polynomial of the Laplacian cannot reach past K hops
    g = grid_graph(12, 12)
    lap = build_laplacian(g, kind="combinatorial")
    for degree in (3, 7):
        p = chebyshev_fit(heat(lap.lambda_max_bound), degree,
                          lap.lambda_max_bound)
        for center in (0, 17, 63):
            atom = poly_atom(p, lap, center)
            hops = g.hop_distances(center)
            outside = atom[(hops > degree) | (hops < 0)]
            assert outside.size > 0  # graph must be large enough to matter
            assert np.abs(outside).max() == 0.0


def test_apply_bank_matches_single_filters_bitwise():
    g = sensor_graph(40, seed=6)
    lap = build_laplacian(g, kind="combinatorial")
    lb = lap.lambda_max_bound
    kernels = [heat(lb, 2.0), heat(lb, 8.0),
               lambda x: np.sin(np.pi * x / lb) ** 2]
    approxes = [chebyshev_fit(k, d, lb) for k, d in zip(kernels, (10, 25,
                                                                  18))]
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.n)
    fused = apply_poly_bank(approxes, lap, f)
    for j, p in enumerate(approxes):
        assert np.array_equal(fused[j], apply_poly_filter(p, lap, f))


def test_apply_bank_requires_shared_interval():
    lap = build_laplacian(path_graph(5), kind="combinatorial")
    a = chebyshev_fit(heat(4.0), 5, 4.0)
    b = chebyshev_fit(heat(5.0), 5, 5.0)
    with pytest.raises(ValueError, match="interval"):
        apply_poly_bank([a, b], lap, np.ones(5))


def test_interval_mismatch_raises():
    lap = build_laplacian(path_graph(5), kind="combinatorial")
    small = chebyshev_fit(heat(2.0), 10, 2.0)  # interval below the bound
    with pytest.raises(ValueError, match="interval"):
        apply_poly_filter(small, lap, np.ones(5))


def test_wider_interval_is_accepted():
    lap = build_laplacian(path_graph(5), kind="combinatorial")
    wide = chebyshev_fit(heat(10.0), 10, 10.0)
    out = apply_poly_filter(wide, lap, np.ones(5))
    assert np.all(np.isfinite(out))


def test_analysis_error_tracks_sup_error():
    g = sensor_graph(60, seed=8)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    lb = lap.lambda_max_bound
    rng = np.random.default_rng(9)
    f = rng.standard_normal(g.n)
    kernel = heat(lb, 5.0)
    for degree in (5, 10, 20, 40):
        p = chebyshev_fit(kernel, degree, lb)
        fast = apply_poly_filter(p, lap, f)
        exact = eig.vectors @ (kernel(eig.values) * eig.fourier(f))
        err = np.linalg.norm(fast - exact)
        assert err <= sup_error(p, kernel) * np.linalg.norm(f) + 1e-12
