"""Filter bank designs: partition identities, adaptation, and supports."""

import numpy as np
import pytest

from lsgf.filters import (Kernel, Warping, effective_support,
                          make_adapted_translates, make_dct_bands,
                          make_ideal_partition, make_log_warped_translates,
                          make_sgwt, make_uniform_translates,
                          shift_edges_to_sparse_regions)
from lsgf.generators import clique_chain_graph, cycle_graph, sensor_graph
from lsgf.graphs import build_laplacian, eigendecompose
from lsgf.spectrum import estimate_spectral_cdf, exact_spectral_cdf

LB = 9.0
GRID = np.linspace(0.0, LB, 3001)


@pytest.mark.parametrize("prototype", ["hann", "itersine", "meyer"])
@pytest.mark.parametrize("n_kernels", [2, 4, 6, 9])
def test_translates_partition_unity(prototype, n_kernels):
    bank = make_uniform_translates(LB, n_kernels, prototype)
    g2 = bank.squared_sum(GRID)
    assert np.abs(g2 - 1.0).max() < 5e-15


@pytest.mark.parametrize("n_bands", [1, 3, 6])
def test_dct_partition_unity(n_bands):
    bank = make_dct_bands(LB, n_bands)
    assert np.abs(bank.squared_sum(GRID) - 1.0).max() < 5e-15


def test_ideal_partition_unity_and_disjoint():
    bank = make_ideal_partition(LB, 5)
    vals = bank.evaluate(GRID)
    assert np.array_equal(vals.sum(axis=0), np.ones(GRID.size))
    assert set(np.unique(vals)) == {0.0, 1.0}
    # half-open bands: interior edges belong to the right band
    edge = LB / 5
    at_edge = bank.evaluate(np.array([edge]))[:, 0]
    assert at_edge[0] == 0.0 and at_edge[1] == 1.0
    # the last band closes at the top
    assert bank.evaluate(np.array([LB]))[-1, 0] == 1.0


def test_octave_edges():
    bank = make_ideal_partition(4.0, 3, spacing="octave")
    spans = [(k.params["a"], k.params["b"]) for k in bank.kernels]
    assert spans == [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]


def test_uniform_edges():
    bank = make_ideal_partition(6.0, 3)
    spans = [(k.params["a"], k.params["b"]) for k in bank.kernels]
    assert spans == [(0.0, 2.0), (2.0, 4.0), (4.0, 6.0)]


def test_cdf_quantile_edges_on_cycle4():
    # eigenvalues 0, 2, 2, 4: the median quantile edge lands on the
    # repeated eigenvalue, so the two bands hold 1 and 3 of them
    lap = build_laplacian(cycle_graph(4), kind="combinatorial")
    eig = eigendecompose(lap)
    cdf = exact_spectral_cdf(eig)
    bank = make_ideal_partition(cdf.lambda_bar, 2, cdf=cdf)
    edge = bank.kernels[0].params["b"]
    assert edge == pytest.approx(2.0)
    counts = (bank.evaluate(eig.values) > 0.5).sum(axis=1)
    assert counts.tolist() == [1, 3]


def test_cdf_edges_balance_counts():
    g = sensor_graph(40, seed=7)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    cdf = exact_spectral_cdf(eig, lambda_bar=lap.lambda_max_bound)
    bank = make_ideal_partition(cdf.lambda_bar, 4, cdf=cdf)
    counts = (bank.evaluate(eig.values) > 0.5).sum(axis=1)
    assert counts.sum() == 40
    assert counts.max() - counts.min() <= 2


def test_degenerate_cdf_edges_raise():
    # a two-atom spectrum cannot support four count-balanced bands
    lap = build_laplacian(cycle_graph(4), kind="combinatorial")
    cdf = exact_spectral_cdf(eigendecompose(lap))
    with pytest.raises(ValueError, match="degenerate"):
        make_ideal_partition(cdf.lambda_bar, 4, cdf=cdf)


def test_translate_geometry():
    bank = make_uniform_translates(LB, 4, "hann")
    step = LB / 3
    for j, k in enumerate(bank.kernels):
        assert k.params["center"] == pytest.approx(j * step)
        assert k.params["halfwidth"] == pytest.approx(step)
        # support spans two steps around the center
        lo = max(0.0, (j - 1) * step)
        hi = min(LB, (j + 1) * step)
        vals = np.asarray(k(GRID))
        outside = (GRID < lo - 1e-9) | (GRID > hi + 1e-9)
        assert np.abs(vals[outside]).max() == 0.0
    assert bank.scaling_indices() == [0]


def test_log_warp_endpoints_and_small_limit():
    w = Warping("log", LB, nu=10.0)
    assert w(0.0) == 0.0
    assert w(LB) == pytest.approx(LB)
    xs = np.linspace(0, LB, 200)
    assert np.all(np.diff(w(xs)) >= 0)
    # nu -> 0 collapses to the identity
    tiny = Warping("log", LB, nu=1e-8)
    assert np.abs(tiny(xs) - xs).max() <= 1e-6


def test_warped_translates_stay_tight():
    lap = build_laplacian(sensor_graph(50, seed=2), kind="combinatorial")
    cdf = estimate_spectral_cdf(lap, seed=0)
    lb = lap.lambda_max_bound
    grid = np.linspace(0, lb, 2001)
    banks = [
        make_log_warped_translates(lb, 5, "hann", nu=20.0),
        make_adapted_translates(lb, 5, cdf, "itersine"),
        make_adapted_translates(lb, 5, cdf, "meyer", wavelet=True),
    ]
    for bank in banks:
        assert np.abs(bank.squared_sum(grid) - 1.0).max() < 1e-12


def test_adapted_translates_balance_counts():
    g = sensor_graph(60, seed=9)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    cdf = exact_spectral_cdf(eig, lambda_bar=lap.lambda_max_bound)
    bank = make_adapted_translates(lap.lambda_max_bound, 5, cdf)
    # each eigenvalue's dominant band; counts should be roughly even,
    # which fails badly for unwarped translates on this skewed spectrum
    vals = bank.evaluate(eig.values) ** 2
    dom = np.bincount(np.argmax(vals, axis=0), minlength=5)
    plain = make_uniform_translates(lap.lambda_max_bound, 5)
    vals_p = plain.evaluate(eig.values) ** 2
    dom_p = np.bincount(np.argmax(vals_p, axis=0), minlength=5)
    assert dom.max() - dom.min() < dom_p.max() - dom_p.min()
    assert dom.max() <= 25


def test_energy_adaptation_flag_conflicts():
    lap = build_laplacian(cycle_graph(6), kind="combinatorial")
    cdf = exact_spectral_cdf(eigendecompose(lap))
    with pytest.raises(ValueError, match="without the log"):
        make_adapted_translates(4.0, 3, cdf, wavelet=True, energy=True)


def test_sgwt_structure():
    bank = make_sgwt(LB, 5)
    assert bank.design == "sgwt"
    assert bank.n_kernels == 5
    assert bank.scaling_indices() == [0]
    for k in bank.kernels[1:]:
        assert float(k(0.0)) == 0.0
    g2 = bank.squared_sum(GRID[1:])  # skip 0 where only scaling acts
    assert g2.min() > 0.3
    assert g2.max() < 2.5
    # not a tight design
    assert g2.max() - g2.min() > 0.1


def test_sgwt_scales_decrease():
    bank = make_sgwt(LB, 6, k_scale=20.0)
    scales = [k.params["scale"] for k in bank.kernels[1:]]
    assert scales[0] == pytest.approx(2.0 * 20.0 / LB)
    assert scales[-1] == pytest.approx(1.0 / LB)
    assert np.all(np.diff(scales) < 0)


def test_shift_edges_finds_spectral_gap():
    # two clique sizes create eigenvalue clumps with a wide gap between
    g = clique_chain_graph([8, 8, 8, 8])
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    cdf = estimate_spectral_cdf(lap, n_probes=20, kpm_degree=50, n_grid=80,
                                seed=0)
    bank = make_ideal_partition(lap.lambda_max_bound, 3, cdf=cdf)
    shifted = shift_edges_to_sparse_regions(bank, cdf)
    assert shifted.design.endswith("_shifted")
    for before, after in zip(bank.kernels[:-1], shifted.kernels[:-1]):
        b0, b1 = before.params["b"], after.params["b"]
        assert cdf.density(b1) <= cdf.density(b0) + 1e-12
    # still a disjoint cover
    vals = shifted.evaluate(np.linspace(0, lap.lambda_max_bound, 500))
    assert np.array_equal(vals.sum(axis=0), np.ones(500))


def test_shift_edges_rejects_non_ideal():
    bank = make_uniform_translates(LB, 3)
    lap = build_laplacian(cycle_graph(6), kind="combinatorial")
    cdf = exact_spectral_cdf(eigendecompose(lap), lambda_bar=LB)
    with pytest.raises(ValueError, match="ideal"):
        shift_edges_to_sparse_regions(bank, cdf)


def test_effective_support_ideal_band():
    bank = make_ideal_partition(LB, 3)
    lo, hi = effective_support(bank.kernels[1])
    assert lo == pytest.approx(3.0, abs=LB / 2000)
    assert hi == pytest.approx(6.0, abs=LB / 2000)


def test_effective_support_translate():
    bank = make_uniform_translates(LB, 4, "hann")
    k = bank.kernels[1]
    lo, hi = effective_support(k)
    c, hw = k.params["center"], k.params["halfwidth"]
    # half-power points of the cosine lobe: cos(pi x)^2 = 1/2 at x = 1/4
    assert lo == pytest.approx(c - hw / 2, abs=LB / 1000)
    assert hi == pytest.approx(c + hw / 2, abs=LB / 1000)


def test_warping_validation():
    with pytest.raises(ValueError, match="unknown warping"):
        Warping("bogus", LB)
    with pytest.raises(ValueError, match="needs a CDF"):
        Warping("spectrum_cdf", LB)
    for nu in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            Warping("log", LB, nu=nu)


def test_kernel_unknown_family():
    k = Kernel("nope", LB)
    with pytest.raises(ValueError, match="unknown kernel family"):
        k(np.array([1.0]))


def test_kernel_clamps_arguments():
    bank = make_uniform_translates(LB, 3, "itersine")
    top = bank.kernels[-1]
    assert float(top(LB + 5.0)) == float(top(LB)) == 1.0
    first = bank.kernels[0]
    assert float(first(-3.0)) == float(first(0.0)) == 1.0


def test_squared_sum_matches_evaluate():
    bank = make_sgwt(LB, 4)
    lam = np.linspace(0, LB, 57)
    assert np.allclose(bank.squared_sum(lam),
                       (bank.evaluate(lam) ** 2).sum(axis=0))
