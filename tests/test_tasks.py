"""Risk-estimate denoising and sparse-approximation compression."""

import numpy as np
import pytest

from lsgf import tasks
from lsgf.filters import make_uniform_translates
from lsgf.frames import analysis, atom_norms_exact, dictionary_exact, \
    dictionary_poly
from lsgf.generators import path_graph, sensor_graph
from lsgf.graphs import build_laplacian, eigendecompose
from lsgf.tasks import (DELTA_SNR_CAP_DB, DenoiseConfig, add_noise,
                        compress_hard_threshold, compress_omp, denoise,
                        flat_index_to_atom, metrics, omp, soft_threshold,
                        sure_threshold_band, sure_thresholds)


def _sure_objective(alpha, norms, sigma, t):
    """Risk estimate evaluated from above the breakpoint at t.

    A coefficient sitting exactly at the threshold counts as killed; the
    relative nudge keeps that convention stable when t is itself one of
    the breakpoints |alpha| / (sigma n).
    """
    b = np.abs(alpha) / (sigma * norms)
    surv = b > t * (1.0 + 1e-12)
    n2 = norms ** 2
    return (float((alpha ** 2)[~surv].sum())
            + sigma ** 2 * (t ** 2 + 2.0) * float(n2[surv].sum()))


def test_metrics_basic():
    clean = np.array([1.0, 2.0, -1.0])
    m = metrics(clean, clean * 0.9)
    assert m.nmse == pytest.approx(0.01 * 6 / 6)
    assert m.delta_snr_db is None
    noisy = clean + np.array([0.3, -0.3, 0.3])
    est = clean + np.array([0.1, -0.1, 0.1])
    m = metrics(clean, est, noisy)
    assert m.delta_snr_db == pytest.approx(10 * np.log10(9.0))


def test_metrics_caps_and_guards():
    clean = np.array([1.0, 2.0])
    noisy = clean + 0.1
    assert metrics(clean, clean, noisy).delta_snr_db == DELTA_SNR_CAP_DB
    assert metrics(clean, clean + 1.0, clean).delta_snr_db == \
        -DELTA_SNR_CAP_DB
    assert metrics(clean, clean, clean).delta_snr_db == DELTA_SNR_CAP_DB
    with pytest.raises(ValueError, match="identically zero"):
        metrics(np.zeros(3), np.ones(3))


def test_sure_single_coefficient_keep_boundary():
    # a lone coefficient survives iff alpha^2 > 2 sigma^2 n^2, i.e. its
    # normalized magnitude exceeds sqrt(2)
    assert sure_threshold_band([1.42], [1.0], 1.0) == 0.0
    assert sure_threshold_band([1.40], [1.0], 1.0) == pytest.approx(1.40)
    # ties prefer the smaller threshold, so the exact boundary keeps
    b = np.sqrt(2.0)
    assert sure_threshold_band([b], [1.0], 1.0) == 0.0


def test_sure_scan_beats_dense_grid():
    rng = np.random.default_rng(5)
    for _ in range(20):
        size = int(rng.integers(1, 25))
        alpha = 2.0 * rng.standard_normal(size)
        norms = rng.uniform(0.3, 2.0, size)
        sigma = float(rng.uniform(0.2, 1.5))
        t_star = sure_threshold_band(alpha, norms, sigma)
        best = _sure_objective(alpha, norms, sigma, t_star)
        b = np.abs(alpha) / (sigma * norms)
        grid = np.linspace(0.0, b.max() * 1.2, 1501)
        vals = [_sure_objective(alpha, norms, sigma, t) for t in grid]
        assert best <= min(vals) + 1e-9


def test_sure_threshold_is_invariant_to_a_power_of_two_scale():
    # the risk is scored in units of sigma^2, so scaling coefficients and
    # noise level by 2^k changes no rounding, even at 2^511, just below
    # SIGMA_MAX, where the squared coefficients themselves would overflow
    rng = np.random.default_rng(7)
    alpha = 2.0 * rng.standard_normal(40)
    norms = rng.uniform(0.3, 2.0, 40)
    want = sure_threshold_band(alpha, norms, 1.0)
    assert want > 0
    for k in (-500, 0, 300, 511):
        scale = 2.0 ** k
        assert sure_threshold_band(alpha * scale, norms, scale) == want


def test_sure_objective_estimates_risk_unbiasedly():
    # averaged over noise draws, the scanned objective matches the true
    # shrinkage risk plus the constant coefficient noise energy
    a0 = np.array([2.0, -1.5, 0.8, 0.3, 0.0, 4.0, -0.6, 1.1])
    nn = np.array([1.0, 0.5, 2.0, 1.0, 1.5, 0.8, 1.2, 1.0])
    sigma = 0.5
    rng = np.random.default_rng(11)
    eps = rng.standard_normal((4000, a0.size))
    alpha = a0 + sigma * nn * eps
    for t in (0.4, 1.0, 2.2):
        cut = t * sigma * nn
        shrunk = np.sign(alpha) * np.maximum(0.0, np.abs(alpha) - cut)
        risk = np.mean(np.sum((shrunk - a0) ** 2, axis=1))
        obj = np.mean([_sure_objective(a, nn, sigma, t) for a in alpha])
        target = risk + sigma ** 2 * np.sum(nn ** 2)
        assert abs(obj - target) / target < 0.03


def test_sure_candidate_restriction_and_validation():
    alpha = np.array([3.0, 0.2, 1.7])
    norms = np.ones(3)
    got = sure_threshold_band(alpha, norms, 1.0, candidates=[0.5, 2.0])
    assert got in (0.5, 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        sure_threshold_band(alpha, norms, 1.0, candidates=[-1.0, 0.5])
    with pytest.raises(ValueError, match="align"):
        sure_threshold_band([1.0, 2.0], [1.0], 1.0)
    with pytest.raises(ValueError, match="positive"):
        sure_threshold_band([1.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="positive"):
        sure_threshold_band([1.0], [0.0], 1.0)
    assert sure_threshold_band([], [], 1.0) == 0.0


@pytest.fixture(scope="module")
def denoise_setup():
    g = sensor_graph(80, seed=4)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    bank = make_uniform_translates(lap.lambda_max_bound, 5, "itersine")
    d = dictionary_exact(lap, bank, eig)
    rng = np.random.default_rng(0)
    f = eig.vectors[:, :6] @ (rng.standard_normal(6)
                              * np.array([4, 3, 3, 2, 2, 1.0]))
    return g, lap, eig, bank, d, f


def test_sure_thresholds_scaling_band_exempt(denoise_setup):
    g, lap, eig, bank, d, f = denoise_setup
    assert bank.scaling_indices() == [0]
    noisy = add_noise(f, 0.5, seed=1)
    coeffs = analysis(d, noisy)
    norms = atom_norms_exact(d)
    thr = sure_thresholds(coeffs, norms, 0.5, scaling_bands=[0])
    assert thr[0] == 0.0
    free = sure_thresholds(coeffs, norms, 0.5)
    assert free[0] > 0.0
    assert np.array_equal(thr[1:], free[1:])


def test_sure_thresholds_skip_zero_norm_atoms():
    class Fake:
        n_bands = 2
        bands = [np.array([3.0, 0.1]), np.array([0.0, 0.0])]

    norms = [np.array([1.0, 1.0]), np.array([0.0, 0.0])]
    thr = sure_thresholds(Fake(), norms, 1.0)
    assert thr[1] == 0.0
    assert thr[0] == sure_threshold_band([3.0, 0.1], [1.0, 1.0], 1.0)
    # mixed band: the zero-norm coefficient is ignored, not fatal
    norms2 = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
    thr2 = sure_thresholds(Fake(), norms2, 1.0)
    assert thr2[0] == sure_threshold_band([3.0], [1.0], 1.0)


def test_soft_threshold_formula(denoise_setup):
    g, lap, eig, bank, d, f = denoise_setup
    coeffs = analysis(d, f)
    norms = atom_norms_exact(d)
    sigma = 0.7
    thr = np.array([0.0, 0.5, 1.5, 0.2, 3.0])
    out = soft_threshold(coeffs, norms, sigma, thr)
    for j in range(coeffs.n_bands):
        a = coeffs.bands[j]
        cut = thr[j] * sigma * norms[j]
        want = np.sign(a) * np.maximum(0.0, np.abs(a) - cut)
        assert np.allclose(out.bands[j], want, atol=1e-15)
    assert np.array_equal(out.bands[0], coeffs.bands[0])
    assert out.provenance == coeffs.provenance


def test_denoise_improves_snr_exact(denoise_setup):
    g, lap, eig, bank, d, f = denoise_setup
    sigma = 0.5 * float(np.sqrt(np.mean(f ** 2)))
    for seed in (0, 1, 2):
        noisy = add_noise(f, sigma, seed=seed)
        fhat, report = denoise(d, noisy, DenoiseConfig(sigma=sigma))
        m = metrics(f, fhat, noisy)
        assert m.delta_snr_db > 3.0
        assert report["thresholds"][0] == 0.0
        assert report["solver"].converged


def test_denoise_improves_snr_poly(denoise_setup):
    g, lap, eig, bank, d, f = denoise_setup
    dpoly = dictionary_poly(lap, bank, 40)
    sigma = 0.5 * float(np.sqrt(np.mean(f ** 2)))
    noisy = add_noise(f, sigma, seed=0)
    fhat, report = denoise(dpoly, noisy, DenoiseConfig(sigma=sigma))
    assert metrics(f, fhat, noisy).delta_snr_db > 3.0


def test_denoise_alternate_inverses(denoise_setup):
    g, lap, eig, bank, d, f = denoise_setup
    sigma = 0.5 * float(np.sqrt(np.mean(f ** 2)))
    noisy = add_noise(f, sigma, seed=0)
    for inverse in ("single_pass", "frame_iter"):
        fhat, report = denoise(d, noisy,
                               DenoiseConfig(sigma=sigma, inverse=inverse))
        assert metrics(f, fhat, noisy).delta_snr_db > 3.0
        assert report["solver"] is None
    with pytest.raises(ValueError, match="unknown inverse"):
        denoise(d, noisy, DenoiseConfig(sigma=sigma, inverse="nope"))


def test_add_noise_deterministic():
    f = np.ones(5)
    a = add_noise(f, 0.3, seed=9)
    assert np.array_equal(a, add_noise(f, 0.3, seed=9))
    assert not np.array_equal(a, add_noise(f, 0.3, seed=10))
    big = add_noise(np.zeros(20000), 2.0, seed=0)
    assert abs(big.std() - 2.0) < 0.05


def test_omp_recovers_sparse_combination():
    rng = np.random.default_rng(7)
    atoms = rng.standard_normal((40, 60))
    x = np.zeros(60)
    x[[5, 17, 33]] = [3.0, -2.0, 1.5]
    f = atoms @ x
    r = omp(atoms, f, 3)
    assert sorted(r.indices.tolist()) == [5, 17, 33]
    assert r.residual_norms[-1] < 1e-10
    assert r.nmse_path[-1] < 1e-12
    assert np.all(np.diff(r.nmse_path) <= 1e-15)
    assert np.allclose(r.reconstruction,
                       atoms[:, r.indices] @ r.coefficients)
    # coefficients are stated against the unnormalized columns
    assert np.allclose(np.sort(np.abs(r.coefficients)), [1.5, 2.0, 3.0])


def test_omp_path_monotone_dense_signal():
    rng = np.random.default_rng(2)
    atoms = rng.standard_normal((30, 50))
    f = rng.standard_normal(30)
    r = omp(atoms, f, 12)
    assert np.all(np.diff(r.residual_norms) <= 1e-12)
    assert r.nmse_path.size == 12


def test_omp_skips_zero_atoms_and_validates():
    rng = np.random.default_rng(3)
    atoms = rng.standard_normal((20, 8))
    atoms[:, 4] = 0.0
    f = rng.standard_normal(20)
    r = omp(atoms, f, 7)
    assert 4 not in r.indices
    with pytest.raises(ValueError, match="nonzero atoms"):
        omp(atoms, f, 8)
    with pytest.raises(ValueError, match="nonzero atoms"):
        omp(atoms, f, 0)
    with pytest.raises(ValueError, match="length"):
        omp(atoms, f[:-1], 2)


def test_omp_tie_breaks_to_lowest_index():
    a = np.array([1.0, 2.0, 0.5])
    atoms = np.stack([a, a, np.array([0.0, 1.0, -1.0])], axis=1)
    r = omp(atoms, a, 1)
    assert r.indices.tolist() == [0]


@pytest.fixture(scope="module")
def small_dict():
    g = path_graph(10)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    bank = make_uniform_translates(lap.lambda_max_bound, 3, "itersine")
    centers = [np.array([2, 5]), np.array([1, 3, 4]), np.array([0, 7])]
    d = dictionary_exact(lap, bank, eig, centers=centers)
    return d


def test_flat_index_to_atom(small_dict):
    d = small_dict
    want = [(0, 2), (0, 5), (1, 1), (1, 3), (1, 4), (2, 0), (2, 7)]
    assert [flat_index_to_atom(d, i) for i in range(7)] == want
    # a negative index counted from the end would name a real atom
    for flat in (7, -1, -7):
        with pytest.raises(IndexError):
            flat_index_to_atom(d, flat)


def test_compress_omp_reports_band_vertex_pairs(denoise_setup):
    g, lap, eig, bank, d, f = denoise_setup
    result, pairs = compress_omp(d, f, 10)
    assert len(pairs) == 10
    assert np.all(np.diff(result.nmse_path) <= 1e-12)
    for flat, (band, vertex) in zip(result.indices, pairs):
        assert flat_index_to_atom(d, int(flat)) == (band, vertex)
        assert 0 <= band < d.n_bands
        assert 0 <= vertex < g.n


def test_compress_hard_threshold_top_k(denoise_setup):
    g, lap, eig, bank, d, f = denoise_setup
    coeffs = analysis(d, f)
    norms = atom_norms_exact(d)
    # mirror the zero-norm guard: unsupported bands score zero
    parts = []
    for j in range(d.n_bands):
        nj = norms[j]
        ok = nj > 1e-14
        parts.append(np.where(ok, np.abs(coeffs.bands[j])
                              / np.where(ok, nj, 1.0), 0.0))
    scores = np.concatenate(parts)
    k = 30
    cutoff = np.sort(scores)[-k]
    fhat, kept, info = compress_hard_threshold(d, f, k)
    flat_kept = np.concatenate([np.abs(b) > 0 for b in kept.bands])
    assert flat_kept.sum() == k
    assert np.all(scores[flat_kept] >= cutoff - 1e-12)
    # kept entries are the untouched analysis coefficients
    for j in range(d.n_bands):
        nz = kept.bands[j] != 0
        assert np.array_equal(kept.bands[j][nz], coeffs.bands[j][nz])
    assert info.converged


def test_compress_hard_threshold_full_budget_is_lossless(denoise_setup):
    g, lap, eig, bank, d, f = denoise_setup
    fhat, kept, info = compress_hard_threshold(d, f, d.n_atoms)
    assert np.linalg.norm(fhat - f) < 1e-9 * np.linalg.norm(f)
    with pytest.raises(ValueError, match="atom count"):
        compress_hard_threshold(d, f, d.n_atoms + 1)
    with pytest.raises(ValueError, match="atom count"):
        compress_hard_threshold(d, f, 0)


def test_hard_threshold_curve_shares_analysis_and_norms(denoise_setup,
                                                        monkeypatch):
    # one analysis and one set of probe norms for the whole curve, and each
    # budget's result equal to the single-budget call bit for bit
    g, lap, eig, bank, _, f = denoise_setup
    d = dictionary_poly(lap, bank, 30)
    budgets = [10, 30, 60]
    single = [compress_hard_threshold(d, f, t) for t in budgets]
    calls = []
    for name in ("analysis", "_atom_norms"):
        fn = getattr(tasks, name)
        monkeypatch.setattr(tasks, name, lambda *a, fn=fn, name=name, **k:
                            calls.append(name) or fn(*a, **k))
    curve = tasks._hard_threshold_curve(d, f, budgets)
    assert sorted(calls) == ["_atom_norms", "analysis"]
    for (fa, ka, ia), (fb, kb, ib) in zip(curve, single):
        assert np.array_equal(fa, fb)
        assert all(np.array_equal(a, b) for a, b in zip(ka.bands, kb.bands))
        assert ia == ib
    with pytest.raises(ValueError, match="atom count"):
        tasks._hard_threshold_curve(d, f, [10, d.n_atoms + 1])
