"""Center selection, sample allocation and subsampled band recovery."""

import numpy as np
import pytest
import scipy.linalg

from lsgf.chebyshev import apply_poly_filter, chebyshev_fit
from lsgf.filters import (FilterBank, Kernel, make_ideal_partition,
                          make_sgwt, make_uniform_translates)
from lsgf.frames import dictionary_exact, dictionary_poly
from lsgf.generators import cycle_graph, grid_graph, path_graph, sensor_graph
from lsgf.graphs import build_laplacian, eigendecompose
from lsgf.sampling import (allocate_samples, band_reconstruct,
                           default_band_penalty, draw_centers,
                           greedy_centers, nonuniform_weights,
                           signal_adapted_weights, uniform_weights,
                           uniqueness_partition)
from lsgf.spectrum import exact_spectral_cdf


@pytest.fixture(scope="module")
def setup():
    g = sensor_graph(70, seed=13)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    bank = make_uniform_translates(lap.lambda_max_bound, 4, "itersine")
    dp = dictionary_poly(lap, bank, 30)
    return g, lap, eig, bank, dp


def test_nonuniform_weights_are_distributions(setup):
    g, lap, eig, bank, dp = setup
    w = nonuniform_weights(dp, n_probes=8, seed=0)
    assert w.shape == (4, g.n)
    assert np.all(w >= 0)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(w, nonuniform_weights(dp, n_probes=8, seed=0))
    assert not np.array_equal(w, nonuniform_weights(dp, n_probes=8, seed=1))


def test_weights_need_a_probe(setup):
    # checked before the probe mean divides by n_probes
    g, lap, eig, bank, dp = setup
    for n in (0, -2):
        with pytest.raises(ValueError, match="n_probes must be at least 1"):
            nonuniform_weights(dp, n_probes=n)


def test_weights_require_poly_mode(setup):
    g, lap, eig, bank, dp = setup
    de = dictionary_exact(lap, bank, eig)
    with pytest.raises(ValueError, match="polynomial mode"):
        nonuniform_weights(de)


def test_weights_track_band_energy(setup):
    # high-frequency atoms concentrate on heavy vertices, so the top band's
    # weights should correlate with degree
    g, lap, eig, bank, dp = setup
    w = nonuniform_weights(dp, n_probes=20, seed=2)
    corr = np.corrcoef(g.degrees(), w[-1])[0, 1]
    assert corr > 0.3


def test_signal_adapted_weights_boost_support(setup):
    g, lap, eig, bank, dp = setup
    f = np.zeros(g.n)
    f[10] = 5.0  # sharply localized signal
    w = signal_adapted_weights(dp, f, n_probes=8, seed=0)
    base = nonuniform_weights(dp, n_probes=8, seed=0)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    near = g.hop_distances(10) <= 2
    for j in range(4):
        assert w[j][near].sum() > base[j][near].sum() + 0.3


def test_uniform_weights_shape():
    w = uniform_weights(3, 10)
    assert w.shape == (3, 10)
    assert np.allclose(w, 0.1)


def test_draw_centers_deterministic(setup):
    g, lap, eig, bank, dp = setup
    w = nonuniform_weights(dp, n_probes=8, seed=0)
    counts = np.array([5, 3, 4, 2])
    a = draw_centers(w, counts, seed=7)
    b = draw_centers(w, counts, seed=7)
    for j in range(4):
        assert np.array_equal(a.sets[j], b.sets[j])
        assert a.sets[j].size == counts[j]
        assert np.all(np.diff(a.sets[j]) > 0)  # ascending, no repeats
        # stored weights are the originals at the chosen vertices
        assert np.allclose(a.weights[j], w[j][a.sets[j]], atol=1e-15)
    assert a.total == counts.sum()
    assert a.n_bands == 4
    c = draw_centers(w, counts, seed=8)
    assert any(not np.array_equal(a.sets[j], c.sets[j]) for j in range(4))


def test_draw_centers_support_guard():
    w = np.array([[0.5, 0.5, 0.0, 0.0]])
    got = draw_centers(w, np.array([2]), seed=0)
    assert np.array_equal(got.sets[0], [0, 1])
    with pytest.raises(ValueError, match="positive weight"):
        draw_centers(w, np.array([3]), seed=0)
    # a negative count is refused, not read as a slice from the end
    with pytest.raises(ValueError, match="nonnegative"):
        draw_centers(w, np.array([-1]), seed=0)


def test_draw_centers_match_successive_sampling_probabilities():
    # two draws without replacement from four unequal weights: pair {i, k}
    # comes up with probability w_i w_k / (1 - w_i) + w_k w_i / (1 - w_k),
    # vertex i with w_i + sum_k w_k w_i / (1 - w_k); 20000 draws put one
    # standard error below 0.0036, so 0.015 is over four of them
    w = np.array([0.1, 0.2, 0.3, 0.4])
    rows = 10
    pair_hits = np.zeros((4, 4))
    n_draws = 0
    for seed in range(2000):
        cs = draw_centers(np.tile(w, (rows, 1)), np.full(rows, 2), seed=seed)
        for i, k in cs.sets:
            pair_hits[i, k] += 1
        n_draws += rows
    for i in range(4):
        for k in range(i + 1, 4):
            expect = w[i] * w[k] / (1 - w[i]) + w[k] * w[i] / (1 - w[k])
            assert abs(pair_hits[i, k] / n_draws - expect) < 0.015, (i, k)
    inclusion = (pair_hits + pair_hits.T).sum(axis=1) / n_draws
    expect = w + w * ((w / (1 - w)).sum() - w / (1 - w))
    assert np.allclose(expect.sum(), 2.0)
    assert np.max(np.abs(inclusion - expect)) < 0.015


def test_draw_centers_never_draw_zero_weight_vertices():
    w = np.zeros((1, 40))
    live = np.array([3, 7, 8, 21, 30, 39])
    w[0, live] = [1e-300, 5.0, 0.5, 2.0, 1e-9, 3.0]
    for seed in range(200):
        got = draw_centers(w, np.array([4]), seed=seed).sets[0]
        assert np.all(np.isin(got, live))
        full = draw_centers(w, np.array([live.size]), seed=seed)
        assert np.array_equal(full.sets[0], live)
    empty = draw_centers(w, np.array([0]), seed=0)
    assert empty.sets[0].size == 0 and empty.weights[0].size == 0


def test_greedy_centers_path_oracle():
    # on a 9-path every heat atom has l1 mass p(0), since 1' p(L) = p(0) 1'
    # and the atoms are nonnegative: the first pick is the lowest vertex of
    # an exact tie.  Vertex 0's atom passes 1% of its peak only at vertices
    # 1-4, so 5 is the lowest vertex left undamped, and after 5 vertex 8
    # keeps the most mass
    lap = build_laplacian(path_graph(9), kind="combinatorial")
    lb = lap.lambda_max_bound
    heat = FilterBank(kernels=(Kernel("diffusion", lb, {"tau": 1.0}),),
                      lambda_bar=lb, design="heat")
    d = dictionary_poly(lap, heat, 10)
    assert np.array_equal(d.approx[0].coeffs, chebyshev_fit(
        lambda x: np.exp(-x), 10, lb).coeffs)
    assert greedy_centers(d, [1]).sets[0].tolist() == [0]
    got = greedy_centers(d, [3])
    assert got.sets[0].tolist() == [0, 5, 8]
    assert got.weights[0].tolist() == [1.0, 1.0, 1.0]


def test_greedy_suppression_changes_selection(setup):
    # without suppression the best-scored vertices cluster; greedy picks a
    # different, more spread-out set
    g, lap, eig, bank, dp = setup
    got = greedy_centers(dp, [6, 1, 1, 1]).sets[0]
    assert got.size == 6 and np.unique(got).size == 6
    scores = np.empty(g.n)
    for i in range(g.n):
        e = np.zeros(g.n)
        e[i] = 1.0
        scores[i] = np.abs(apply_poly_filter(dp.approx[0], lap, e)).sum()
    plain = np.sort(np.argsort(scores)[-6:])
    assert not np.array_equal(got, plain)


def test_greedy_centers_never_repick_a_chosen_vertex():
    # here a chosen vertex is the peak of a later atom; damping its -inf
    # score by the factor 0 would give NaN, which argmax picks again
    lap = build_laplacian(sensor_graph(300, seed=0), kind="combinatorial")
    d = dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 4), 20)
    got = greedy_centers(d, [40, 40, 40, 40])
    assert all(s.size == 40 and np.unique(s).size == 40 for s in got.sets)


def test_greedy_count_guard(setup):
    g, lap, eig, bank, dp = setup
    for counts in ([0, 1, 1, 1], [1, 1, 1, g.n + 1]):
        with pytest.raises(ValueError, match="count"):
            greedy_centers(dp, counts)
    with pytest.raises(ValueError, match="one count per band"):
        greedy_centers(dp, [1, 1, 1])


def test_greedy_centers_in_a_band_without_spectrum():
    # an ideal band that holds no eigenvalue has only zero atoms: every
    # score ties at zero and nothing is damped, so the lowest vertices win
    lap = build_laplacian(path_graph(4), kind="combinatorial")
    d = dictionary_exact(lap, make_ideal_partition(lap.lambda_max_bound, 8),
                         eigendecompose(lap))
    empty = [j for j in range(8) if d.band_eig_indices(j).size == 0]
    assert empty
    got = greedy_centers(d, [2] * 8)
    assert all(got.sets[j].tolist() == [0, 1] for j in empty)


def test_greedy_first_pick_on_a_cycle_is_vertex_0():
    # every vertex of a cycle is alike, so all scores tie in every band and
    # the first pick is the lowest vertex, whatever the rounding
    lap = build_laplacian(cycle_graph(30), kind="combinatorial")
    d = dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 4), 20)
    assert [s.tolist() for s in greedy_centers(d, [1] * 4).sets] == [[0]] * 4


def _greedy_reference(atoms, scores, count, tie, prune_level=0.01):
    s = scores.copy()
    for _ in range(count):
        top = s.max()
        i = int(np.flatnonzero(s >= top - tie * abs(top))[0])
        s[i] = -np.inf
        atom = np.abs(atoms[:, i])
        mask = (atom > prune_level * atom.max()) & (s > -np.inf)
        s[mask] *= 1.0 - atom[mask] / atom.max()
    return np.flatnonzero(s == -np.inf).tolist()


@pytest.mark.parametrize("rows", [12, 20])
def test_greedy_picks_do_not_depend_on_summation_order(rows):
    # a grid's corners, edges and interior each score alike up to rounding;
    # sequential row sums and pairwise column sums of the same atoms round
    # differently, and plain argmax lets that pick the winner
    lap = build_laplacian(grid_graph(rows, rows), kind="combinatorial")
    d = dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 4), 20)
    n, eps = lap.n, np.finfo(np.float64).eps
    got = greedy_centers(d, [5] * 4)
    plain_differs = []
    for j, band in enumerate(np.split(np.abs(d.materialize()), 4, axis=1)):
        sequential = np.zeros(n)
        for row in band:
            sequential += row
        pairwise = np.ascontiguousarray(band.T).sum(axis=1)
        picks = [_greedy_reference(band, s, 5, n * eps)
                 for s in (sequential, pairwise)]
        assert picks == [got.sets[j].tolist()] * 2
        plain_differs.append(_greedy_reference(band, sequential, 5, 0.0)
                             != _greedy_reference(band, pairwise, 5, 0.0))
    assert any(plain_differs)


def test_allocate_cycle4_oracle():
    # eigenvalues 0, 2, 2, 4 against bands [0, 2) and [2, 4]: spectral
    # mass 1/4 and 3/4, so four samples split 1 and 3
    lap = build_laplacian(cycle_graph(4), kind="combinatorial")
    cdf = exact_spectral_cdf(eigendecompose(lap))
    bank = make_ideal_partition(cdf.lambda_bar, 2)
    assert allocate_samples(cdf, bank, 4).tolist() == [1, 3]
    assert allocate_samples(cdf, bank, 5).tolist() == [1, 4]


def test_allocate_minimum_one_per_band():
    lap = build_laplacian(cycle_graph(4), kind="combinatorial")
    cdf = exact_spectral_cdf(eigendecompose(lap))
    bank = make_ideal_partition(cdf.lambda_bar, 2)
    assert allocate_samples(cdf, bank, 2).tolist() == [1, 1]
    with pytest.raises(ValueError, match="budget"):
        allocate_samples(cdf, bank, 1)


def test_allocate_energy_multiplier():
    lap = build_laplacian(cycle_graph(4), kind="combinatorial")
    cdf = exact_spectral_cdf(eigendecompose(lap))
    bank = make_ideal_partition(cdf.lambda_bar, 2)
    # all training energy in the low band pulls samples toward it:
    # shares 1/4 * 2 = 1/2 versus 3/4 * 1 = 3/4
    counts = allocate_samples(cdf, bank, 10, band_energies=[1.0, 0.0])
    assert counts.tolist() == [4, 6]
    assert allocate_samples(cdf, bank, 10).tolist() == [3, 7]
    with pytest.raises(ValueError, match="nonnegative"):
        allocate_samples(cdf, bank, 10, band_energies=[-1.0, 1.0])


def test_allocate_remainder_tie_prefers_lower_band():
    # C6 splits its six eigenvalues 3 and 3, so an odd budget ties on the
    # remainders and the extra sample lands on the lower band
    lap = build_laplacian(cycle_graph(6), kind="combinatorial")
    cdf = exact_spectral_cdf(eigendecompose(lap))
    bank = make_ideal_partition(cdf.lambda_bar, 2)
    assert allocate_samples(cdf, bank, 7).tolist() == [4, 3]


def test_default_band_penalty_matches_definition(setup):
    g, lap, eig, bank, dp = setup
    p = dp.approx[1]
    phi = default_band_penalty(p)
    assert phi.degree == 2 * p.degree
    lam = np.linspace(0, p.lambda_bar, 2000)
    target = (1.0 - np.asarray(p(lam)) ** 2) ** 2
    assert np.abs(np.asarray(phi(lam)) - target).max() < 1e-5
    phi3 = default_band_penalty(p, fit_degree=90)
    assert phi3.degree == 90


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 4 * (35 - 84 * t + 70 * t ** 2 - 20 * t ** 3)


def test_band_reconstruct_recovers_bandlimited():
    # a band-limited signal sampled on a uniqueness set comes back through
    # the penalized solve; the normalized Laplacian keeps the fit interval
    # tight so a smooth ramp through a spectral gap annihilates the band
    g = sensor_graph(50, seed=17)
    lap = build_laplacian(g, kind="normalized")
    eig = eigendecompose(lap)
    vals = eig.values
    k = 8 + int(np.argmax(np.diff(vals)[8:20]))
    a, b = vals[k], vals[k + 1]
    lo, hi = a + 0.3 * (b - a), b - 0.3 * (b - a)
    phi = chebyshev_fit(lambda lam: _smoothstep((lam - lo) / (hi - lo)),
                        200, lap.lambda_max_bound)
    rng = np.random.default_rng(3)
    z = eig.vectors[:, :k + 1] @ rng.standard_normal(k + 1)
    _, _, piv = scipy.linalg.qr(eig.vectors[:, :k + 1].T, pivoting=True,
                                mode="economic")
    rels = []
    for m in (k + 1, 2 * (k + 1)):
        verts = np.sort(piv[:m])
        omega = np.full(m, 1.0 / g.n)
        zr, info = band_reconstruct(lap, verts, omega, z[verts], phi,
                                    kappa=1e6, tol=1e-12, max_iter=6000)
        assert info.converged and info.n_iter > 0
        rels.append(np.linalg.norm(zr - z) / np.linalg.norm(z))
        # the data term pins the sampled values almost exactly
        assert np.abs(zr[verts] - z[verts]).max() < 1e-8 * np.abs(z).max()
    assert rels[0] < 0.02  # critically sampled
    assert rels[1] < 0.02  # oversampled


def test_band_reconstruct_validation():
    lap = build_laplacian(path_graph(6), kind="combinatorial")
    p = chebyshev_fit(lambda x: np.exp(-x), 8, lap.lambda_max_bound)
    phi = default_band_penalty(p)
    with pytest.raises(ValueError, match="align"):
        band_reconstruct(lap, [0, 1], [1.0], [1.0, 2.0], phi)
    with pytest.raises(ValueError, match="positive"):
        band_reconstruct(lap, [0], [0.0], [1.0], phi)
    z, info = band_reconstruct(lap, [0], [1.0], [0.0], phi)
    assert np.array_equal(z, np.zeros(6)) and info.converged


def test_uniqueness_partition_is_basis():
    for seed in (0, 1, 2):
        g = sensor_graph(40, seed=seed)
        lap = build_laplacian(g, kind="combinatorial")
        eig = eigendecompose(lap)
        # top the partition at the exact spectrum so every band is occupied
        bank = make_ideal_partition(float(eig.values[-1]), 3)
        sets = uniqueness_partition(eig, bank)
        allv = np.concatenate(sets.sets)
        assert np.array_equal(np.sort(allv), np.arange(g.n))
        d = dictionary_exact(lap, bank, eig, centers=sets.sets)
        for j in range(3):
            assert sets.sets[j].size == d.band_eig_indices(j).size
            assert sets.sets[j].size > 0
            assert np.allclose(sets.weights[j], 1.0)
        mat = d.materialize()
        assert mat.shape == (g.n, g.n)
        assert np.linalg.cond(mat) < 100
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(g.n)
        coef = np.linalg.solve(mat, f)
        assert np.linalg.norm(mat @ coef - f) < 1e-8 * np.linalg.norm(f)


def test_uniqueness_partition_rejects_overlapping_bank():
    g = sensor_graph(30, seed=5)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    bank = make_uniform_translates(lap.lambda_max_bound, 3, "itersine")
    with pytest.raises(ValueError, match="exactly once"):
        uniqueness_partition(eig, bank)
