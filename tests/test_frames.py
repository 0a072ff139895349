"""Dictionaries, frame bounds and the three inverse transforms."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsgf import _kernels
from lsgf.chebyshev import poly_atom
from lsgf.filters import (Kernel, FilterBank, make_adapted_translates,
                          make_ideal_partition, make_log_warped_translates,
                          make_sgwt, make_uniform_translates)
from lsgf.frames import (Coefficients, Dictionary, analysis,
                         atom_norm_estimate, atom_norms_exact,
                         cumulative_coherence,
                         dictionary_exact, dictionary_poly, frame_bounds,
                         inverse_cg, inverse_frame_iteration,
                         inverse_single_pass, single_pass_error_bound,
                         solve_cg, synthesis)
from lsgf.generators import clique_chain_graph, path_graph, sensor_graph
from lsgf.graphs import build_laplacian, eigendecompose
from lsgf.sampling import greedy_centers
from lsgf.spectrum import SpectralCDF
from lsgf.tasks import flat_index_to_atom


@pytest.fixture(scope="module")
def setup():
    g = sensor_graph(60, seed=11)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.n)
    return g, lap, eig, f


def test_parseval_roundtrip(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 5, "itersine")
    d = dictionary_exact(lap, bank, eig)
    c = analysis(d, f)
    assert abs(c.norm() - np.linalg.norm(f)) < 1e-10 * np.linalg.norm(f)
    fr = synthesis(d, c)
    assert np.linalg.norm(fr - f) < 1e-9 * np.linalg.norm(f)


def test_tight_frame_bounds(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 5, "itersine")
    d = dictionary_exact(lap, bank, eig)
    b = frame_bounds(d, basis="exact_sigma")
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-12)
    assert b.ratio == pytest.approx(1.0, abs=1e-12)


def test_frame_bounds_match_direct_extremes(setup):
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 5)
    d = dictionary_exact(lap, bank, eig)
    b = frame_bounds(d, basis="exact_sigma")
    g2 = bank.squared_sum(eig.values)
    assert b.lower == pytest.approx(g2.min())
    assert b.upper == pytest.approx(g2.max())
    # grid basis covers the whole interval, so it can only widen the range
    bg = frame_bounds(d, basis="grid")
    assert bg.lower <= b.lower + 1e-12
    assert bg.upper >= b.upper - 1e-12
    with pytest.raises(ValueError, match="basis"):
        frame_bounds(d, basis="nope")


@pytest.mark.parametrize("design", ["sgwt", "itersine"])
def test_poly_grid_frame_bounds_are_certified(design):
    # on this graph a 2000-point grid alone gives B = 2.39092 for the SGWT
    # (true B = 2.39157) and A = 0.9781362 for itersine (true 0.9781356);
    # the roots of q' put the extremes of q among the points
    lap = build_laplacian(sensor_graph(2000, seed=0), kind="combinatorial")
    bank = make_sgwt(lap.lambda_max_bound, 6) if design == "sgwt" else \
        make_uniform_translates(lap.lambda_max_bound, 6, "itersine")
    d = dictionary_poly(lap, bank, 20)
    b = frame_bounds(d, basis="grid")
    q = d.frame_symbol()
    dense = q(np.linspace(0.0, q.lambda_bar, 2_000_001))
    coarse = q(np.linspace(0.0, q.lambda_bar, 2000))
    tol = 1e-14 * np.abs(q.coeffs).sum()
    assert dense.min() - 1e-9 <= b.lower <= dense.min() + tol
    assert dense.max() - tol <= b.upper <= dense.max() + 1e-9
    short = dense.max() - coarse.max() if design == "sgwt" \
        else coarse.min() - dense.min()
    assert short > 5e-7


def test_single_pass_error_within_bound(setup):
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 5)
    d = dictionary_exact(lap, bank, eig)
    b = frame_bounds(d, basis="exact_sigma")
    c = analysis(d, f)
    f1 = inverse_single_pass(d, c, b)
    rel = np.linalg.norm(f1 - f) / np.linalg.norm(f)
    assert rel <= single_pass_error_bound(b) + 1e-12
    assert rel > 1e-6  # sgwt is genuinely not tight


def test_frame_iteration_contraction(setup):
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 5)
    d = dictionary_exact(lap, bank, eig)
    b = frame_bounds(d, basis="exact_sigma")
    rho = (b.upper - b.lower) / (b.upper + b.lower)
    nf = np.linalg.norm(f)
    c = analysis(d, f)
    prev = None
    for t in (0, 1, 2, 4, 6):
        ft = inverse_frame_iteration(d, c, b, t)
        rel = np.linalg.norm(ft - f) / nf
        assert rel <= rho ** (t + 1) + 1e-9
        if prev is not None:
            assert rel <= prev + 1e-12
        prev = rel


def test_cg_inverse_accurate(setup):
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 5)
    for d in (dictionary_exact(lap, bank, eig),
              dictionary_poly(lap, bank, 50)):
        c = analysis(d, f)
        fr, info = inverse_cg(d, c)
        assert info.converged
        assert np.linalg.norm(fr - f) / np.linalg.norm(f) < 1e-8


def test_cg_on_spectrum_deficient_bank(setup):
    # a single band that ignores the top of the spectrum: reconstruction
    # recovers exactly the covered component, leaving the rest at zero
    g, lap, eig, f = setup
    cut = eig.values[40]  # split strictly inside the spectrum
    bank = FilterBank(
        kernels=(Kernel("ideal_band", lap.lambda_max_bound,
                        {"a": 0.0, "b": float(cut), "closed_right": False}),),
        lambda_bar=lap.lambda_max_bound, design="lowpass_only")
    d = dictionary_exact(lap, bank, eig)
    b = frame_bounds(d, basis="exact_sigma")
    assert b.lower == 0.0
    with pytest.raises(ValueError, match="not a frame"):
        b.ratio
    c = analysis(d, f)
    fr, info = inverse_cg(d, c)
    assert info.converged
    keep = eig.values < cut
    covered = eig.vectors[:, keep] @ (eig.fourier(f)[keep])
    assert np.linalg.norm(fr - covered) < 1e-8 * np.linalg.norm(f)
    missing = np.linalg.norm(f - covered)
    assert abs(np.linalg.norm(fr - f) - missing) < 1e-8 * np.linalg.norm(f)


def _random_coefficients(d, seed):
    rng = np.random.default_rng(seed)
    return Coefficients(bands=[rng.standard_normal(c.size)
                               for c in d.centers], centers=d.centers,
                        n=d.n)


@pytest.mark.parametrize("design", ["sgwt", "itersine"])
def test_preconditioned_cg_matches_dense_inverse(setup, design):
    # (Phi Phi*)^-1 Phi c from the materialized poly atoms, for arbitrary
    # coefficients (not in the range of the analysis)
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 5) if design == "sgwt" \
        else make_uniform_translates(lap.lambda_max_bound, 5, "itersine")
    d = dictionary_poly(lap, bank, 30)
    c = _random_coefficients(d, 1)
    atoms = d.materialize()
    flat = np.concatenate(c.bands)
    want = np.linalg.solve(atoms @ atoms.T, atoms @ flat)
    got, info = inverse_cg(d, c)
    assert info.converged
    assert info.precond_degree is not None and info.precond_eps < 1.0
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_dual_certificate_bounds_grid_error(setup):
    g, lap, eig, f = setup
    d = dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 5), 30)
    q = d.frame_symbol()
    grid = np.linspace(0.0, lap.lambda_max_bound, 20001)
    direct = sum(np.asarray(p(grid)) ** 2 for p in d.approx)
    assert q.degree == 60
    assert np.max(np.abs(q(grid) - direct)) <= 1e-13 * np.max(direct)
    eps = []
    for degree in (60, 90, 120, 180, 240):
        r, e = d.dual(degree)
        assert r.degree == degree
        assert e >= np.max(np.abs(q(grid) * r(grid) - 1.0))
        eps.append(e)
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert eps[0] < 1.0 and eps[-1] < 1e-7
    assert d.dual(90)[0] is d.dual(90)[0]  # cached per degree
    assert np.array_equal(d.dual_errors()[[60, 90, 120, 180, 240]], eps)
    # every degree truncates one degree-8K fit, whatever the call order
    fresh = dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 5), 30)
    r, e = fresh.dual(240)
    assert np.array_equal(r.coeffs[:91], d.dual(90)[0].coeffs)
    assert fresh.dual(90)[1] == d.dual(90)[1]
    with pytest.raises(ValueError, match="outside"):
        d.dual(241)


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


def test_preconditioned_cg_column_count(setup, monkeypatch):
    # right-hand side K, r(L) once D, one iteration's analysis + synthesis
    # 2K
    g, lap, eig, f = setup
    k = 30
    d = dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 5), k)
    c = analysis(d, f)
    columns = _count_columns(monkeypatch)
    fr, info = inverse_cg(d, c, tol=1e-6)
    assert info.converged and info.n_iter == 1
    assert sum(columns) == k + info.precond_degree + 2 * k
    assert np.linalg.norm(fr - f) <= 1e-5 * np.linalg.norm(f)
    # D: the smallest degree from 2K whose certificate meets tol
    degree = info.precond_degree
    assert list(d._duals) == [degree]  # only the chosen r is built
    assert 2 * k < degree < 8 * k
    assert info.precond_eps == d.dual(degree)[1] <= 1e-6
    assert all(d.dual(m)[1] > 1e-6 for m in range(2 * k, degree))


def test_poly_cg_on_spectrum_deficient_bank():
    # on a clique (spectrum {0, m}) a wavelet whose fit is the exact
    # quadratic (s lambda)^2 ignores DC: q vanishes at 0, so no dual is
    # certified and plain CG recovers the non-constant component
    g = clique_chain_graph([12])
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    lb = lap.lambda_max_bound
    bank = FilterBank(kernels=(Kernel("sgwt_wavelet", lb,
                                      {"scale": 0.5 / lb}),),
                      lambda_bar=lb, design="wavelet_only")
    d = dictionary_poly(lap, bank, 20)
    assert frame_bounds(d, eig=eig).lower <= 1e-20
    assert d.dual(160)[1] >= 1.0
    f = np.random.default_rng(2).standard_normal(g.n)
    c = analysis(d, f)
    fr, info = inverse_cg(d, c)
    assert info.converged
    assert info.precond_degree is None and info.precond_eps is None
    keep = eig.values > 1e-8
    covered = eig.vectors[:, keep] @ (eig.fourier(f)[keep])
    assert np.linalg.norm(fr - covered) < 1e-8 * np.linalg.norm(f)
    missing = np.linalg.norm(f - covered)
    assert abs(np.linalg.norm(fr - f) - missing) < 1e-8 * np.linalg.norm(f)


def test_plain_cg_without_complete_poly_centers(setup):
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 5)
    half = [np.arange(0, g.n, 2)] * 5
    for d in (dictionary_exact(lap, bank, eig),
              dictionary_poly(lap, bank, 30, centers=half)):
        fr, info = inverse_cg(d, analysis(d, f))
        assert info.precond_degree is None and info.precond_eps is None


def test_provenance_mismatch_rejected(setup):
    g, lap, eig, f = setup
    bank5 = make_uniform_translates(lap.lambda_max_bound, 5, "itersine")
    bank6 = make_uniform_translates(lap.lambda_max_bound, 5, "hann")
    d5 = dictionary_exact(lap, bank5, eig)
    d6 = dictionary_exact(lap, bank6, eig)
    c = analysis(d5, f)
    with pytest.raises(ValueError, match="provenance"):
        synthesis(d6, c)
    # stripping provenance (external coefficients) skips the check
    c2 = analysis(d5, f)
    c2.provenance = None
    synthesis(d6, c2)


def test_token_sensitivity(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 4, "itersine")
    d1 = dictionary_exact(lap, bank, eig)
    d2 = dictionary_exact(lap, bank, eig)
    assert d1.token == d2.token
    assert dictionary_poly(lap, bank, 20).token != d1.token
    assert dictionary_poly(lap, bank, 21).token != \
        dictionary_poly(lap, bank, 20).token
    sub = [np.arange(10)] * 4
    assert dictionary_exact(lap, bank, eig, centers=sub).token != d1.token
    # the band sizes split the centers: [0, 1], [2] is not [0], [1, 2]
    pair = make_sgwt(lap.lambda_max_bound, 2)
    for build in (lambda c: dictionary_exact(lap, pair, eig, centers=c),
                  lambda c: dictionary_poly(lap, pair, 20, centers=c)):
        assert build([[0, 1], [2]]).token != build([[0], [1, 2]]).token
    # what the dictionary applies, not what its bank is called
    renamed = dataclasses.replace(bank, design="renamed")
    assert dictionary_exact(lap, renamed, eig).token == d1.token
    assert dictionary_poly(lap, renamed, 20).token == \
        dictionary_poly(lap, bank, 20).token


def test_token_tells_differently_adapted_kernels_apart(setup):
    # the kernels follow their warp's CDF, which a description of the
    # kernels by family, parameters and warp kind leaves out
    g, lap, eig, f = setup
    lb = lap.lambda_max_bound
    grid = np.linspace(0.0, lb, 5)
    banks = [make_adapted_translates(lb, 4, SpectralCDF(grid, v),
                                     energy=True)
             for v in ([0.0, 0.7, 0.9, 0.95, 1.0],
                       [0.0, 0.05, 0.1, 0.3, 1.0])]
    d1, d2 = (dictionary_exact(lap, bank, eig) for bank in banks)
    assert np.abs(d1._diag - d2._diag).max() > 0.5
    assert d1.token != d2.token
    with pytest.raises(ValueError, match="provenance"):
        synthesis(d2, analysis(d1, f))
    p1, p2 = (dictionary_poly(lap, bank, 20) for bank in banks)
    assert p1.token != p2.token


def test_token_is_hashed_on_first_read(setup, monkeypatch):
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 4)

    def refuse(*args):
        raise AssertionError("hashed at construction")

    with monkeypatch.context() as m:
        m.setattr(hashlib, "sha256", refuse)
        built = [dictionary_exact(lap, bank, eig),
                 dictionary_poly(lap, bank, 20)]
    for d in built:
        assert "token" not in vars(d)
        assert d.token == _tobytes_digest(d) == vars(d)["token"]


@pytest.mark.parametrize("mode", ["exact", "poly"])
def test_materialized_columns_are_the_indexed_atoms(setup, mode):
    # flat atom i is band j's atom at vertex v for (j, v) =
    # flat_index_to_atom(d, i), with a band that has no centers
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 4)
    centers = [np.arange(0, g.n, 4), np.array([], int), np.array([7, 2]),
               np.arange(g.n)]
    d = dictionary_exact(lap, bank, eig, centers=centers) \
        if mode == "exact" else dictionary_poly(lap, bank, 20,
                                                centers=centers)
    mat = d.materialize()
    assert mat.shape == (g.n, d.n_atoms)
    for i in range(d.n_atoms):
        atom = d.atom(*flat_index_to_atom(d, i))
        # exact filtering rounds with the block's width; poly does not
        if mode == "poly":
            assert np.array_equal(mat[:, i], atom)
        else:
            assert np.allclose(mat[:, i], atom, rtol=0, atol=1e-13)
    assert [b.size for b in np.split(mat, d.offsets, axis=1)] == \
        [c.size * g.n for c in d.centers]


def test_dictionary_mode_follows_its_representation(setup):
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 4)
    assert dictionary_exact(lap, bank, eig).mode == "exact"
    poly = dictionary_poly(lap, bank, 20)
    assert poly.mode == "poly"
    for kw in ({}, {"eig": eig, "approx": poly.approx}):
        with pytest.raises(ValueError, match="either an eigendecomposition"):
            Dictionary(lap, bank, **kw)


def test_complete_atoms_cost_n_k_columns(setup, monkeypatch):
    # every identity column passes once through the recurrence that all
    # bands share: N K sparse-product columns, not J N K
    g, lap, eig, f = setup
    k = 12
    d = dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 5), k)
    columns = _count_columns(monkeypatch)
    mat = d.materialize()
    assert sum(columns) == g.n * k
    columns.clear()
    norms = atom_norms_exact(d)
    assert sum(columns) == g.n * k
    assert np.allclose(np.concatenate(norms), np.linalg.norm(mat, axis=0),
                       rtol=1e-14, atol=0)


def test_greedy_scores_cost_n_k_columns_for_all_bands(monkeypatch):
    # all bands score from one pass over identity blocks, N K columns, and
    # each pick filters its one atom, K more; scoring band by band took
    # J N K
    lap = build_laplacian(sensor_graph(300, seed=4), kind="combinatorial")
    k = 20
    d = dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 4), k)
    columns = _count_columns(monkeypatch)
    got = greedy_centers(d, [10] * 4)
    assert sum(columns) == lap.n * k + 4 * 10 * k == 6800
    assert [s.size for s in got.sets] == [10] * 4


def _tobytes_digest(d):
    # the token's formula written with a tobytes() copy of every array
    h = hashlib.sha256()
    h.update(d.mode.encode())
    h.update(d.lap.indptr.tobytes())
    h.update(d.lap.indices.tobytes())
    h.update(d.lap.data.tobytes())
    if d.mode == "exact":
        h.update(d._diag.tobytes())
    else:
        h.update(np.float64(d.approx[0].lambda_bar).tobytes())
        for p in d.approx:
            h.update(p.coeffs.tobytes())
    h.update(np.array([c.size for c in d.centers], dtype=np.int64).tobytes())
    for c in d.centers:
        h.update(c.tobytes())
    return h.hexdigest()


def test_token_digest_is_the_tobytes_formula(setup):
    # hashing the arrays' buffers gives the digest of their byte copies
    g, lap, eig, f = setup
    sgwt = make_sgwt(lap.lambda_max_bound, 4)
    warped = make_log_warped_translates(lap.lambda_max_bound, 4)
    sub = [np.arange(0, lap.n, 3), np.arange(5), np.array([7, 2]),
           np.arange(lap.n)]
    for d in (dictionary_exact(lap, sgwt, eig),
              dictionary_poly(lap, sgwt, 20),
              dictionary_poly(lap, warped, 15, jackson=True),
              dictionary_exact(lap, warped, eig, centers=sub),
              dictionary_poly(lap, sgwt, 20, centers=sub)):
        assert d.token == _tobytes_digest(d)


def test_atoms_match_band_matrix(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 3, "hann")
    d = dictionary_exact(lap, bank, eig)
    mat = d.materialize()
    assert mat.shape == (g.n, 3 * g.n)
    # band-major layout with ascending centers: band 1 is the middle slice
    bm = mat[:, g.n:2 * g.n]
    u = eig.vectors
    assert np.allclose(bm, (u * bank.kernels[1](eig.values)) @ u.T, rtol=0,
                       atol=1e-12)
    assert np.allclose(d.atom(1, 7), bm[:, 7], atol=1e-12)


def test_poly_atom_matrices_match_poly_atoms():
    # more vertices than one identity block, a band without centers and
    # one whose centers end in a partial block
    g = sensor_graph(300, seed=4)
    lap = build_laplacian(g, kind="combinatorial")
    centers = [np.arange(g.n), np.arange(0, g.n, 7), np.array([], int),
               np.array([5, 299])]
    bank = make_sgwt(lap.lambda_max_bound, 4)
    d = dictionary_poly(lap, bank, 20, centers=centers)
    cols = [np.column_stack([poly_atom(d.approx[j], lap, i) for i in c])
            if c.size else np.zeros((g.n, 0)) for j, c in enumerate(centers)]
    assert np.array_equal(d.materialize(), np.hstack(cols))
    norms = atom_norms_exact(d)
    # complete centers: band j of the band-major matrix is all of p_j(L)
    full = dictionary_poly(lap, bank, 20).materialize()
    for j, (c, want) in enumerate(zip(centers, cols)):
        dense = np.column_stack([poly_atom(d.approx[j], lap, i)
                                 for i in range(g.n)])
        band = full[:, j * g.n:(j + 1) * g.n]
        assert np.allclose(band, dense, rtol=0, atol=1e-12)
        assert norms[j].shape == (c.size,)
        assert np.allclose(norms[j], np.linalg.norm(want, axis=0), rtol=0,
                           atol=1e-12)


def test_exact_atom_matrices_match_dense_formula(setup):
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 4)
    centers = [np.arange(g.n), np.array([3, 17]), np.array([], int),
               np.arange(0, g.n, 5)]
    d = dictionary_exact(lap, bank, eig, centers=centers)
    u = eig.vectors
    dense = [(u * k(eig.values)) @ u.T for k in bank.kernels]
    norms = atom_norms_exact(d)
    full = dictionary_exact(lap, bank, eig).materialize()
    for j, c in enumerate(centers):
        band = full[:, j * g.n:(j + 1) * g.n]
        assert np.allclose(band, dense[j], rtol=0, atol=1e-12)
        want = np.linalg.norm(dense[j][:, c], axis=0)
        assert norms[j].shape == (c.size,)
        assert np.allclose(norms[j], want, rtol=0, atol=1e-12)
    want = np.hstack([m[:, c] for m, c in zip(dense, centers)])
    assert np.allclose(d.materialize(), want, rtol=0, atol=1e-12)


def test_poly_atom_norms_stay_below_dense_memory():
    # the norms come from blocks of identity columns, so the traced peak
    # stays below one N x N float64 array (72 MB at N = 3000)
    g = sensor_graph(3000, seed=2)
    lap = build_laplacian(g, kind="combinatorial")
    d = dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 2), 6)
    tracemalloc.start()
    try:
        norms = atom_norms_exact(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.n * g.n
    probe = [0, 1234, 2999]
    for j in range(d.n_bands):
        want = [np.linalg.norm(poly_atom(d.approx[j], lap, i))
                for i in probe]
        assert np.allclose(norms[j][probe], want, rtol=0, atol=1e-12)


def test_poly_atoms_close_to_exact(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 4, "meyer")
    de = dictionary_exact(lap, bank, eig)
    dp = dictionary_poly(lap, bank, 60)
    sup = max(np.abs(np.asarray(dp.approx[j](eig.values))
                     - np.asarray(bank.kernels[j](eig.values))).max()
              for j in range(4))
    for j in (0, 2):
        a, b = de.atom(j, 5), dp.atom(j, 5)
        assert np.linalg.norm(a - b) <= sup + 1e-12


def test_filter_all_error_bounded_by_sup(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 4, "itersine")
    dp = dictionary_poly(lap, bank, 40)
    de = dictionary_exact(lap, bank, eig)
    fe = de.filter_all(f)
    fp = dp.filter_all(f)
    nf = np.linalg.norm(f)
    for j in range(4):
        sup = np.abs(np.asarray(dp.approx[j](eig.values))
                     - np.asarray(bank.kernels[j](eig.values))).max()
        assert np.linalg.norm(fe[j] - fp[j]) <= sup * nf + 1e-12


def test_subset_centers(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 3, "itersine")
    centers = [np.array([0, 5, 9]), np.array([2]), np.arange(10)]
    d = dictionary_exact(lap, bank, eig, centers=centers)
    assert not d.is_complete()
    assert d.n_atoms == 14
    c = analysis(d, f)
    assert [b.size for b in c.bands] == [3, 1, 10]
    full = dictionary_exact(lap, bank, eig)
    cf = analysis(full, f)
    assert np.allclose(c.bands[0], cf.bands[0][[0, 5, 9]])
    # synthesis accepts subset coefficients (partial frame operator)
    out = synthesis(d, c)
    assert out.shape == (g.n,)


def test_center_validation(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 2, "hann")
    with pytest.raises(ValueError, match="per band"):
        dictionary_exact(lap, bank, eig, centers=[np.array([0])])
    with pytest.raises(ValueError, match="out of range"):
        dictionary_exact(lap, bank, eig,
                         centers=[np.array([0]), np.array([g.n])])
    for dup in ([1, 1], [3, 0, 2, 3]):
        with pytest.raises(ValueError, match="band 0: duplicate centers"):
            dictionary_exact(lap, bank, eig,
                             centers=[np.array(dup), np.array([0])])


def test_atom_norms_exact_vs_direct(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 4, "itersine")
    d = dictionary_exact(lap, bank, eig)
    norms = atom_norms_exact(d)
    mat = d.materialize()
    direct = np.linalg.norm(mat, axis=0).reshape(4, g.n)
    for j in range(4):
        assert np.allclose(norms[j], direct[j], atol=1e-12)


def test_atom_norm_estimate_converges(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 4, "itersine")
    d = dictionary_exact(lap, bank, eig)
    exact = np.concatenate(atom_norms_exact(d))
    est = np.concatenate(atom_norm_estimate(d, n_probes=300, seed=1))
    rel = np.abs(est - exact) / np.maximum(exact, 1e-12)
    assert np.median(rel) < 0.05
    assert rel.max() < 0.25
    # deterministic in the seed
    again = np.concatenate(atom_norm_estimate(d, n_probes=300, seed=1))
    assert np.array_equal(est, again)


@pytest.mark.parametrize("mode", ["exact", "poly"])
def test_atom_norm_estimate_matches_stacked_std(setup, mode):
    g, lap, eig, f = setup
    bank = make_sgwt(lap.lambda_max_bound, 4)
    d = (dictionary_exact(lap, bank, eig) if mode == "exact"
         else dictionary_poly(lap, bank, 25))
    n_probes, seed = 40, 7
    samples = np.stack([
        d.filter_all(np.random.default_rng([seed, t]).standard_normal(g.n))
        for t in range(n_probes)])
    ref = np.std(samples, axis=0, ddof=1)
    est = atom_norm_estimate(d, n_probes=n_probes, seed=seed)
    for j in range(d.n_bands):
        want = ref[j][d.centers[j]]
        assert np.all(np.abs(est[j] - want) <= 1e-12 * want)


def test_coherence_identity_dictionary():
    # one all-pass band makes g(L) the identity: atoms are the standard
    # basis, mutually orthogonal
    lap = build_laplacian(path_graph(12), kind="combinatorial")
    eig = eigendecompose(lap)
    allpass = FilterBank(
        kernels=(Kernel("ideal_band", lap.lambda_max_bound,
                        {"a": 0.0, "b": lap.lambda_max_bound,
                         "closed_right": True}),),
        lambda_bar=lap.lambda_max_bound, design="allpass")
    d = dictionary_exact(lap, allpass, eig)
    assert cumulative_coherence(d, 1) == pytest.approx(0.0, abs=1e-9)
    assert cumulative_coherence(d, 5) == pytest.approx(0.0, abs=1e-9)


def test_coherence_duplicate_band():
    lap = build_laplacian(path_graph(10), kind="combinatorial")
    eig = eigendecompose(lap)
    band = Kernel("ideal_band", lap.lambda_max_bound,
                  {"a": 0.0, "b": lap.lambda_max_bound, "closed_right": True})
    twice = FilterBank(kernels=(band, band),
                       lambda_bar=lap.lambda_max_bound, design="dup")
    d = dictionary_exact(lap, twice, eig)
    assert cumulative_coherence(d, 1) == pytest.approx(1.0, abs=1e-9)


def test_coherence_matches_dense_oracle(setup):
    g, lap, eig, f = setup
    bank = make_uniform_translates(lap.lambda_max_bound, 3, "hann")
    centers = [np.arange(0, 60, 7)] * 3
    d = dictionary_exact(lap, bank, eig, centers=centers)
    atoms = d.materialize()
    psi = atoms / np.linalg.norm(atoms, axis=0)
    gram = np.abs(psi.T @ psi)
    np.fill_diagonal(gram, 0.0)
    for k in (1, 3, 8):
        oracle = np.sort(gram, axis=0)[-k:].sum(axis=0).max()
        assert cumulative_coherence(d, k) == pytest.approx(oracle, abs=1e-12)
    with pytest.raises(ValueError, match="k must be"):
        cumulative_coherence(d, atoms.shape[1])


def test_band_eig_indices(setup):
    g, lap, eig, f = setup
    bank = make_ideal_partition(lap.lambda_max_bound, 3)
    d = dictionary_exact(lap, bank, eig)
    for j, k in enumerate(bank.kernels):
        idx = d.band_eig_indices(j)
        lo, hi = k.params["a"], k.params["b"]
        inside = (eig.values >= lo) & ((eig.values <= hi)
                                       if k.params["closed_right"]
                                       else (eig.values < hi))
        assert np.array_equal(idx, np.flatnonzero(inside))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["exact",
                                                               "poly"]))
def test_synthesis_is_adjoint_of_analysis(setup, seed, mode):
    # <Phi* f, c> = <f, Phi c> with random per-band center subsets
    g, lap, eig, _ = setup
    rng = np.random.default_rng(seed)
    bank = make_sgwt(lap.lambda_max_bound, 4)
    centers = [np.sort(rng.choice(lap.n, rng.integers(0, lap.n + 1),
                                  replace=False)) for _ in range(4)]
    if mode == "exact":
        d = dictionary_exact(lap, bank, eig, centers=centers)
    else:
        d = dictionary_poly(lap, bank, 30, centers=centers)
    f = rng.standard_normal(lap.n)
    c = Coefficients(bands=[rng.standard_normal(cj.size)
                            for cj in d.centers], centers=d.centers, n=lap.n)
    lhs = sum(float(a @ b) for a, b in zip(analysis(d, f).bands, c.bands))
    rhs = float(f @ synthesis(d, c))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(f) * c.norm()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), design=st.sampled_from(["sgwt",
                                                                 "itersine"]),
       n_bands=st.integers(2, 6), degree=st.integers(5, 40),
       eigenvector=st.booleans())
def test_analysis_energy_lies_within_frame_bounds(seed, design, n_bands,
                                                  degree, eigenvector):
    # A ||f||^2 <= ||Phi* f||^2 <= B ||f||^2 with complete centers: the grid
    # bounds of the fitted q certify poly mode, the bounds over the true
    # spectrum exact mode; an eigenvector signal can meet a bound
    g = sensor_graph(40, seed=seed % 1000)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    bank = make_sgwt(lap.lambda_max_bound, n_bands) if design == "sgwt" \
        else make_uniform_translates(lap.lambda_max_bound, n_bands,
                                     "itersine")
    rng = np.random.default_rng(seed)
    f = eig.vectors[:, rng.integers(g.n)] if eigenvector \
        else rng.standard_normal(g.n)
    energy = float(f @ f)
    for d, basis in ((dictionary_poly(lap, bank, degree), "grid"),
                     (dictionary_exact(lap, bank, eig), "exact_sigma")):
        b = frame_bounds(d, basis=basis)
        got = analysis(d, f).norm() ** 2
        slack = 1e-12 * b.upper * energy
        assert b.lower * energy - slack <= got <= b.upper * energy + slack


def test_solve_cg_refuses_an_overflowing_right_hand_side():
    # the squared norm overflows, which would make every relative residual
    # inf / inf
    with pytest.raises(ValueError, match="right-hand side has norm inf"):
        solve_cg(lambda p: 2.0 * p, np.full(4, 1e200), 1e-8, 10)


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_solve_cg_rejects_a_bad_tolerance(tol):
    # a NaN or negative tol never stops CG, so it would silently run to
    # max_iter and report a "solution"
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_cg(lambda p: 2.0 * p, np.ones(4), tol, 10)
