"""Kernel-level checks: CSR products and the Chebyshev recurrences."""

import os
import signal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsgf import _kernels
from lsgf.chebyshev import ChebyshevApprox, apply_poly_bank_adjoint
from lsgf.filters import make_sgwt
from lsgf.frames import atom_norm_estimate, dictionary_exact, dictionary_poly
from lsgf.generators import erdos_renyi_graph, path_graph, sensor_graph
from lsgf.graphs import build_laplacian, eigendecompose
from lsgf.sampling import nonuniform_weights
from lsgf.spectrum import estimate_energy_cdf, estimate_spectral_cdf


def _csr(lap):
    return lap.indptr, lap.indices, lap.data


@pytest.fixture(scope="module")
def lap():
    g = erdos_renyi_graph(60, 0.1, seed=2)
    return build_laplacian(g, kind="combinatorial")


def test_matvec_matches_scipy(lap):
    rng = np.random.default_rng(0)
    dense = lap.to_scipy().toarray()
    for _ in range(5):
        x = rng.standard_normal(lap.n)
        y = _kernels.csr_matvec(*_csr(lap), x)
        assert np.allclose(y, dense @ x, atol=1e-12)


def test_matvec_handles_empty_rows():
    # isolated vertex 3: its row has no entries
    indptr = np.array([0, 1, 2, 2, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    data = np.array([2.0, 2.0])
    x = np.array([1.0, -1.0, 5.0, 7.0])
    y = _kernels.csr_matvec(indptr, indices, data, x)
    assert np.array_equal(y, [-2.0, 2.0, 0.0, 0.0])


def test_stack_rows_match_single_apply_bitwise(lap):
    # the fused path must not change results at all
    rng = np.random.default_rng(2)
    x = rng.standard_normal(lap.n)
    stack = rng.standard_normal((5, 31))
    center = half = lap.lambda_max_bound / 2.0
    out = _kernels.cheb_apply_stack(*_csr(lap), stack, center, half, x)
    for j in range(5):
        single = _kernels.cheb_apply(*_csr(lap), stack[j], center, half, x)
        assert np.array_equal(out[j], single)


def test_zero_padded_coeffs_do_not_change_result(lap):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(lap.n)
    coeffs = rng.standard_normal(11)
    center = half = lap.lambda_max_bound / 2.0
    base = _kernels.cheb_apply(*_csr(lap), coeffs, center, half, x)
    padded = np.concatenate([coeffs, np.zeros(9)])
    assert np.array_equal(
        base, _kernels.cheb_apply(*_csr(lap), padded, center, half, x))


def test_moments_match_explicit_inner_products(lap):
    # odd and even counts: the doubling identities read moments 2m - 1
    # and 2m off the vectors up to T_m x
    rng = np.random.default_rng(4)
    center = half = lap.lambda_max_bound / 2.0
    for x in (rng.standard_normal(lap.n), rng.standard_normal((lap.n, 3))):
        for n_moments in (1, 2, 3, 4, 12, 61):
            m = _kernels.cheb_moments(*_csr(lap), n_moments, center, half, x)
            assert m.shape == (n_moments,) + x.shape[1:]
            for k in range(n_moments):
                e = np.zeros(k + 1)
                e[k] = 1.0
                tk_x = _kernels.cheb_apply(*_csr(lap), e, center, half, x)
                want = np.einsum("i...,i...->...", x, tk_x)
                assert np.all(np.abs(m[k] - want)
                              < 1e-10 * (np.abs(m[k]) + 1.0))


def test_degree_zero_and_one():
    lap = build_laplacian(path_graph(5), kind="combinatorial")
    x = np.arange(5.0)
    c0 = _kernels.cheb_apply(*_csr(lap), np.array([3.0]), 2.0, 2.0, x)
    assert np.allclose(c0, 3.0 * x)
    c1 = _kernels.cheb_apply(*_csr(lap), np.array([0.0, 1.0]), 2.0, 2.0, x)
    assert np.allclose(c1, (lap.toarray() @ x - 2.0 * x) / 2.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_bands=st.integers(1, 6),
       degree=st.integers(0, 40))
def test_clenshaw_adjoint_matches_per_band_recurrences(lap, seed, n_bands,
                                                       degree):
    rng = np.random.default_rng(seed)
    coeff_rows = rng.standard_normal((n_bands, degree + 1))
    u = rng.standard_normal((n_bands, lap.n))
    half = lap.lambda_max_bound / 2.0
    approxes = [ChebyshevApprox(degree, c, lap.lambda_max_bound)
                for c in coeff_rows]
    got = apply_poly_bank_adjoint(approxes, lap, u)
    want = sum(_kernels.cheb_apply(*_csr(lap), coeff_rows[j], half, half,
                                   u[j]) for j in range(n_bands))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_operator_shares_laplacian_index_arrays(lap):
    # building the operator for a kernel call copies none of the CSR arrays
    a = _kernels._operator(*_csr(lap))
    for mine, theirs in zip((a.indptr, a.indices, a.data), _csr(lap)):
        assert np.shares_memory(mine, theirs)


def _per_column(fn, x):
    return np.stack([fn(np.ascontiguousarray(x[:, b]))
                     for b in range(x.shape[1])], axis=-1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_cols=st.integers(1, 7),
       workers=st.sampled_from([1, 2, 3]), degree=st.integers(0, 25),
       threaded_rows=st.sampled_from([0, 10**9]))
def test_blocks_match_per_column_calls(lap, seed, n_cols, workers, degree,
                                       threaded_rows):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((lap.n, n_cols))
    rows = rng.standard_normal((3, degree + 1))
    half = lap.lambda_max_bound / 2.0
    calls = [
        lambda v: _kernels.cheb_apply(*_csr(lap), rows[0], half, half, v),
        lambda v: _kernels.cheb_apply_stack(*_csr(lap), rows, half, half, v),
        lambda v: _kernels.cheb_moments(*_csr(lap), degree + 1, half, half,
                                        v)]
    with mock.patch.object(_kernels, "n_workers", return_value=workers), \
            mock.patch.object(_kernels, "_THREADED_MIN_ROWS", threaded_rows):
        got = [call(x) for call in calls]
    for call, block in zip(calls, got):
        want = _per_column(call, x)
        assert block.shape == want.shape
        if n_cols <= workers:
            # every column group is one column and runs the (N,) path
            assert np.array_equal(block, want)
        else:
            scale = np.abs(want).max(axis=tuple(range(want.ndim - 1)))
            assert np.all(np.abs(block - want) <= 1e-12 * (scale + 1.0))


def test_probe_estimators_do_not_depend_on_worker_count():
    # each probe keeps its own single-column recurrence and the reductions
    # keep probe order, whatever the block width W
    g = sensor_graph(120, seed=1)
    lap = build_laplacian(g)
    bank = make_sgwt(lap.lambda_max_bound, 4)
    dp = dictionary_poly(lap, bank, 20)
    de = dictionary_exact(lap, bank, eigendecompose(lap))
    signals = np.random.default_rng(0).standard_normal((3, lap.n))

    def estimates():
        return [*atom_norm_estimate(dp, n_probes=5),
                *atom_norm_estimate(de, n_probes=5),
                nonuniform_weights(dp, n_probes=5),
                estimate_spectral_cdf(lap, n_probes=5).values,
                estimate_energy_cdf(lap, signals).values]

    runs = []
    with mock.patch.object(_kernels, "_THREADED_MIN_ROWS", 0):
        for workers in (1, 2, 3):
            with mock.patch.object(_kernels, "n_workers",
                                   return_value=workers):
                runs.append(estimates())
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            assert np.array_equal(a, b)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_block_calls(lap):
    # the child inherits the parent's pool object but none of its threads;
    # without a reset at fork its block calls would wait forever
    x = np.random.default_rng(5).standard_normal((lap.n, 4))
    coeffs = np.arange(1.0, 9.0)
    half = lap.lambda_max_bound / 2.0
    with mock.patch.object(_kernels, "n_workers", return_value=2), \
            mock.patch.object(_kernels, "_THREADED_MIN_ROWS", 0):
        want = _kernels.cheb_apply(*_csr(lap), coeffs, half, half, x)
        # start every pool thread and let it go idle: the child then
        # inherits a pool that counts idle threads it does not have
        pool = _kernels._executor()
        for f in [pool.submit(time.sleep, 0.05) for _ in range(4)]:
            f.result()
        time.sleep(0.1)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                got = _kernels.cheb_apply(*_csr(lap), coeffs, half, half, x)
                code = 0 if np.array_equal(got, want) else 3
            finally:
                os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's block call did not return")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0
