"""Kernel-level checks: CSR products and the Chebyshev recurrences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsgf import _kernels
from lsgf.chebyshev import ChebyshevApprox, apply_poly_bank_adjoint
from lsgf.generators import erdos_renyi_graph, path_graph
from lsgf.graphs import build_laplacian


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
    rng = np.random.default_rng(4)
    x = rng.standard_normal(lap.n)
    center = half = lap.lambda_max_bound / 2.0
    m = _kernels.cheb_moments(*_csr(lap), 12, center, half, x)
    for k in range(12):
        e = np.zeros(k + 1)
        e[k] = 1.0
        tk_x = _kernels.cheb_apply(*_csr(lap), e, center, half, x)
        assert abs(m[k] - x @ tk_x) < 1e-10 * (abs(m[k]) + 1.0)


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
