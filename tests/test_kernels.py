"""Kernel-level checks: CSR products and the Chebyshev recurrences."""

import importlib.util
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from lsgf import _kernels, frames, sampling, spectrum
from lsgf.chebyshev import (ChebyshevApprox, apply_poly_bank,
                            apply_poly_bank_adjoint, apply_poly_filter)
from lsgf.filters import make_sgwt
from lsgf.frames import (analysis, atom_norm_estimate, dictionary_exact,
                         dictionary_poly, inverse_cg, synthesis)
from lsgf.generators import (erdos_renyi_graph, grid_graph, path_graph,
                             sensor_graph)
from lsgf.graphs import Laplacian, SparseGraph, build_laplacian, eigendecompose
from lsgf.sampling import greedy_centers, nonuniform_weights
from lsgf.spectrum import estimate_energy_cdf, estimate_spectral_cdf


def _csr(lap):
    return lap.indptr, lap.indices, lap.data


def _m(lap):
    return lap.chebyshev_operator(lap.lambda_max_bound)


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


@pytest.fixture(scope="module")
def empty_row_operator():
    # a sensor graph's M with vertex 300 left without edges: its row of L
    # is empty, and chebyshev_operator inserts only the diagonal
    g = sensor_graph(300, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        g = SparseGraph.from_edges(301, *g.edges())
    lap = build_laplacian(g, kind="combinatorial")
    return lap.chebyshev_operator(lap.lambda_max_bound)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_products_equal_scipy_sparse_bitwise(empty_row_operator,
                                             index_dtype):
    # the kernels' product against scipy.sparse's @, in value, dtype and
    # shape: a vector, a strided column, an (N, 1) column and (N, B) blocks
    # in C and F order
    indptr, indices, data = (a.astype(dt) for a, dt in zip(
        empty_row_operator, (index_dtype, index_dtype, np.float64)))
    n = indptr.size - 1
    ours = _kernels._operator(indptr, indices, data)
    assert ours.indices.dtype == index_dtype
    theirs = scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    block = np.random.default_rng(9).standard_normal((n, 5))
    for x in (block[:, 0].copy(), block[:, 1], block[:, 2:3], block,
              np.asfortranarray(block), block[:, ::2]):
        want = theirs @ x
        for got in (ours @ x, _kernels.csr_matvec(indptr, indices, data, x)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert (ours @ block)[300].tolist() == [-2.0 * v for v in block[300]]


def test_mixed_index_dtypes_are_cast_once(lap):
    a = _kernels._operator(lap.indptr.astype(np.int64), lap.indices,
                           lap.data)
    assert a.indptr.dtype == a.indices.dtype == np.int64
    assert np.shares_memory(a.data, lap.data)


def test_scipy_sparse_backend_gives_the_same_results():
    # the routines load from their file; if that fails they come from
    # scipy.sparse, which then loads, and every result is the same
    code = """if True:
        import hashlib, importlib.abc, importlib.machinery, sys
        if sys.argv[1] == "refuse":
            # only the load by path sees this class: the import system
            # keeps the loader class it started with
            class Refusing(importlib.machinery.ExtensionFileLoader):
                def create_module(self, spec):
                    raise ImportError("refused")
            importlib.machinery.ExtensionFileLoader = Refusing
        import numpy as np
        from lsgf import _kernels
        from lsgf.generators import sensor_graph
        from lsgf.graphs import build_laplacian
        g = sensor_graph(2000, seed=4)
        lap = build_laplacian(g, kind="normalized")
        m = lap.chebyshev_operator(2.0)
        x = np.random.default_rng(0).standard_normal((g.n, 3))
        h = hashlib.sha256()
        for a in (g.indptr, g.indices, g.weights, *m, lap.matvec(x),
                  lap.matvec(x[:, 0]), _kernels.cheb_moments(*m, 9, x),
                  _kernels.cheb_apply_stack(*m, np.ones((2, 9)), x)):
            h.update(a.dtype.str.encode() + a.tobytes())
        print(_kernels.BACKEND, "scipy.sparse" in sys.modules, h.hexdigest())
    """
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    runs = [subprocess.run([sys.executable, "-c", code, how], env=env,
                           check=True, capture_output=True,
                           text=True).stdout.split()
            for how in ("load", "refuse")]
    assert runs[0][:2] == ["sparsetools", "False"]
    assert runs[1][:2] == ["scipy.sparse", "True"]
    assert runs[0][2] == runs[1][2]


def test_stack_rows_match_single_apply_bitwise(lap):
    # the fused path must not change results at all
    rng = np.random.default_rng(2)
    x = rng.standard_normal(lap.n)
    stack = rng.standard_normal((5, 31))
    out = _kernels.cheb_apply_stack(*_m(lap), stack, x)
    for j in range(5):
        single = _kernels.cheb_apply(*_m(lap), stack[j], x)
        assert np.array_equal(out[j], single)


def test_zero_padded_coeffs_do_not_change_result(lap):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(lap.n)
    coeffs = rng.standard_normal(11)
    base = _kernels.cheb_apply(*_m(lap), coeffs, x)
    padded = np.concatenate([coeffs, np.zeros(9)])
    assert np.array_equal(base, _kernels.cheb_apply(*_m(lap), padded, x))


def test_moments_match_explicit_inner_products(lap):
    # odd and even counts: the doubling identities read moments 2m - 1
    # and 2m off the vectors up to T_m x
    rng = np.random.default_rng(4)
    for x in (rng.standard_normal(lap.n), rng.standard_normal((lap.n, 3))):
        for n_moments in (1, 2, 3, 4, 12, 61):
            m = _kernels.cheb_moments(*_m(lap), n_moments, x)
            assert m.shape == (n_moments,) + x.shape[1:]
            for k in range(n_moments):
                e = np.zeros(k + 1)
                e[k] = 1.0
                tk_x = _kernels.cheb_apply(*_m(lap), e, x)
                want = np.einsum("i...,i...->...", x, tk_x)
                assert np.all(np.abs(m[k] - want)
                              < 1e-10 * (np.abs(m[k]) + 1.0))


def test_degree_zero_and_one():
    lap = build_laplacian(path_graph(5), kind="combinatorial")
    x = np.arange(5.0)
    m = lap.chebyshev_operator(4.0)
    c0 = _kernels.cheb_apply(*m, np.array([3.0]), x)
    assert np.allclose(c0, 3.0 * x)
    c1 = _kernels.cheb_apply(*m, np.array([0.0, 1.0]), x)
    assert np.allclose(c1, (lap.toarray() @ x - 2.0 * x) / 2.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_bands=st.integers(1, 6),
       degree=st.integers(0, 40))
def test_clenshaw_adjoint_matches_per_band_recurrences(lap, seed, n_bands,
                                                       degree):
    rng = np.random.default_rng(seed)
    coeff_rows = rng.standard_normal((n_bands, degree + 1))
    u = rng.standard_normal((n_bands, lap.n))
    approxes = [ChebyshevApprox(degree, c, lap.lambda_max_bound)
                for c in coeff_rows]
    got = apply_poly_bank_adjoint(approxes, lap, u)
    want = sum(_kernels.cheb_apply(*_m(lap), coeff_rows[j], u[j])
               for j in range(n_bands))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_stack_recurrence_holds_three_vectors():
    # beyond its output, a single-column stack holds T_{k-1} x, T_k x and
    # the new T_{k+1} x: each step adds c_k T_k x to every band in one
    # compiled call with no scaled vector of its own, and the operator M is
    # built beforehand
    lap = build_laplacian(grid_graph(100, 100), kind="combinatorial")
    x = np.random.default_rng(6).standard_normal(lap.n)
    rows = np.random.default_rng(7).standard_normal((6, 21))
    m = _m(lap)
    tracemalloc.start()
    try:
        out = _kernels.cheb_apply_stack(*m, rows, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 3.25 * x.nbytes


def test_operator_shares_laplacian_index_arrays(lap):
    # building the operator for a kernel call copies none of the CSR arrays
    a = _kernels._operator(*_csr(lap))
    for mine, theirs in zip((a.indptr, a.indices, a.data), _csr(lap)):
        assert np.shares_memory(mine, theirs)


def _with_diagonal_zeros(lap):
    # the same operator with a zero stored on every diagonal it lacks, as a
    # Laplacian assembled elsewhere may have
    a = lap.to_scipy().tocoo()
    missing = np.setdiff1d(np.arange(lap.n), a.row[a.row == a.col])
    a = scipy.sparse.csr_matrix(
        (np.r_[a.data, np.zeros(missing.size)],
         (np.r_[a.row, missing], np.r_[a.col, missing])), shape=a.shape)
    a.sort_indices()
    return Laplacian(kind=lap.kind, n=lap.n, indptr=a.indptr,
                     indices=a.indices, data=a.data,
                     lambda_max_bound=lap.lambda_max_bound, graph=lap.graph)


def _isolated_vertex_laplacian():
    # vertex 9 has no edges; the rest is a path
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        g = SparseGraph.from_edges(10, np.arange(8), np.arange(1, 9),
                                   np.linspace(0.5, 2.0, 8))
    return build_laplacian(g, kind="combinatorial")


@pytest.fixture(scope="module")
def small_laps():
    er = erdos_renyi_graph(30, 0.25, seed=1)
    sensor = sensor_graph(40, seed=2)
    isolated = _isolated_vertex_laplacian()
    return [build_laplacian(er, kind="combinatorial"),
            build_laplacian(sensor, kind="normalized"),
            isolated,
            _with_diagonal_zeros(isolated)]


def test_chebyshev_operator_is_built_once_per_interval(small_laps):
    # M = 4 L / lambda_bar - 2 I sits on L's own index arrays when every
    # row stores its diagonal; build_laplacian stores none for an isolated
    # vertex, and that Laplacian (the third) takes the path that inserts it
    for case, lap in enumerate(small_laps):
        bound = lap.lambda_max_bound
        ops = []
        for lambda_bar in (bound, 1.5 * bound):
            m = lap.chebyshev_operator(lambda_bar)
            indptr, indices, data = m
            dense = scipy.sparse.csr_matrix((data, indices, indptr),
                                            shape=(lap.n, lap.n)).toarray()
            want = 4.0 * lap.toarray() / lambda_bar - 2.0 * np.eye(lap.n)
            assert np.max(np.abs(dense - want)) \
                <= 1e-14 * np.abs(want).max()
            assert (indptr is lap.indptr and indices is lap.indices) \
                == (case != 2)
            assert all(a is b for a, b in
                       zip(lap.chebyshev_operator(lambda_bar), m))
            ops.append(data)
        assert not np.shares_memory(ops[0], ops[1])


def test_interval_below_the_bound_is_refused(lap):
    p = ChebyshevApprox(3, np.ones(4), 0.9 * lap.lambda_max_bound)
    x = np.ones(lap.n)
    d = dictionary_poly(lap, make_sgwt(p.lambda_bar, 4), 3)
    calls = [lambda: apply_poly_filter(p, lap, x),
             lambda: apply_poly_bank([p], lap, x),
             lambda: apply_poly_bank_adjoint([p], lap, x[None]),
             lambda: greedy_centers(d, [1] * 4)]
    for call in calls:
        with pytest.raises(ValueError, match="does not cover the "
                           "Laplacian's recorded bound"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_interval_is_refused(lap, bad):
    # NaN slips past both comparisons against the bound, and inf past the
    # lower one; either would cache an all-NaN operator
    p = ChebyshevApprox(3, np.ones(4), bad)
    with pytest.raises(ValueError, match="is not finite"):
        apply_poly_filter(p, lap, np.ones(lap.n))
    assert bad not in lap._operators and not any(
        np.isnan(k) for k in lap._operators)


def _dense_s(lap, lambda_bar):
    s = 2.0 * lap.toarray() / lambda_bar - np.eye(lap.n)
    return np.linalg.eigh(s)


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       degree=st.integers(0, 30), n_rows=st.integers(1, 5),
       n_cols=st.sampled_from([0, 3]), widen=st.floats(1.0, 2.0))
def test_m_form_kernels_match_dense_chebyshev_series(small_laps, case, seed,
                                                     degree, n_rows, n_cols,
                                                     widen):
    # S = 2 L / lambda_bar - I for an interval [0, lambda_bar] covering the
    # bound; the references evaluate each series on the eigenvalues of the
    # dense S
    lap = small_laps[case]
    rng = np.random.default_rng(seed)
    lambda_bar = widen * lap.lambda_max_bound
    m = lap.chebyshev_operator(lambda_bar)
    s, v = _dense_s(lap, lambda_bar)
    x = rng.standard_normal((lap.n, n_cols) if n_cols else lap.n)
    xhat = v.T @ x
    rows = rng.standard_normal((n_rows, degree + 1))
    scale = np.abs(rows).sum(axis=1) * np.linalg.norm(x)

    def series(c):
        weights = chebval(s, c)
        return v @ (weights[:, None] * xhat if x.ndim == 2
                    else weights * xhat)

    got = _kernels.cheb_apply(*m, rows[0], x)
    assert np.linalg.norm(got - series(rows[0])) <= 1e-12 * scale[0]
    got = _kernels.cheb_apply_stack(*m, rows, x)
    for j in range(n_rows):
        assert np.linalg.norm(got[j] - series(rows[j])) <= 1e-12 * scale[j]

    n_moments = 2 * degree + 1
    got = _kernels.cheb_moments(*m, n_moments, x)
    for k in range(n_moments):
        e = np.zeros(k + 1)
        e[k] = 1.0
        want = np.einsum("i...,i...->...", x, series(e))
        assert np.all(np.abs(got[k] - want)
                      <= 1e-12 * np.linalg.norm(x) ** 2)

    approxes = [ChebyshevApprox(degree, r, lambda_bar) for r in rows]
    u = rng.standard_normal((n_rows, lap.n))
    uhat = v.T @ u.T
    want = v @ sum(chebval(s, r) * uhat[:, j] for j, r in enumerate(rows))
    got = apply_poly_bank_adjoint(approxes, lap, u)
    assert np.linalg.norm(got - want) <= 1e-12 * float(
        np.abs(rows).sum(axis=1) @ np.linalg.norm(u, axis=1))


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
    x[::5] = -0.0
    rows = rng.standard_normal((3, degree + 1))
    m = _m(lap)
    calls = [
        lambda v: _kernels.cheb_apply(*m, rows[0], v),
        lambda v: _kernels.cheb_apply_stack(*m, rows, v),
        lambda v: _kernels.cheb_moments(*m, degree + 1, v)]
    with mock.patch.object(_kernels, "n_workers", return_value=workers), \
            mock.patch.object(_kernels, "_THREADED_MIN_ROWS", threaded_rows):
        got = [call(x) for call in calls]
    for call, block in zip(calls[:2], got[:2]):
        # each step adds c_k T_k(S) x by one product and one add per
        # element, whatever the group width; each column's result is one
        # C-contiguous slice, the rows the accumulation call writes
        want = _per_column(call, x)
        assert block.shape == want.shape
        assert np.array_equal(block, want)
        assert np.array_equal(np.signbit(block), np.signbit(want))
        for b in range(n_cols):
            assert block[..., b].flags.c_contiguous
    want = _per_column(calls[2], x)
    assert got[2].shape == want.shape
    if n_cols <= workers:
        # every column group is one column and runs the (N,) path
        assert np.array_equal(got[2], want)
    else:
        # a group's moments are einsum reductions over (N, B) columns,
        # summed in another order than a single column's
        scale = np.abs(want).max(axis=0)
        assert np.all(np.abs(got[2] - want) <= 1e-12 * (scale + 1.0))


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
    m = _m(lap)
    with mock.patch.object(_kernels, "n_workers", return_value=2), \
            mock.patch.object(_kernels, "_THREADED_MIN_ROWS", 0):
        want = _kernels.cheb_apply(*m, coeffs, x)
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
                got = _kernels.cheb_apply(*m, coeffs, x)
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


def _foreign_thread_ticks():
    """CPU ticks (utime + stime) of this process's threads that Python did
    not start, such as the BLAS library's own threads."""
    ours = {t.native_id for t in threading.enumerate()}
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) in ours:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # the thread has ended
            continue
        total += int(fields[11]) + int(fields[12])
    return total


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_request_paths_leave_blas_threads_idle():
    # a threaded BLAS reduction of 10k or more entries leaves a helper
    # thread spinning for about 130 ms of CPU, on the CPU that the kernels'
    # second worker needs; request paths reduce through einsum instead
    sensor = build_laplacian(sensor_graph(20000, seed=3))
    grid = build_laplacian(grid_graph(300, 300))
    ds = dictionary_poly(sensor, make_sgwt(sensor.lambda_max_bound, 6), 20)
    dg = dictionary_poly(grid, make_sgwt(grid.lambda_max_bound, 6), 10)
    rng = np.random.default_rng(7)
    cs = analysis(ds, rng.standard_normal(sensor.n))
    cg = analysis(dg, rng.standard_normal(grid.n))
    train = rng.standard_normal((2, grid.n))
    time.sleep(0.4)
    before = _foreign_thread_ticks()
    inverse_cg(ds, cs, tol=1e-8)
    estimate_energy_cdf(grid, train)
    synthesis(dg, cg)
    time.sleep(0.4)
    assert _foreign_thread_ticks() - before <= 2


def test_benchmark_tracer_counts_every_kernel_call():
    # the benchmark's per-layer matvec columns come from binding each
    # kernel call's arguments by name; a call it cannot bind is uncounted.
    # The layers are called through their modules, where the tracer
    # rebinds them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    lap = build_laplacian(sensor_graph(300, seed=4))
    d = frames.dictionary_poly(lap, make_sgwt(lap.lambda_max_bound, 4), 12)
    f = np.random.default_rng(8).standard_normal(lap.n)
    tracer = spans.Tracer()
    tracer.install()
    try:
        c = frames.analysis(d, f)
        assert tracer.values["kernels.matvec_cols"] == 12
        frames.inverse_cg(d, c, tol=1e-8)
        spectrum.estimate_spectral_cdf(lap, n_probes=3)
        sampling.nonuniform_weights(d, n_probes=3)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.values["kernels.uncounted_calls"] == 0
    assert tracer.values["kernels.matvec_cols"] > 12
