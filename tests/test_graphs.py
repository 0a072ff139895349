"""Graph containers, Laplacians and eigendecompositions on small oracles."""

import hashlib
import time
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsgf.generators import (clique_chain_graph, cycle_graph,
                             erdos_renyi_graph, grid_graph, path_graph,
                             sensor_graph)
from lsgf import _kernels, generators
from lsgf.graphs import (SparseGraph, as_signal, build_laplacian,
                         component_roots, eigendecompose, lanczos_lambda_max,
                         quadratic_form)


def test_path3_laplacian_dense():
    lap = build_laplacian(path_graph(3), kind="combinatorial")
    expect = np.array([[1.0, -1.0, 0.0],
                       [-1.0, 2.0, -1.0],
                       [0.0, -1.0, 1.0]])
    assert np.array_equal(lap.toarray(), expect)


def test_path3_eigenvalues():
    lap = build_laplacian(path_graph(3), kind="combinatorial")
    eig = eigendecompose(lap)
    assert np.allclose(eig.values, [0.0, 1.0, 3.0], atol=1e-12)


def test_cycle4_eigenvalues():
    lap = build_laplacian(cycle_graph(4), kind="combinatorial")
    eig = eigendecompose(lap)
    assert np.allclose(eig.values, [0.0, 2.0, 2.0, 4.0], atol=1e-12)


def test_normalized_cycle4():
    lap = build_laplacian(cycle_graph(4), kind="normalized")
    dense = lap.toarray()
    assert np.allclose(np.diag(dense), 1.0)
    off = dense[~np.eye(4, dtype=bool)]
    assert np.allclose(np.sort(np.unique(np.round(off, 12))), [-0.5, 0.0])
    eig = eigendecompose(lap)
    assert np.allclose(eig.values, [0.0, 1.0, 1.0, 2.0], atol=1e-12)
    assert lap.lambda_max_bound == 2.0


def test_edge_degree_bound_triangle():
    # every endpoint pair has degree 2, so the bound is 4; true top is 3
    g = SparseGraph.from_edges(3, [0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0])
    lap = build_laplacian(g, kind="combinatorial")
    assert lap.lambda_max_bound == 4.0
    eig = eigendecompose(lap)
    assert abs(eig.values[-1] - 3.0) < 1e-12


def test_edge_degree_bound_is_tight_for_star():
    g = SparseGraph.from_edges(4, [0, 0, 0], [1, 2, 3], [1.0, 1.0, 1.0])
    lap = build_laplacian(g, kind="combinatorial")
    assert lap.lambda_max_bound == 4.0
    eig = eigendecompose(lap)
    assert abs(eig.values[-1] - 4.0) < 1e-12


def test_bound_dominates_spectrum_randomly():
    for seed in range(5):
        g = erdos_renyi_graph(40, 0.15, seed=seed)
        for kind in ("combinatorial", "normalized"):
            lap = build_laplacian(g, kind=kind)
            eig = eigendecompose(lap)
            assert eig.values[-1] <= lap.lambda_max_bound + 1e-10
            assert eig.values[0] >= 0.0


def test_quadratic_form_matches_edge_sum():
    g = sensor_graph(40, seed=1)
    lap = build_laplacian(g, kind="combinatorial")
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.n)
    total = 0.0
    for i in range(g.n):
        for jj in range(g.indptr[i], g.indptr[i + 1]):
            j = g.indices[jj]
            total += 0.5 * g.weights[jj] * (f[i] - f[j]) ** 2
    assert abs(quadratic_form(lap, f) - total) < 1e-10


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        SparseGraph.from_edges(3, [0], [0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        SparseGraph.from_edges(3, [0], [1], [-1.0])
    with pytest.raises(ValueError, match="positive"):
        SparseGraph.from_edges(3, [0], [1], [np.nan])
    with pytest.raises(ValueError, match="out of range"):
        SparseGraph.from_edges(3, [0], [3], [1.0])
    with pytest.raises(ValueError, match="conflicting duplicate"):
        SparseGraph.from_edges(3, [0, 1], [1, 0], [1.0, 2.0])
    # the pair named is the first conflict in input order: (2, 3) at
    # position 2, before (0, 1) at position 3
    with pytest.raises(ValueError, match=r"duplicate edge \(2, 3\)$"):
        SparseGraph.from_edges(4, [2, 0, 3, 1], [3, 1, 2, 0],
                               [1.0, 1.0, 2.0, 3.0])


def _earliest_conflict(n, src, dst, w):
    # the rule a stable sort of the pair keys gives: of the copies that
    # differ from the copy before them, the one earliest in input order
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    order = np.argsort(lo * n + hi, kind="stable")
    key, ws = (lo * n + hi)[order], w[order]
    clash = order[(np.diff(key, prepend=-1) == 0)
                  & (np.diff(ws, prepend=ws[:1]) != 0)]
    return lo[clash.min()], hi[clash.min()]


@pytest.mark.parametrize("seed", range(10))
def test_from_edges_names_the_earliest_of_several_conflicts(seed):
    # 4000 copies of pairs among 60 vertices, three of them with another
    # weight: the pairs are sorted unstably, and only the error path sorts
    # stably, so the pair named does not depend on the sort's tie order
    rng = np.random.default_rng(seed)
    n, m = 60, 4000
    src = rng.integers(0, n, m)
    dst = (src + rng.integers(1, n, m)) % n
    w = np.ones(m)
    w[rng.choice(m, 3, replace=False)] = 2.0
    lo, hi = _earliest_conflict(n, src, dst, w)
    with pytest.raises(ValueError,
                       match=rf"duplicate edge \({lo}, {hi}\)$"):
        SparseGraph.from_edges(n, src, dst, w)


def test_from_edges_merges_consistent_duplicates():
    g = SparseGraph.from_edges(3, [0, 1, 1], [1, 0, 2], [1.5, 1.5, 2.0])
    assert g.n_edges == 2
    assert np.allclose(g.degrees(), [1.5, 3.5, 2.0])


def _csr(g):
    return g.indptr, g.indices, g.weights


def test_from_edges_ignores_edge_order_and_orientation():
    g = sensor_graph(60, seed=2)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    upper = rows < g.indices
    src, dst, w = rows[upper], g.indices[upper], g.weights[upper]
    rng = np.random.default_rng(0)
    flip = rng.random(src.size) < 0.5
    twice = rng.random(src.size) < 0.3
    src2 = np.concatenate([np.where(flip, dst, src), dst[twice]])
    dst2 = np.concatenate([np.where(flip, src, dst), src[twice]])
    w2 = np.concatenate([w, w[twice]])
    perm = rng.permutation(src2.size)
    h = SparseGraph.from_edges(g.n, src2[perm], dst2[perm], w2[perm])
    for a, b in zip(_csr(g), _csr(h)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # every pair from both ends, as sensor_graph passes its k-NN pairs
    both = SparseGraph.from_edges(g.n, np.r_[src, dst], np.r_[dst, src],
                                  np.r_[w, w])
    for a, b in zip(_csr(g), _csr(both)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("make", [
    lambda: sensor_graph(300, k=1, seed=0), lambda: grid_graph(7, 9),
    lambda: clique_chain_graph([4, 6, 3]), lambda: path_graph(1)])
def test_edges_rebuild_the_graph(make):
    g = make()
    src, dst, w = g.edges()
    assert src.size == g.n_edges and np.all(src < dst)
    # CSR order: by source, then by destination
    assert np.all(np.diff(src * g.n + dst) > 0)
    h = SparseGraph.from_edges(g.n, src, dst, w)
    for a, b in zip(_csr(g), _csr(h)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _lap_sha256(lap):
    h = hashlib.sha256()
    for a, dtype in zip((lap.indptr, lap.indices, lap.data,
                         np.float64(lap.lambda_max_bound)),
                        ("<i8", "<i8", "<f8", "<f8")):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


def test_laplacians_match_recorded_arrays():
    # digests of the Laplacian arrays and bound, recorded before degrees
    # and the edge-degree bound read the graph through edges()
    for g, kind, digest in [
            (sensor_graph(2000, seed=0), "combinatorial",
             "d6019ff79e8b55e40e29eb7f19bfb23b"
             "9317fdfd72cfa2510ca0bfa7482b4242"),
            (sensor_graph(2000, seed=0), "normalized",
             "9407f6618c37de3cd708b15a9be96ea2"
             "f16c7be992a95fdcfdea19c1dd667d80"),
            (grid_graph(30, 40), "combinatorial",
             "d85a217295db209420b714d862b991bd"
             "3b9054dde838ef0c806fc349978bf6b3"),
            (grid_graph(30, 40), "normalized",
             "65ad1fd6b53899c66c64d787306d5234"
             "d4657f4bb823fe9e95322a75e4c2fc9c")]:
        assert _lap_sha256(build_laplacian(g, kind)) == digest, (g.n, kind)


def _digest(*arrays):
    # the arrays' dtypes and bytes
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _scipy_graph(n, lo, hi, w):
    # the graph's CSR matrix as scipy.sparse assembles it from COO
    adj = scipy.sparse.coo_matrix(
        (np.r_[w, w], (np.r_[lo, hi], np.r_[hi, lo])), shape=(n, n)).tocsr()
    adj.sort_indices()
    return adj


def _scipy_laplacian(adj, kind):
    # diags minus W, and the normalized kind by two diagonal products; the
    # row sums in CSR order, as SparseGraph.degrees adds them
    deg = np.bincount(np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr)),
                      weights=adj.data, minlength=adj.shape[0])
    lap = scipy.sparse.diags(deg) - adj
    if kind == "normalized":
        dinv = scipy.sparse.diags(1.0 / np.sqrt(deg))
        lap = dinv @ lap @ dinv
    lap = scipy.sparse.csr_matrix(lap)
    lap.sort_indices()
    return lap.indptr, lap.indices, lap.data


def _quiet_from_edges(n, src, dst, w):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # disconnected
        return SparseGraph.from_edges(n, src, dst, w)


def _isolated_vertices_graph():
    # a 12-vertex path with weights of every scale, an edge 13-15, and
    # vertices 12 and 14 without edges
    lo = np.r_[np.arange(11), 13]
    return _quiet_from_edges(16, lo, np.r_[lo[:11] + 1, 15],
                             np.r_[np.geomspace(1e-3, 1e3, 11), 1.0])


def _underflow_graph():
    # the middle edge's normalized entry, 1e-300 / 1e300, is zero
    return SparseGraph.from_edges(4, [0, 1, 2], [1, 2, 3],
                                  [1e300, 1e-300, 1e300])


@pytest.mark.parametrize("make", [
    lambda: sensor_graph(1500, seed=5), lambda: grid_graph(25, 31),
    lambda: erdos_renyi_graph(250, 0.04, seed=3), _isolated_vertices_graph,
    _underflow_graph])
def test_assembly_matches_scipy_sparse_bitwise(make):
    # from_edges and both Laplacian kinds equal scipy's own assembly in
    # every array and dtype, given the pairs shuffled, in either
    # orientation, and a third of them twice
    g = make()
    n, (lo, hi, w) = g.n, g.edges()
    rng = np.random.default_rng(n)
    copies = rng.permutation(np.r_[np.arange(lo.size),
                                   rng.choice(lo.size, lo.size // 3)])
    flip = rng.random(copies.size) < 0.5
    g = _quiet_from_edges(n, np.where(flip, hi[copies], lo[copies]),
                          np.where(flip, lo[copies], hi[copies]), w[copies])
    adj = _scipy_graph(n, lo, hi, w)
    assert _digest(*_csr(g)) == _digest(adj.indptr.astype(np.int64),
                                        adj.indices.astype(np.int64),
                                        adj.data)
    kinds = ["combinatorial", "normalized"][:1 + g.degrees().all()]
    for kind in kinds:
        lap = build_laplacian(g, kind)
        assert _digest(lap.indptr, lap.indices, lap.data) == _digest(
            *_scipy_laplacian(adj, kind))


@pytest.mark.parametrize("make", [
    lambda: sensor_graph(1500, seed=5), lambda: grid_graph(25, 31),
    lambda: erdos_renyi_graph(250, 0.04, seed=3), _isolated_vertices_graph,
    lambda: _quiet_from_edges(5, [], [], [])])
def test_combinatorial_bound_is_the_edge_maximum(make):
    # max(d_i + d_j) over every stored entry is the maximum over edges, as
    # both halves are stored; a graph without edges records 1.0
    g = make()
    deg = g.degrees()
    src, dst, _ = g.edges()
    want = float(np.max(deg[src] + deg[dst])) if src.size else 1.0
    bound = build_laplacian(g).lambda_max_bound
    assert type(bound) is float and bound == want


def test_assembly_drops_zero_entries():
    # scipy drops an isolated vertex's zero diagonal and a normalized entry
    # that underflows; so does build_laplacian
    lap = build_laplacian(_isolated_vertices_graph())
    assert np.array_equal(np.diff(lap.indptr)[[12, 14]], [0, 0])
    lap = build_laplacian(_underflow_graph(), "normalized")
    assert lap.indices.tolist() == [0, 1, 0, 1, 2, 3, 2, 3]


def test_chebyshev_operator_inserts_diagonals_as_scipy_does():
    # rows without a stored diagonal take scipy's L * scale - I * shift
    lap = build_laplacian(_isolated_vertices_graph())
    for lambda_bar in (lap.lambda_max_bound, 2.7 * lap.lambda_max_bound):
        scale = 4.0 / lambda_bar
        want = (lap.to_scipy() * scale - scipy.sparse.identity(lap.n)
                * (scale * (lambda_bar / 2.0))).tocsr()
        assert _digest(*lap.chebyshev_operator(lambda_bar)) == _digest(
            want.indptr, want.indices, want.data)


def _csr_sha256(g):
    h = hashlib.sha256()
    for a, dtype in zip(_csr(g), ("<i8", "<i8", "<f8")):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


def test_sensor_graphs_match_recorded_csr():
    # digests of the CSR arrays as first generated; k=1 leaves 87
    # components for the bridging step to join
    assert _csr_sha256(sensor_graph(300, seed=0)) == (
        "694a5f58b9204f20ae53b7ae6cc3cf267d324b4fc2b400fd4f7fe6167e188594")
    assert _csr_sha256(sensor_graph(300, k=1, seed=0)) == (
        "5e7f9ccfc517585e1a0bed0e7c7b535e210e133688d72ca4050d14d78d2d403c")
    # recorded from the k-d tree search that the cell grid replaced
    for n, k, seed, digest in [
            (20000, 6, 0, "10c2ab3d0385e73330ed30b73a41f60b"
                          "9f45b2d99952a3984883b7076a800cef"),
            (5000, 1, 0, "6765fc768eb37f69838c4e38454b0544"
                         "ba10e82e66f9d25cd863a9beae594f94"),
            (2000, 2, 5, "cc7aad60e65fae3ec0631d657b1c275b"
                         "548f3898647d811f9787f9c95637875c"),
            (20000, 3, 2, "8d3bddee31d5fdeb99182b8a2c3a5bf2"
                          "62592e82dda242986b95a15f1a851d8b")]:
        assert _csr_sha256(sensor_graph(n, k=k, seed=seed)) == digest, (
            n, k, seed)


def _sensor_reference(n, k, seed):
    """sensor_graph from all-pairs squared distances dx*dx + dy*dy: each
    point's k nearest others, then the closest pair across components
    joined first, the smallest (distance, i, j) on a tie."""
    pts = np.random.default_rng(seed).random((n, 2))
    dx = pts[:, None, 0] - pts[None, :, 0]
    dy = pts[:, None, 1] - pts[None, :, 1]
    d2 = dx * dx + dy * dy
    order = np.argsort(d2, axis=1, kind="stable")[:, :k + 1]
    assert np.array_equal(order[:, 0], np.arange(n))  # no duplicate points
    dists = np.sqrt(np.take_along_axis(d2, order, axis=1))[:, 1:]
    theta = float(dists.mean())
    edges = {}
    for i in range(n):
        for j, d in zip(order[i, 1:], dists[i]):
            edges.setdefault((min(i, j), max(i, j)), d)
    label = list(range(n))

    def find(v):
        while label[v] != v:
            v = label[v]
        return v

    for i, j in edges:
        label[find(i)] = find(j)
    while True:
        roots = np.array([find(v) for v in range(n)])
        if np.unique(roots).size == 1:
            break
        cross = np.where(roots[:, None] != roots[None, :], d2, np.inf)
        i, j = divmod(int(np.argmin(cross)), n)  # first (i, j) on a tie
        edges[(i, j)] = np.sqrt(d2[i, j])
        label[find(i)] = find(j)
    (src, dst), dd = np.array(list(edges)).T, np.array(list(edges.values()))
    return SparseGraph.from_edges(n, src, dst,
                                  np.exp(-dd ** 2 / (2 * theta ** 2)),
                                  coords=pts)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), k=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=2, k=1, seed=0)
@example(n=300, k=1, seed=0)
@example(n=9, k=8, seed=3)
def test_sensor_graph_matches_brute_force_reference(n, k, seed):
    k = min(k, n - 1)
    got = sensor_graph(n, k=k, seed=seed)
    want = _sensor_reference(n, k, seed)
    for a, b in zip(_csr(got), _csr(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(got.coords, want.coords)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 200), m=st.integers(1, 9), clumps=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=2, m=2, clumps=2, seed=0)
def test_cell_grid_searches_are_exact_on_clumped_points(n, m, clumps, seed):
    # points in a few tight clumps leave most cells empty, so the searches
    # must widen their windows, up to the whole square, to stay exact
    rng = np.random.default_rng(seed)
    centres = 0.03 + 0.94 * rng.random((clumps, 2))
    clump = rng.integers(clumps, size=n)
    pts = centres[clump] + rng.uniform(-0.03, 0.03, (n, 2))
    dx = pts[:, None, 0] - pts[None, :, 0]
    dy = pts[:, None, 1] - pts[None, :, 1]
    d2 = dx * dx + dy * dy
    grid = generators._CellGrid(pts)
    m = min(m, n)
    dists, nbrs = grid.nearest(m)
    want = np.argsort(d2, axis=1, kind="stable")[:, :m]
    assert np.array_equal(nbrs, want)
    assert np.array_equal(dists, np.sqrt(np.take_along_axis(d2, want, 1)))
    # one component per clump, labelled by its smallest point
    comp = np.full(clumps, n)
    np.minimum.at(comp, clump, np.arange(n))
    comp = comp[clump]
    labels, sizes = np.unique(comp, return_counts=True)
    if labels.size < 2:
        return
    skip = labels[np.argmax(sizes)]
    i, j, got = grid.closest_outside(comp, skip)
    assert np.array_equal(got, d2[i, j]) and np.all(comp[i] != comp[j])
    for c in labels[labels != skip]:
        cross = np.where((comp == c)[:, None] & (comp != c)[None, :], d2,
                         np.inf)
        best = cross.min()
        mine = comp[i] == c
        assert got[mine].min() == best
        first = np.flatnonzero(cross.min(axis=1) == best)[0]
        assert i[mine][got[mine] == best].min() == first


def test_erdos_renyi_matches_one_draw_per_triangle_pair():
    for n, p, seed in [(1, 0.5, 0), (2, 1.0, 0), (65, 0.1, 1),
                       (150, 0.08, 3), (200, 0.3, 4)]:
        iu, ju = np.triu_indices(n, k=1)
        keep = np.random.default_rng(seed).random(iu.size) < p
        ref = SparseGraph.from_edges(n, iu[keep], ju[keep],
                                     np.ones(int(keep.sum())))
        g = erdos_renyi_graph(n, p, seed=seed)
        for a, b in zip(_csr(ref), _csr(g)):
            assert np.array_equal(a, b)


def test_disconnected_graph_warns():
    with pytest.warns(UserWarning, match="disconnected"):
        g = SparseGraph.from_edges(4, [0, 2], [1, 3], [1.0, 1.0])
    assert not g.is_connected()
    d = g.hop_distances(0)
    assert d[1] == 1 and d[2] == -1 and d[3] == -1


def test_hop_distances_on_path():
    g = path_graph(6)
    assert np.array_equal(g.hop_distances(0), np.arange(6))
    assert np.array_equal(g.hop_distances(5), np.arange(6)[::-1])


def _bfs_hops(g, source):
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.indices[g.indptr[u]:g.indptr[u + 1]]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def test_hop_distances_match_breadth_first_search():
    with pytest.warns(UserWarning, match="disconnected"):
        split = SparseGraph.from_edges(7, [0, 1, 3, 4, 4], [1, 2, 4, 5, 6],
                                       np.ones(5))
    graphs = [split, sensor_graph(80, seed=3), grid_graph(5, 7),
              clique_chain_graph([3, 4, 5])]
    for g in graphs:
        for source in (0, g.n // 2, g.n - 1):
            got = g.hop_distances(source)
            assert got.dtype == np.int64
            assert np.array_equal(got, _bfs_hops(g, source))
        assert g.is_connected() == bool(np.all(_bfs_hops(g, 0) >= 0))


def test_is_connected_edge_cases():
    assert SparseGraph.from_edges(0, [], [], []).is_connected()
    assert SparseGraph.from_edges(1, [], [], []).is_connected()
    assert not SparseGraph.from_edges(2, [], [], []).is_connected()


def _csgraph_roots(n, src, dst):
    """The smallest vertex of each vertex's component, by scipy's labels."""
    adj = scipy.sparse.coo_matrix((np.ones(len(src)), (src, dst)),
                                  shape=(n, n))
    _, labels = scipy.sparse.csgraph.connected_components(adj, directed=False)
    _, first = np.unique(labels, return_index=True)
    return first[labels]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), data=st.data())
@example(n=0, data=None)
@example(n=1, data=None)
@example(n=2, data=None)
def test_component_roots_match_csgraph(n, data):
    # random edge lists: several components, isolated vertices, repeated
    # pairs in both orientations
    pairs = [] if data is None or n == 0 else data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n))
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    roots = component_roots(n, src, dst)
    assert np.array_equal(roots, _csgraph_roots(n, src, dst))
    keep = src != dst
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = SparseGraph.from_edges(n, src[keep], dst[keep],
                                   np.ones(int(keep.sum())))
    one = np.unique(roots).size <= 1
    assert g.is_connected() == one
    assert len(caught) == int(bool(keep.any()) and not one)


def test_component_roots_hook_onto_the_smallest_root():
    # a star whose centre is its largest vertex: hooking the centre onto
    # any smaller root instead of the smallest would join one leaf a round
    n = 20000
    leaves = np.arange(n - 1)
    t0 = time.perf_counter()
    roots = component_roots(n, leaves, np.full(n - 1, n - 1))
    assert not roots.any()
    assert time.perf_counter() - t0 < 2.0  # about 1 ms; 20 s leaf by leaf


@pytest.mark.parametrize("n,k", [(300, 6), (300, 1), (300, 2), (5000, 6),
                                 (20000, 6)])
def test_sensor_graph_bridging_matches_csgraph_components(monkeypatch, n, k):
    # the bridging step sees only the partition of the k-NN graph, so
    # scipy's components must give the same graph bit for bit
    for seed in range(4):
        got = sensor_graph(n, k=k, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(generators, "component_roots", _csgraph_roots)
            want = sensor_graph(n, k=k, seed=seed)
        for a, b in zip(_csr(got), _csr(want)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.is_connected()


def test_grid_graph_shape():
    g = grid_graph(3, 4)
    assert g.n == 12
    # interior vertices have 4 neighbors, corners 2
    deg = g.degrees()
    assert deg.min() == 2.0 and deg.max() == 4.0
    assert g.n_edges == 3 * 3 + 2 * 4  # 9 horizontal + 8 vertical
    assert g.is_connected()


def test_zero_degree_vertex_rejected_for_normalized():
    with pytest.warns(UserWarning, match="disconnected"):
        g = SparseGraph.from_edges(3, [0], [1], [1.0])
    with pytest.raises(ValueError, match="degree"):
        build_laplacian(g, kind="normalized")


def test_matvec_matches_dense():
    g = sensor_graph(30, seed=0)
    for kind in ("combinatorial", "normalized"):
        lap = build_laplacian(g, kind=kind)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(g.n)
        assert np.allclose(lap.matvec(x), lap.toarray() @ x, atol=1e-12)


def test_eigendecompose_sign_convention_and_roundtrip():
    lap = build_laplacian(sensor_graph(25, seed=4), kind="combinatorial")
    eig = eigendecompose(lap)
    for k in range(eig.n):
        col = eig.vectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0
    rng = np.random.default_rng(5)
    f = rng.standard_normal(25)
    assert np.allclose(eig.inverse_fourier(eig.fourier(f)), f, atol=1e-10)
    # columns diagonalize the operator
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.allclose(recon, lap.toarray(), atol=1e-9)


def test_eigendecompose_size_guard():
    lap = build_laplacian(path_graph(5), kind="combinatorial")
    with pytest.raises(ValueError, match="polynomial"):
        eigendecompose(lap, max_n=4)


def test_lanczos_upper_bound_close():
    # Ritz values of path and cycle graphs sit so close to the analytic
    # bound 4 that the 1.01 margin alone would overshoot it
    cases = [(sensor_graph(120, seed=seed), seed) for seed in range(3)]
    cases += [(path_graph(200), 0), (cycle_graph(200), 0)]
    for g, seed in cases:
        lap = build_laplacian(g, kind="combinatorial")
        true_top = eigendecompose(lap).values[-1]
        est = lanczos_lambda_max(lap, seed=seed)
        assert true_top <= est <= 1.05 * true_top
        assert est <= lap.lambda_max_bound + 1e-9


def _reorthogonalized_top_ritz(lap, steps, seed):
    """Top Ritz value of Lanczos with full Gram-Schmidt, done twice."""
    n = lap.n
    steps = min(steps, n)
    v = np.random.default_rng(seed).standard_normal(n)
    v /= np.linalg.norm(v)
    basis = np.zeros((steps, n))
    alphas, betas = [], []
    for k in range(steps):
        basis[k] = v
        w = lap.matvec(v)
        alphas.append(v @ w)
        for _ in range(2):
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        beta = np.linalg.norm(w)
        if k == steps - 1 or beta <= 1e-12 * lap.lambda_max_bound:
            break
        betas.append(beta)
        v = w / beta
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    return np.linalg.eigvalsh(t)[-1]


def test_lanczos_top_ritz_matches_reorthogonalized_reference():
    # a doubled recorded bound lifts the cap, so the estimate is 1.01 times
    # the top Ritz value of the three-term recurrence
    cases = [(sensor_graph(2000, seed=4), 30), (grid_graph(60, 60), 30),
             (erdos_renyi_graph(400, 0.03, seed=2), 30)]
    cases += [(path_graph(n), steps) for n in (2, 3, 5, 12)
              for steps in (n, 30)]
    for g, steps in cases:
        lap = build_laplacian(g, kind="combinatorial")
        for seed in (0, 1):
            est = lanczos_lambda_max(
                lap.with_lambda_bound(2 * lap.lambda_max_bound), steps, seed)
            ref = _reorthogonalized_top_ritz(lap, steps, seed)
            assert est / 1.01 == pytest.approx(ref, rel=1e-10, abs=0)


def test_lanczos_makes_one_product_per_step(monkeypatch):
    calls = []
    product = _kernels.csr_matvec

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(_kernels, "csr_matvec", counted)
    for g, steps, expect in ((grid_graph(30, 30), 30, 30),
                             (sensor_graph(500, seed=1), 17, 17),
                             (path_graph(5), 30, 5)):
        lap = build_laplacian(g, kind="combinatorial")
        calls.clear()
        lanczos_lambda_max(lap, steps=steps)
        assert len(calls) == expect


def test_lanczos_memory_is_a_few_vectors():
    # a stored Lanczos basis of 30 steps alone would be 30 N-vectors
    lap = build_laplacian(grid_graph(200, 200), kind="combinatorial")
    tracemalloc.start()
    try:
        lanczos_lambda_max(lap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * lap.n * 8


def test_lanczos_breakdown_test_is_scale_free():
    # with an absolute breakdown threshold, weights of 1e-13 stopped the
    # recurrence after one step and the interval missed half the spectrum
    src = np.arange(199)
    for scale in (1e-13, 1.0, 1e8):
        g = SparseGraph.from_edges(200, src, src + 1, np.full(199, scale))
        lap = build_laplacian(g, kind="combinatorial")
        true_top = eigendecompose(lap).values[-1]
        est = lanczos_lambda_max(lap)
        assert true_top <= est <= 1.05 * true_top


def test_with_lambda_bound():
    lap = build_laplacian(path_graph(4), kind="combinatorial")
    tight = lap.with_lambda_bound(3.5)
    assert tight.lambda_max_bound == 3.5
    assert lap.lambda_max_bound != 3.5
    assert np.array_equal(tight.data, lap.data)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            lap.with_lambda_bound(bad)


def test_as_signal_validates():
    f = as_signal(3, [1, 2, 3])
    assert f.dtype == np.float64
    with pytest.raises(ValueError):
        as_signal(3, [1, 2])
    with pytest.raises(ValueError):
        as_signal(2, [1.0, np.inf])
