"""Deterministic graph and test-signal generators.

Every randomized generator takes an explicit seed and draws from its own
numpy Generator, so artifacts are reproducible across runs and machines.
"""

import numpy as np

from .graphs import (SparseGraph, build_laplacian, component_roots,
                     eigendecompose)

_ER_ROWS = 64  # rows of the upper triangle drawn per erdos_renyi_graph block


def path_graph(n):
    """Path on n vertices with unit weights."""
    if n < 1:
        raise ValueError(f"a path needs n >= 1 vertices, got {n}")
    src = np.arange(n - 1)
    return SparseGraph.from_edges(n, src, src + 1, np.ones(n - 1),
                                  coords=np.column_stack(
                                      [np.arange(n), np.zeros(n)]))


def cycle_graph(n):
    """Cycle on n vertices with unit weights."""
    if n < 3:
        raise ValueError(f"a cycle needs n >= 3 vertices, got {n}")
    src = np.arange(n)
    dst = (src + 1) % n
    t = 2 * np.pi * np.arange(n) / n
    return SparseGraph.from_edges(n, src, dst, np.ones(n),
                                  coords=np.column_stack(
                                      [np.cos(t), np.sin(t)]))


def grid_graph(rows, cols):
    """rows x cols lattice with unit weights."""
    if rows < 1 or cols < 1:
        raise ValueError(f"a grid needs rows, cols >= 1, got {rows} x {cols}")
    idx = np.arange(rows * cols).reshape(rows, cols)
    src = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    dst = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    rr, cc = np.divmod(np.arange(rows * cols), cols)
    return SparseGraph.from_edges(rows * cols, src, dst,
                                  np.ones(src.size),
                                  coords=np.column_stack([cc, rr]))


def erdos_renyi_graph(n, p, seed=0):
    """G(n, p) with unit weights.  Disconnected draws trigger a warning.

    One uniform draw per pair i < j in row-major order, taken _ER_ROWS rows
    at a time from one stream: O(n) memory besides the edges, and the same
    graph as drawing the whole triangle at once.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability p must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    src, dst = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for r0 in range(0, n, _ER_ROWS):
        rows = np.arange(r0, min(r0 + _ER_ROWS, n))
        starts = np.concatenate([[0], np.cumsum(n - 1 - rows)])
        k = np.flatnonzero(rng.random(starts[-1]) < p)
        r = np.searchsorted(starts, k, side="right") - 1
        src.append(rows[r])
        dst.append(rows[r] + 1 + k - starts[r])
    src, dst = np.concatenate(src), np.concatenate(dst)
    return SparseGraph.from_edges(n, src, dst, np.ones(src.size))


def sensor_graph(n, k=6, seed=0):
    """Random sensor graph: k-NN on uniform points with Gaussian weights.

    The k-nearest-neighbor graph is symmetrized; edge weights are
    exp(-d^2 / (2 theta^2)) with theta the mean neighbor distance.  If the
    k-NN graph is disconnected, closest pairs across components are bridged
    so the result is always connected.  Needs 1 <= k < n.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 1 <= k < n:
        raise ValueError(f"sensor graphs need 1 <= k < n neighbors, got "
                         f"k={k} for n={n}")
    import scipy.spatial  # here, so that starting the CLI does not load it
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    tree = scipy.spatial.cKDTree(pts)
    dists, nbrs = tree.query(pts, k=k + 1)
    dists, nbrs = dists[:, 1:], nbrs[:, 1:]
    theta = float(dists.mean())

    # a pair found from both ends keeps the distance seen first, row-major
    own = np.repeat(np.arange(n), k)
    nbrs = nbrs.ravel()
    lo, hi = np.minimum(own, nbrs), np.maximum(own, nbrs)
    _, first = np.unique(lo * n + hi, return_index=True)
    lo, hi, dd = lo[first], hi[first], dists.ravel()[first]
    edges = [(lo, hi, dd)]

    # join the closest pair across components until one is left; a merge
    # moves no other component's closest outside point
    comp = component_roots(n, lo, hi)
    labels = np.flatnonzero(comp == np.arange(n))
    near = {c: _closest_outside(pts, comp == c)
            for c in labels} if labels.size > 1 else {}
    while len(near) > 1:
        d, i, j = min(near.values())
        edges.append((i, j, d))
        del near[comp[j]]
        comp[comp == comp[j]] = comp[i]
        if len(near) > 1:
            near[comp[i]] = _closest_outside(pts, comp == comp[i])
    src, dst, dd = (np.hstack(col) for col in zip(*edges))
    w = np.exp(-dd ** 2 / (2 * theta ** 2))
    return SparseGraph.from_edges(n, src, dst, w, coords=pts)


def _closest_outside(pts, inside):
    """(distance, i, j) of the closest pair with i inside and j outside."""
    import scipy.spatial
    ia, ib = np.flatnonzero(inside), np.flatnonzero(~inside)
    d, b = scipy.spatial.cKDTree(pts[ib]).query(pts[ia])
    a = int(np.argmin(d))
    return float(d[a]), int(ia[a]), int(ib[b[a]])


def clique_chain_graph(sizes, link_weight=0.01):
    """Disjoint cliques joined in a chain by weak links.

    Produces a spectrum with tight eigenvalue clusters near each clique size
    (and near zero), separated by wide gaps; useful for stressing filter
    designs against repeated eigenvalues.
    """
    src, dst, w = [], [], []
    offset = 0
    anchors = []
    for m in sizes:
        iu, ju = np.triu_indices(m, k=1)
        src.append(iu + offset)
        dst.append(ju + offset)
        w.append(np.ones(iu.size))
        anchors.append(offset)
        offset += m
    anchors = np.array(anchors)
    if anchors.size > 1:
        src.append(anchors[:-1])
        dst.append(anchors[1:])
        w.append(np.full(anchors.size - 1, link_weight))
    return SparseGraph.from_edges(offset, np.concatenate(src),
                                  np.concatenate(dst), np.concatenate(w))


# ---------------------------------------------------------------------------
# test signals
# ---------------------------------------------------------------------------

def fiedler_partition(graph, n_parts, eig=None):
    """Split vertices into n_parts equal-count bins along the Fiedler vector."""
    if eig is None:
        eig = eigendecompose(build_laplacian(graph))
    fiedler = eig.vectors[:, 1]
    order = np.argsort(fiedler, kind="stable")
    labels = np.empty(graph.n, dtype=np.int64)
    for part, chunk in enumerate(np.array_split(order, n_parts)):
        labels[chunk] = part
    return labels


def piecewise_constant_signal(graph, n_parts=4, seed=0, eig=None):
    """Constant value per Fiedler-partition cluster, distinct across clusters."""
    rng = np.random.default_rng(seed)
    labels = fiedler_partition(graph, n_parts, eig=eig)
    levels = rng.permutation(np.linspace(-1.0, 1.0, n_parts))
    return levels[labels]


def piecewise_smooth_signal(graph, n_parts=4, n_modes=3, seed=0, eig=None):
    """Low-order eigenvector mixture per cluster plus jumps across clusters.

    Within each Fiedler-partition cluster the signal is an offset plus a
    random combination of the first few nonconstant global eigenvectors, so
    it is smooth inside clusters and discontinuous across their boundaries.
    """
    rng = np.random.default_rng(seed)
    if eig is None:
        eig = eigendecompose(build_laplacian(graph))
    labels = fiedler_partition(graph, n_parts, eig=eig)
    levels = rng.permutation(np.linspace(-1.0, 1.0, n_parts))
    f = levels[labels].astype(np.float64)
    modes = eig.vectors[:, 1:1 + n_modes] * np.sqrt(graph.n)
    for part in range(n_parts):
        mask = labels == part
        coeff = rng.normal(0.0, 0.35, n_modes) / np.arange(1, n_modes + 1)
        f[mask] += modes[mask] @ coeff
    return f
