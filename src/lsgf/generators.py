"""Deterministic graph and test-signal generators.

Every randomized generator takes an explicit seed and draws from its own
numpy Generator, so artifacts are reproducible across runs and machines.
Sensor graphs find nearest neighbours and bridging pairs by an exact search
over a numpy grid of cells, so no command loads scipy.spatial.
"""

import numpy as np

from .graphs import (SparseGraph, build_laplacian, component_roots,
                     eigendecompose)

_ER_ROWS = 64  # rows of the upper triangle drawn per erdos_renyi_graph block
_GRID_LOAD = 3  # points per cell of a sensor graph's search grid, on average
_GRID_CHUNK = 2048  # queries per block of a grid search
_GRID_SLACK = 1e-12  # absolute allowance for rounding in a window's margin


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
    # each vertex's right neighbour, then the one below it: the pairs come
    # in the (lo, hi) order that from_edges takes without sorting
    v = np.arange(rows * cols)
    rr, cc = np.divmod(v, cols)
    keep = np.column_stack([cc < cols - 1, rr < rows - 1]).ravel()
    src = np.repeat(v, 2)[keep]
    dst = np.column_stack([v + 1, v + cols]).ravel()[keep]
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
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    grid = _CellGrid(pts)
    dists, nbrs = grid.nearest(k + 1)
    dists, nbrs = dists[:, 1:], nbrs[:, 1:]
    theta = float(dists.mean())

    # a pair found from both ends reads one distance both ways, since
    # dx*dx + dy*dy is symmetric bit for bit: from_edges keeps one copy
    own = np.repeat(np.arange(n), k)
    nbrs = nbrs.ravel()
    edges = [(own, nbrs, dists.ravel())]

    # Boruvka rounds: every component but the largest takes its closest
    # outside pair, the first in index order on a tie.  Each such pair is
    # an edge of the minimum spanning forest of the components, so the
    # edges are those of joining the globally closest pair first.  Two
    # components may pick one pair from both ends: from_edges keeps one.
    comp = component_roots(n, own, nbrs)
    while comp.any():
        i, j, d2 = grid.closest_outside(comp, np.argmax(np.bincount(comp)))
        c = comp[i]
        o = np.lexsort((i, d2, c))
        o = o[np.r_[True, c[o[1:]] != c[o[:-1]]]]
        i, j, d2 = i[o], j[o], d2[o]
        edges.append((i, j, np.sqrt(d2)))
        comp = component_roots(n, comp[i], comp[j])[comp]
    src, dst, dd = (np.hstack(col) for col in zip(*edges))
    w = np.exp(-dd ** 2 / (2 * theta ** 2))
    return SparseGraph.from_edges(n, src, dst, w, coords=pts)


class _CellGrid:
    """Points of [0, 1)^2 bucketed into a g x g grid of cells, for exact
    nearest-point searches in expected linear time (Bentley, Weide & Yao,
    ACM TOMS 6, 1980).

    About _GRID_LOAD points share a cell.  The points are sorted by cell id,
    row by row, and start[c] is cell c's first position as in CSR, so a row
    of adjacent cells is one contiguous range of the sorted order.  Position
    n holds a sentinel at (+inf, +inf), so that padding reads distance inf.
    A search looks at the cells within r of a query's cell and trusts the
    result only when it lies strictly closer than the nearest window edge
    that is not the domain boundary; the rest are searched again with r
    doubled.  Queries go in blocks of cells whose r = 1 windows hold about
    as many points, so that little of a block is padding.  Squared
    distances are dx*dx + dy*dy and distances their square roots, as
    scipy's cKDTree computes them.
    """

    def __init__(self, pts):
        self.n = n = len(pts)
        self.g = g = max(1, int(np.sqrt(n / _GRID_LOAD)))
        cells = np.minimum((pts * g).astype(np.int64), g - 1)
        cell = cells[:, 1] * g + cells[:, 0]
        self.order = np.argsort(cell, kind="stable")
        self.cell = cell[self.order]
        self.start = np.zeros(g * g + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell, minlength=g * g), out=self.start[1:])
        self.x, self.y = (np.append(pts[self.order, a], np.inf)
                          for a in (0, 1))
        # every position, grouped by cell, cells by the size of their window
        _, cnt = self._strips(np.arange(g * g), 1)
        by_size = np.argsort(cnt.sum(axis=1), kind="stable")
        self.queue = _ranges(self.start[by_size], self.start[by_size + 1])

    def nearest(self, m):
        """(dists, nbrs), each (n, m): every point's m nearest points,
        nearest first, by original index.  A point is its own nearest."""
        n = self.n
        dists = np.empty((n, m))
        nbrs = np.empty((n, m), dtype=np.int64)
        for q0 in range(0, n, _GRID_CHUNK):
            q, r = self.queue[q0:q0 + _GRID_CHUNK], 1
            while q.size:
                cand, d2, margin2 = self._window(q, r, m)
                if cand.shape[1] > m:
                    part = np.argpartition(d2, m - 1, axis=1)[:, :m]
                    cand = np.take_along_axis(cand, part, axis=1)
                    d2 = np.take_along_axis(d2, part, axis=1)
                part = np.argsort(d2, axis=1, kind="stable")
                d2 = np.take_along_axis(d2, part, axis=1)
                cand = np.take_along_axis(cand, part, axis=1)
                ok = d2[:, -1] < margin2
                rows = self.order[q[ok]]
                dists[rows] = np.sqrt(d2[ok])
                nbrs[rows] = self.order[cand[ok]]
                q, r = q[~ok], 2 * r
        return dists, nbrs

    def closest_outside(self, comp, skip):
        """(i, j, d2) per point i whose component label comp[i] is not
        skip: the closest point j of another component, at squared
        distance d2.  Points that cannot beat the closest pair already
        found for their component may be left out."""
        label = np.append(comp[self.order], -1)
        best = np.full(self.n, np.inf)  # per component label
        found = []
        q, r = self.queue[label[self.queue] != skip], 1
        while q.size:
            again = []
            step = max(1, _GRID_CHUNK // (r * r))  # windows grow as r^2
            for q0 in range(0, q.size, step):
                qq = q[q0:q0 + step]
                cand, d2, margin2 = self._window(qq, r, 1)
                d2[label[cand] == label[qq, None]] = np.inf
                a = np.argmin(d2, axis=1)
                d2 = d2[np.arange(qq.size), a]
                ok = d2 < margin2
                found.append((qq[ok], cand[ok, a[ok]], d2[ok]))
                np.minimum.at(best, label[qq[ok]], d2[ok])
                again.append((qq[~ok], margin2[~ok]))
            # nothing outside the window is closer than its edge
            q, margin2 = (np.concatenate(col) for col in zip(*again))
            q, r = q[margin2 <= best[label[q]]], 2 * r
        i, j, d2 = (np.concatenate(col) for col in zip(*found))
        return self.order[i], self.order[j], d2

    def _strips(self, cells, r):
        """(lo, cnt), each (len(cells), 2r + 1): the first sorted position
        and the point count of every row of cells within r of each cell."""
        g, start = self.g, self.start
        cy, cx = np.divmod(cells, g)
        rows = cy[:, None] + np.arange(-r, r + 1)
        valid = (rows >= 0) & (rows < g)
        rows = np.clip(rows, 0, g - 1) * g
        lo = start[rows + np.maximum(cx - r, 0)[:, None]]
        hi = start[rows + np.minimum(cx + r, g - 1)[:, None] + 1]
        return lo, np.where(valid, hi - lo, 0)

    def _window(self, q, r, width):
        """(cand, d2, margin2) for the sorted positions q, in which the
        queries of one cell are adjacent: the positions of every point
        within r cells of each query's cell, padded with the sentinel to at
        least width columns, their squared distances, and the squared
        distance from each query to the nearest window edge that is not the
        domain boundary (inf when the window is the whole domain), less
        _GRID_SLACK for rounding."""
        g, cell = self.g, self.cell[q]
        first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        which = np.repeat(np.arange(first.size),
                          np.diff(np.append(first, q.size)))
        lo, cnt = self._strips(cell[first], r)
        size = cnt.sum(axis=1)
        cand = np.full((first.size, max(width, int(size.max()))), self.n)
        cand[np.repeat(np.arange(first.size), size),
             _ranges(np.zeros_like(size), size)] = _ranges(lo.ravel(),
                                                           (lo + cnt).ravel())
        cand = cand[which]
        px, py = self.x[q], self.y[q]
        d2, dy = self.x[cand], self.y[cand]  # in place: fewer temporaries
        d2 -= px[:, None]
        d2 *= d2
        dy -= py[:, None]
        dy *= dy
        d2 += dy
        cy, cx = np.divmod(cell, g)
        margin = np.minimum.reduce([
            np.where(cx > r, px - (cx - r) / g, np.inf),
            np.where(cx + r + 1 < g, (cx + r + 1) / g - px, np.inf),
            np.where(cy > r, py - (cy - r) / g, np.inf),
            np.where(cy + r + 1 < g, (cy + r + 1) / g - py, np.inf)])
        margin = np.maximum(margin - _GRID_SLACK, 0.0)
        return cand, d2, margin * margin


def _ranges(lo, hi):
    """The concatenation of arange(lo[i], hi[i]) over i."""
    cnt = hi - lo
    return (np.arange(int(cnt.sum()))
            + np.repeat(lo - np.cumsum(cnt) + cnt, cnt))


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
