"""File formats: graphs, signals, CDFs, center sets, coefficients, configs.

Graphs travel as Matrix Market (symmetric real, 1-based) or as edge-list
CSV with a src,dst,weight header and 0-based vertex ids.  Signals are
single-column CSV with an optional header.  Coefficients use a compact
little-endian binary layout; a CSV export exists for interoperability.
"""

import struct

import numpy as np
import scipy.io
import scipy.sparse

from .frames import Coefficients
from .graphs import SparseGraph
from .sampling import CenterSets
from .spectrum import SpectralCDF

COEFF_MAGIC = b"LSGC"
COEFF_VERSION = 1


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def save_graph_mm(path, graph):
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(graph.to_scipy()),
                     symmetry="symmetric")


def load_graph_mm(path):
    mat = scipy.sparse.coo_matrix(scipy.io.mmread(str(path)))
    upper = mat.row < mat.col
    diag = mat.row == mat.col
    if np.any(diag & (mat.data != 0)):
        raise ValueError("matrix market graph carries nonzero diagonal "
                         "(self-loops)")
    return SparseGraph.from_edges(mat.shape[0], mat.row[upper],
                                  mat.col[upper], mat.data[upper])


def save_graph_csv(path, graph):
    with open(path, "w") as fh:
        fh.write("src,dst,weight\n")
        for i in range(graph.n):
            lo, hi = graph.indptr[i], graph.indptr[i + 1]
            for j, w in zip(graph.indices[lo:hi], graph.weights[lo:hi]):
                if i < j:
                    fh.write(f"{i},{j},{float(w)!r}\n")


def load_graph_csv(path):
    src, dst, w = [], [], []
    with open(path) as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if ln == 0 and not parts[0].strip().lstrip("-").isdigit():
                continue
            if len(parts) != 3:
                raise ValueError(f"line {ln + 1}: expected src,dst,weight")
            src.append(int(parts[0]))
            dst.append(int(parts[1]))
            w.append(float(parts[2]))
    if not src:
        raise ValueError("edge list is empty")
    n = max(max(src), max(dst)) + 1
    return SparseGraph.from_edges(n, src, dst, w)


def load_graph(path):
    """Dispatch on extension: .mtx / .mm for Matrix Market, else CSV."""
    p = str(path)
    if p.endswith((".mtx", ".mm")):
        return load_graph_mm(p)
    return load_graph_csv(p)


# ---------------------------------------------------------------------------
# signals and curves
# ---------------------------------------------------------------------------

def save_signal_csv(path, values, header="value"):
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")


def load_signal_csv(path):
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(float(line))
            except ValueError:
                if ln == 0:
                    continue
                raise ValueError(f"line {ln + 1}: not a number: {line!r}")
    if not out:
        raise ValueError("signal file is empty")
    return np.array(out)


def save_cdf_csv(path, cdf):
    with open(path, "w") as fh:
        fh.write("z,value\n")
        for z, v in zip(cdf.grid, cdf.values):
            fh.write(f"{float(z)!r},{float(v)!r}\n")


def load_cdf_csv(path):
    grid, values = [], []
    with open(path) as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if ln == 0 and not _is_number(parts[0]):
                continue
            if len(parts) != 2:
                raise ValueError(f"line {ln + 1}: expected z,value")
            grid.append(float(parts[0]))
            values.append(float(parts[1]))
    return SpectralCDF(grid=np.array(grid), values=np.array(values))


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# center sets
# ---------------------------------------------------------------------------

def save_centers_csv(path, centers):
    with open(path, "w") as fh:
        fh.write("band,vertex,weight\n")
        for j, (verts, wts) in enumerate(zip(centers.sets, centers.weights)):
            for v, w in zip(verts, wts):
                fh.write(f"{j},{v},{float(w)!r}\n")


def load_centers_csv(path, n_bands=None):
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if ln == 0 and not parts[0].strip().lstrip("-").isdigit():
                continue
            if len(parts) != 3:
                raise ValueError(f"line {ln + 1}: expected band,vertex,weight")
            rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if not rows:
        raise ValueError("center file is empty")
    nb = (max(r[0] for r in rows) + 1) if n_bands is None else n_bands
    sets = [[] for _ in range(nb)]
    wts = [[] for _ in range(nb)]
    for band, vertex, weight in rows:
        if not 0 <= band < nb:
            raise ValueError(f"band {band} out of range")
        sets[band].append(vertex)
        wts[band].append(weight)
    packed_sets, packed_w = [], []
    for j in range(nb):
        order = np.argsort(sets[j])
        packed_sets.append(np.asarray(sets[j], dtype=np.int64)[order])
        packed_w.append(np.asarray(wts[j], dtype=np.float64)[order])
    return CenterSets(sets=packed_sets, weights=packed_w)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def save_coefficients(path, coeffs):
    """Binary layout: magic, version u32, J u32, then per band: band id
    u32, count u32, vertex ids u32[count], values f64[count]."""
    with open(path, "wb") as fh:
        fh.write(COEFF_MAGIC)
        fh.write(struct.pack("<II", COEFF_VERSION, coeffs.n_bands))
        for j in range(coeffs.n_bands):
            verts = np.asarray(coeffs.centers[j], dtype="<u4")
            vals = np.asarray(coeffs.bands[j], dtype="<f8")
            fh.write(struct.pack("<II", j, verts.size))
            fh.write(verts.tobytes())
            fh.write(vals.tobytes())


def load_coefficients(path, n):
    """Read the binary coefficient file; n is the graph's vertex count.

    Provenance is unknown for file-loaded coefficients, so dictionary
    compatibility is not re-checked at synthesis time.
    """
    with open(path, "rb") as fh:
        def read(size):
            buf = fh.read(size)
            if len(buf) != size:
                raise ValueError("truncated coefficient file")
            return buf

        if read(4) != COEFF_MAGIC:
            raise ValueError("not a coefficient file (bad magic)")
        version, n_bands = struct.unpack("<II", read(8))
        if version != COEFF_VERSION:
            raise ValueError(f"unsupported coefficient version {version}")
        bands, centers = [], []
        for j in range(n_bands):
            band_id, count = struct.unpack("<II", read(8))
            if band_id != j:
                raise ValueError(f"band {j}: unexpected id {band_id}")
            verts = np.frombuffer(read(4 * count), dtype="<u4")
            vals = np.frombuffer(read(8 * count), dtype="<f8")
            if count and verts.max() >= n:
                raise ValueError(f"band {j}: vertex id out of range")
            centers.append(verts.astype(np.int64))
            bands.append(vals.astype(np.float64))
    return Coefficients(bands=bands, centers=centers, n=n, provenance=None)


def export_coefficients_csv(path, coeffs):
    with open(path, "w") as fh:
        fh.write("band,vertex,value\n")
        for j in range(coeffs.n_bands):
            for v, val in zip(coeffs.centers[j], coeffs.bands[j]):
                fh.write(f"{j},{v},{float(val)!r}\n")


# ---------------------------------------------------------------------------
# key-value configuration
# ---------------------------------------------------------------------------

def parse_keyvalue(text, allowed=None):
    """Parse `key = value` lines; '#' comments; unknown keys rejected."""
    out = {}
    for ln, raw in enumerate(text.splitlines()):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln + 1}: expected key = value")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ValueError(f"line {ln + 1}: empty key")
        if key in out:
            raise ValueError(f"line {ln + 1}: duplicate key {key!r}")
        if allowed is not None and key not in allowed:
            raise ValueError(f"line {ln + 1}: unknown key {key!r}")
        out[key] = value
    return out


def read_keyvalue_file(path, allowed=None):
    with open(path) as fh:
        return parse_keyvalue(fh.read(), allowed=allowed)
