"""File formats: graphs, signals, CDFs, center sets, coefficients, configs.

Graphs travel as Matrix Market (symmetric real, 1-based) or as edge-list
CSV with a src,dst,weight header and 0-based vertex ids.  Signals are
single-column CSV with an optional header; in every CSV a first line is a
header only when none of its fields is a number.  Coefficients use a compact
little-endian binary layout; a CSV export exists for interoperability.
"""

import struct
from io import StringIO

import numpy as np

from .frames import Coefficients
from .graphs import SparseGraph
from .sampling import CenterSets
from .spectrum import SpectralCDF

COEFF_MAGIC = b"LSGC"
COEFF_VERSION = 1
_INT64 = np.iinfo(np.int64)
_ID_LIMIT = 2 ** 31 - 1  # graph CSV ids lie below this


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def save_graph_mm(path, graph):
    import scipy.io  # here, so that starting the CLI does not load it
    import scipy.sparse
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(graph.to_scipy()),
                     symmetry="symmetric")


def load_graph_mm(path):
    import scipy.io
    import scipy.sparse
    mat = scipy.sparse.coo_matrix(scipy.io.mmread(str(path)))
    off = mat.row != mat.col
    if np.any(~off & (mat.data != 0)):
        raise ValueError("matrix market graph carries nonzero diagonal "
                         "(self-loops)")
    # a symmetric file reads back with both halves: from_edges merges them
    return SparseGraph.from_edges(mat.shape[0], mat.row[off], mat.col[off],
                                  mat.data[off])


def save_graph_csv(path, graph):
    with open(path, "w") as fh:
        fh.write("src,dst,weight\n" + "".join(
            f"{i},{j},{w!r}\n" for i, j, w in zip(
                *(a.tolist() for a in graph.edges()))))


def _read_csv(path, fields, types, invalid):
    """Columns of a CSV file's data rows, one array per field.

    fields names the columns, as in 'z,value', and types gives each one's
    Python type, int or float.  Only a first line none of whose fields is a
    number is a header.  numpy's C reader parses the rows.  When it refuses
    the file, _csv_values reads it again row by row and either returns what
    Python's int and float make of each field or raises its 'line N: ...'
    message.  numpy refuses every text that int and float refuse, so a file
    yields the same columns and the same errors either way.
    """
    names = fields.split(",")
    dtype = np.dtype([(name, np.int64 if t is int else np.float64)
                      for name, t in zip(names, types)])
    with open(path) as fh:
        first = fh.readline()
        rest = fh.read()
    if any(_is_number(p) for p in first.strip().split(",")):
        rest = first + rest
    if rest.strip():  # else numpy warns of an empty file
        try:
            rows = np.loadtxt(StringIO(rest), dtype=dtype, delimiter=",",
                              comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            return [rows[name].copy() for name in names]
    flat = _csv_values(path, fields, types, invalid)
    return [np.array(flat[k::len(names)], dtype=dtype[k])
            for k in range(len(names))]


def _data_line(path, k):
    """Line number of a CSV file's data row k (from 0), by _read_csv's rule:
    blank lines and a first line with no number in it hold no data."""
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.strip().split(",")
            if not line.strip() or (ln == 1 and not any(
                    _is_number(p) for p in parts)):
                continue
            if k == 0:
                return ln
            k -= 1


def _csv_values(path, fields, types, invalid):
    """Values of a CSV file's data rows, converted row by row, in one list.

    The row loop behind _read_csv, with its header rule.  A row with the
    wrong field count fails with 'line N: expected <fields>', one whose
    fields int or float reject with 'line N: <invalid>: <the line>', and
    one whose integer does not fit int64 says so.  The list is flat, so
    that no per-row object outlives its row for the garbage collector to
    scan.
    """
    n_fields = len(types)
    values = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if ln == 1 and not any(_is_number(p) for p in parts):
                continue
            if len(parts) != n_fields:
                raise ValueError(f"line {ln}: expected {fields}")
            try:
                row = [t(p) for t, p in zip(types, parts)]
            except ValueError:
                raise ValueError(f"line {ln}: {invalid}: {line!r}") from None
            if any(t is int and not _INT64.min <= v <= _INT64.max
                   for t, v in zip(types, row)):
                raise ValueError(f"line {ln}: integer outside int64: {line!r}")
            values.extend(row)
    return values


def load_graph_csv(path):
    """Graph of an edge-list CSV; the largest id gives the vertex count.

    An id of _ID_LIMIT or more fails with its line's number before
    anything id-sized is allocated.
    """
    src, dst, w = _read_csv(path, "src,dst,weight", (int, int, float),
                            "expected integer src and dst ids and a weight")
    if not src.size:
        raise ValueError("edge list is empty")
    n = int(max(src.max(), dst.max())) + 1
    if n > _ID_LIMIT:
        k = int(np.argmax((src >= _ID_LIMIT) | (dst >= _ID_LIMIT)))
        raise ValueError(f"line {_data_line(path, k)}: vertex id "
                         f"{max(src[k], dst[k])} is not below {_ID_LIMIT}")
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
        fh.write((header + "\n" if header else "")
                 + "".join(f"{v!r}\n" for v in values.tolist()))


def load_signal_csv(path):
    (out,) = _read_csv(path, "value", (float,), "not a number")
    if not out.size:
        raise ValueError("signal file is empty")
    return out


def save_cdf_csv(path, cdf):
    with open(path, "w") as fh:
        fh.write("z,value\n" + "".join(
            f"{z!r},{v!r}\n"
            for z, v in zip(cdf.grid.tolist(), cdf.values.tolist())))


def load_cdf_csv(path):
    grid, values = _read_csv(path, "z,value", (float, float),
                             "expected numeric z and value")
    return SpectralCDF(grid=grid, values=values)


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
    bands, verts, wts = _read_csv(
        path, "band,vertex,weight", (int, int, float),
        "expected integer band and vertex ids and a weight")
    if not bands.size:
        raise ValueError("center file is empty")
    nb = int(bands.max()) + 1 if n_bands is None else n_bands
    outside = np.flatnonzero((bands < 0) | (bands >= nb))
    if outside.size:
        raise ValueError(f"band {bands[outside[0]]} out of range")
    if not np.all(np.isfinite(wts) & (wts >= 0)):
        raise ValueError("center weights must be finite and nonnegative")
    packed_sets, packed_w = [], []
    for j in range(nb):
        mine = bands == j
        order = np.argsort(verts[mine])
        packed_sets.append(verts[mine][order])
        packed_w.append(wts[mine][order])
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
            if count > n:  # before reading: ids are distinct and below n
                raise ValueError(f"band {j}: {count} centers on {n} "
                                 f"vertices")
            verts = np.frombuffer(read(4 * count), dtype="<u4")
            vals = np.frombuffer(read(8 * count), dtype="<f8")
            if count and verts.max() >= n:
                raise ValueError(f"band {j}: vertex id out of range")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"band {j}: non-finite coefficient")
            centers.append(verts.astype(np.int64))
            bands.append(vals.astype(np.float64))
        if fh.read(1):
            raise ValueError("trailing bytes after the last band")
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
