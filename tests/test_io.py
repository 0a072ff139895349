"""File format round trips and rejection paths."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsgf import io
from lsgf.filters import make_uniform_translates
from lsgf.frames import (Coefficients, analysis, dictionary_exact,
                         synthesis)
from lsgf.generators import path_graph, sensor_graph
from lsgf.graphs import build_laplacian, eigendecompose
from lsgf.io import (COEFF_MAGIC, COEFF_VERSION, export_coefficients_csv,
                     load_cdf_csv, load_centers_csv, load_coefficients,
                     load_graph, load_graph_csv, load_graph_mm,
                     load_signal_csv, parse_keyvalue, read_keyvalue_file,
                     save_cdf_csv, save_centers_csv, save_coefficients,
                     save_graph_csv, save_graph_mm, save_signal_csv)
from lsgf.sampling import CenterSets
from lsgf.spectrum import SpectralCDF, estimate_spectral_cdf


def _same_graph(a, b):
    assert a.n == b.n
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.allclose(a.weights, b.weights, rtol=0, atol=1e-15)


def test_graph_mm_roundtrip(tmp_path):
    g = sensor_graph(25, seed=1)
    p = tmp_path / "g.mtx"
    save_graph_mm(p, g)
    _same_graph(g, load_graph_mm(p))
    _same_graph(g, load_graph(p))


def test_graph_mm_rejects_self_loops(tmp_path):
    import scipy.io
    import scipy.sparse
    mat = scipy.sparse.coo_matrix(
        np.array([[1.0, 2.0], [2.0, 0.0]]))
    p = tmp_path / "loop.mtx"
    scipy.io.mmwrite(str(p), mat, symmetry="symmetric")
    with pytest.raises(ValueError, match="self-loops"):
        load_graph_mm(p)


def test_graph_mm_general_file_reads_either_half(tmp_path):
    # a general file may list each edge from either end; weights that
    # disagree between the two ends are refused
    head = "%%MatrixMarket matrix coordinate real general\n3 3 "
    p = tmp_path / "g.mtx"
    p.write_text(head + "2\n2 1 1.5\n2 3 2.0\n")
    g = load_graph_mm(p)
    assert [a.tolist() for a in g.edges()] == [[0, 1], [1, 2], [1.5, 2.0]]
    p.write_text(head + "2\n2 1 1.5\n1 2 2.0\n")
    with pytest.raises(ValueError, match="conflicting duplicate"):
        load_graph_mm(p)


def test_graph_csv_roundtrip(tmp_path):
    g = sensor_graph(25, seed=2)
    p = tmp_path / "g.csv"
    save_graph_csv(p, g)
    head = p.read_text().splitlines()[0]
    assert head == "src,dst,weight"
    _same_graph(g, load_graph_csv(p))
    _same_graph(g, load_graph(p))


def test_graph_csv_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("src,dst,weight\n0,1\n")
    with pytest.raises(ValueError, match="expected src,dst,weight"):
        load_graph_csv(p)
    p.write_text("src,dst,weight\n")
    with pytest.raises(ValueError, match="empty"):
        load_graph_csv(p)
    # a first line holding any number is a data row, never a header
    for text, line in (("1.5,2,1.0\n0,1,1.0\n", 1),
                       ("x,2,1.0\n0,1,1.0\n", 1),
                       ("src,dst,weight\n0,1\n", 2),
                       ("src,dst,weight\n0,1,1.0\n2,x,1.0\n", 3)):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}: expected"):
            load_graph_csv(p)


def test_csv_ids_outside_int64_are_rejected(tmp_path):
    # Python's int takes any id, the int64 columns do not
    p = tmp_path / "big.csv"
    for big in ("99999999999999999999", "-99999999999999999999"):
        p.write_text(f"src,dst,weight\n0,1,1.0\n1,{big},1.0\n")
        with pytest.raises(ValueError, match="line 3: integer outside int64"):
            load_graph_csv(p)
        p.write_text(f"band,vertex,weight\n0,{big},0.5\n")
        with pytest.raises(ValueError, match="line 2: integer outside int64"):
            load_centers_csv(p)


def test_graph_csv_headerless(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("0,1,1.0\n1,2,2.0\n")
    g = load_graph_csv(p)
    assert g.n == 3
    assert g.degrees().tolist() == [1.0, 3.0, 2.0]


def test_signal_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    f = rng.standard_normal(17)
    p = tmp_path / "f.csv"
    save_signal_csv(p, f)
    assert p.read_text().splitlines()[0] == "value"
    got = load_signal_csv(p)
    assert np.array_equal(got, f)  # repr round trip is bitwise exact
    save_signal_csv(p, f, header="")
    assert np.array_equal(load_signal_csv(p), f)


def test_signal_rejects_junk(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("value\n1.5\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 3: not a number"):
        load_signal_csv(p)
    # a first line holding any number is a data row, never a header
    p.write_text("0.5,1\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 1: expected value"):
        load_signal_csv(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_signal_csv(p)


def test_cdf_roundtrip(tmp_path):
    g = sensor_graph(40, seed=3)
    lap = build_laplacian(g, kind="combinatorial")
    cdf = estimate_spectral_cdf(lap, n_probes=4, kpm_degree=30, seed=0)
    p = tmp_path / "cdf.csv"
    save_cdf_csv(p, cdf)
    got = load_cdf_csv(p)
    assert np.array_equal(got.grid, cdf.grid)
    assert np.array_equal(got.values, cdf.values)
    z = np.linspace(0, cdf.lambda_bar, 37)
    assert np.allclose(got(z), cdf(z), atol=1e-14)


def test_cdf_csv_rejects_malformed(tmp_path):
    p = tmp_path / "cdf.csv"
    # a first line holding any number is a data row, never a header, and
    # every conversion failure names its line
    for text, line in (("0.0x,0.0\n0.5,0.4\n1.0,1.0\n", 1),
                       ("z,value\n0.0,0.0\n0.5,oops\n1.0,1.0\n", 3)):
        p.write_text(text)
        with pytest.raises(ValueError,
                           match=f"line {line}: expected numeric z and value"):
            load_cdf_csv(p)
    p.write_text("z,value\n0.0,0.0\n0.5\n")
    with pytest.raises(ValueError, match="line 3: expected z,value"):
        load_cdf_csv(p)
    p.write_text("z,value\n0.0,0.0\n0.5,0.4\n1.0,1.0\n")
    got = load_cdf_csv(p)
    assert got.grid.tolist() == [0.0, 0.5, 1.0]
    assert got.values.tolist() == [0.0, 0.4, 1.0]


def test_centers_roundtrip(tmp_path):
    centers = CenterSets(
        sets=[np.array([1, 4, 9]), np.array([0, 2])],
        weights=[np.array([0.2, 0.5, 0.3]), np.array([0.6, 0.4])])
    p = tmp_path / "c.csv"
    save_centers_csv(p, centers)
    got = load_centers_csv(p)
    assert got.n_bands == 2
    for j in range(2):
        assert np.array_equal(got.sets[j], centers.sets[j])
        assert np.allclose(got.weights[j], centers.weights[j], atol=0)
    # an explicit band count keeps trailing empty bands
    got3 = load_centers_csv(p, n_bands=3)
    assert got3.n_bands == 3 and got3.sets[2].size == 0
    with pytest.raises(ValueError, match="out of range"):
        load_centers_csv(p, n_bands=1)


def test_centers_rejects_malformed(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("band,vertex,weight\n0,1\n")
    with pytest.raises(ValueError, match="expected band,vertex,weight"):
        load_centers_csv(p)
    p.write_text("band,vertex,weight\n")
    with pytest.raises(ValueError, match="empty"):
        load_centers_csv(p)
    # a negative band id must not index bands from the end
    for text in ("band,vertex,weight\n0,1,0.5\n-1,2,1.0\n", "-1,2,1.0\n"):
        p.write_text(text)
        with pytest.raises(ValueError, match="band -1 out of range"):
            load_centers_csv(p)
    # a first line holding any number is a data row, never a header
    for text in ("1.0,2,0.5\n0,3,0.5\n", "x,2,0.5\n0,3,0.5\n",
                 "band,vertex,weight\n0,3.5,0.5\n"):
        p.write_text(text)
        with pytest.raises(ValueError, match="expected integer band"):
            load_centers_csv(p)
    p.write_text("0,3,0.5\n")
    assert [s.tolist() for s in load_centers_csv(p).sets] == [[3]]


@pytest.fixture(scope="module")
def coeff_setup():
    g = path_graph(12)
    lap = build_laplacian(g, kind="combinatorial")
    eig = eigendecompose(lap)
    bank = make_uniform_translates(lap.lambda_max_bound, 3, "itersine")
    centers = [np.array([0, 3, 7]), np.array([2, 5]), np.arange(12)]
    d = dictionary_exact(lap, bank, eig, centers=centers)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(12)
    return d, f, analysis(d, f)


def test_coefficients_roundtrip(tmp_path, coeff_setup):
    d, f, coeffs = coeff_setup
    p = tmp_path / "c.lsgc"
    save_coefficients(p, coeffs)
    got = load_coefficients(p, d.lap.n)
    assert got.n_bands == coeffs.n_bands
    for j in range(coeffs.n_bands):
        assert np.array_equal(got.centers[j], coeffs.centers[j])
        assert np.array_equal(got.bands[j], coeffs.bands[j])
    # provenance is dropped, which disables but does not break synthesis
    assert got.provenance is None
    assert np.allclose(synthesis(d, got), synthesis(d, coeffs), atol=0)


def test_coefficients_reject_bad_files(tmp_path, coeff_setup):
    d, f, coeffs = coeff_setup
    p = tmp_path / "c.lsgc"
    p.write_bytes(b"JUNKxxxx")
    with pytest.raises(ValueError, match="bad magic"):
        load_coefficients(p, d.lap.n)
    p.write_bytes(COEFF_MAGIC + struct.pack("<II", COEFF_VERSION + 1, 0))
    with pytest.raises(ValueError, match="unsupported"):
        load_coefficients(p, d.lap.n)
    save_coefficients(p, coeffs)
    whole = p.read_bytes()
    p.write_bytes(whole[:-8])  # drop one trailing f64
    with pytest.raises(ValueError, match="truncated"):
        load_coefficients(p, d.lap.n)
    p.write_bytes(whole)
    with pytest.raises(ValueError, match="out of range"):
        load_coefficients(p, 3)


def test_coefficients_csv_export(tmp_path, coeff_setup):
    d, f, coeffs = coeff_setup
    p = tmp_path / "c.csv"
    export_coefficients_csv(p, coeffs)
    lines = p.read_text().splitlines()
    assert lines[0] == "band,vertex,value"
    assert len(lines) == 1 + sum(c.size for c in coeffs.centers)
    band, vertex, value = lines[1].split(",")
    assert int(band) == 0
    assert int(vertex) == coeffs.centers[0][0]
    assert float(value) == coeffs.bands[0][0]


# finite floats with the edge cases spelled out: signed zeros, subnormals,
# the normal floor and the largest magnitudes
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
          1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
_finite = st.one_of(st.sampled_from(_EDGES),
                    st.floats(allow_nan=False, allow_infinity=False))
_nonneg = st.one_of(st.sampled_from([x for x in _EDGES if x >= 0]),
                    st.floats(min_value=0.0, allow_infinity=False))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(_finite, min_size=1, max_size=20),
       header=st.sampled_from(["value", ""]))
def test_signal_file_round_trips_bit_for_bit(tmp_path_factory, values,
                                             header):
    p = tmp_path_factory.mktemp("io") / "f.csv"
    save_signal_csv(p, values, header=header)
    assert np.array_equal(_bits(load_signal_csv(p)), _bits(values))


@settings(max_examples=100, deadline=None)
@given(grid=st.lists(_nonneg, min_size=2, max_size=12, unique=True),
       data=st.data())
def test_cdf_file_round_trips_bit_for_bit(tmp_path_factory, grid, data):
    grid = sorted(grid)
    rises = data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310]),
                  st.floats(0.0, 1.0)),
        min_size=len(grid) - 1, max_size=len(grid) - 1))
    cdf = SpectralCDF(grid=grid, values=sorted(rises) + [1.0])
    p = tmp_path_factory.mktemp("io") / "cdf.csv"
    save_cdf_csv(p, cdf)
    got = load_cdf_csv(p)
    assert np.array_equal(_bits(got.grid), _bits(cdf.grid))
    assert np.array_equal(_bits(got.values), _bits(cdf.values))


@st.composite
def _center_sets(draw):
    sets, weights = [], []
    for _ in range(draw(st.integers(1, 4))):
        verts = sorted(draw(st.sets(st.integers(0, 2 ** 63 - 1),
                                    max_size=6)))
        sets.append(np.array(verts, dtype=np.int64))
        weights.append(np.array([draw(_nonneg) for _ in verts]))
    return CenterSets(sets=sets, weights=weights)


@settings(max_examples=100, deadline=None)
@given(centers=_center_sets())
def test_centers_file_round_trips_bit_for_bit(tmp_path_factory, centers):
    p = tmp_path_factory.mktemp("io") / "c.csv"
    save_centers_csv(p, centers)
    if not centers.total:
        return  # a file without rows is refused as empty
    got = load_centers_csv(p, n_bands=centers.n_bands)
    for j in range(centers.n_bands):
        assert np.array_equal(got.sets[j], centers.sets[j])
        assert np.array_equal(_bits(got.weights[j]),
                              _bits(centers.weights[j]))


@st.composite
def _coefficient_sets(draw):
    n = draw(st.integers(1, 2 ** 32 - 1))
    centers = [np.array(sorted(draw(st.sets(st.integers(0, n - 1),
                                            max_size=min(n, 6)))),
                        dtype=np.int64)
               for _ in range(draw(st.integers(0, 4)))]
    bands = [np.array([draw(_finite) for _ in c], dtype=np.float64)
             for c in centers]
    return Coefficients(bands=bands, centers=centers, n=n)


@settings(max_examples=100, deadline=None)
@given(coeffs=_coefficient_sets())
def test_coefficient_file_round_trips_bit_for_bit(tmp_path_factory,
                                                  coeffs):
    p = tmp_path_factory.mktemp("io") / "c.lsgc"
    save_coefficients(p, coeffs)
    got = load_coefficients(p, coeffs.n)
    assert got.n == coeffs.n and got.n_bands == coeffs.n_bands
    for j in range(coeffs.n_bands):
        assert np.array_equal(got.centers[j], coeffs.centers[j])
        assert np.array_equal(_bits(got.bands[j]), _bits(coeffs.bands[j]))


def test_parse_keyvalue():
    text = """
    # a comment
    alpha = 1.5
    name = hello world  # trailing comment
    flag=true
    """
    got = parse_keyvalue(text)
    assert got == {"alpha": "1.5", "name": "hello world", "flag": "true"}
    with pytest.raises(ValueError, match="duplicate key"):
        parse_keyvalue("a = 1\na = 2")
    with pytest.raises(ValueError, match="unknown key"):
        parse_keyvalue("b = 1", allowed={"a"})
    with pytest.raises(ValueError, match="expected key"):
        parse_keyvalue("just words")
    with pytest.raises(ValueError, match="empty key"):
        parse_keyvalue("= 3")


def test_read_keyvalue_file(tmp_path):
    p = tmp_path / "conf"
    p.write_text("degree = 40\n# comment\n")
    assert read_keyvalue_file(p) == {"degree": "40"}
    assert read_keyvalue_file(p, allowed={"degree"}) == {"degree": "40"}


def test_csv_writers_format_each_value_by_repr(tmp_path):
    # one join per file writes what the per-value loop wrote: rows of the
    # upper triangle in CSR order, each float as repr
    g = sensor_graph(30, seed=4)
    p = tmp_path / "g.csv"
    save_graph_csv(p, g)
    lines = ["src,dst,weight"]
    for i in range(g.n):
        for j, w in zip(*(a[g.indptr[i]:g.indptr[i + 1]]
                          for a in (g.indices, g.weights))):
            if i < j:
                lines.append(f"{i},{j},{float(w)!r}")
    assert p.read_text() == "\n".join(lines) + "\n"
    f = np.random.default_rng(1).standard_normal(9) * 1e-7
    save_signal_csv(p, f)
    assert p.read_text() == "value\n" + "".join(
        f"{float(v)!r}\n" for v in f)
    cdf = estimate_spectral_cdf(build_laplacian(g), n_probes=2,
                                kpm_degree=10, n_grid=7, seed=0)
    save_cdf_csv(p, cdf)
    assert p.read_text() == "z,value\n" + "".join(
        f"{float(z)!r},{float(v)!r}\n" for z, v in zip(cdf.grid, cdf.values))


def test_graph_csv_is_parsed_without_the_row_loop(tmp_path):
    p = tmp_path / "g.csv"
    g = sensor_graph(60, seed=1)
    save_graph_csv(p, g)
    with mock.patch.object(io, "_csv_values", side_effect=AssertionError):
        _same_graph(g, load_graph_csv(p))


_INTS = ["0", "1", "7", "12", " 3", "4 ", "+2", "-1", "007", "1.0", "1e3",
         "", " ", "x", "1_0", "\u0663", "0x1", "99999999999999999999",
         "\t5", "2\xa0"]
_FLOATS = ["1.0", "0.5", " 2.5 ", "1e-3", "-0.0", "nan", "inf", "-inf",
           "Infinity", ".5", "5.", "+1.25", "1e400", "1_0.5", "", "abc",
           "1e", "\u0663.5", "1 2", '"1"', "#1", "0.1\x0c"]
_TYPES = {"src,dst,weight": (int, int, float), "value": (float,),
          "z,value": (float, float)}


@st.composite
def _csv_texts(draw):
    """(fields, text) of a CSV file with headers, blank lines, padded and bad
    fields and wrong field counts."""
    fields = draw(st.sampled_from(sorted(_TYPES)))
    types = _TYPES[fields]
    lines = []
    header = draw(st.sampled_from(["", fields, "a,b", "x,1,y", " ", "2"]))
    if header:
        lines.append(header)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "count"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        width = len(types) + (draw(st.sampled_from([-1, 1]))
                              if kind == "count" else 0)
        cols = [types[min(k, len(types) - 1)] for k in range(max(width, 1))]
        lines.append(",".join(
            draw(st.sampled_from(_INTS if t is int else _FLOATS)
                 if draw(st.integers(0, 4)) == 0
                 else st.sampled_from(_INTS[:4] if t is int
                                      else _FLOATS[:4])) for t in cols))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    last = draw(st.sampled_from(["", end]))
    return fields, end.join(lines) + last


def _outcome(call):
    try:
        return [c.dtype.str + c.tobytes().hex() for c in call()]
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, deadline=None)
@given(case=_csv_texts())
@example(case=("src,dst,weight", "src,dst,weight\n0,1,1.0\n1,2,2.5\n"))
@example(case=("value", ""))
@example(case=("value", "value\n \n"))
@example(case=("z,value", "\n0.5,1.0\n"))
def test_numpy_reader_agrees_with_the_row_loop(tmp_path_factory, case):
    # numpy's reader returns the same columns as the row loop or refuses
    # the file, which the row loop then reads with its own messages
    fields, text = case
    p = tmp_path_factory.mktemp("csv") / "f.csv"
    p.write_bytes(text.encode())
    read = lambda: io._read_csv(p, fields, _TYPES[fields], "invalid")
    got = _outcome(read)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        assert _outcome(read) == got
