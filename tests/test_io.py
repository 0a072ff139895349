"""File format round trips and rejection paths."""

import struct

import numpy as np
import pytest

from lsgf.filters import make_uniform_translates
from lsgf.frames import analysis, dictionary_exact, synthesis
from lsgf.generators import path_graph, sensor_graph
from lsgf.graphs import build_laplacian, eigendecompose
from lsgf.io import (COEFF_MAGIC, COEFF_VERSION, export_coefficients_csv,
                     load_cdf_csv, load_centers_csv, load_coefficients,
                     load_graph, load_graph_csv, load_graph_mm,
                     load_signal_csv, parse_keyvalue, read_keyvalue_file,
                     save_cdf_csv, save_centers_csv, save_coefficients,
                     save_graph_csv, save_graph_mm, save_signal_csv)
from lsgf.sampling import CenterSets
from lsgf.spectrum import estimate_spectral_cdf


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
    with pytest.raises(ValueError, match="not a number"):
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
