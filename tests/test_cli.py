"""End-to-end command-line workflows in temporary directories."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lsgf
from lsgf.cli import main
from lsgf.io import (load_cdf_csv, load_centers_csv, load_coefficients,
                     load_graph, load_signal_csv)


@pytest.fixture()
def workspace(tmp_path):
    g = tmp_path / "g.csv"
    f = tmp_path / "f.csv"
    rc = main(["generate", "--kind", "sensor", "--n", "50", "--seed", "3",
               "--out", str(g), "--signal", "piecewise-smooth",
               "--signal-out", str(f)])
    assert rc == 0
    return tmp_path, g, f


def test_generate_writes_graph_and_signal(tmp_path, capsys):
    g = tmp_path / "g.csv"
    f = tmp_path / "f.csv"
    rc = main(["generate", "--kind", "sensor", "--n", "50", "--seed", "3",
               "--out", str(g), "--signal", "piecewise-smooth",
               "--signal-out", str(f)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "50 vertices" in out and "connected=True" in out
    graph = load_graph(g)
    assert graph.n == 50 and graph.is_connected()
    assert load_signal_csv(f).size == 50


def test_generate_matrix_market(tmp_path):
    p = tmp_path / "g.mtx"
    assert main(["generate", "--kind", "grid", "--rows", "4", "--cols", "5",
                 "--out", str(p)]) == 0
    g = load_graph(p)
    assert g.n == 20
    assert g.n_edges == 4 * 4 + 3 * 5  # 16 horizontal + 15 vertical


def test_transform_inverse_roundtrip(workspace):
    tmp_path, g, f = workspace
    c = tmp_path / "c.lsgc"
    r = tmp_path / "r.csv"
    assert main(["transform", "--graph", str(g), "--signal", str(f),
                 "--out", str(c), "--csv-out",
                 str(tmp_path / "c.csv")]) == 0
    assert main(["inverse", "--graph", str(g), "--coefficients", str(c),
                 "--out", str(r)]) == 0
    orig = load_signal_csv(f)
    back = load_signal_csv(r)
    assert np.linalg.norm(back - orig) < 1e-8 * np.linalg.norm(orig)
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "band,vertex,value"
    assert len(lines) == 1 + 6 * 50  # default bank has six bands


def test_critically_sampled_ideal_roundtrip(tmp_path):
    g = tmp_path / "g.csv"
    f = tmp_path / "f.csv"
    cen = tmp_path / "centers.csv"
    c = tmp_path / "c.lsgc"
    r = tmp_path / "r.csv"
    main(["generate", "--kind", "sensor", "--n", "40", "--seed", "5",
          "--out", str(g), "--signal", "piecewise-constant",
          "--signal-out", str(f)])
    assert main(["sample", "--graph", str(g), "--method", "uniqueness",
                 "--design", "ideal", "--n-bands", "3",
                 "--out", str(cen)]) == 0
    sets = load_centers_csv(cen, n_bands=3)
    assert sets.total == 40  # one atom per vertex: a basis
    assert main(["transform", "--graph", str(g), "--signal", str(f),
                 "--design", "ideal", "--n-bands", "3", "--mode", "exact",
                 "--centers", str(cen), "--out", str(c)]) == 0
    assert main(["inverse", "--graph", str(g), "--coefficients", str(c),
                 "--design", "ideal", "--n-bands", "3", "--mode", "exact",
                 "--out", str(r)]) == 0
    orig = load_signal_csv(f)
    back = load_signal_csv(r)
    assert np.linalg.norm(back - orig) < 1e-9 * np.linalg.norm(orig)


def test_spectrum_cdf_modes(workspace):
    tmp_path, g, f = workspace
    exact = tmp_path / "exact.csv"
    est = tmp_path / "est.csv"
    assert main(["spectrum-cdf", "--graph", str(g), "--cdf-mode", "exact",
                 "--out", str(exact)]) == 0
    assert main(["spectrum-cdf", "--graph", str(g), "--cdf-mode",
                 "estimate", "--out", str(est)]) == 0
    ce, cs = load_cdf_csv(exact), load_cdf_csv(est)
    for cdf in (ce, cs):
        assert np.all(np.diff(cdf.values) >= -1e-12)
        assert cdf.values[-1] == pytest.approx(1.0, abs=1e-12)
    zs = np.linspace(0, min(ce.lambda_bar, cs.lambda_bar), 60)
    assert np.abs(ce(zs) - cs(zs)).max() < 0.12


def test_design_from_bound_alone(tmp_path):
    out = tmp_path / "bank.csv"
    assert main(["design", "--lambda-bar", "7.0", "--design", "itersine",
                 "--n-bands", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z," + ",".join(f"g{j}" for j in range(5))
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (256, 6)
    squared = (rows[:, 1:] ** 2).sum(axis=1)
    assert np.abs(squared - 1.0).max() < 1e-12  # tight by construction
    assert main(["design", "--out", str(out)]) == 2  # no graph, no bound


def test_sample_random_respects_counts(workspace):
    tmp_path, g, f = workspace
    cen = tmp_path / "cen.csv"
    assert main(["sample", "--graph", str(g), "--n-bands", "4",
                 "--counts", "3,2,4,1", "--out", str(cen)]) == 0
    sets = load_centers_csv(cen, n_bands=4)
    assert [s.size for s in sets.sets] == [3, 2, 4, 1]
    # count list must match the band count
    assert main(["sample", "--graph", str(g), "--n-bands", "4",
                 "--counts", "3,2", "--out", str(cen)]) == 2
    # no counts and no total is an error
    assert main(["sample", "--graph", str(g), "--n-bands", "4",
                 "--out", str(cen)]) == 2


def test_sample_total_allocates(workspace):
    tmp_path, g, f = workspace
    cen = tmp_path / "cen.csv"
    assert main(["sample", "--graph", str(g), "--n-bands", "4", "--total",
                 "20", "--out", str(cen)]) == 0
    sets = load_centers_csv(cen, n_bands=4)
    assert sets.total == 20
    assert all(s.size >= 1 for s in sets.sets)


def test_denoise_reports_metrics(workspace):
    tmp_path, g, f = workspace
    out = tmp_path / "report.json"
    den = tmp_path / "den.csv"
    rms = float(np.sqrt(np.mean(load_signal_csv(f) ** 2)))
    assert main(["denoise", "--graph", str(g), "--signal", str(f),
                 "--sigma", repr(0.4 * rms), "--out", str(out),
                 "--denoised-out", str(den)]) == 0
    rep = json.loads(out.read_text())
    assert set(rep) == {"nmse", "delta_snr_db", "sigma", "method",
                        "thresholds", "solver"}
    assert rep["delta_snr_db"] > 0.0
    assert rep["method"] == "cg"
    assert rep["solver"]["converged"] is True
    assert rep["solver"]["n_iter"] >= 1
    assert 0.0 <= rep["solver"]["residual"] <= 1e-10
    assert len(rep["thresholds"]) == 6
    assert load_signal_csv(den).size == 50
    assert main(["denoise", "--graph", str(g), "--signal", str(f),
                 "--sigma", repr(0.4 * rms), "--method", "single-pass",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["solver"] is None
    # sigma is mandatory and must be positive
    assert main(["denoise", "--graph", str(g), "--signal", str(f),
                 "--out", str(out)]) == 2
    assert main(["denoise", "--graph", str(g), "--signal", str(f),
                 "--sigma", "-1.0", "--out", str(out)]) == 2


def test_compress_curves(workspace):
    tmp_path, g, f = workspace
    out = tmp_path / "omp.json"
    curve = tmp_path / "curve.csv"
    assert main(["compress", "--graph", str(g), "--signal", str(f),
                 "--n-terms", "5,10,20,40", "--out", str(out),
                 "--curve-out", str(curve)]) == 0
    rep = json.loads(out.read_text())
    assert rep["method"] == "omp"
    assert rep["solver"] is None
    nmse = [row["nmse"] for row in rep["curve"]]
    assert [row["n_terms"] for row in rep["curve"]] == [5, 10, 20, 40]
    assert all(b <= a + 1e-12 for a, b in zip(nmse, nmse[1:]))
    lines = curve.read_text().splitlines()
    assert lines[0] == "n_terms,nmse"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == pytest.approx(nmse[0])

    hard = tmp_path / "hard.json"
    assert main(["compress", "--graph", str(g), "--signal", str(f),
                 "--method", "hard", "--n-terms", "10,40",
                 "--out", str(hard)]) == 0
    rep = json.loads(hard.read_text())
    assert rep["curve"][1]["nmse"] <= rep["curve"][0]["nmse"] + 1e-12
    assert rep["solver"]["converged"] is True
    assert rep["solver"]["n_iter"] >= 1
    assert 0.0 <= rep["solver"]["residual"] <= 1e-10
    assert main(["compress", "--graph", str(g), "--signal", str(f),
                 "--n-terms", "0,5", "--out", str(out)]) == 2


def test_config_supplies_defaults_and_flags_override(workspace):
    tmp_path, g, f = workspace
    conf = tmp_path / "conf"
    out = tmp_path / "rep.json"
    conf.write_text("sigma = 0.5\nmethod = single-pass\n")
    assert main(["--config", str(conf), "denoise", "--graph", str(g),
                 "--signal", str(f), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["sigma"] == 0.5
    assert rep["method"] == "single-pass"
    # an explicit flag beats the config value
    assert main(["--config", str(conf), "denoise", "--graph", str(g),
                 "--signal", str(f), "--sigma", "0.75",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["sigma"] == 0.75
    assert rep["method"] == "single-pass"


def test_config_boolean_conversion(workspace):
    tmp_path, g, f = workspace
    conf = tmp_path / "conf"
    conf.write_text("jackson = true\ndegree = 25\n")
    via_conf = tmp_path / "a.lsgc"
    via_flag = tmp_path / "b.lsgc"
    assert main(["--config", str(conf), "transform", "--graph", str(g),
                 "--signal", str(f), "--out", str(via_conf)]) == 0
    assert main(["transform", "--graph", str(g), "--signal", str(f),
                 "--jackson", "--degree", "25", "--out",
                 str(via_flag)]) == 0
    a = load_coefficients(via_conf, 50)
    b = load_coefficients(via_flag, 50)
    for j in range(a.n_bands):
        assert np.array_equal(a.bands[j], b.bands[j])


def test_config_rejects_bad_keys_and_values(workspace):
    tmp_path, g, f = workspace
    conf = tmp_path / "conf"
    out = tmp_path / "c.lsgc"
    conf.write_text("not_a_flag = 1\n")
    assert main(["--config", str(conf), "transform", "--graph", str(g),
                 "--signal", str(f), "--out", str(out)]) == 2
    conf.write_text("mode = nope\n")
    assert main(["--config", str(conf), "transform", "--graph", str(g),
                 "--signal", str(f), "--out", str(out)]) == 2


def test_missing_files_exit_cleanly(tmp_path, capsys):
    out = tmp_path / "x.lsgc"
    rc = main(["transform", "--graph", str(tmp_path / "nope.csv"),
               "--signal", str(tmp_path / "nope2.csv"),
               "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_truncated_coefficient_file_exits_2(tmp_path, capsys):
    g = tmp_path / "g.csv"
    f = tmp_path / "f.csv"
    c = tmp_path / "c.lsgc"
    cut = tmp_path / "cut.lsgc"
    rc = main(["generate", "--kind", "path", "--n", "4", "--out", str(g)])
    assert rc == 0
    f.write_text("value\n1.0\n-2.0\n0.5\n3.0\n")
    bank = ["--design", "itersine", "--n-bands", "2"]
    assert main(["transform", "--graph", str(g), "--signal", str(f),
                 "--out", str(c), *bank]) == 0
    data = c.read_bytes()
    capsys.readouterr()
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        rc = main(["inverse", "--graph", str(g), "--coefficients", str(cut),
                   "--out", str(tmp_path / "r.csv"), *bank])
        assert rc == 2, size
        assert "error:" in capsys.readouterr().err


def test_malformed_input_exits_2(workspace, capsys):
    tmp, g, f = workspace
    cen = tmp / "cen.csv"
    cen.write_text("band,vertex,weight\n0,1,0.5\n-1,2,1.0\n")
    bank = ["--design", "itersine", "--n-bands", "3"]
    bad = [
        ["transform", "--graph", str(g), "--signal", str(f), "--centers",
         str(cen), "--out", str(tmp / "c.lsgc"), *bank],
        ["generate", "--kind", "erdos-renyi", "--n", "20", "--p", "2"],
        ["generate", "--kind", "erdos-renyi", "--n", "20", "--p", "-1"],
        ["generate", "--kind", "erdos-renyi", "--n", "0"],
        ["generate", "--kind", "sensor", "--n", "0"],
        ["generate", "--kind", "sensor", "--n", "6", "--k", "6"],
        ["generate", "--kind", "sensor", "--n", "50", "--k", "0"],
    ]
    capsys.readouterr()
    for argv in bad:
        if argv[0] == "generate":
            argv = argv + ["--out", str(tmp / "bad.csv")]
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err
    assert not (tmp / "bad.csv").exists()


def test_cli_import_leaves_interpolation_unloaded():
    # most commands build no CDF and run no probe block, so the CLI must not
    # pay for loading scipy.interpolate or the kernels' thread pool at
    # start-up (scipy.sparse itself loads the concurrent.futures package)
    src = str(Path(lsgf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, lsgf.cli; print([m for m in ('scipy.interpolate',"
            " 'concurrent.futures.thread') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
