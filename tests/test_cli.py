"""End-to-end command-line workflows in temporary directories."""

import contextlib
import io
import json
import os
import string
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsgf
from lsgf.cli import main
from lsgf.filters import make_sgwt
from lsgf.frames import (dictionary_exact, dictionary_poly, frame_bounds,
                         inverse_frame_iteration, inverse_single_pass)
from lsgf.generators import grid_graph, path_graph
from lsgf.graphs import build_laplacian, eigendecompose
from lsgf.io import (_is_number, load_cdf_csv, load_centers_csv,
                     load_coefficients, load_graph, load_signal_csv,
                     save_graph_csv, save_signal_csv)
from lsgf.sampling import greedy_centers


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


@pytest.mark.parametrize("mode", ["exact", "poly"])
def test_inverse_frame_methods_match_library(workspace, mode):
    # frame-iter and single-pass take the frame bounds of the mode's basis:
    # the true eigenvalues in exact mode, a grid in poly mode
    tmp_path, g, f = workspace
    c = tmp_path / "c.lsgc"
    r = tmp_path / "r.csv"
    flags = ["--design", "sgwt", "--n-bands", "4", "--mode", mode]
    assert main(["transform", "--graph", str(g), "--signal", str(f),
                 "--out", str(c), *flags]) == 0
    lap = build_laplacian(load_graph(g), kind="combinatorial")
    bank = make_sgwt(lap.lambda_max_bound, 4, k_scale=20.0)
    if mode == "exact":
        d = dictionary_exact(lap, bank, eigendecompose(lap))
        bounds = frame_bounds(d, basis="exact_sigma")
    else:
        d = dictionary_poly(lap, bank, 40)
        bounds = frame_bounds(d, basis="grid")
    coeffs = load_coefficients(c, lap.n)
    want = {"frame-iter": inverse_frame_iteration(d, coeffs, bounds, 3),
            "single-pass": inverse_single_pass(d, coeffs, bounds)}
    for method, expect in want.items():
        assert main(["inverse", "--graph", str(g), "--coefficients", str(c),
                     "--method", method, "--iterations", "3",
                     "--out", str(r), *flags]) == 0
        assert np.array_equal(load_signal_csv(r), expect), method


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


@pytest.mark.parametrize("mode", ["exact", "poly"])
def test_sample_greedy_in_either_mode(workspace, mode):
    tmp_path, g, f = workspace
    cen = tmp_path / "cen.csv"
    assert main(["sample", "--graph", str(g), "--design", "sgwt",
                 "--n-bands", "4", "--degree", "20", "--method", "greedy",
                 "--mode", mode, "--counts", "3,2,4,1",
                 "--out", str(cen)]) == 0
    lap = build_laplacian(load_graph(g), kind="combinatorial")
    bank = make_sgwt(lap.lambda_max_bound, 4)
    d = dictionary_exact(lap, bank, eigendecompose(lap)) if mode == "exact" \
        else dictionary_poly(lap, bank, 20)
    want = greedy_centers(d, [3, 2, 4, 1])
    got = load_centers_csv(cen, n_bands=4)
    assert [s.tolist() for s in got.sets] == [s.tolist() for s in want.sets]
    assert all(np.all(w == 1.0) for w in got.weights)


def test_sample_exact_mode_draws_only_from_uniform_weights(workspace,
                                                           capsys,
                                                           monkeypatch):
    # probe weights are estimated in polynomial mode and exact mode does
    # not pretend otherwise; uniform weights read no dictionary, so they
    # cost no eigendecomposition, and neither does refusing the others
    tmp_path, g, f = workspace
    cen = tmp_path / "cen.csv"
    base = ["sample", "--graph", str(g), "--n-bands", "4", "--mode", "exact",
            "--counts", "3,2,4,1", "--signal", str(f), "--out", str(cen)]
    monkeypatch.setattr(lsgf.cli, "eigendecompose", None)
    assert main(base + ["--weights", "uniform"]) == 0
    assert [s.size for s in load_centers_csv(cen, n_bands=4).sets] \
        == [3, 2, 4, 1]
    cen.unlink()
    for weights in ("probe", "signal"):
        assert main(base + ["--weights", weights]) == 2
        assert "sampling weights are estimated in polynomial mode" in \
            capsys.readouterr().err
        assert not cen.exists()


def test_denoise_refuses_noise_whose_norm_overflows(tmp_path, capsys):
    # noise drawn at sigma = 1.3e154 on 200 vertices has a norm beyond the
    # largest double: CG names its right-hand side's norm, and nothing warns
    g, f = tmp_path / "g.csv", tmp_path / "f.csv"
    assert main(["generate", "--kind", "sensor", "--n", "200", "--seed", "3",
                 "--out", str(g), "--signal", "piecewise-smooth",
                 "--signal-out", str(f)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["denoise", "--graph", str(g), "--signal", str(f),
                     "--sigma", "1.3e154", "--out",
                     str(tmp_path / "d.json")]) == 2
    err = capsys.readouterr().err
    assert "right-hand side has norm inf" in err
    assert not (tmp_path / "d.json").exists()


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
    # poly mode with complete centers: CG preconditioned by the dual r(L)
    assert rep["solver"]["precond_degree"] in range(80, 321)
    assert 0.0 < rep["solver"]["precond_eps"] < 1.0
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
    assert rep["solver"]["precond_degree"] in range(80, 321)
    assert main(["compress", "--graph", str(g), "--signal", str(f),
                 "--method", "hard", "--n-terms", "10,40", "--mode", "exact",
                 "--out", str(hard)]) == 0
    rep = json.loads(hard.read_text())
    assert rep["solver"]["precond_degree"] is None
    assert rep["solver"]["precond_eps"] is None
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


@pytest.mark.parametrize("conf, flags", [
    ("design = ideal\nn_bands = 3\nspacing = octave\nshift_edges = yes\n",
     ["--design", "ideal", "--n-bands", "3", "--spacing", "octave",
      "--shift-edges"]),
    ("design = meyer\nn_bands = 4\nwarp = log\nnu = 5\n",
     ["--design", "meyer", "--n-bands", "4", "--warp", "log", "--nu", "5"]),
    ("design = sgwt\nk_scale = 8.5\n", ["--design", "sgwt", "--k-scale",
                                          "8.5"])])
def test_config_carries_bank_options(workspace, conf, flags):
    # the bank keys go through the same config path as every other flag
    tmp_path, g, f = workspace
    (tmp_path / "bank.conf").write_text(conf)
    via_conf = tmp_path / "a.lsgc"
    via_flag = tmp_path / "b.lsgc"
    assert main(["--config", str(tmp_path / "bank.conf"), "transform",
                 "--graph", str(g), "--signal", str(f), "--out",
                 str(via_conf)]) == 0
    assert main(["transform", "--graph", str(g), "--signal", str(f), *flags,
                 "--out", str(via_flag)]) == 0
    assert via_conf.read_bytes() == via_flag.read_bytes()


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
    # a numeric first line is data, not a header to skip
    cen_float = tmp / "cen_float.csv"
    cen_float.write_text("1.0,2,0.5\n0,3,0.5\n")
    graph_float = tmp / "graph_float.csv"
    graph_float.write_text("1.5,2,1.0\n0,1,1.0\n")
    cdf_bad = tmp / "cdf_bad.csv"
    cdf_bad.write_text("0.0x,0.0\n0.5,0.4\n1.0,1.0\n")
    signal_bad = tmp / "signal_bad.csv"
    signal_bad.write_text("0.5,1\n" + "1.0\n" * 50)
    counts_neg = tmp / "counts_neg.conf"
    counts_neg.write_text("counts = -1,2,2\n")
    bank = ["--design", "itersine", "--n-bands", "3"]
    bad = [
        ["transform", "--graph", str(g), "--signal", str(f), "--centers",
         str(cen), "--out", str(tmp / "c.lsgc"), *bank],
        ["transform", "--graph", str(g), "--signal", str(f), "--centers",
         str(cen_float), "--out", str(tmp / "c.lsgc"), *bank],
        ["spectrum-cdf", "--graph", str(graph_float), "--out",
         str(tmp / "cdf.csv")],
        ["design", "--graph", str(g), "--warp", "spectrum_cdf",
         "--cdf-file", str(cdf_bad), "--out", str(tmp / "bank.csv"), *bank],
        ["transform", "--graph", str(g), "--signal", str(signal_bad),
         "--out", str(tmp / "c.lsgc"), *bank],
        ["sample", "--graph", str(g), "--counts=-1,2,2", "--out",
         str(tmp / "cen_neg.csv"), *bank],
        ["--config", str(counts_neg), "sample", "--graph", str(g), "--out",
         str(tmp / "cen_neg.csv"), *bank],
        ["generate", "--kind", "erdos-renyi", "--n", "20", "--p", "2"],
        ["generate", "--kind", "erdos-renyi", "--n", "20", "--p", "-1"],
        ["generate", "--kind", "erdos-renyi", "--n", "0"],
        ["generate", "--kind", "sensor", "--n", "0"],
        ["generate", "--kind", "sensor", "--n", "6", "--k", "6"],
        ["generate", "--kind", "sensor", "--n", "50", "--k", "0"],
        ["generate", "--kind", "grid", "--rows", "0", "--cols", "5"],
        ["generate", "--kind", "grid", "--rows", "5", "--cols", "-1"],
        ["generate", "--kind", "path", "--n", "0"],
        ["generate", "--kind", "cycle", "--n", "2"],
        ["transform", "--graph", str(g), "--signal", str(f), "--out",
         str(tmp / "c.lsgc"), "--design", "sgwt", "--k-scale", "0"],
        ["transform", "--graph", str(g), "--signal", str(f), "--out",
         str(tmp / "c.lsgc"), "--design", "sgwt", "--k-scale", "inf"],
        ["transform", "--graph", str(g), "--signal", str(f), "--out",
         str(tmp / "c.lsgc"), "--design", "sgwt", "--k-scale", "-1"],
        ["design", "--lambda-bar", "-1", "--out", str(tmp / "bank.csv")],
        ["design", "--lambda-bar", "0", "--out", str(tmp / "bank.csv")],
        ["design", "--lambda-bar", "nan", "--out", str(tmp / "bank.csv")],
        ["design", "--lambda-bar", "inf", "--out", str(tmp / "bank.csv")],
        ["design", "--lambda-bar", "4", "--n-grid", "1", "--out",
         str(tmp / "bank.csv")],
        ["transform", "--graph", str(g), "--signal", str(f), "--out",
         str(tmp / "c.lsgc"), "--warp", "log", "--nu", "nan"],
        ["transform", "--graph", str(g), "--signal", str(f), "--out",
         str(tmp / "c.lsgc"), "--design", "dct", "--warp", "log", "--nu",
         "inf"],
        *(["denoise", "--graph", str(g), "--signal", str(f), "--sigma",
           sigma, "--out", str(tmp / "den.json")]
          for sigma in ("1e200", "nan", "inf")),
    ]
    capsys.readouterr()
    for argv in bad:
        if argv[0] == "generate":
            argv = argv + ["--out", str(tmp / "bad.csv")]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err
        if argv[0] == "denoise":
            assert "--sigma" in err
    assert not (tmp / "bad.csv").exists()
    assert not (tmp / "cen_neg.csv").exists()


@pytest.mark.parametrize("command", [
    "generate", "spectrum-cdf", "design", "sample", "transform", "inverse",
    "denoise", "compress"])
def test_unknown_flags_exit_2(workspace, capsys, command):
    # a mistyped flag must not be dropped in favour of its default
    tmp, g, f = workspace
    g, f, out = str(g), str(f), tmp / "out"
    required = {"generate": ["--kind", "path"],
                "spectrum-cdf": ["--graph", g],
                "design": ["--lambda-bar", "4"],
                "sample": ["--graph", g],
                "inverse": ["--graph", g, "--coefficients", f]}
    argv = [command, *required.get(command, ["--graph", g, "--signal", f]),
            "--out", str(out)]
    conf = tmp / "conf"
    conf.write_text("seed = 1\n")
    for prefix in ([], ["--config", str(conf)]):
        with pytest.raises(SystemExit) as exc:
            main([*prefix, *argv, "--n-bnads", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-bnads 3" in capsys.readouterr().err
    assert not out.exists()


def test_inverse_rejects_a_bad_tolerance(workspace, capsys):
    tmp, g, f = workspace
    c = tmp / "c.lsgc"
    r = tmp / "r.csv"
    assert main(["transform", "--graph", str(g), "--signal", str(f),
                 "--out", str(c)]) == 0
    capsys.readouterr()
    for tol in ("nan", "-1", "0", "inf"):
        assert main(["inverse", "--graph", str(g), "--coefficients", str(c),
                     "--tol", tol, "--out", str(r)]) == 2, tol
        assert "tol must be positive and finite" in capsys.readouterr().err
    assert not r.exists()


def test_sample_rejects_zero_probes(workspace, capsys):
    tmp, g, f = workspace
    out = tmp / "cen.csv"
    assert main(["sample", "--graph", str(g), "--total", "12",
                 "--n-probes", "0", "--out", str(out)]) == 2
    assert "n_probes must be at least 1" in capsys.readouterr().err
    assert not out.exists()


_EDGES = ["0,1,1.0", "1,2,0.5", "2,3,2.0"]
_JUNK = string.ascii_letters + string.punctuation.replace(",", "") + " "


@st.composite
def _malformed_rows(draw):
    """One edge-list row that the graph reader must refuse."""
    kind = draw(st.sampled_from(["count", "junk", "float id", "huge id",
                                 "negative id", "self-loop", "weight",
                                 "conflict"]))
    src, dst = draw(st.sampled_from([(0, 1), (1, 2), (0, 3), (3, 2)]))
    fields = [str(src), str(dst), "1.0"]
    if kind == "count":
        width = draw(st.sampled_from([1, 2, 4, 5]))
        fields = (fields + ["1.0", "1.0"])[:width]
    elif kind == "junk":
        fields[draw(st.integers(0, 2))] = draw(
            st.text(_JUNK, min_size=1, max_size=8).filter(
                lambda s: not _is_number(s)))
    elif kind == "float id":
        fields[draw(st.integers(0, 1))] = draw(st.sampled_from(
            ["1.5", "2.0", "1e3", "nan"]))
    elif kind == "huge id":
        fields[draw(st.integers(0, 1))] = str(draw(st.one_of(
            st.integers(min_value=2**63), st.integers(max_value=-2**63 - 1))))
    elif kind == "negative id":
        fields[draw(st.integers(0, 1))] = str(
            draw(st.integers(-2**63, -1)))
    elif kind == "self-loop":
        fields[1] = fields[0]
    elif kind == "weight":
        fields[2] = draw(st.sampled_from(
            ["0", "-0.0", "-1.5", "nan", "inf", "-inf", "1e400"]))
    else:
        # the path's own edge 0-1 again, in either orientation, reweighted
        fields = [*draw(st.permutations(["0", "1"])), draw(
            st.floats(0.01, 100).filter(lambda w: w != 1.0).map(repr))]
    return ",".join(fields)


@settings(max_examples=200, deadline=None)
@given(row=_malformed_rows(), at=st.integers(0, len(_EDGES)))
@example(row="1,99999999999999999999,1.0", at=1)
def test_malformed_edge_rows_exit_2(tmp_path_factory, row, at):
    tmp = tmp_path_factory.mktemp("fuzz")
    g = tmp / "g.csv"
    out = tmp / "cdf.csv"
    rows = _EDGES[:at] + [row] + _EDGES[at:]
    g.write_text("src,dst,weight\n" + "\n".join(rows) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["spectrum-cdf", "--graph", str(g), "--out", str(out)])
    assert rc == 2, row
    assert err.getvalue().startswith("error:"), row
    assert not out.exists()


@pytest.mark.parametrize("row", ["1,1000000000000,1.0",
                                 "1,9223372036854775807,1.0",
                                 "2147483647,1,1.0"])
def test_huge_vertex_ids_exit_2_before_allocating(tmp_path, capsys, row):
    # the vertex count comes from the largest id: an id-sized array would
    # take 7.3 TiB for the first row, and n = id + 1 overflows int64 for
    # the second
    g = tmp_path / "g.csv"
    out = tmp_path / "cdf.csv"
    g.write_text("src,dst,weight\n0,1,1.0\n\n" + row + "\n")
    tracemalloc.start()
    try:
        rc = main(["spectrum-cdf", "--graph", str(g), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: line 4: vertex id ")
    assert peak < 2 ** 20
    assert not out.exists()


def test_memory_error_exits_2(workspace, monkeypatch, capsys):
    tmp, g, f = workspace

    def exhausted(path):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(lsgf.io, "load_graph", exhausted)
    out = tmp / "cdf.csv"
    assert main(["spectrum-cdf", "--graph", str(g), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.28 TiB\n")
    assert not out.exists()


# Malformed signal, CDF, centers and coefficient files, each read by one
# command on a 4-vertex path with a 2-band bank.  Every drawn file is one
# the command must refuse.

_BANK = ["--design", "itersine", "--n-bands", "2"]
_SIGNAL = ["1.0", "-2.0", "0.5", "3.0"]
_CDF = ["0.0,0.0", "1.5,0.25", "3.0,0.75", "4.0,1.0"]
_CENTERS = ["0,0,0.5", "0,3,0.5", "1,1,1.0", "1,2,0.25"]
_NOT_FINITE = ["nan", "inf", "-inf", "1e400", "-1e400"]


@pytest.fixture(scope="module")
def path4(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("path4")
    g, f = tmp / "g.csv", tmp / "f.csv"
    save_graph_csv(g, path_graph(4))
    f.write_text("value\n" + "\n".join(_SIGNAL) + "\n")
    return g, f


def _refused(argv, out):
    """main(argv) exits 2 with an error line and writes nothing to out."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 2, err.getvalue()
    assert err.getvalue().startswith("error:")
    assert not out.exists()


def _junk(draw):
    return draw(st.text(_JUNK, min_size=1, max_size=8).filter(
        lambda s: not _is_number(s)))


@st.composite
def _malformed_signals(draw):
    rows = list(_SIGNAL)
    kind = draw(st.sampled_from(["length", "junk", "not finite", "fields"]))
    if kind == "length":
        rows = draw(st.lists(st.sampled_from(_SIGNAL), max_size=8).filter(
            lambda r: len(r) != 4))
    else:
        at = draw(st.integers(0, 3))
        rows[at] = {"junk": lambda: _junk(draw),
                    "not finite": lambda: draw(st.sampled_from(_NOT_FINITE)),
                    "fields": lambda: rows[at] + ",1.0"}[kind]()
    header = draw(st.sampled_from(["", "value\n"]))
    return header + "".join(r + "\n" for r in rows)


@st.composite
def _malformed_cdfs(draw):
    rows = [r.split(",") for r in _CDF]
    kind = draw(st.sampled_from(["short", "grid order", "decreasing",
                                 "range", "top", "not finite", "junk",
                                 "fields"]))
    at = draw(st.integers(0, 3))
    if kind == "short":
        rows = rows[at:at + draw(st.integers(0, 1))]
    elif kind == "grid order":
        rows[at][0] = rows[max(at - 1, 0) if at else 1][0]
    elif kind == "decreasing":
        rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
    elif kind == "range":
        rows[0][draw(st.integers(0, 1))] = draw(st.sampled_from(
            ["-0.5", "-1e-9"]))
    elif kind == "top":
        rows[3][1] = draw(st.sampled_from(["0.9", "1.5", "0.99999999"]))
    elif kind == "not finite":
        rows[at][draw(st.integers(0, 1))] = draw(st.sampled_from(_NOT_FINITE))
    elif kind == "junk":
        rows[at][draw(st.integers(0, 1))] = _junk(draw)
    else:
        rows[at] = rows[at] + ["1.0"]
    header = draw(st.sampled_from(["", "z,value\n"]))
    return header + "".join(",".join(r) + "\n" for r in rows)


@st.composite
def _malformed_centers(draw):
    rows = [r.split(",") for r in _CENTERS]
    kind = draw(st.sampled_from(["band", "vertex", "duplicate", "weight",
                                 "float id", "junk", "fields", "empty"]))
    at = draw(st.integers(0, 3))
    if kind == "band":
        rows[at][0] = str(draw(st.one_of(st.integers(max_value=-1),
                                         st.integers(min_value=2))))
    elif kind == "vertex":
        rows[at][1] = str(draw(st.one_of(st.integers(max_value=-1),
                                         st.integers(min_value=4))))
    elif kind == "duplicate":
        rows.append(rows[at][:2] + ["1.0"])
    elif kind == "weight":
        rows[at][2] = draw(st.sampled_from(_NOT_FINITE + ["-1.0", "-1e-300"]))
    elif kind == "float id":
        rows[at][draw(st.integers(0, 1))] = draw(st.sampled_from(
            ["1.5", "0.0", "1e3", "nan"]))
    elif kind == "junk":
        rows[at][draw(st.integers(0, 2))] = _junk(draw)
    elif kind == "fields":
        rows[at] = (rows[at] + ["1.0"])[:draw(st.sampled_from([1, 2, 4]))]
    else:
        rows = []
    header = draw(st.sampled_from(["", "band,vertex,weight\n"]))
    return header + "".join(",".join(r) + "\n" for r in rows)


def _coefficient_file(bands, magic=b"LSGC", version=1, n_bands=None,
                      ids=None):
    """Coefficient file bytes from (vertex ids, values) per band."""
    out = magic + struct.pack("<II", version, len(bands) if n_bands is None
                              else n_bands)
    for j, (verts, vals) in enumerate(bands):
        out += struct.pack("<II", j if ids is None else ids[j], len(verts))
        out += np.asarray(verts, "<u4").tobytes()
        out += np.asarray(vals, "<f8").tobytes()
    return out


@st.composite
def _malformed_coefficients(draw):
    bands = [([0, 1, 2, 3], [0.5, -1.0, 2.0, 0.25]), ([0, 2], [1.0, 3.0])]
    kind = draw(st.sampled_from(["magic", "version", "band count", "band id",
                                 "vertex", "duplicate", "not finite",
                                 "count", "truncated", "trailing"]))
    j = draw(st.integers(0, 1))
    if kind == "magic":
        return _coefficient_file(bands, magic=draw(st.binary(
            min_size=4, max_size=4).filter(lambda m: m != b"LSGC")))
    if kind == "version":
        return _coefficient_file(bands, version=draw(
            st.integers(0, 2 ** 32 - 1).filter(lambda v: v != 1)))
    if kind == "band count":
        n = draw(st.sampled_from([0, 1, 3]))
        return _coefficient_file((bands + bands)[:n])
    if kind == "band id":
        ids = [0, 1]
        ids[j] = draw(st.integers(0, 2 ** 32 - 1).filter(lambda i: i != j))
        return _coefficient_file(bands, ids=ids)
    if kind == "vertex":
        bands[j][0][0] = draw(st.integers(4, 2 ** 32 - 1))
    elif kind == "duplicate":
        bands[j][0][1] = bands[j][0][0]
    elif kind == "not finite":
        bands[j][1][draw(st.integers(0, 1))] = draw(st.sampled_from(
            [np.nan, np.inf, -np.inf]))
    elif kind == "count":
        whole = _coefficient_file(bands)
        return whole[:12] + struct.pack("<II", 0, draw(
            st.integers(5, 2 ** 32 - 1))) + whole[20:]
    whole = _coefficient_file(bands)
    if kind == "truncated":
        return whole[:draw(st.integers(0, len(whole) - 1))]
    if kind == "trailing":
        return whole + draw(st.binary(min_size=1, max_size=16))
    return whole


def test_well_formed_files_are_read(path4, tmp_path):
    # the unmalformed versions of the files fuzzed below go through
    g, f = path4
    (tmp_path / "s.csv").write_text("\n".join(_SIGNAL) + "\n")
    (tmp_path / "cdf.csv").write_text("\n".join(_CDF) + "\n")
    (tmp_path / "cen.csv").write_text("\n".join(_CENTERS) + "\n")
    (tmp_path / "c.lsgc").write_bytes(_coefficient_file(
        [([0, 1, 2, 3], [0.5, -1.0, 2.0, 0.25]), ([0, 2], [1.0, 3.0])]))
    t = str(tmp_path)
    assert main(["transform", "--graph", str(g), "--signal", f"{t}/s.csv",
                 "--centers", f"{t}/cen.csv", "--out", f"{t}/c2.lsgc",
                 *_BANK]) == 0
    assert main(["design", "--graph", str(g), "--warp", "spectrum_cdf",
                 "--cdf-file", f"{t}/cdf.csv", "--out", f"{t}/b.csv",
                 *_BANK]) == 0
    assert main(["inverse", "--graph", str(g), "--coefficients",
                 f"{t}/c.lsgc", "--out", f"{t}/r.csv", *_BANK]) == 0


@settings(max_examples=100, deadline=None)
@given(text=_malformed_signals())
def test_malformed_signal_files_exit_2(path4, tmp_path_factory, text):
    g, _ = path4
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "s.csv").write_text(text)
    _refused(["transform", "--graph", str(g), "--signal", str(tmp / "s.csv"),
              "--out", str(tmp / "c.lsgc"), *_BANK], tmp / "c.lsgc")


@settings(max_examples=100, deadline=None)
@given(text=_malformed_cdfs())
def test_malformed_cdf_files_exit_2(path4, tmp_path_factory, text):
    g, _ = path4
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "cdf.csv").write_text(text)
    _refused(["design", "--graph", str(g), "--warp", "spectrum_cdf",
              "--cdf-file", str(tmp / "cdf.csv"), "--out",
              str(tmp / "b.csv"), *_BANK], tmp / "b.csv")


@settings(max_examples=100, deadline=None)
@given(text=_malformed_centers())
def test_malformed_center_files_exit_2(path4, tmp_path_factory, text):
    g, f = path4
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "cen.csv").write_text(text)
    _refused(["transform", "--graph", str(g), "--signal", str(f),
              "--centers", str(tmp / "cen.csv"), "--out",
              str(tmp / "c.lsgc"), *_BANK], tmp / "c.lsgc")


@settings(max_examples=100, deadline=None)
@given(data=_malformed_coefficients())
def test_malformed_coefficient_files_exit_2(path4, tmp_path_factory, data):
    g, _ = path4
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "c.lsgc").write_bytes(data)
    _refused(["inverse", "--graph", str(g), "--coefficients",
              str(tmp / "c.lsgc"), "--out", str(tmp / "r.csv"), *_BANK],
             tmp / "r.csv")


def test_cli_import_leaves_interpolation_unloaded(tmp_path):
    # most commands build no CDF, run no probe block and read no Matrix
    # Market file, so the CLI must not pay for loading scipy.interpolate,
    # the kernels' thread pool or scipy.io at start-up; the kernels load
    # scipy's compiled sparse routines from their file, so scipy.sparse
    # itself stays unloaded; spectrum-cdf writes its CDF's grid and values
    # and never evaluates it; sensor graphs search a cell grid in numpy, so
    # no command loads scipy.spatial or, through it, scipy.linalg
    g = tmp_path / "g.csv"
    save_graph_csv(g, grid_graph(4, 5))
    src = str(Path(lsgf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    unloaded = ("[m for m in ('scipy.interpolate', 'concurrent.futures."
                "thread', 'scipy.spatial', 'scipy.linalg', 'scipy.io', "
                "'scipy.sparse') if m in sys.modules]")
    cdf = ("main(['spectrum-cdf', '--graph', sys.argv[1], '--out', "
           "sys.argv[2]]); ")
    sensor = ("main(['generate', '--kind', 'sensor', '--n', '300', "
              "'--out', sys.argv[3]]); ")
    for run in ("", cdf, sensor):
        code = f"import sys; from lsgf.cli import main; {run}print({unloaded})"
        out = subprocess.run(
            [sys.executable, "-c", code, str(g), str(tmp_path / "cdf.csv"),
             str(tmp_path / "sensor.csv")],
            env=env, check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "[]"
    assert load_cdf_csv(tmp_path / "cdf.csv").values[-1] == 1.0
    assert load_graph(tmp_path / "sensor.csv").n == 300


def test_request_stages_leave_linalg_and_csgraph_unloaded(tmp_path):
    # reading a graph checks connectivity without scipy.sparse.csgraph,
    # scipy.linalg loads only for exact modes, Lanczos and QR pivoting, and
    # graphs are assembled and filtered by scipy's compiled routines without
    # the scipy.sparse package, so none of the pipeline's request stages
    # pays for loading them
    g, f, noisy = (tmp_path / name for name in ("g.csv", "f.csv", "n.csv"))
    save_graph_csv(g, grid_graph(4, 5))
    rng = np.random.default_rng(0)
    signal = rng.standard_normal(20)
    save_signal_csv(f, signal)
    save_signal_csv(noisy, signal + 0.1 * rng.standard_normal(20))
    bank = ["--design", "sgwt", "--n-bands", "4", "--degree", "12"]
    t = str(tmp_path)
    stages = [
        ["spectrum-cdf", "--out", f"{t}/cdf.csv"],
        ["transform", "--signal", str(f), *bank, "--out", f"{t}/c.lsgc"],
        ["inverse", "--coefficients", f"{t}/c.lsgc", *bank,
         "--out", f"{t}/r.csv"],
        ["denoise", "--signal", str(f), "--noisy", str(noisy), "--sigma",
         "0.1", *bank, "--out", f"{t}/d.json", "--denoised-out",
         f"{t}/d.csv"],
        ["compress", "--signal", str(f), "--method", "hard", "--n-terms",
         "5,10", *bank, "--out", f"{t}/k.json"]]
    src = str(Path(lsgf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    loaded = ("[m for m in ('scipy.linalg', 'scipy.sparse.csgraph', "
              "'scipy.sparse.linalg', 'scipy.spatial', 'scipy.sparse') "
              "if m in sys.modules]")
    code = ("import json, sys; from lsgf.cli import main; "
            f"print({loaded}); "
            "codes = [main([s[0], '--graph', sys.argv[1], *s[1:]]) "
            "for s in json.loads(sys.argv[2])]; "
            f"print(codes, {loaded})")
    out = subprocess.run(
        [sys.executable, "-c", code, str(g), json.dumps(stages)],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[0] == "[]"
    assert out.splitlines()[-1] == "[0, 0, 0, 0, 0] []"
    recon = load_signal_csv(tmp_path / "r.csv")
    assert np.linalg.norm(recon - signal) < 1e-6 * np.linalg.norm(signal)
