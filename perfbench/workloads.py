"""The benchmark's three workloads.

Each workload is a closed loop with one client in one process: the next
request is sent only after the previous one has returned.  A workload
exposes

* ``prepare(seed)``: the benchmark's own reference data (not timed);
* ``setup(seed, tracer)``: everything from the seed to the first request;
  the returned state is what requests run against;
* ``check_setup(state)``: error messages for a wrong set-up;
* ``figures(state)``: sizes and reference figures of the set-up;
* ``inputs(state, seed, i)``: the i-th request's inputs, derived only from
  the seed and i (not timed);
* ``run(state, inputs, tracer)``: one request; returns its wall time and a
  dict of outputs, timings of its parts (``parts``), quality figures
  (``quality``) and, when traced, per-request counts (``counts``);
* ``check(state, inputs, out)``: error messages for a wrong output; it
  adds the figures it compares against a reference to ``out["quality"]``.
  The harness calls it with tracing off.

The library is always called through module attributes (``frames.analysis``,
not a name bound at import), so the tracer's wrappers see every call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from lsgf import (chebyshev, filters, frames, generators, graphs, sampling,
                  spectrum, tasks)

SIZES = {
    # size -> sensor N, grid side, CLI sensor N
    "full": (20000, 300, 5000),
    "toy": (600, 30, 300),
}

N_BANDS = 6
DEGREE = 40
SIGMA = 0.3
CG_TOL = 1e-8
NORM_PROBES = 50
RECON_TOL = 1e-6       # worst relative round-trip error accepted
ANALYSIS_TOL = 1e-6    # worst relative deviation from reference_analysis
SNR_MIN_DB = 1.0       # a denoiser that gains less did not remove noise
CDF_SUP_TOL = 0.05     # accuracy the default spectral CDF estimate promises
STAGE_TIMEOUT_S = 150


def coordinate_signal(coords, rng):
    """Piecewise-smooth vertex signal: three low-frequency plane waves of
    the coordinates plus a unit jump across a random line."""
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    xy = (coords - lo) / np.where(hi > lo, hi - lo, 1.0)
    f = np.zeros(len(xy))
    for _ in range(3):
        k = rng.uniform(-4.0, 4.0, 2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        f += rng.normal() * np.cos(np.pi * (xy @ k) + phase)
    normal = rng.normal(size=2)
    normal /= np.linalg.norm(normal)
    f += np.where((xy - 0.5) @ normal > rng.uniform(-0.2, 0.2), 0.5, -0.5)
    return f


def rel_err(estimate, reference):
    return float(np.linalg.norm(estimate - reference)
                 / np.linalg.norm(reference))


def snr_gain_db(clean, noisy, estimate):
    return float(10.0 * np.log10(np.sum((noisy - clean) ** 2)
                                 / np.sum((estimate - clean) ** 2)))


def lap_figures(lap):
    """Vertex count, stored entries and CSR bytes of a Laplacian."""
    return {"n": lap.n, "nnz": int(lap.data.size),
            "csr_bytes": int(lap.indptr.nbytes + lap.indices.nbytes
                             + lap.data.nbytes)}


def _is_cdf(values):
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(values)) and np.all(np.diff(values) >= 0)
                and values[0] >= 0.0 and abs(values[-1] - 1.0) <= 1e-12)


def reference_analysis(lap, bank, centers, f):
    """Analysis coefficients computed outside the library's filtering path.

    Each kernel's degree-K Chebyshev fit on [0, lambda_bar] is applied by
    a three-term recurrence on ``scipy.sparse``, and every band is sampled
    at its centers.  Only the fit comes from lsgf.
    """
    coeffs = np.array([chebyshev.chebyshev_fit(g, DEGREE, bank.lambda_bar)
                       .coeffs for g in bank.kernels])
    a = lap.to_scipy()
    half = bank.lambda_bar / 2.0
    t_prev, t = f, (a @ f - half * f) / half
    out = np.outer(coeffs[:, 0], t_prev) + np.outer(coeffs[:, 1], t)
    for k in range(2, DEGREE + 1):
        t_prev, t = t, 2.0 * (a @ t - half * t) / half - t_prev
        out += np.outer(coeffs[:, k], t)
    return [out[j][np.asarray(c)] for j, c in enumerate(centers)]


def analysis_error(bands, reference):
    """Largest band deviation relative to the whole reference's norm."""
    scale = np.sqrt(sum(float(r @ r) for r in reference))
    if len(bands) != len(reference) or any(
            np.shape(b) != r.shape for b, r in zip(bands, reference)):
        return float("inf")
    return max(float(np.linalg.norm(np.asarray(b) - r)) for b, r
               in zip(bands, reference)) / scale


def quality_errors(q):
    """Checks shared by the workloads that denoise and round-trip."""
    errors = []
    if not q["snr_gain_db"] >= SNR_MIN_DB:
        errors.append(f"snr gain {q['snr_gain_db']} dB < {SNR_MIN_DB} dB")
    if not q["recon_rel_err"] <= RECON_TOL:
        errors.append(f"round-trip error {q['recon_rel_err']:.3g} "
                      f"> {RECON_TOL}")
    if not q["analysis_err"] <= ANALYSIS_TOL:
        errors.append(f"analysis deviates from the reference by "
                      f"{q['analysis_err']:.3g} > {ANALYSIS_TOL}")
    return errors


class DenoiseSensor:
    """Denoise and round-trip requests on a 20k-vertex sensor graph.

    A request is one ``tasks.denoise`` (SURE thresholds, CG inverse at tol
    1e-8, 50 norm probes) on a fresh noisy signal, then one round trip
    ``analysis`` + ``inverse_cg`` on another fresh signal.
    """

    name = "denoise-sensor"

    def __init__(self, size):
        self.n = SIZES[size][0]

    def prepare(self, seed):
        pass

    def setup(self, seed, tracer=None):
        g = generators.sensor_graph(self.n, seed=seed)
        lap = graphs.build_laplacian(g)
        bank = filters.make_sgwt(lap.lambda_max_bound, N_BANDS)
        d = frames.dictionary_poly(lap, bank, DEGREE)
        # one transform so lazily built operator state lands in set-up
        frames.analysis(d, g.coords[:, 0])
        return {"graph": g, "lap": lap, "dict": d}

    def check_setup(self, state):
        return []

    def figures(self, state):
        return lap_figures(state["lap"])

    def inputs(self, state, seed, i):
        coords = state["graph"].coords
        rng = np.random.default_rng([seed, i])
        clean = coordinate_signal(coords, rng)
        noisy = clean + SIGMA * rng.standard_normal(clean.size)
        return {"clean": clean, "noisy": noisy,
                "signal": coordinate_signal(coords, rng),
                "norm_seed": seed * 1000 + i}

    def run(self, state, x, tracer):
        d = state["dict"]
        cols = {}
        cfg = tasks.DenoiseConfig(sigma=SIGMA, cg_tol=CG_TOL,
                                  norm_probes=NORM_PROBES,
                                  norm_seed=x["norm_seed"])
        t0 = perf_counter()
        est, report = tasks.denoise(d, x["noisy"], cfg)
        t1 = perf_counter()
        if tracer is not None:
            cols["denoise"] = tracer.values["kernels.matvec_cols"]
        coeffs = frames.analysis(d, x["signal"])
        recon, info = frames.inverse_cg(d, coeffs, tol=CG_TOL)
        t2 = perf_counter()
        if tracer is not None:
            cols["roundtrip"] = (tracer.values["kernels.matvec_cols"]
                                 - cols["denoise"])
        out = {
            "estimate": est, "recon": recon,
            "converged": bool(info.converged and report["solver"].converged),
            "parts": {"denoise": t1 - t0, "roundtrip": t2 - t1},
            "quality": {"snr_gain_db": snr_gain_db(x["clean"], x["noisy"],
                                                   est),
                        "recon_rel_err": rel_err(recon, x["signal"])},
            "coeffs": coeffs}
        if tracer is not None:
            iters = {"denoise": report["solver"].n_iter,
                     "roundtrip": info.n_iter}
            # columns at the commit that defined this benchmark: K per fused
            # analysis, J*K per synthesis, P*K for P norm probes
            k, jk = DEGREE, N_BANDS * DEGREE
            expected = {"denoise": k + NORM_PROBES * k + jk
                        + (k + jk) * iters["denoise"],
                        "roundtrip": k + jk + (k + jk) * iters["roundtrip"]}
            out["counts"] = {"cg_iters": iters, "matvec_cols": cols,
                             "matvec_cols_at_definition": expected}
        return t2 - t0, out

    def check(self, state, x, out):
        d = state["dict"]
        out["quality"]["analysis_err"] = analysis_error(
            out["coeffs"].bands,
            reference_analysis(state["lap"], d.bank, d.centers, x["signal"]))
        errors = []
        if not out["converged"]:
            errors.append("CG did not converge")
        if not np.all(np.isfinite(out["estimate"])):
            errors.append("denoised estimate is not finite")
        return errors + quality_errors(out["quality"])


def grid_spectrum(side):
    """Eigenvalues of the side x side grid's combinatorial Laplacian:
    mu_a + mu_b with mu_a = 2 - 2 cos(pi a / side)."""
    mu = 2.0 - 2.0 * np.cos(np.pi * np.arange(side) / side)
    return np.sort((mu[:, None] + mu[None, :]).ravel())


class AdaptGrid:
    """Class-adapted banks and sampling on a 300 x 300 grid.

    Set-up tightens the spectral interval with Lanczos and estimates the
    spectral CDF.  A request estimates the energy CDF of two training
    signals, builds an energy-adapted itersine bank, draws N/20 centers from
    probe weights and analyses a held-out signal at those centers.
    """

    name = "adapt-grid"

    def __init__(self, size):
        self.side = SIZES[size][1]
        self.eigenvalues = grid_spectrum(self.side)

    def prepare(self, seed):
        pass

    def setup(self, seed, tracer=None):
        g = generators.grid_graph(self.side, self.side)
        lap = graphs.build_laplacian(g)
        bound = min(lap.lambda_max_bound,
                    graphs.lanczos_lambda_max(lap, seed=seed))
        lap = lap.with_lambda_bound(bound)
        # the CDF's probe recurrences also build the new Laplacian's lazy
        # row index, so requests start warm
        cdf = spectrum.estimate_spectral_cdf(lap, n_probes=10, kpm_degree=30,
                                             seed=seed)
        return {"graph": g, "lap": lap, "cdf": cdf}

    def check_setup(self, state):
        lap, cdf = state["lap"], state["cdf"]
        errors = []
        if not lap.lambda_max_bound >= self.eigenvalues[-1]:
            errors.append(f"interval {lap.lambda_max_bound} is below the "
                          f"grid's lambda_max {self.eigenvalues[-1]}")
        if not _is_cdf(cdf.values):
            errors.append("spectral CDF is not a monotone CDF")
        err = self.cdf_sup_err(state)
        if not err <= CDF_SUP_TOL:
            errors.append(f"spectral CDF sup error {err:.4f} > {CDF_SUP_TOL}")
        return errors

    def cdf_sup_err(self, state):
        z = np.linspace(0.0, state["lap"].lambda_max_bound, 200)
        exact = np.searchsorted(self.eigenvalues, z, side="right") \
            / self.eigenvalues.size
        return float(np.max(np.abs(np.asarray(state["cdf"](z)) - exact)))

    def figures(self, state):
        return {**lap_figures(state["lap"]),
                "cdf_sup_err": self.cdf_sup_err(state),
                "interval": state["lap"].lambda_max_bound,
                "lambda_max": float(self.eigenvalues[-1])}

    def inputs(self, state, seed, i):
        coords = state["graph"].coords
        rng = np.random.default_rng([seed, i])
        train = np.vstack([coordinate_signal(coords, rng) for _ in range(2)])
        return {"train": train, "held_out": coordinate_signal(coords, rng),
                "seed": seed * 1000 + i}

    def run(self, state, x, tracer):
        lap = state["lap"]
        t0 = perf_counter()
        ecdf = spectrum.estimate_energy_cdf(lap, x["train"])
        bank = filters.make_adapted_translates(
            lap.lambda_max_bound, N_BANDS, ecdf, "itersine", energy=True)
        d = frames.dictionary_poly(lap, bank, DEGREE)
        w = sampling.nonuniform_weights(d, n_probes=10, seed=x["seed"])
        counts = sampling.allocate_samples(state["cdf"], bank, lap.n // 20)
        centers = sampling.draw_centers(w, counts, seed=x["seed"])
        dc = frames.dictionary_poly(lap, bank, DEGREE, centers=centers.sets)
        coeffs = frames.analysis(dc, x["held_out"])
        return perf_counter() - t0, {"ecdf": ecdf, "allocation": counts,
                                     "bank": bank, "centers": centers,
                                     "coeffs": coeffs, "parts": {},
                                     "quality": {}}

    def check(self, state, x, out):
        n = state["lap"].n
        counts = np.asarray(out["allocation"])
        errors = []
        if not _is_cdf(out["ecdf"].values):
            errors.append("energy CDF is not a monotone CDF")
        if counts.size != N_BANDS or counts.sum() != n // 20 \
                or np.any(counts < 1):
            errors.append(f"bad sample allocation {counts.tolist()}")
        if len(out["centers"].sets) != counts.size:
            errors.append("one center set per band expected")
        for j, c in enumerate(out["centers"].sets):
            c = np.asarray(c)
            if j >= counts.size or c.size != counts[j] \
                    or np.unique(c).size != c.size \
                    or (c.size and (c.min() < 0 or c.max() >= n)):
                errors.append(f"band {j}: bad center set")
        if errors:
            return errors
        err = analysis_error(out["coeffs"].bands, reference_analysis(
            state["lap"], out["bank"], out["centers"].sets, x["held_out"]))
        out["quality"]["analysis_err"] = err
        if not err <= ANALYSIS_TOL:
            errors.append(f"analysis deviates from the reference by "
                          f"{err:.3g} > {ANALYSIS_TOL}")
        return errors


def read_coefficient_file(path):
    """Band values of a coefficient file with complete center sets.

    Layout: magic, version u32, J u32, then per band: id u32, count u32,
    vertex ids u32[count], values f64[count], all little-endian.  Bands
    whose vertex ids are not 0..count-1 in order come back empty, which
    fails the comparison with the reference.
    """
    raw = Path(path).read_bytes()
    n_bands = int(np.frombuffer(raw, "<u4", 1, 8)[0])
    pos, bands = 12, []
    for _ in range(n_bands):
        count = int(np.frombuffer(raw, "<u4", 1, pos + 4)[0])
        ids = np.frombuffer(raw, "<u4", count, pos + 8)
        values = np.frombuffer(raw, "<f8", count, pos + 8 + 4 * count)
        bands.append(values if np.array_equal(ids, np.arange(count))
                     else np.empty(0))
        pos += 8 + 12 * count
    if pos != len(raw):
        raise ValueError(f"coefficient file has {len(raw) - pos} extra bytes")
    return bands


class CliPipeline:
    """A shell session: each stage is a fresh ``python -m lsgf.cli``.

    Set-up is ``generate``; a request is ``spectrum-cdf``, ``transform``,
    ``inverse``, ``denoise`` and ``compress`` on a fresh signal derived
    from the vertex coordinates of the same seeded sensor graph.
    """

    name = "cli-pipeline"
    STAGES = ("spectrum-cdf", "transform", "inverse", "denoise", "compress")

    def __init__(self, size, workdir, src):
        self.n = SIZES[size][2]
        self.workdir = Path(workdir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.stage_script = Path(__file__).with_name("cli_stage.py")

    def _stage(self, args, tracer, tag):
        """Run one CLI stage; returns (wall seconds, exit code, stderr)."""
        if tracer is None:
            cmd = [sys.executable, "-m", "lsgf.cli", *args]
        else:
            trace_file = self.workdir / f"trace-{tag}.json"
            cmd = [sys.executable, str(self.stage_script), str(trace_file),
                   *args]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=STAGE_TIMEOUT_S)
        wall = perf_counter() - t0
        if tracer is not None and proc.returncode == 0:
            child = json.loads(trace_file.read_text())
            tracer.add(child["values"])
            tracer.values["cli.startup.s"] += wall - child["main_s"]
            tracer.absent = sorted(set(tracer.absent) | set(child["absent"]))
        return wall, proc.returncode, proc.stderr[-500:]

    def setup(self, seed, tracer=None):
        wall, code, err = self._stage(
            ["generate", "--kind", "sensor", "--n", str(self.n), "--seed",
             str(seed), "--out", "graph.csv"], tracer, "generate")
        if code != 0:
            raise RuntimeError(f"generate exited {code}: {err}")
        return {"seed": seed}

    def prepare(self, seed):
        """The benchmark's own copy of the graph, for coordinates and
        reference figures; not part of any timed stage."""
        g = generators.sensor_graph(self.n, seed=seed)
        self.coords = g.coords
        self.lap = graphs.build_laplacian(g)

    def check_setup(self, state):
        errors = []
        try:
            lines = (self.workdir / "graph.csv").read_text().splitlines()
            if len(lines) - 1 != self.lap.graph.n_edges:
                errors.append("graph.csv does not hold the generated edges")
        except OSError as exc:
            errors.append(f"graph.csv unreadable: {exc}")
        return errors

    def figures(self, state):
        return lap_figures(self.lap)

    def _write_signal(self, name, values):
        with open(self.workdir / name, "w") as fh:
            fh.write("value\n")
            fh.writelines(f"{float(v)!r}\n" for v in values)

    def inputs(self, state, seed, i):
        rng = np.random.default_rng([seed, i])
        signal = coordinate_signal(self.coords, rng)
        noisy = signal + SIGMA * rng.standard_normal(signal.size)
        self._write_signal("signal.csv", signal)
        self._write_signal("noisy.csv", noisy)
        return {"signal": signal, "noisy": noisy}

    def run(self, state, x, tracer):
        bank = ["--design", "sgwt", "--n-bands", str(N_BANDS)]
        stages = {
            "spectrum-cdf": ["--seed", str(state["seed"]),
                             "--out", "cdf.csv"],
            "transform": ["--signal", "signal.csv", *bank,
                          "--out", "coeffs.lsgf"],
            "inverse": ["--coefficients", "coeffs.lsgf", *bank,
                        "--tol", str(CG_TOL), "--out", "recon.csv"],
            "denoise": ["--signal", "signal.csv", "--noisy", "noisy.csv",
                        "--sigma", str(SIGMA), *bank, "--out", "denoise.json",
                        "--denoised-out", "denoised.csv"],
            "compress": ["--signal", "signal.csv", "--method", "hard",
                         "--n-terms", "50,500", *bank,
                         "--out", "compress.json"],
        }
        for name in ("cdf.csv", "coeffs.lsgf", "recon.csv", "denoise.json",
                     "denoised.csv", "compress.json"):
            (self.workdir / name).unlink(missing_ok=True)
        parts, codes = {}, {}
        for stage in self.STAGES:
            wall, code, err = self._stage(
                [stage, "--graph", "graph.csv", *stages[stage]], tracer,
                stage)
            parts[stage], codes[stage] = wall, (code, err)
        out = {"parts": parts, "codes": codes, "quality": {}}
        out.update(self._read_outputs(x))
        return sum(parts.values()), out

    def _read_outputs(self, x):
        wd = self.workdir
        found = {}
        try:
            cdf = np.loadtxt(wd / "cdf.csv", delimiter=",", skiprows=1,
                             ndmin=2)
            found["cdf"] = cdf[:, 1]
            found["coeff_bands"] = read_coefficient_file(wd / "coeffs.lsgf")
            recon = np.loadtxt(wd / "recon.csv", skiprows=1)
            found["quality"] = {"recon_rel_err": rel_err(recon, x["signal"])}
            json.loads((wd / "denoise.json").read_text())
            denoised = np.loadtxt(wd / "denoised.csv", skiprows=1)
            found["quality"]["snr_gain_db"] = snr_gain_db(
                x["signal"], x["noisy"], denoised)
            curve = json.loads((wd / "compress.json").read_text())["curve"]
            found["nmse"] = [float(row["nmse"]) for row in curve]
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            found["read_error"] = repr(exc)
        return found

    def check(self, state, x, out):
        errors = [f"{stage} exited {code}: {err}"
                  for stage, (code, err) in out["codes"].items() if code != 0]
        if errors:
            return errors
        if "read_error" in out:
            return [f"output files do not parse: {out['read_error']}"]
        if not _is_cdf(out["cdf"]):
            errors.append("cdf.csv is not a monotone CDF")
        bank = filters.make_sgwt(self.lap.lambda_max_bound, N_BANDS)
        out["quality"]["analysis_err"] = analysis_error(
            out["coeff_bands"], reference_analysis(
                self.lap, bank, [np.arange(self.n)] * N_BANDS, x["signal"]))
        errors += quality_errors(out["quality"])
        nmse = out["nmse"]
        if len(nmse) != 2 or not all(np.isfinite(nmse)) \
                or not 0 <= nmse[1] < nmse[0]:
            errors.append(f"compression curve {nmse} is not decreasing")
        return errors
