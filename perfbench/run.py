"""lsgf benchmark: one seeded workload, checked outputs, JSON metrics.

Run from the root of a checkout (the directory holding ``src/lsgf``):

    python3 perfbench/run.py --workload denoise-sensor --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``denoise-sensor``, ``adapt-grid`` and
``cli-pipeline``.  Set-up runs ``SETUP_REPEATS`` times and the last state
serves a closed loop of requests that lasts about ``--seconds``; a request
that would end past that budget is not started once ``MIN_REQUESTS`` have
run.  Every request's outputs are checked; a request that raises, exits
non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced set-up, one traced set-up, then pairs of the same request untraced
and traced, and reports the per-layer metrics: each is the traced set-up's
value plus the mean over traced requests.  ``trace.overhead_s`` is the
median of traced minus untraced wall time of a request.

Standard output ends with two JSON lines: the run's details (environment,
samples, quality figures, failures) and the result object.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

SETUP_REPEATS = 3
MIN_REQUESTS = 2

END_TO_END = [("setup_s", "s"), ("request_p50_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("kernels.matvec_cols", "count"), ("kernels.calls", "count"),
    ("kernels.s", "s"), ("kernels.bytes_computed", "B"),
    ("chebyshev.chebyshev_fit.s", "s"),
    ("chebyshev.apply_poly_bank.s", "s"),
    ("chebyshev.apply_poly_bank.calls", "count"),
    ("chebyshev.apply_poly_filter.s", "s"),
    ("chebyshev.apply_poly_filter.calls", "count"),
    ("frames.analysis.s", "s"), ("frames.analysis.calls", "count"),
    ("frames.synthesis.s", "s"), ("frames.synthesis.calls", "count"),
    ("frames.inverse_cg.s", "s"), ("frames.inverse_cg.iters", "count"),
    ("frames.atom_norm_estimate.s", "s"), ("frames.dictionary_poly.s", "s"),
    ("spectrum.estimate_energy_cdf.s", "s"),
    ("spectrum.estimate_spectral_cdf.s", "s"),
    ("graphs.lanczos_lambda_max.s", "s"),
    ("sampling.nonuniform_weights.s", "s"),
    ("sampling.allocate_samples.s", "s"), ("sampling.draw_centers.s", "s"),
    ("tasks.denoise.s", "s"), ("tasks.sure_thresholds.s", "s"),
    ("tasks.compress_hard_threshold.s", "s"),
    ("generators.sensor_graph.s", "s"), ("generators.grid_graph.s", "s"),
    ("graphs.from_edges.s", "s"), ("graphs.build_laplacian.s", "s"),
    ("io.load_graph.s", "s"), ("io.signal_csv.s", "s"),
    ("io.coefficients.s", "s"), ("cli.startup.s", "s"),
    ("cli.generate.s", "s"), ("cli.spectrum-cdf.s", "s"),
    ("cli.transform.s", "s"), ("cli.inverse.s", "s"),
    ("cli.denoise.s", "s"), ("cli.compress.s", "s"),
    ("trace.overhead_s", "s"),
]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["denoise-sensor", "adapt-grid", "cli-pipeline"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "toy"], default="full",
                    help="toy sizes exist for the harness's smoke test")
    return ap.parse_args(argv)


def import_program():
    """Import lsgf from this checkout's sources, never from elsewhere."""
    if not (SRC / "lsgf" / "__init__.py").is_file():
        raise SystemExit(f"error: no lsgf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lsgf
    if SRC.resolve() not in Path(lsgf.__file__).resolve().parents:
        raise SystemExit(f"error: lsgf imported from {lsgf.__file__}, "
                         f"not from {SRC}")


def environment():
    import numpy
    import scipy
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(cache_dir.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        caches = "unavailable"
    kernels = sys.modules.get("lsgf._kernels")
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "caches": caches, "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "lsgf_backend": getattr(kernels, "BACKEND", "absent")}


def per_layer(setup_values, request_values):
    """Per-layer metrics: traced set-up plus the mean traced request."""
    totals = {}
    for values in request_values:
        for key, v in values.items():
            totals[key] = totals.get(key, 0.0) + v
    merged = dict(setup_values)
    for key, v in totals.items():
        merged[key] = merged.get(key, 0.0) + v / len(request_values)
    for suffix in ("s", "calls"):
        merged["kernels." + suffix] = sum(
            v for k, v in merged.items()
            if k.startswith("kernels.") and k.endswith("." + suffix))
    return merged


def measure(wl, seed, seconds, trace):
    """Run set-ups and the request loop; returns (metrics, detail)."""
    from spans import BYTES_FORMULA, Tracer

    tracer = Tracer() if trace else None
    failures, attempted = [], 0
    detail = {}

    def record(op, errors):
        nonlocal attempted
        attempted += 1
        if errors:
            failures.append({"op": op, "errors": errors[:3]})

    wl.prepare(seed)
    setup_samples = []
    state = None
    for rep in range(1 if trace else SETUP_REPEATS):
        state = None
        t0 = perf_counter()
        state = wl.setup(seed)
        setup_samples.append(perf_counter() - t0)
    setup_values = {}
    if trace:
        state = None
        tracer.install()
        try:
            state = wl.setup(seed, tracer)
        finally:
            tracer.uninstall()
        setup_values = tracer.take()
    record("setup", wl.check_setup(state))
    detail["workload_figures"] = wl.figures(state)

    samples, parts, quality, counts = [], {}, {}, []
    request_values, overhead = [], []
    t_start = perf_counter()
    i = 0
    while True:
        t_req = perf_counter()
        x = wl.inputs(state, seed, i)
        out = None
        try:
            wall, out = wl.run(state, x, None)
            errors = wl.check(state, x, out)
            if trace:
                tracer.install()
                try:
                    wall_traced, out_traced = wl.run(state, x, tracer)
                finally:
                    tracer.uninstall()
                request_values.append(tracer.take())
                overhead.append(wall_traced - wall)
                errors += wl.check(state, x, out_traced)
                counts.append(out_traced.get("counts"))
        except Exception:  # a failed request is counted, not fatal
            errors = [traceback.format_exc(limit=-3)]
        record(f"request {i}", errors)
        if out is not None:
            samples.append(wall)
            for key, v in out["parts"].items():
                parts.setdefault(key, []).append(v)
            for key, v in out["quality"].items():
                quality.setdefault(key, []).append(v)
        i += 1
        elapsed = perf_counter() - t_start
        if i >= (1 if trace else MIN_REQUESTS) \
                and elapsed + (perf_counter() - t_req) > seconds:
            break
    if not samples:  # every request raised: time to failure
        samples.append(elapsed / i)

    detail.update({
        "setup_samples_s": setup_samples, "request_samples_s": samples,
        "parts_p50_s": {k: statistics.median(v) for k, v in parts.items()},
        "quality": {k: {"min": min(v), "max": max(v),
                        "mean": statistics.fmean(v)}
                    for k, v in quality.items()},
        "failures": failures[:10], "failed_frac": len(failures) / attempted,
    })
    if trace:
        values = per_layer(setup_values, request_values)
        values["trace.overhead_s"] = statistics.median(overhead or [0.0])
        detail.update({
            "request_counts": [c for c in counts if c],
            "absent": tracer.absent,
            "uncounted_kernel_calls": values.get("kernels.uncounted_calls",
                                                 0),
            "bytes_formula": BYTES_FORMULA})
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN
                                   if wl.name == "cli-pipeline"
                                   else resource.RUSAGE_SELF)
        values = {"setup_s": statistics.median(setup_samples),
                  "request_p50_s": statistics.median(samples),
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, detail


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    workdir = None
    if args.workload == "denoise-sensor":
        wl = workloads.DenoiseSensor(args.size)
    elif args.workload == "adapt-grid":
        wl = workloads.AdaptGrid(args.size)
    else:
        workdir = ROOT / ".bench_tmp" / f"cli-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        wl = workloads.CliPipeline(args.size, workdir, SRC)
    try:
        result, detail = measure(wl, args.seed, args.seconds, args.trace)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "env": environment(), **detail}
    print(json.dumps(detail, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
