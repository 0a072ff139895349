"""Command-line interface.

Subcommands cover the full workflow: generate graphs and test signals,
estimate spectral CDFs, design filter banks, select sampling centers, run
the forward and inverse transforms, and execute the denoise / compress
pipelines with JSON metric reports.  Any flag that argparse does not
require can also be supplied through a key = value config file via
--config; explicit flags win.
"""

import argparse
import json
import sys

import numpy as np

from . import generators, io, sampling, tasks
from .filters import (Warping, make_adapted_translates, make_dct_bands,
                      make_ideal_partition, make_log_warped_translates,
                      make_sgwt, make_uniform_translates,
                      shift_edges_to_sparse_regions)
from .frames import InverseInfo, analysis, dictionary_exact, dictionary_poly
from .graphs import build_laplacian, eigendecompose
from .spectrum import estimate_spectral_cdf, exact_spectral_cdf

def _add_bank_options(p):
    g = p.add_argument_group("filter bank")
    g.add_argument("--design", default="itersine",
                   choices=["ideal", "hann", "itersine", "meyer", "dct",
                            "sgwt"])
    g.add_argument("--n-bands", type=int, default=6)
    g.add_argument("--spacing", choices=["uniform", "octave"],
                   default="uniform")
    g.add_argument("--warp", default="none",
                   choices=["none", "log", "spectrum_cdf",
                            "log_spectrum_cdf", "energy_cdf"])
    g.add_argument("--nu", type=float, default=10.0)
    g.add_argument("--k-scale", type=float, default=20.0)
    g.add_argument("--cdf-file")
    g.add_argument("--energy-cdf-file")
    g.add_argument("--shift-edges", action="store_true")


def _resolve_cdf(args, lap, energy=False):
    path = args.energy_cdf_file if energy else args.cdf_file
    if path:
        return io.load_cdf_csv(path)
    if energy:
        raise ValueError("energy_cdf warp needs --energy-cdf-file")
    if lap is None:
        raise ValueError("spectral adaptation needs a graph or --cdf-file")
    return estimate_spectral_cdf(lap, seed=args.seed)


def build_bank(args, lambda_bar, lap=None):
    """Construct the filter bank that the parsed bank options describe."""
    design, n_bands, warp_kind = args.design, args.n_bands, args.warp
    if design == "ideal":
        cdf = None
        if args.cdf_file or args.shift_edges:
            cdf = _resolve_cdf(args, lap)
        bank = make_ideal_partition(lambda_bar, n_bands,
                                    spacing=args.spacing, cdf=cdf)
        if args.shift_edges:
            bank = shift_edges_to_sparse_regions(bank, cdf)
        return bank
    if design == "sgwt":
        return make_sgwt(lambda_bar, n_bands, k_scale=args.k_scale)
    if design == "dct":
        warp = None
        if warp_kind == "log":
            warp = Warping("log", lambda_bar, nu=args.nu)
        elif warp_kind != "none":
            raise ValueError("dct bands support warp none or log")
        return make_dct_bands(lambda_bar, n_bands, warp=warp)
    # translate prototypes
    if warp_kind == "none":
        return make_uniform_translates(lambda_bar, n_bands, design)
    if warp_kind == "log":
        return make_log_warped_translates(lambda_bar, n_bands, design,
                                          nu=args.nu)
    if warp_kind in ("spectrum_cdf", "log_spectrum_cdf"):
        cdf = _resolve_cdf(args, lap)
        return make_adapted_translates(lambda_bar, n_bands, cdf, design,
                                       wavelet=warp_kind == "log_spectrum_cdf",
                                       nu=args.nu)
    if warp_kind == "energy_cdf":
        ecdf = _resolve_cdf(args, lap, energy=True)
        return make_adapted_translates(lambda_bar, n_bands, ecdf, design,
                                       energy=True)
    raise ValueError(f"unsupported warp {warp_kind!r}")


def _load_lap(args):
    if not args.graph:
        raise ValueError("--graph is required")
    return build_laplacian(io.load_graph(args.graph), kind=args.laplacian)


def _build_dictionary(args, lap, bank, centers=None):
    if args.mode == "exact":
        eig = eigendecompose(lap)
        return dictionary_exact(lap, bank, eig, centers=centers)
    return dictionary_poly(lap, bank, args.degree, jackson=args.jackson,
                           centers=centers)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args):
    kind = args.kind
    if kind == "path":
        g = generators.path_graph(args.n)
    elif kind == "cycle":
        g = generators.cycle_graph(args.n)
    elif kind == "grid":
        g = generators.grid_graph(args.rows, args.cols)
    elif kind == "erdos-renyi":
        g = generators.erdos_renyi_graph(args.n, args.p, seed=args.seed)
    elif kind == "sensor":
        g = generators.sensor_graph(args.n, k=args.k, seed=args.seed)
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    if str(args.out).endswith((".mtx", ".mm")):
        io.save_graph_mm(args.out, g)
    else:
        io.save_graph_csv(args.out, g)
    if args.signal != "none":
        if args.signal_out is None:
            raise ValueError("--signal-out required when generating a signal")
        if args.signal == "piecewise-smooth":
            f = generators.piecewise_smooth_signal(g, n_parts=args.n_parts,
                                                  seed=args.seed)
        else:
            f = generators.piecewise_constant_signal(g, n_parts=args.n_parts,
                                                    seed=args.seed)
        io.save_signal_csv(args.signal_out, f)
    print(f"{kind} graph: {g.n} vertices, {g.n_edges} edges, "
          f"connected={g.is_connected()}")
    return 0


def cmd_spectrum_cdf(args):
    lap = _load_lap(args)
    if args.cdf_mode == "exact":
        eig = eigendecompose(lap)
        cdf = exact_spectral_cdf(eig, lambda_bar=lap.lambda_max_bound)
    else:
        cdf = estimate_spectral_cdf(lap, n_probes=args.n_probes,
                                    kpm_degree=args.kpm_degree,
                                    n_grid=args.n_grid, seed=args.seed)
    io.save_cdf_csv(args.out, cdf)
    print(f"spectral CDF ({args.cdf_mode}) -> {args.out}")
    return 0


def cmd_design(args):
    if args.n_grid < 2:
        raise ValueError("--n-grid must be at least 2")
    lap = None
    if args.graph:
        lap = _load_lap(args)
        lambda_bar = lap.lambda_max_bound
    elif args.lambda_bar is not None:
        if not (np.isfinite(args.lambda_bar) and args.lambda_bar > 0):
            raise ValueError("--lambda-bar must be positive and finite")
        lambda_bar = args.lambda_bar
    else:
        raise ValueError("need --graph or --lambda-bar")
    bank = build_bank(args, lambda_bar, lap)
    grid = np.linspace(0.0, lambda_bar, args.n_grid)
    vals = bank.evaluate(grid)
    with open(args.out, "w") as fh:
        fh.write("z," + ",".join(f"g{j}" for j in range(bank.n_kernels))
                 + "\n")
        for i, z in enumerate(grid):
            fh.write(f"{float(z)!r}," + ",".join(f"{float(v)!r}" for v in vals[:, i])
                     + "\n")
    gmin, gmax = bank.squared_sum(grid).min(), bank.squared_sum(grid).max()
    print(f"{bank.design}: {bank.n_kernels} kernels, G in "
          f"[{gmin:.6f}, {gmax:.6f}] -> {args.out}")
    return 0


def cmd_sample(args):
    if args.method == "random" and args.weights != "uniform" \
            and args.mode != "poly":
        # refused before an exact dictionary's eigendecomposition
        raise ValueError("sampling weights are estimated in polynomial mode")
    lap = _load_lap(args)
    bank = build_bank(args, lap.lambda_max_bound, lap)
    if args.method == "uniqueness":
        eig = eigendecompose(lap)
        centers = sampling.uniqueness_partition(eig, bank)
    else:
        if args.counts:
            counts = np.array([int(c) for c in args.counts.split(",")])
            if counts.size != bank.n_kernels:
                raise ValueError("need one count per band")
        elif args.total <= 0:
            raise ValueError("need --counts or a positive --total")
        else:
            cdf = (io.load_cdf_csv(args.cdf_file) if args.cdf_file
                   else estimate_spectral_cdf(lap, seed=args.seed))
            counts = sampling.allocate_samples(cdf, bank, args.total)
        if args.method == "greedy":
            centers = sampling.greedy_centers(
                _build_dictionary(args, lap, bank), counts)
        else:
            if args.weights == "uniform":
                w = sampling.uniform_weights(bank.n_kernels, lap.n)
            elif args.weights == "signal":
                if not args.signal:
                    raise ValueError("--signal required for adapted weights")
                f = io.load_signal_csv(args.signal)
                w = sampling.signal_adapted_weights(
                    _build_dictionary(args, lap, bank), f,
                    n_probes=args.n_probes, seed=args.seed)
            else:
                w = sampling.nonuniform_weights(
                    _build_dictionary(args, lap, bank),
                    n_probes=args.n_probes, seed=args.seed)
            centers = sampling.draw_centers(w, counts, seed=args.seed)
    io.save_centers_csv(args.out, centers)
    print(f"{centers.total} centers over {centers.n_bands} bands "
          f"-> {args.out}")
    return 0


def cmd_transform(args):
    lap = _load_lap(args)
    f = io.load_signal_csv(args.signal)
    bank = build_bank(args, lap.lambda_max_bound, lap)
    centers = None
    if args.centers:
        centers = io.load_centers_csv(args.centers,
                                      n_bands=bank.n_kernels).sets
    d = _build_dictionary(args, lap, bank, centers=centers)
    coeffs = analysis(d, f)
    io.save_coefficients(args.out, coeffs)
    if args.csv_out:
        io.export_coefficients_csv(args.csv_out, coeffs)
    print(f"{coeffs.n_atoms} coefficients over {coeffs.n_bands} bands "
          f"-> {args.out}")
    return 0


def cmd_inverse(args):
    lap = _load_lap(args)
    bank = build_bank(args, lap.lambda_max_bound, lap)
    coeffs = io.load_coefficients(args.coefficients, lap.n)
    d = _build_dictionary(args, lap, bank, centers=coeffs.centers)
    f, info = tasks.reconstruct(d, coeffs, args.method.replace("-", "_"),
                                tol=args.tol, max_iter=args.max_iter,
                                n_iter=args.iterations)
    if info is not None:
        note = (f"cg: converged={info.converged} iter={info.n_iter} "
                f"residual={info.residual:.3e}")
    elif args.method == "frame-iter":
        note = f"frame iteration x{args.iterations}"
    else:
        note = "single pass"
    io.save_signal_csv(args.out, f)
    print(f"inverse ({note}) -> {args.out}")
    return 0


def _solver_report(info):
    """JSON form of CG convergence info; None for the non-CG inverses.

    precond_degree and precond_eps are null for plain CG."""
    if info is None:
        return None
    return {"converged": bool(info.converged), "n_iter": int(info.n_iter),
            "residual": float(info.residual),
            "precond_degree": info.precond_degree,
            "precond_eps": info.precond_eps}


def cmd_denoise(args):
    if args.sigma is None or not 0 < args.sigma <= tasks.SIGMA_MAX:
        raise ValueError(f"--sigma must lie in (0, {tasks.SIGMA_MAX:.4g}]")
    lap = _load_lap(args)
    clean = io.load_signal_csv(args.signal)
    if args.noisy:
        noisy = io.load_signal_csv(args.noisy)
    else:
        noisy = tasks.add_noise(clean, args.sigma, seed=args.noise_seed)
    bank = build_bank(args, lap.lambda_max_bound, lap)
    d = _build_dictionary(args, lap, bank)
    cfg = tasks.DenoiseConfig(sigma=args.sigma,
                              inverse=args.method.replace("-", "_"),
                              frame_iterations=args.iterations)
    fhat, report = tasks.denoise(d, noisy, cfg)
    m = tasks.metrics(clean, fhat, noisy=noisy)
    out = {"nmse": m.nmse, "delta_snr_db": m.delta_snr_db,
           "sigma": args.sigma, "method": args.method,
           "thresholds": [float(t) for t in report["thresholds"]],
           "solver": _solver_report(report["solver"])}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    if args.denoised_out:
        io.save_signal_csv(args.denoised_out, fhat)
    print(f"denoise: delta_snr_db={m.delta_snr_db:.3f} nmse={m.nmse:.5f} "
          f"-> {args.out}")
    return 0


def cmd_compress(args):
    lap = _load_lap(args)
    f = io.load_signal_csv(args.signal)
    bank = build_bank(args, lap.lambda_max_bound, lap)
    d = _build_dictionary(args, lap, bank)
    budgets = sorted({int(t) for t in args.n_terms.split(",")})
    if budgets[0] < 1:
        raise ValueError("sparsity budgets must be positive")
    rows = []
    infos = []
    if args.method == "omp":
        result, _ = tasks.compress_omp(d, f, max(budgets))
        for t0 in budgets:
            rows.append((t0, float(result.nmse_path[t0 - 1])))
        recon = result.reconstruction
    else:
        recon = None
        curve = tasks._hard_threshold_curve(d, f, budgets)
        for t0, (fhat, _, info) in zip(budgets, curve):
            rows.append((t0, tasks.metrics(f, fhat).nmse))
            infos.append(info)
            recon = fhat
    # the worst case over the curve's CG solves, one per budget; they share
    # one dictionary and one tolerance, hence one preconditioner
    solver = None if not infos else InverseInfo(
        all(i.converged for i in infos), max(i.n_iter for i in infos),
        max(i.residual for i in infos),
        precond_degree=infos[0].precond_degree,
        precond_eps=infos[0].precond_eps)
    out = {"method": args.method,
           "curve": [{"n_terms": t, "nmse": v} for t, v in rows],
           "solver": _solver_report(solver)}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    if args.curve_out:
        with open(args.curve_out, "w") as fh:
            fh.write("n_terms,nmse\n")
            for t, v in rows:
                fh.write(f"{t},{float(v)!r}\n")
    if args.recon_out and recon is not None:
        io.save_signal_csv(args.recon_out, recon)
    summary = ", ".join(f"{t}:{v:.4g}" for t, v in rows)
    print(f"compress ({args.method}): nmse {summary} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser():
    """Return the argument parser plus a dict of its subparsers.

    Flags that several subcommands share are declared once, on parent
    parsers whose action objects the subcommands share, so config defaults
    written onto those actions stay with the parser built by this call.
    """
    ap = argparse.ArgumentParser(
        prog="lsgf",
        description="Localized spectral graph filter frames")
    ap.add_argument("--config", help="key = value file of default flags; "
                                     "place before the subcommand")
    sub = ap.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", help="edge-list CSV or Matrix Market file; "
                                       "required except by design")
    graph.add_argument("--laplacian", choices=["combinatorial", "normalized"],
                       default="combinatorial")
    bank = argparse.ArgumentParser(add_help=False)
    _add_bank_options(bank)
    frame = argparse.ArgumentParser(add_help=False, parents=[graph, bank])
    frame.add_argument("--mode", choices=["exact", "poly"], default="poly")
    frame.add_argument("--degree", type=int, default=40)
    frame.add_argument("--jackson", action="store_true")

    p = sub.add_parser("generate", help="generate a graph and test signal",
                       parents=[run])
    p.add_argument("--kind", required=True,
                   choices=["path", "cycle", "grid", "erdos-renyi",
                            "sensor"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--rows", type=int, default=10)
    p.add_argument("--cols", type=int, default=10)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--signal", default="none",
                   choices=["none", "piecewise-smooth", "piecewise-constant"])
    p.add_argument("--signal-out")
    p.add_argument("--n-parts", type=int, default=4)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("spectrum-cdf", help="estimate the spectral CDF",
                       parents=[graph, run])
    p.add_argument("--cdf-mode", choices=["exact", "estimate"],
                   default="estimate")
    p.add_argument("--n-probes", type=int, default=10)
    p.add_argument("--kpm-degree", type=int, default=30)
    p.add_argument("--n-grid", type=int, default=50)
    p.set_defaults(func=cmd_spectrum_cdf)

    p = sub.add_parser("design", help="design a filter bank and export it",
                       parents=[graph, bank, run])
    p.add_argument("--lambda-bar", type=float)
    p.add_argument("--n-grid", type=int, default=256)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("sample", help="select center vertices per band",
                       parents=[frame, run])
    p.add_argument("--method", choices=["random", "greedy", "uniqueness"],
                   default="random")
    p.add_argument("--weights", choices=["uniform", "probe", "signal"],
                   default="probe")
    p.add_argument("--signal")
    p.add_argument("--counts", help="comma-separated per-band counts")
    p.add_argument("--total", type=int, default=0)
    p.add_argument("--n-probes", type=int, default=10)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("transform", help="analysis coefficients of a signal",
                       parents=[frame, run])
    p.add_argument("--signal", required=True)
    p.add_argument("--centers")
    p.add_argument("--csv-out")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("inverse", help="reconstruct a signal from "
                                       "coefficients", parents=[frame, run])
    p.add_argument("--coefficients", required=True)
    p.add_argument("--method", choices=["cg", "frame-iter", "single-pass"],
                   default="cg")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("denoise", help="noise, threshold, reconstruct, "
                                       "report", parents=[frame, run])
    p.add_argument("--signal", required=True, help="clean reference signal")
    p.add_argument("--noisy", help="noisy input; generated when omitted")
    p.add_argument("--sigma", type=float)
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--method", choices=["cg", "frame-iter", "single-pass"],
                   default="cg")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--denoised-out")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("compress", help="sparse approximation error curve",
                       parents=[frame, run])
    p.add_argument("--signal", required=True)
    p.add_argument("--method", choices=["omp", "hard"], default="omp")
    p.add_argument("--n-terms", default="50",
                   help="comma-separated sparsity budgets")
    p.add_argument("--curve-out")
    p.add_argument("--recon-out")
    p.set_defaults(func=cmd_compress)

    return ap, sub.choices


def _apply_config_defaults(subparser, defaults):
    # config keys become action defaults, converted with the action's own
    # type so later flag parsing behaves as if they came from the command
    # line
    pending = {key.replace("-", "_"): value
               for key, value in defaults.items()}
    for action in subparser._actions:
        if action.dest not in pending:
            continue
        raw = pending.pop(action.dest)
        if isinstance(action.const, bool):
            action.default = raw.strip().lower() in ("1", "true", "yes")
        elif action.type is not None:
            action.default = action.type(raw)
        else:
            action.default = raw
        if action.choices is not None and action.default not in \
                action.choices:
            raise ValueError(f"config value {raw!r} invalid for "
                             f"{action.dest}")
    if pending:
        raise ValueError(f"unknown config keys: {sorted(pending)}")


def main(argv=None):
    ap, subparsers = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            defaults = io.read_keyvalue_file(args.config)
            _apply_config_defaults(subparsers[args.command], defaults)
            args = ap.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
