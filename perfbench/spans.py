"""Call tracing behind the benchmark's per-layer metrics.

``Tracer.install`` replaces chosen public functions of the ``lsgf`` package
with timing wrappers, in every ``lsgf`` module namespace that binds them
(``tasks`` and ``cli`` import ``analysis`` from ``frames``; ``inverse_cg``
reaches ``synthesis`` through the ``frames`` globals), and
``Tracer.uninstall`` puts the originals back.  For each traced layer the
tracer accumulates its call count and self time: its wall time minus the
wall time of traced calls made inside it.

The kernel entry points of ``lsgf._kernels`` also count sparse-matvec
columns.  One column is one product of the Laplacian with a vector, about
nnz(L) multiply-adds; a degree-K recurrence costs K columns.  Only the
outermost kernel call in a stack is counted, so a kernel that calls another
entry point is not counted twice.  An entry point or function missing from
the package is recorded in ``absent`` and skipped.
"""

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# layer name -> (module, attribute path) of each function timed under it
LAYERS = {
    "chebyshev.chebyshev_fit": [("lsgf.chebyshev", "chebyshev_fit")],
    "chebyshev.apply_poly_bank": [("lsgf.chebyshev", "apply_poly_bank")],
    "chebyshev.apply_poly_filter": [("lsgf.chebyshev", "apply_poly_filter")],
    "frames.analysis": [("lsgf.frames", "analysis")],
    "frames.synthesis": [("lsgf.frames", "synthesis")],
    "frames.inverse_cg": [("lsgf.frames", "inverse_cg")],
    "frames.atom_norm_estimate": [("lsgf.frames", "atom_norm_estimate")],
    "frames.dictionary_poly": [("lsgf.frames", "dictionary_poly")],
    "spectrum.estimate_energy_cdf": [("lsgf.spectrum",
                                      "estimate_energy_cdf")],
    "spectrum.estimate_spectral_cdf": [("lsgf.spectrum",
                                        "estimate_spectral_cdf")],
    "graphs.lanczos_lambda_max": [("lsgf.graphs", "lanczos_lambda_max")],
    "graphs.build_laplacian": [("lsgf.graphs", "build_laplacian")],
    "graphs.from_edges": [("lsgf.graphs", "SparseGraph.from_edges")],
    "sampling.nonuniform_weights": [("lsgf.sampling", "nonuniform_weights")],
    "sampling.allocate_samples": [("lsgf.sampling", "allocate_samples")],
    "sampling.draw_centers": [("lsgf.sampling", "draw_centers")],
    "tasks.denoise": [("lsgf.tasks", "denoise")],
    "tasks.sure_thresholds": [("lsgf.tasks", "sure_thresholds")],
    "tasks.compress_hard_threshold": [("lsgf.tasks",
                                       "compress_hard_threshold")],
    "generators.sensor_graph": [("lsgf.generators", "sensor_graph")],
    "generators.grid_graph": [("lsgf.generators", "grid_graph")],
    "io.load_graph": [("lsgf.io", "load_graph"),
                      ("lsgf.io", "load_graph_csv"),
                      ("lsgf.io", "load_graph_mm")],
    "io.signal_csv": [("lsgf.io", "save_signal_csv"),
                      ("lsgf.io", "load_signal_csv")],
    "io.coefficients": [("lsgf.io", "save_coefficients"),
                        ("lsgf.io", "load_coefficients")],
}


def _width(x):
    shape = getattr(x, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


# kernel entry point -> columns of one call, from its bound arguments
KERNELS = {
    "cheb_apply": lambda a: (len(a["coeffs"]) - 1) * _width(a["x"]),
    "cheb_apply_stack": lambda a: ((a["coeff_rows"].shape[1] - 1)
                                   * _width(a["x"])),
    "cheb_moments": lambda a: (int(a["n_moments"]) - 1) * _width(a["x"]),
    "csr_matvec": lambda a: _width(a["x"]),
}

BYTES_FORMULA = ("bytes per column = nnz * (data.itemsize + indices.itemsize)"
                 " + (N + 1) * indptr.itemsize + 2 * 8 * N: one pass over the"
                 " CSR arrays plus one read of x and one write of y; computed"
                 " from the arguments, not measured")


def column_bytes(indptr, indices, data):
    n = indptr.shape[0] - 1
    return (data.size * (data.itemsize + indices.itemsize)
            + (n + 1) * indptr.itemsize + 16 * n)


def _resolve(owner, path):
    for part in path.split("."):
        owner = owner.__dict__[part] if isinstance(owner, type) \
            else getattr(owner, part)
    return owner


class Tracer:
    """Accumulates per-layer counters while installed; see module doc."""

    def __init__(self, extra=None):
        # extra: more {layer: [(module, path)]} entries, e.g. the CLI main
        self.layers = dict(LAYERS, **(extra or {}))
        self.values = defaultdict(float)
        self.absent = []
        self._stack = []
        self._kernel_depth = 0
        self._undo = []

    # -- counters ---------------------------------------------------------

    def take(self):
        """Return the counters gathered since the last take and reset."""
        out = dict(self.values)
        self.values.clear()
        return out

    def add(self, values):
        for key, v in values.items():
            self.values[key] += v

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, perf_counter()

    def _leave(self, layer, frame, t0):
        dt = perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        self.values[layer + ".s"] += dt - frame[0]
        self.values[layer + ".calls"] += 1
        return dt

    # -- wrappers ---------------------------------------------------------

    def _timed(self, layer, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame, t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(layer, frame, t0)
            info = out[1] if isinstance(out, tuple) and len(out) == 2 \
                else None
            if hasattr(info, "n_iter"):
                tracer.values[layer + ".iters"] += info.n_iter
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, name, fn, cols_of):
        tracer = self
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):  # compiled callables may hide it
            sig = None

        def wrapper(*args, **kwargs):
            outer = tracer._kernel_depth == 0
            tracer._kernel_depth += 1
            frame, t0 = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave("kernels." + name, frame, t0)
                tracer._kernel_depth -= 1
                if outer:
                    tracer._count_columns(sig, cols_of, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_columns(self, sig, cols_of, args, kwargs):
        try:
            if sig is None:
                raise TypeError("signature unavailable")
            bound = sig.bind(*args, **kwargs).arguments
            cols = cols_of(bound)
            per_col = column_bytes(bound["indptr"], bound["indices"],
                                   bound["data"])
        except (TypeError, KeyError, AttributeError, IndexError):
            self.values["kernels.uncounted_calls"] += 1
            return
        self.values["kernels.matvec_cols"] += cols
        self.values["kernels.bytes_computed"] += cols * per_col

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._undo:
            return
        self.absent = []
        swaps = {}
        for layer, targets in self.layers.items():
            for module, path in targets:
                self._swap_target(module, path, swaps,
                                  lambda fn, layer=layer:
                                  self._timed(layer, fn))
        for name, cols_of in KERNELS.items():
            self._swap_target("lsgf._kernels", name, swaps,
                              lambda fn, name=name, cols_of=cols_of:
                              self._kernel(name, fn, cols_of))
        self._rebind(swaps)

    def _swap_target(self, module, path, swaps, make):
        try:
            owner, _, attr = path.rpartition(".")
            mod = importlib.import_module(module)
            holder = _resolve(mod, owner) if owner else mod
            current = holder.__dict__[attr] if isinstance(holder, type) \
                else getattr(holder, attr)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module}.{path}")
            return
        if isinstance(current, classmethod):
            wrapped = classmethod(make(current.__func__))
            self._undo.append((holder, attr, current))
            setattr(holder, attr, wrapped)
        elif callable(current):
            swaps[id(current)] = (current, make(current))
        else:
            self.absent.append(f"{module}.{path}")

    def _rebind(self, swaps):
        # replace every binding of a traced function in every lsgf module
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "lsgf" or name.startswith("lsgf.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)
