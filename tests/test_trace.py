"""The benchmark's call tracer against the package it traces.

perfbench/spans.py names the lsgf functions behind each per-layer metric.
A traced function that is renamed or moved is skipped and listed in
``Tracer.absent``, so its layer's figure would silently vanish; these
tests make such a rename fail instead.
"""

import importlib.util
import sys
from pathlib import Path

import lsgf.cli  # noqa: F401  (binds every traced function once)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    # every name bound in an lsgf module or in a class defined there
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "lsgf" or name.startswith("lsgf.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[(name, attr, key)] = member
    return out


def test_tracer_finds_every_traced_function_and_restores_it():
    tracer = _load_spans().Tracer()
    before = _bindings()
    tracer.install()
    try:
        assert tracer.absent == []
        swapped = [key for key, value in _bindings().items()
                   if value is not before.get(key)]
        assert swapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
