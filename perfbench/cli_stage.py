"""Run one lsgf CLI stage with the benchmark's call tracing installed.

    python3 perfbench/cli_stage.py TRACE.json <lsgf cli arguments>

Writes the stage's per-layer counters, the wall time of ``lsgf.cli.main``
(``main_s``) and any traced function missing from the package to
TRACE.json, and exits with the CLI's own exit code.  ``cli.<stage>.s`` is
the self time of ``main``: parsing, glue and untraced library code.
"""

import json
import sys
from time import perf_counter

import spans


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import lsgf.cli
    tracer = spans.Tracer(extra={f"cli.{argv[0]}": [("lsgf.cli", "main")]})
    tracer.install()
    t0 = perf_counter()
    try:
        code = lsgf.cli.main(argv)
    finally:
        main_s = perf_counter() - t0
        tracer.uninstall()
    with open(trace_file, "w") as fh:
        json.dump({"values": tracer.take(), "main_s": main_s,
                   "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
