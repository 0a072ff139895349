"""Alternating parent/change runs of one perfbench workload, as JSON.

Each side is a git checkout holding perfbench/run.py and src/lsgf.  Its
tracked files and its untracked files that git does not ignore are first
copied into a fresh temporary directory, and the runs time that copy, so
neither side starts with bytecode caches or other leftovers that a clean
checkout would not have.  Pair i runs both sides once at --trace 0 for the
run_seconds of the change's BENCHMARK.json, the parent first in even pairs
and the change first in odd ones, so drift of the host over a run does not
favour a side.  There are PAIRS pairs, the fewest that can show a side
winning 9 of 10.  Besides the end-to-end metrics, each untraced run's
detail line gives the median wall time of every part of a request
(``parts_p50_s``: the CLI stages, or denoise and round trip), summarized the
same way under "parts".  Each side then makes one --trace 1 run for the
per-layer figures, and "src_lines" records each side's line count of
src/lsgf/*.py.  Each end-to-end metric's entry carries the verdict
the benchmark's rules give it, with the bound read from the change's
BENCHMARK.json:

- ``claim_met``: the change is better in at least WIN_PAIRS of the pairs,
  and its median beats the parent's by more than the parent's quartile
  spread (q3 - q1), as a claimed gain must;
- ``within_bound``: the change's median is worse than the parent's by at
  most the metric's relative bound, as every metric must be;
- ``unresolved``: the parent's own quartile spread is wider than the bound
  (times the parent's median) and not every change run beats every parent
  run, so the runs cannot tell "unchanged" from "worse by the bound".

The workload's entry is added to --out (a JSON object keyed by workload),
creating the file if needed:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload adapt-grid --seed 7301 --out BENCH_7.json
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
WIN_PAIRS = 9


def run(checkout, workload, seed, seconds, trace):
    """(detail, result) of one benchmark run in that checkout."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    detail, result = (json.loads(line) for line in out.splitlines()[-2:])
    return detail, result


def fresh_copy(checkout, dest):
    """Copy the checkout's tracked and not-ignored untracked files to
    dest."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=checkout, check=True, capture_output=True).stdout
    for name in names.decode().split("\0"):
        src = Path(checkout, name)
        # not the empty name after the last NUL, nor a deleted tracked file
        if src.is_file():
            Path(dest, name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, Path(dest, name))


def src_lines(checkout):
    """Lines of the package's modules, src/lsgf/*.py, as wc -l counts."""
    return sum(p.read_bytes().count(b"\n")
               for p in Path(checkout, "src", "lsgf").glob("*.py"))


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def paired(values, lower=True):
    """Each side's summary and the pairs in which the change is better."""
    sign = 1 if lower else -1
    return {**{side: summary(v) for side, v in values.items()},
            "change_better_pairs": sum(
                sign * (p - c) > 0
                for p, c in zip(values["parent"], values["change"]))}


def verdict(entry, spec):
    """claim_met, within_bound and unresolved of one metric's paired
    entry."""
    parent, change = entry["parent"], entry["change"]
    sign = 1 if spec["better"] == "lower" else -1
    gain = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    every_run_better = (max(sign * c for c in change["runs"])
                        < min(sign * p for p in parent["runs"]))
    return {"claim_met": entry["change_better_pairs"] >= WIN_PAIRS
            and gain > spread,
            "within_bound": -gain <= spec["bound"] * parent["median"],
            "unresolved": spread > spec["bound"] * parent["median"]
            and not every_run_better}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp, side) for side in ("parent", "change")}
        for side, path in sides.items():
            fresh_copy(getattr(args, side), path)
        entry = measure(sides, specs, args.workload, args.seed,
                        bench["run_seconds"])

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[args.workload] = entry
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def measure(sides, specs, workload, seed, seconds):
    """The paired entry of one workload, from the checkouts in sides."""
    runs = {side: [] for side in sides}
    parts = {side: [] for side in sides}
    env = None
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            detail, result = run(sides[side], workload, seed, seconds, 0)
            env = env or detail["env"]
            runs[side].append(result)
            parts[side].append(detail["parts_p50_s"])
            print(f"pair {i} {side}: " + json.dumps(
                {m: result["metrics"][m]["value"] for m in specs}),
                file=sys.stderr, flush=True)

    entry = {"seed": seed, "pairs": PAIRS,
             "seconds": seconds, "env": env,
             "src_lines": {side: src_lines(sides[side]) for side in sides},
             "end_to_end": {},
             "failed_frac": {side: max(r["failed"] / r["attempted"]
                                       for r in runs[side])
                             for side in sides}}
    for m, spec in specs.items():
        pair = paired({side: [r["metrics"][m]["value"] for r in runs[side]]
                       for side in sides}, lower=spec["better"] == "lower")
        rules = verdict(pair, spec)
        entry["end_to_end"][m] = {**pair, **rules}
        print(f"{workload} {m}: {json.dumps(rules)}", file=sys.stderr,
              flush=True)
    # a part no request of some run finished has no median there
    names = set.intersection(*(set(p) for side in sides for p in parts[side]))
    entry["parts"] = {
        name: paired({side: [p[name] for p in parts[side]]
                      for side in sides})
        for name in sorted(names)}
    entry["per_layer"] = {}
    for side in sides:
        detail, result = run(sides[side], workload, seed, seconds, 1)
        entry["per_layer"][side] = {
            name: m["value"] for name, m in result["metrics"].items()}
    return entry


if __name__ == "__main__":
    sys.exit(main())
