#!/usr/bin/env python3
"""End-to-end benchmark of the sosim library: build, run, compare.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload dc3 --seed 2018 --seconds 30 --trace 0

builds perfbench/ (and the library from src/) into .bench_build/, runs
the driver and leaves the full result under .bench_out/.  The last line
of standard output is the result as one JSON object.  --trace 1 runs the
stage-by-stage traced replay instead and reports the per-layer metrics;
its spans are written to .bench_out/ too.

Compare two sets of runs (directories of result files from .bench_out/):

    python3 perfbench/run.py compare BASE_DIR NEW_DIR

prints each end-to-end delta per workload with the per-layer deltas that
account for it (layers.json maps layers to the metrics they move), and
marks a metric unresolved when its run-to-run spread exceeds its bound.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/; "
                 "run from the root of a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def run(args):
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".json"]
    if args.trace == 1:
        cmd += ["--spans", stem + "-spans.json"]
    return subprocess.run(cmd).returncode


def load_results(path):
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "*.json")))
    results = []
    for f in files:
        if f.endswith("-spans.json"):
            continue
        with open(f) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "metrics" in doc and "workload" in doc:
            results.append(doc)
    return results


def by_workload(results, trace):
    """{workload: {metric: [value per run]}} for one mode."""
    out = {}
    for r in results:
        if r["trace"] != trace:
            continue
        for name, m in r["metrics"].items():
            if m["value"] is not None:
                out.setdefault(r["workload"], {}).setdefault(
                    name, []).append(m["value"])
    return out


def spread(values):
    """Interquartile range as a share of the median (None if < 2 runs)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    base, new = load_results(args.base), load_results(args.new)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base0, new0 = by_workload(base, 0), by_workload(new, 0)
    base1, new1 = by_workload(base, 1), by_workload(new, 1)
    for workload in sorted(set(base0) & set(new0)):
        for name, metric in e2e.items():
            a = base0[workload].get(name)
            b = new0[workload].get(name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / abs(ma) if ma else float("nan")
            spreads = [s for s in (spread(a), spread(b)) if s is not None]
            worst = max(spreads) if len(spreads) == 2 else None
            if worst is None:
                tag = "  [unresolved: fewer than 2 runs a side]"
            elif worst > metric["bound"]:
                tag = (f"  [unresolved: spread {worst:.1%} > "
                       f"bound {metric['bound']:.0%}]")
            elif (delta if metric["better"] == "lower" else -delta) > \
                    metric["bound"]:
                tag = f"  [regression beyond bound {metric['bound']:.0%}]"
            else:
                tag = ""
            # Time layers ranked by how much of the delta they explain;
            # counts and ratios listed only when they moved.
            times, others = [], []
            for layer, info in layers.items():
                if name not in info["moves"]:
                    continue
                la = base1.get(workload, {}).get(layer)
                lb = new1.get(workload, {}).get(layer)
                if not la or not lb:
                    continue
                d = statistics.median(lb) - statistics.median(la)
                if info["unit"] == "ms":
                    times.append((abs(d), f"{layer} {d:+.1f} ms"))
                elif d != 0:
                    others.append(f"{layer} {d:+.4g}")
            times.sort(reverse=True)
            why = ", ".join([t for _, t in times[:3]] + others)
            print(f"{workload} {name} {delta:+.1%} "
                  f"({ma:.4g} -> {mb:.4g} {metric['unit']})"
                  f"{': ' + why if why else ''}{tag}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="result file or directory (parent)")
        p.add_argument("new", help="result file or directory (change)")
        return compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["dc3", "fleet-10240"])
    p.add_argument("--seed", type=int, default=2018)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
