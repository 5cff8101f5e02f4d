#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or summarize one.

Usage (from the repository root):

    python3 leasebench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the full result files run.py writes (one JSON per
run, .bench_build/results/ by default). Untraced runs are grouped by
workload; for every end-to-end metric in BENCHMARK.json the script
prints each side's median and quartiles and the spread (interquartile
range over median).

With two directories a row is flagged REGRESSION when NEW's median is
worse than BASE's by more than the metric's bound, and NOISY when either
side's spread exceeds the bound (the comparison is then unresolved).
With one directory a row is flagged NOISY when its spread exceeds a
third of the bound, the steadiness the benchmark is tuned to.

Exit status: 0 when nothing is flagged, 1 when a row is flagged, 2 when
a run failed its correctness check or lacks a metric BENCHMARK.json
names (such a set cannot be compared).
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BadRuns(Exception):
    pass


def load_spec(path=None):
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(directory, spec):
    """{workload: {metric: [values]}} over the untraced runs."""
    names = [m["name"] for m in spec["end_to_end"]]
    runs = {}
    files = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not files:
        raise BadRuns("no result files in " + directory)
    for path in files:
        with open(path) as f:
            run = json.load(f)
        if run.get("provenance", {}).get("traced"):
            continue
        if not run.get("correct", False):
            raise BadRuns("%s: run failed its correctness check" % path)
        metrics = run.get("metrics", {})
        missing = [n for n in names if n not in metrics]
        if missing:
            raise BadRuns("%s: missing metric(s) %s" % (path,
                                                        ", ".join(missing)))
        per = runs.setdefault(run["workload"], {n: [] for n in names})
        for n in names:
            per[n].append(float(metrics[n]["value"]))
    if not runs:
        raise BadRuns("no untraced runs in " + directory)
    return runs


def summary(values):
    """(q1, median, q3, spread) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return q1, med, q3, spread


def worse_by(base, new, better):
    """Relative worsening of new against base (positive = worse)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / base
    return change if better == "lower" else -change


def compare(base_dir, new_dir=None, out=sys.stdout):
    spec = load_spec()
    base = load_runs(base_dir, spec)
    new = load_runs(new_dir, spec) if new_dir else None
    flagged = 0
    for workload in sorted(base):
        if new is not None and workload not in new:
            raise BadRuns("%s: workload %s has no runs" % (new_dir, workload))
        print("== %s" % workload, file=out)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = summary(base[workload][name])
            row = "  %-22s base n=%-2d med %-12.6g q1 %-12.6g q3 %-12.6g " \
                  "spread %5.1f%%" % (name, len(base[workload][name]), b[1],
                                       b[0], b[2], b[3] * 100)
            flags = []
            if new is None:
                if name != "setup_s" and b[3] > bound / 3:
                    flags.append("NOISY")
            else:
                n = summary(new[workload][name])
                row += " | new n=%-2d med %-12.6g q1 %-12.6g q3 %-12.6g " \
                       "spread %5.1f%% | worse %+6.1f%% (bound %.0f%%)" % (
                           len(new[workload][name]), n[1], n[0], n[2],
                           n[3] * 100, worse_by(b[1], n[1], m["better"]) * 100,
                           bound * 100)
                if worse_by(b[1], n[1], m["better"]) > bound:
                    flags.append("REGRESSION")
                if name != "setup_s" and max(b[3], n[3]) > bound:
                    flags.append("NOISY")
            flagged += bool(flags)
            print(row + ("  " + " ".join(flags) if flags else ""), file=out)
    return flagged


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        flagged = compare(argv[0], argv[1] if len(argv) == 2 else None)
    except BadRuns as e:
        print("compare: " + str(e), file=sys.stderr)
        return 2
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
