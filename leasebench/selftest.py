#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

Usage (from the repository root):

    python3 leasebench/selftest.py

Proves that the checks can fail:
  * the benchmark program's metric tables match BENCHMARK.json (names
    and units);
  * the correctness check rejects a planted double grant (two holders
    of one key's epoch): the run must exit non-zero with correct=false;
  * the compare step rejects a result set with a missing metric, flags a
    planted regression, and passes two identical sets.
Exits 0 when every check behaves, 1 otherwise.
"""

import io
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402


def fake_set(directory, spec, tweak=None):
    """Four plausible untraced runs per workload, optionally altered."""
    os.makedirs(directory)
    for w in spec["workloads"]:
        for i in range(4):
            metrics = {m["name"]: {"value": 100.0 * (1 + 0.01 * i),
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            result = {"workload": w["name"], "correct": True,
                      "provenance": {"traced": False}, "metrics": metrics}
            if tweak:
                tweak(w["name"], i, result)
            path = os.path.join(directory, "%s-%d.json" % (w["name"], i))
            with open(path, "w") as f:
                json.dump(result, f)


def main():
    problems = []
    binary = run.build()
    if binary is None:
        print("selftest: build failed", file=sys.stderr)
        return 1
    spec = compare.load_spec()

    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=False).stdout.split("\n")
    tables = {(k, n, u) for k, n, u in (l.split() for l in listed if l)}
    wanted = {("end_to_end", m["name"], m["unit"])
              for m in spec["end_to_end"]}
    wanted |= {("per_layer", m["name"], m["unit"]) for m in spec["per_layer"]}
    if tables != wanted:
        problems.append("metric tables differ from BENCHMARK.json: %s"
                        % sorted(tables ^ wanted))

    planted = subprocess.run(
        [binary, "--workload", "planted-double-grant", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = [l for l in planted.stdout.split("\n") if l.strip()]
    verdict = json.loads(lines[-1]) if lines else {}
    if planted.returncode == 0 or verdict.get("correct") is not False:
        problems.append("planted double grant passed the correctness check")
    elif "R1" not in planted.stderr:
        problems.append("planted double grant failed, but not on R1")

    tmp_root = os.path.join(run.build_root(), "selftest")
    shutil.rmtree(tmp_root, ignore_errors=True)
    base = os.path.join(tmp_root, "base")
    fake_set(base, spec)
    same = os.path.join(tmp_root, "same")
    fake_set(same, spec)
    slower = os.path.join(tmp_root, "slower")

    def slow_down(workload, i, result):
        if workload == spec["workloads"][0]["name"]:
            result["metrics"]["pair_p50_us"]["value"] *= 1.5
    fake_set(slower, spec, slow_down)
    missing = os.path.join(tmp_root, "missing")

    def drop_metric(workload, i, result):
        if i == 2:
            del result["metrics"][spec["end_to_end"][-1]["name"]]
    fake_set(missing, spec, drop_metric)

    quiet = io.StringIO()
    if compare.compare(base, same, out=quiet) != 0:
        problems.append("compare flagged two identical sets")
    if compare.compare(base, slower, out=quiet) == 0:
        problems.append("compare missed a planted 50% regression")
    try:
        compare.compare(base, missing, out=quiet)
        problems.append("compare accepted a result with a missing metric")
    except compare.BadRuns:
        pass
    shutil.rmtree(tmp_root, ignore_errors=True)

    for p in problems:
        print("selftest: FAIL " + p, file=sys.stderr)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
