#!/usr/bin/env python3
"""Build the lease-service benchmark from source and run one workload.

Usage (from the repository root):

    python3 leasebench/run.py --workload remote-sync --seed 1 --seconds 10 --trace 0

Builds leasebench/ (a CMake project that compiles ../src) into
$CARGO_TARGET_DIR/leasebench (default .bench_build/leasebench) on first
use, runs the workload, and prints the run's JSON result as the last
line of stdout. The full result (provenance and every metric) is kept
under .bench_build/results/, and a traced run's spans beside it, for
leasebench/compare.py. Exits non-zero when the build fails, the program
is missing, or the run's correctness check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("remote-sync", "remote-open", "contended", "replicated")
RUN_TIMEOUT_S = 170


def build_root():
    """The build directory: $CARGO_TARGET_DIR when it lies inside the
    checkout, else .bench_build."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.abspath(os.path.join(ROOT, target))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return path


def source_hash():
    """SHA-256 over the program and benchmark sources (the checkout is
    not always a git repository, so this is the provenance that always
    exists)."""
    digest = hashlib.sha256()
    for top in ("src", "leasebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("leasebench: no program sources (src/) in " + ROOT,
              file=sys.stderr)
        return None
    out_dir = os.path.join(build_root(), "leasebench")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "leasebench")
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j",
                      str(max(1, min(4, os.cpu_count() or 1)))])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
            if done.returncode != 0:
                print("leasebench: build step failed: " + " ".join(step),
                      file=sys.stderr)
                return None
    return binary if os.path.exists(binary) else None


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=None,
                        help="where the full result JSON goes "
                             "(default: <build dir>/results)")
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        return 2
    results = args.results_dir or os.path.join(build_root(), "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-s%d-t%d-%d-%d" % (args.workload, args.seed, args.trace,
                                 int(time.time()), os.getpid())
    work = os.path.join(build_root(), "work", stem)
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(results, stem + ".json"),
           "--git-sha", git_sha(), "--source-hash", source_hash(),
           "--work-dir", work]
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + ".spans.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print("leasebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        print("leasebench: the run printed no result", file=sys.stderr)
        return done.returncode or 4
    try:
        json.loads(lines[-1])
    except ValueError:
        print("leasebench: the run's last line is not JSON", file=sys.stderr)
        return 4
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
