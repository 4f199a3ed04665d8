#!/usr/bin/env python3
"""Builds the simulator and the specbench harness from source, then runs one
workload (or all of them) and prints its metrics.

    python3 specbench/run.py --workload fig8-grid --seed 42 --seconds 10 --trace 0
    python3 specbench/run.py --workload all

Run it from any directory; it builds into .bench_build/ at the repository
root.  With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only when every simulation passed the correctness gate.

setup_s is the CPU time a fresh harness process has used when it reaches its
first timed unit (the "ready" line), as the median over several processes;
the wall time from spawn to that line is printed beside it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["fig8-grid", "wide-p64", "kernel-n16k", "spiky-faults"]
DEFAULT_SEED = 42     # the paper testbed's fixed initial-condition seed
HELD_OUT_SEED = 1994  # confirms a claim on inputs not seen while tuning
SETUP_SAMPLES = 9     # processes whose set-up time setup_s is the median of
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "specbench")
BINARY = os.path.join(BUILD_DIR, "specbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")


def fail(message):
    print("specbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + ROOT + "/src")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "specbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            dirty = subprocess.run(["git", "-C", ROOT, "diff", "--quiet",
                                    "HEAD"], timeout=10).returncode != 0
            return lines[1] + ("-dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: identify the sources that were built instead.
    digest = hashlib.sha256()
    for top in ("src", "specbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def spawn(args):
    """Runs the harness; returns ((wall s from spawn to ready, CPU s at
    ready) or None, rc, stdout)."""
    start = time.monotonic()
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ready = None
    for line in stdout.splitlines():
        if line.startswith("specbench: ready "):
            fields = line.split()
            ready = (float(fields[2]) - start, float(fields[3]))
            break
    return ready, proc.returncode, stdout


def run_workload(workload, seed, seconds, trace, commit_id):
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, rc, _ = spawn(base + ["--setup-only"])
            if rc != 0 or ready is None:
                fail("set-up of %s failed (exit %s)" % (workload, rc))
            setups.append(ready)
    args = base + ["--seconds", str(seconds), "--trace", "1" if trace else "0",
                   "--commit", commit_id]
    if trace:
        args += ["--spans-dir", SPANS_DIR]
    ready, rc, stdout = spawn(args)
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(stdout)
        fail("%s produced no result (exit %s)" % (workload, rc))
    if not trace and ready is not None:
        setups.append(ready)
        result["metrics"]["setup_s"]["value"] = statistics.median(
            cpu for _, cpu in setups)
    for line in lines[:-1]:
        if line.startswith("setup_s ") and not trace:
            line = "%-24s %.6g s (CPU, median of %d processes; wall from " \
                   "spawn %.4g s)" % (
                       "setup_s", result["metrics"]["setup_s"]["value"],
                       len(setups),
                       statistics.median(wall for wall, _ in setups))
        print(line)
    return rc, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args()
    if opts.seconds <= 0:
        fail("--seconds must be positive")

    build()
    commit_id = commit()
    if opts.workload != "all":
        rc, result = run_workload(opts.workload, opts.seed, opts.seconds,
                                  opts.trace, commit_id)
        print(json.dumps(result))
        return rc

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print("== " + workload)
        rc, result = run_workload(workload, opts.seed, opts.seconds,
                                  opts.trace, commit_id)
        worst = max(worst, rc)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
