#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

The script configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, runs the benchmark binary, and prints the
binary's progress, a `meta` line and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json; with --trace 1 they
are its per_layer metrics, where a metric the workload does not measure
reads 0. The exit code is 0 only when every correctness gate passed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("train", "serve", "tune", "islands")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               timeout=max(1.0, deadline - time.monotonic()),
                               check=True)
            except (OSError, subprocess.SubprocessError) as e:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (e, tail))
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args, root):
    scratch = os.path.join(root, BUILD_DIR, "run")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--source-id", source_id(root),
           "--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload %s timed out after %d s"
             % (args.workload, RUN_TIMEOUT_S))
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                   "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the repository root: %s is missing" % needed, 2)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build(root)
    code, lines = run_binary(binary, args, root)
    result = None
    for line in lines[:-1]:
        print(line)
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if result is None:
        fail("workload %s exited %d without a result" % (args.workload, code))

    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s missing" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail("metric %s reported in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    final = {"correct": bool(result["correct"]) and code == 0,
             "attempted": int(result["attempted"]),
             "failed": int(result["failed"]),
             "metrics": metrics}
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
