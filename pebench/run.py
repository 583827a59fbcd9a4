#!/usr/bin/env python3
"""Builds and runs the edge-to-cloud benchmark.

Run from the root of a checkout:

    python3 pebench/run.py --workload sensor_durable --seed 1 --seconds 30 --trace 0

The benchmark and the library modules it drives are compiled from source
into $CARGO_TARGET_DIR (default .bench_build) on the first run. The C++
driver prints every metric by name with its unit and, as its last line, one
JSON result. This script checks that result against BENCHMARK.json and
exits with the driver's code: 0 when every correctness gate held.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"pebench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; quiet unless it fails."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step), 3)


def remove_leftovers(pid, seed):
    """What a killed driver could not clean up: its run directory and its
    shm objects (names as in main.cpp)."""
    shutil.rmtree(os.path.join(".bench_run", f"run-{pid}-{seed}"),
                  ignore_errors=True)
    prefix = f"pebench-{pid}-{seed}"
    for name in os.listdir("/dev/shm"):
        if name.startswith(prefix):
            os.unlink(os.path.join("/dev/shm", name))


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["sensor_durable", "edge_wire", "kmeans_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "pebench")
    build(build_dir)

    selftest = subprocess.run(
        [os.path.join(build_dir, "pe_bench_selftest"), build_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("benchmark self-test failed", 4)

    cmd = [os.path.join(build_dir, "pe_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", os.getcwd()]
    # Own session, so a timeout takes the driver's forked children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        remove_leftovers(proc.pid, args.seed)
        fail(f"run exceeded {RUN_TIMEOUT_S}s", 5)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None:
        sys.stdout.write(out)
        fail(f"driver exited {proc.returncode} without a result", proc.returncode or 6)
    missing = expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        sys.stdout.write(out)
        fail("result lacks metrics " + ", ".join(sorted(missing)), 7)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
