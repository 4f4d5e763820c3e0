#!/usr/bin/env python3
"""Builds and runs the MIE benchmark.

    python3 perfbench/run.py --workload ingest|search --seed N \\
        --seconds S --trace 0|1 [--threads N] [--allow-debug]
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/ (the library modules from src/ plus the benchmark) in Release
mode under $CARGO_TARGET_DIR (default .bench_build); later runs rebuild
only what changed. The last line of standard output is the run's JSON
result; the line before it ("perfbench-meta {...}") records the build
type, commit, nproc, exec pool width, kernel level, WAL sync policy, seed
and load threads. Server state and traces stay under the build directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.stderr.write("perfbench: build timed out\n")
                return None
            if done.returncode != 0:
                # A failed configure must not be mistaken for a configured tree.
                if step[1] == "-S":
                    try:
                        os.remove(os.path.join(out, "CMakeCache.txt"))
                    except OSError:
                        pass
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(out, target)


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return os.environ.get("PERFBENCH_COMMIT", "unknown")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--allow-debug", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_trace_test")
        if binary is None:
            return 3
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

    if not args.workload:
        parser.error("--workload is required")
    binary = build("mie_perfbench")
    if binary is None:
        return 3
    out = build_dir()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out, "work"), "--commit", commit()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.allow_debug:
        cmd.append("--allow-debug")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 4
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(stdout)
        sys.stderr.write("perfbench: no result (exit %d)\n" % proc.returncode)
        return proc.returncode or 5
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
