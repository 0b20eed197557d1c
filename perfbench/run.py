#!/usr/bin/env python3
"""Builds the XAR benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload search_open --seed 1 --seconds 10 --trace 0

Run from the repository root. The xarbench binary is configured and built
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first
use; build output goes to stderr. Its standard output is relayed
unchanged, and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of the workload; with
--trace 1 they are the per-layer metrics of a traced second run. The exit
code is 0 only when xarbench ran and every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search_open", "book_mix", "city_sim")
RUN_LIMIT_S = 175.0


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no XAR sources next to the benchmark "
              "(expected src/CMakeLists.txt)", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", build_dir, "--target", "xarbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "xarbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: xarbench exceeded %.0f s" % RUN_LIMIT_S,
              file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("perfbench: xarbench printed no result (exit %d)" %
              proc.returncode, file=sys.stderr)
        return proc.returncode or 4
    print("perfbench: xarbench ran %.1f s" % (time.monotonic() - started),
          file=sys.stderr)
    print(lines[-1])
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
