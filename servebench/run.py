#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the repository root:

    python3 servebench/run.py --workload split_lsh8 --seed 1 --seconds 40 --trace 0

Steps, all inside the checkout:
  1. builds servebench/ (the repository's hdczsc library plus the benchmark program)
     with CMake into .bench_build/servebench (incremental after the first run);
  2. makes the fixture model if it is not yet cached under
     .bench_build/servebench-fixtures/<digest of the built program>, from
     fixed seeds. The key changes with any code that is compiled in, so
     each version of the code trains and writes its own fixture (about
     30 s, once per build); this happens outside the measured set-up time;
  3. runs the measurement and relays its output. The last stdout line is
     the JSON result {"correct", "attempted", "failed", "metrics"}; the
     full result with the hardware fingerprint and the fixture checksum,
     and the traced run's spans, land in .bench_build/servebench-results.

Exits non-zero without a result when the sources are missing, the build
fails, a fixture cannot be made, or an output check fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("split_lsh8", "image_f32")


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Run a child to completion with stdout sent to stderr (keeps our
    stdout for the result); returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:20]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for need in ("CMakeLists.txt", os.path.join("src", "serve", "engine.hpp"),
                 os.path.join("examples", "demo_pipeline_config.hpp")):
        if not os.path.exists(os.path.join(root, need)):
            log(f"repository source {need} not found; nothing to benchmark")
            return 2
    if shutil.which("cmake") is None:
        log("cmake not found")
        return 2

    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "servebench")
    binary = os.path.join(build_dir, "servebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = call(["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"], 300)
        if rc != 0:
            log("configure failed")
            return 2
    jobs = str(min(4, os.cpu_count() or 1))
    if call(["cmake", "--build", build_dir, "-j", jobs], 850) != 0 or not os.path.exists(binary):
        log("build failed")
        return 2

    fixture_dir = os.path.join(build_root, "servebench-fixtures", file_digest(binary))
    if call([binary, "fixture", f"--dir={fixture_dir}"], 600) != 0:
        log("fixture build failed")
        return 2

    cmd = [binary, "run", f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}", f"--dir={fixture_dir}",
           f"--out={os.path.join(build_root, 'servebench-results')}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("measurement timed out")
        return 124
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines or not lines[-1].startswith('{"correct"'):
        log(f"measurement failed (exit {proc.returncode})")
        return proc.returncode or 2
    # A failed output check still prints its result (correct: false) and
    # exits non-zero.
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
