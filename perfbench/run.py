#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark and the libraries it drives from this checkout's
sources (into .bench_build/perfbench), then runs one workload:

  python3 perfbench/run.py --workload campaign_sweep|profile_flow|serve_mix \
      --seed N --seconds S --trace 0|1

The last line of standard output is the result object. Extra arguments
(--pin, --capacity) are passed to the benchmark program; --selftest builds and runs the
benchmark's unit tests instead. Run it from the root of the checkout.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def built_from():
    """Source directory of the existing build tree, or None."""
    key = "CMAKE_HOME_DIRECTORY:INTERNAL="
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key):
                    return os.path.realpath(line[len(key):].strip())
    except OSError:
        pass
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        sys.exit(1)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if built_from() not in (None, os.path.realpath(HERE)):
            # A build tree of another checkout: start over.
            for name in os.listdir(BUILD):
                if name != "build.lock":
                    path = os.path.join(BUILD, name)
                    if os.path.isdir(path):
                        shutil.rmtree(path)
                    else:
                        os.remove(path)
        jobs = str(min(4, os.cpu_count() or 1))
        with open(os.path.join(BUILD, "build.log"), "w") as log:
            for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        ["cmake", "--build", BUILD, "-j", jobs]):
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                    log.flush()
                    with open(os.path.join(BUILD, "build.log")) as f:
                        sys.stderr.write(f.read()[-4000:])
                    print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
                    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--selftest", action="store_true")
    args, extra = parser.parse_known_args()
    build()
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
           "--bench-dir", HERE, "--work-dir", os.path.join(BUILD, "work")] + extra
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
