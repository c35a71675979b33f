#!/usr/bin/env python3
"""Build and run the Mira repository benchmark.

    python3 perfbench/run.py --workload cold-corpus --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which links the repository's own `mira` library) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload at one seed. Build output goes to stderr; the last stdout line
is the JSON summary printed by the benchmark binary. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold-corpus", "warm-daemon", "incremental-disk")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    root = os.path.join(ROOT, root)
    # Relative to the checkout when inside it, so the daemon's Unix socket
    # path stays short.
    rel = os.path.relpath(root, ROOT)
    return root if rel.startswith("..") else rel


def build(build_dir):
    cache = os.path.join(ROOT, build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "mira_perfbench", "-j", str(os.cpu_count() or 1)],
                   cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(ROOT, build_dir, "mira_perfbench")


def main():
    # subprocess.run kills its child on any exception, so turning SIGTERM
    # into one stops the build or the benchmark along with this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        return fail("--seed must be >= 0 and --seconds in (0, 600]")

    for needed in ("CMakeLists.txt", "src/core/artifacts.h"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("no Mira sources here (missing %s)" % needed)

    out_dir = build_root()
    try:
        binary = build(os.path.join(out_dir, "perfbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        return fail("build failed: %s" % error)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", os.path.join(out_dir, "run-%d" % os.getpid()),
               "--trace-out", os.path.join(
                   out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(result.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    if result.returncode != 0:
        return fail("benchmark exited with code %d" % result.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
