#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a source checkout.

    python3 perfbench/run.py --workload dedup_stream --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The benchmark binary is built from the checkout's own sources into
.bench_build/perfbench at the checkout root: the first run compiles the
libraries, later runs only re-check them. It then runs one workload and
passes its report through, so the last line of standard output is one JSON
object. Build logs and diagnostics go to standard error. --selftest builds
and runs the benchmark's own tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("dedup_stream", "mandel_gpu", "serve_mixed", "model_replay")
# A run measures for --seconds plus its set-up; the whole run must end
# within 180 s.
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_step(cmd, env):
    """Runs one build command; its output reaches stderr only on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.returncode == 0


def build(target):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if not build_step(configure, env):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return build_step(["cmake", "--build", BUILD, "--target", target,
                       "-j", jobs], env)


def main():
    ap = argparse.ArgumentParser(
        description="Build and run one perfbench workload.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds within (0, 120]")
    if not build("perfbench"):
        return 1
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--scratch", os.path.join(BUILD_ROOT, "scratch")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench exited with status {proc.returncode}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
