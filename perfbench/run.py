#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper-suite --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds
the elag libraries, elagd and the perfbench harness into the build
directory ($CARGO_TARGET_DIR, else .bench_build); later runs only
check the build is current. Build output goes to a log in the build
directory, so the last line of standard output is the result line
perfbench prints. Exits non-zero, without a result line, when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-suite", "table-sweep", "serve-mixed")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build")


def local_tmp_env(out):
    """The environment with TMPDIR inside the build directory, so the
    compiler's and the harness's scratch files stay in the checkout."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out):
    """Configure and build; return the perfbench and elagd paths."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", out,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", "4",
         "--target", "perfbench", "elagd"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log,
                               env=local_tmp_env(out)) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed, see %s\n" %
                                 log_path)
                sys.exit(1)
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "elag", "tools", "elagd"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the seeded inputs instead of running")
    parser.add_argument("--capacity", action="store_true",
                        help="serve the schedule closed-loop and print "
                             "the request rate elagd sustains")
    parser.add_argument("--print-expected", action="store_true",
                        help="print the expected-values table")
    args = parser.parse_args()
    if not (args.workload or args.print_expected):
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out = build_dir()
    perfbench, elagd = build(out)
    run_dir = os.path.join(out, "run")
    os.makedirs(run_dir, exist_ok=True)
    # Unix socket paths are short; hand the harness a relative one.
    run_dir = os.path.relpath(run_dir)

    cmd = [perfbench]
    if args.print_expected:
        cmd.append("--print-expected")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--expected", os.path.join(HERE, "expected.txt"),
                "--elagd", elagd, "--run-dir", run_dir]
        if args.describe:
            cmd.append("--describe")
        if args.capacity:
            cmd.append("--capacity")
    sys.stdout.flush()
    return subprocess.call(cmd, env=local_tmp_env(out))


if __name__ == "__main__":
    sys.exit(main())
