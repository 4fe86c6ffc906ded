#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py            # determinism + metric names
    python3 perfbench/selftest.py --cross-check
                                             # also expected.txt vs elagc

Run from the root of a checkout. Checks that:

  * the same seed gives the same inputs (programs, scenario sources,
    pass order and request sequence) and another seed other inputs;
  * one command prints every metric BENCHMARK.json names, with its
    unit, on every workload run.py runs (those BENCHMARK.json gates and
    serve-mixed), untraced and traced, with all outputs correct;
  * with --cross-check, every line of expected.txt agrees with
    `elagc --stats` on the same program and machine.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402
RUN = [sys.executable, os.path.join(HERE, "run.py")]
failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(args):
    out = subprocess.run(RUN + args, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
    return out.returncode, out.stdout


def describe(workload, seed):
    rc, text = run(["--workload", workload, "--seed", str(seed),
                    "--seconds", "2", "--describe"])
    return text if rc == 0 else None


def test_determinism():
    for name in WORKLOADS:
        first, again = describe(name, 7), describe(name, 7)
        other = describe(name, 8)
        check(first is not None and first == again,
              "%s: seed 7 gives the same inputs twice" % name)
        check(first is not None and first != other,
              "%s: seeds 7 and 8 give different inputs" % name)


def test_metric_names(bench):
    for name in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run(["--workload", name, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)])
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                check(False, "%s trace %d: result line" % (name, trace))
                continue
            check(rc == 0 and set(result) ==
                  {"correct", "attempted", "failed", "metrics"},
                  "%s trace %d: result keys" % (name, trace))
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  "%s trace %d: outputs correct" % (name, trace))
            metrics = result["metrics"]
            for m in bench[group]:
                got = metrics.get(m["name"])
                check(got is not None and got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      "%s trace %d: %s [%s]" % (name, trace,
                                                m["name"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in bench[group]}
            check(not extra, "%s trace %d: no unlisted metrics %s" %
                  (name, trace, sorted(extra)))


def elagc_run(elagc, args):
    out = subprocess.run([elagc, "--stats"] + args, capture_output=True,
                         text=True)
    cycles = re.search(r"^cycles\s+(\d+)", out.stdout, re.M)
    insts = re.search(r"^instructions\s+(\d+)", out.stdout, re.M)
    if out.returncode != 0 or not cycles or not insts:
        return None
    return int(cycles.group(1)), int(insts.group(1))


def machine_args(machine):
    """elagc flags for a machine label of expected.txt."""
    if machine in ("baseline", "proposed"):
        return ["--machine=" + machine]
    selection = "compiler" if machine.startswith("cc-") else "all-predict"
    return ["--machine=baseline", "--table=" + machine.split("-")[1],
            "--selection=" + selection]


def test_cross_check():
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                          ".bench_build")
    subprocess.check_call(["cmake", "--build", out, "-j", "4", "--target",
                           "elagc", "elag_workgen"],
                          stdout=subprocess.DEVNULL)
    elagc = os.path.join(out, "elag", "tools", "elagc")
    workgen = os.path.join(out, "elag", "tools", "elag_workgen")
    scratch = os.path.join(out, "selftest")
    os.makedirs(scratch, exist_ok=True)

    # Scenario sources of table-sweep, by program label, rebuilt from
    # the specs --describe prints.
    sources = {}
    for seed in range(16):
        text = describe("table-sweep", seed)
        spec = re.search(r"^spec (.*)$", text, re.M).group(1)
        label = re.search(r"^program (\S+)", text, re.M).group(1)
        spec_path = os.path.join(scratch, label + ".json")
        with open(spec_path, "w") as f:
            f.write(spec)
        src = os.path.join(scratch, label + ".c")
        subprocess.check_call([workgen, "--spec=" + spec_path,
                               "--out=" + src], stderr=subprocess.DEVNULL)
        sources[label] = src

    with open(os.path.join(HERE, "expected.txt")) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            workload, program, machine, cycles, insts = line.split()
            target = (["--workload=" + program]
                      if workload == "paper-suite" else [sources[program]])
            got = elagc_run(elagc, machine_args(machine) + target)
            check(got == (int(cycles), int(insts)),
                  "elagc agrees: %s %s %s" % (workload, program, machine))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cross-check", action="store_true",
                        help="also check expected.txt against elagc")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    test_determinism()
    test_metric_names(bench)
    if args.cross_check:
        test_cross_check()
    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
