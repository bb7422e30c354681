#!/usr/bin/env python3
"""Benchmark driver for the scheduler-activations simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload forkjoin --seed 11 --seconds 30 --trace 0

It builds perfbench/bench.exe from the checkout's sources with dune, then
re-runs one workload, each time in a fresh process, for --seconds (at
least MIN_RUNS times; no process is started that would not end in time at
the pace of the earlier ones).  Each process sets the workload up, runs it
once, checks its outputs and reports raw numbers.  This script checks that
every process agrees on the simulated outputs, takes the median of each
host-side number (host times scaled to a reference host speed, see
REFERENCE_CALIB_S), and prints:

- a readable report: every metric it has, with its unit, the sim_digest,
  the latency sample count and the output checks;
- as the last line, one JSON object with the keys correct, attempted,
  failed and metrics.  With --trace 0 the metrics are the end_to_end set
  of BENCHMARK.json; with --trace 1 they are the per_layer set, and one
  more process, inside the same --seconds, is driven step by step with
  tracing on to attribute host time to layers.

The exit code is 0 only if every check passed.  perfbench/RATIONALE.md
explains the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("forkjoin", "serve", "cluster", "nbody-io")
DEFAULT_SEED = 11
HELDOUT_SEED = 29
MIN_RUNS = 3
RUN_TIMEOUT_S = 150
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# Host times are reported at a reference host speed.  Between workload
# processes, "bench.exe --calibrate" times a fixed reference loop in a
# process of its own.  The host times of a workload process are scaled by
# REFERENCE_CALIB_S over the median loop time of the calibrations just
# before and just after it (bench.calib_s), so a slower or faster spell
# of a shared host cancels out.  The unscaled medians are the bench.raw_*
# rows.
REFERENCE_CALIB_S = 0.15
TIME_UNITS = ("s", "ns")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build bench.exe from the simulator sources in the current directory."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no simulator sources here (dune-project, lib/); "
             "run from the repository root")
    # The shared dune cache lives outside the checkout: keep it out.
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                        "./perfbench/bench.exe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_bench(args):
    """One bench.exe process; returns its JSON line."""
    cmd = [EXE, *args]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % " ".join(cmd))
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(cmd), r.returncode))
    return json.loads(lines[-1])


def run_once(workload, seed, flags=()):
    """One process: set up, run and check the workload once."""
    return run_bench(["--workload", workload, "--seed", str(seed), *flags])


def calibrate():
    """The reference loop's round times, from a process of their own."""
    return run_bench(["--calibrate"])["calib_s"]


def measure(workload, seed, seconds, traced):
    """The traced process first, if asked for, then untraced processes
    while the next one, at the median pace so far, still ends within
    --seconds.  Stops at the first failed check: another process with the
    same seed would fail the same way.  Each process is bracketed by
    calibrations and gets their median as host value bench.calib_s."""
    start = time.monotonic()
    deadline = start + seconds
    before = calibrate()

    def bracketed(flags):
        nonlocal before
        r = run_once(workload, seed, flags)
        after = calibrate()
        r["host"]["bench.calib_s"] = statistics.median(before + after)
        before = after
        return r

    traced_run = bracketed(["--traced"]) if traced else None
    flags = ["--floor"] if traced else []
    runs, took = [], []
    while True:
        t0 = time.monotonic()
        runs.append(bracketed(flags))
        took.append(time.monotonic() - t0)
        if runs[-1]["failed"] > 0:
            break
        if (len(runs) >= MIN_RUNS
                and time.monotonic() + statistics.median(took) > deadline):
            break
    return runs, traced_run, time.monotonic() - start


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; held-out seed for "
                    "confirming claims: %d)" % (DEFAULT_SEED, HELDOUT_SEED))
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long to keep re-running the workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics "
                    "plus a traced attribution run")
    args = ap.parse_args()

    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    traced = args.trace == 1
    runs, t, elapsed = measure(args.workload, args.seed, args.seconds, traced)

    units = {m["name"]: m["unit"]
             for group in ("end_to_end", "per_layer") for m in spec[group]}
    values = dict(runs[0]["sim"])
    spread = {}

    def take(name, samples):
        values[name] = statistics.median(samples)
        if len(samples) >= 4 and values[name]:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread[name] = (q3 - q1) / values[name]

    for name in runs[0]["host"]:
        samples = [r["host"][name] for r in runs]
        if units.get(name) in TIME_UNITS and not name.startswith("bench."):
            samples = [v * REFERENCE_CALIB_S / r["host"]["bench.calib_s"]
                       for v, r in zip(samples, runs)]
        take(name, samples)
    take("bench.raw_wall_s", [r["host"]["wall_s"] for r in runs])
    take("bench.raw_setup_s", [r["host"]["setup_s"] for r in runs])
    checked = list(runs)
    if traced:
        values.update(t["traced"])
        values["traced.overhead_x"] = (
            t["traced"]["traced.wall_s"] * REFERENCE_CALIB_S
            / t["host"]["bench.calib_s"] / values["wall_s"])
        checked.append(t)

    digests = sorted({r["digest"] for r in checked})
    failed_checks = sorted({k for r in checked
                            for k, ok in r["checks"].items() if not ok})
    if len(digests) > 1:
        failed_checks.append("same_sim_digest")
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked) + (len(digests) > 1)
    correct = failed == 0 and not failed_checks

    print("workload %s, seed %d: %d untraced runs in %.1f s%s"
          % (args.workload, args.seed, len(runs), elapsed,
             ", plus 1 traced run" if traced else ""))
    print("sim_digest %s %s" % (args.workload, " ".join(digests)))
    print("latency samples: %d" % values["workload.latency_samples"])
    print("failed checks: %s" % (", ".join(failed_checks) or "none")
          + " (of %s)" % ", ".join(sorted(runs[0]["checks"])))
    for group in ("end_to_end", "per_layer"):
        print("%s:" % group)
        for m in spec[group]:
            if m["name"] in values:
                iqr = spread.get(m["name"])
                print("  %-34s %18.6g %-7s%s"
                      % (m["name"], values[m["name"]], m["unit"],
                         "" if iqr is None else "  IQR %.1f%%" % (100 * iqr)))

    selected = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in selected if m["name"] not in values]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in selected}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
