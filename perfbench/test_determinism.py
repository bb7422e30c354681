#!/usr/bin/env python3
"""The benchmark's own test: two invocations of one workload and seed must
report identical simulated outputs (every "sim" value and the sim_digest),
and a traced invocation must simulate the same run as an untraced one.

Run from the repository root:

    python3 perfbench/test_determinism.py [workload ...]

With no workload named, all four are tested at the default seed.  Exits 0
when every comparison holds and every output check passed.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    run.build()
    ok = True
    for w in workloads:
        first = run.run_once(w, run.DEFAULT_SEED)
        second = run.run_once(w, run.DEFAULT_SEED)
        traced = run.run_once(w, run.DEFAULT_SEED, ["--traced"])
        diffs = sorted(k for k in first["sim"] | second["sim"]
                       if first["sim"].get(k) != second["sim"].get(k))
        same = not diffs and first["digest"] == second["digest"] == traced["digest"]
        checks = all(r["failed"] == 0 for r in (first, second, traced))
        print("%-9s digest %s  identical: %s  checks: %s%s"
              % (w, first["digest"], "yes" if same else "NO",
                 "ok" if checks else "FAILED",
                 "  differing: " + ", ".join(diffs) if diffs else ""))
        ok = ok and same and checks
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
