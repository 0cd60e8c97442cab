#!/usr/bin/env python3
"""Self-test of the benchmark's outputs check.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It proves two things, and exits 0 only
when both hold:

  * the outputs check fires: a run whose references are all wrong
    (run.py --corrupt-reference) is reported with correct=false, every
    trial failed, and exit code 1, while the same run with the true
    references is correct;
  * no workload holds a negative control -- a point whose expected
    outcome is a failed trial: an uncompiled or naive-repetition payload
    under a byzantine adversary -- for any seed from 0 to 99.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "scale_sparse", "--seed", "3", "--seconds", "1", *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def negative_controls():
    bad = []
    for name, (make_points, _) in run.WORKLOADS.items():
        for seed in range(100):
            for point in make_points(seed):
                axes = dict(kv.split("=", 1) for kv in point.split())
                if (axes.get("compile", "none") in ("none", "naive_repetition")
                        and axes.get("adv", "none").endswith("_byz")):
                    bad.append(f"{name} seed {seed}: {point}")
    return bad


def main():
    failures = []
    code, good = bench()
    if code != 0 or not good["correct"] or good["failed"] != 0:
        failures.append(f"true references: exit {code}, result {good}")
    code, wrong = bench("--corrupt-reference")
    if (code != 1 or wrong["correct"] or wrong["failed"] == 0
            or wrong["failed"] != wrong["attempted"]):
        failures.append(f"wrong references: exit {code}, result {wrong}")
    failures += [f"negative control {p}" for p in negative_controls()]
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
