#!/usr/bin/env python3
"""Compares saved benchmark runs of two versions, metric by metric.

    python3 perfbench/compare.py --base A1.out A2.out ... --new B1.out ...

Each file holds the stdout of one perfbench/run.py invocation.  For every
workload and metric the script prints the median of each side and the
change of the new median against the base median, in percent.  It flags
every comparison whose files do not share one run context (core count,
build type, obs compiled in, slab SIMD tier, MOBILE_CONGEST_FORCE_SCALAR):
numbers from different contexts do not compare.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()

    values = {}  # (workload, metric) -> side -> [values]
    contexts = {}  # workload -> {context json}
    units = {}
    for side, paths in (("base", args.base), ("new", args.new)):
        for path in paths:
            info, result = load(path)
            workload = info["workload"]
            contexts.setdefault(workload, set()).add(
                json.dumps(info["context"], sort_keys=True))
            if not result["correct"]:
                print(f"{path}: outputs not correct: {info['problems']}")
            for name, m in result["metrics"].items():
                values.setdefault((workload, name), {}).setdefault(
                    side, []).append(m["value"])
                units[name] = m["unit"]

    mixed = sorted(w for w, c in contexts.items() if len(c) > 1)
    for workload in mixed:
        print(f"WARNING {workload}: runs come from different contexts:")
        for c in sorted(contexts[workload]):
            print(f"  {c}")
    print(f"{'workload':14} {'metric':32} {'base':>14} {'new':>14} "
          f"{'change':>8}")
    for (workload, name), sides in sorted(values.items()):
        if "base" not in sides or "new" not in sides:
            continue
        base = statistics.median(sides["base"])
        new = statistics.median(sides["new"])
        change = f"{(new / base - 1) * 100:+.1f}%" if base else "n/a"
        flag = "  (contexts differ)" if workload in mixed else ""
        print(f"{workload:14} {name:32} {base:14.6g} {new:14.6g} "
              f"{change:>8} {units[name]}{flag}")
    return 1 if mixed else 0


if __name__ == "__main__":
    sys.exit(main())
