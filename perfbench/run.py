#!/usr/bin/env python3
"""The mobile-congest benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  The script builds perfbench_harness
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, default .bench_build,
then generates the workload's campaign points from --seed and runs the
harness on them again and again, each run in a fresh process, until
--seconds have passed (at least twice).  Every run's outputs are checked:
each trial against the benchmark's own fault-free reference, and the
exact counts against the first run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
runs.  --trace 1 alternates untraced and traced runs and reports the
per-layer metrics from the traced ones, plus the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it is the run context.  The exit code is 0
when the outputs were correct, 1 when they were not, and 2 or 3 on a
usage or build error.

--corrupt-reference makes every reference wrong; perfbench/selftest.py
uses it to prove the outputs check fires.  See perfbench/README.md for
the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each run of a workload must end within this many seconds of its start.
RUN_DEADLINE_S = 170


# Engine threads stay at 1: on a shared 4-vCPU host the per-round barrier
# of threads=4 turned short host stalls into 2x swings of the wall time.
# n=2000 keeps one process near 1 s, so a run's medians rest on about 30
# processes: one process's time swings by up to 25% with the host.
def scale_sparse(seed):
    return [
        f"graph=expander n=2000 d=4 gseed={seed} algo=gossip rounds=1 "
        f"mask=32 compile=byz_tree mode=sparse f=1 packing=greedy k=2 "
        f"depthcap=14 dmcap=2 adv=none threads=1 shards=4 seed={seed}"
    ]


# The graph is pinned to gseed=1 and the seed moves only the trial seeds:
# the greedy packing's edge load on random_regular n=256 d=32 changes with
# gseed (710 or 1064 compiled rounds per trial), so the exact counts would
# not hold still across seeds.
def byz_attack(seed):
    advs = ["tree_targeted_byz", "bitflip_byz", "random_byz", "camping_byz"]
    return [
        f"graph=random_regular n=256 d=32 gseed=1 algo=gossip mask=32 "
        f"compile=byz_tree mode=sparse f=2 packing=greedy k=16 "
        f"adv={adv} seed={trial}"
        for adv in advs
        for trial in (2 * seed, 2 * seed + 1)
    ]


def eaves_keypool(seed):
    points = [
        f"graph=random_regular n=1000 d=8 gseed={seed} algo={algo} "
        f"compile=static_to_mobile f=2 adv=random_eaves seed={trial}"
        for algo in ("sum", "floodmax")
        for trial in (2 * seed, 2 * seed + 1)
    ]
    points += [
        f"graph=clique n=96 algo=secure_broadcast w=8 f=3 adv=random_eaves "
        f"seed={trial}"
        for trial in (2 * seed, 2 * seed + 1)
    ]
    return points


# name -> (point generator, trial lanes)
WORKLOADS = {
    "scale_sparse": (scale_sparse, 1),
    "byz_attack": (byz_attack, 4),
    "eaves_keypool": (eaves_keypool, 4),
}

CONTEXT_KEYS = ("nproc", "build_type", "obs_compiled", "slab_tier",
                "force_scalar")


def build():
    """Configures and builds the harness; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no mobile-congest sources next to perfbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        sys.exit(3)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench_harness",
         "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            sys.exit(3)
    return os.path.join(build_dir, "perfbench_harness")


def run_once(harness, points, lanes, traced, corrupt, timeout):
    """One workload run in its own process; None when it died."""
    cmd = [harness, "--lanes", str(lanes)]
    if traced:
        cmd.append("--trace")
    if corrupt:
        cmd.append("--corrupt-reference")
    try:
        done = subprocess.run(cmd, input="\n".join(points) + "\n",
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print("perfbench: harness run timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: harness exited {done.returncode}: "
              f"{done.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print("perfbench: harness printed no result", file=sys.stderr)
        return None


def end_to_end(runs, attempted, failed):
    trial_ms = [t for r in runs for t in r["trial_ms"]]
    first = runs[0]
    return {
        "setup_s": (median([r["setup_ms"] for r in runs]) / 1e3, "s"),
        "wall_s": (median([r["wall_ms"] for r in runs]) / 1e3, "s"),
        "node_rounds_per_s": (median([r["node_rounds"] * 1e3 / r["trials_ms"]
                                      for r in runs]), "1/s"),
        "trial_ms_p50": (median(trial_ms), "ms"),
        "peak_rss_mb": (median([r["peak_rss_kb"] for r in runs]) / 1024,
                        "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "compiled_rounds": (first["compiled_rounds"], "count"),
        "max_congestion": (first["max_congestion"], "count"),
    }


def per_layer(traced, untraced, attempted, failed):
    def med(key):
        return median([r.get(key, 0.0) for r in traced])

    def med_of(fn):
        return median([fn(r) for r in traced])

    phases = ("t_clear_ms", "t_send_ms", "t_account_ms", "t_adversary_ms",
              "t_exchange_ms", "t_receive_ms")
    untraced_wall = median([r["wall_ms"] for r in untraced])
    return {
        "graph.build_ms": (med("graph_build_ms"), "ms"),
        "graph.arcs": (med("graph_arcs"), "count"),
        "scn.build_ms": (med("scn_build_ms"), "ms"),
        "scn.expect_cache_hits": (med("expect_cache_hits"), "count"),
        "exp.expect_ms": (med("expect_ms"), "ms"),
        "compile.factory_ms": (med("compile_factory_ms"), "ms"),
        "compile.preprocess_misses": (med("preprocess_misses"), "count"),
        "sim.construct_ms": (med("construct_ms"), "ms"),
        "sim.run_ms": (med_of(lambda r: sum(r.get(p, 0.0) for p in phases)),
                       "ms"),
        "sim.send_ms": (med("t_send_ms"), "ms"),
        "sim.receive_ms": (med("t_receive_ms"), "ms"),
        "sim.account_ms": (med("t_account_ms"), "ms"),
        "sim.clear_ms": (med("t_clear_ms"), "ms"),
        "sim.messages": (med("registry_messages"), "count"),
        "sim.busy_arc_share": (med_of(
            lambda r: r["messages"] / r["arc_rounds"]), "share"),
        "sim.receive_us_per_node_round": (med_of(
            lambda r: r.get("t_receive_ms", 0.0) * 1e3 / r["node_rounds"]),
            "us"),
        "sim.max_words": (med("max_words"), "words"),
        "sim.construct_rss_mb": (med("construct_rss_mb"), "MB"),
        "compile.pk_bytes": (med("pk_bytes"), "bytes"),
        "compile.ecc_encode_ms": (med("ecc_encode_ms"), "ms"),
        "compile.ecc_decode_ms": (med("ecc_decode_ms"), "ms"),
        "adv.phase_ms": (med("t_adversary_ms"), "ms"),
        "adv.corruptions": (med("corruptions"), "count"),
        "adv.snapshot_words": (med("snapshot_words"), "words"),
        "compile.keypool_extract_ms": (med("keypool_extract_ms"), "ms"),
        "exp.lane_busy_share": (med_of(
            lambda r: sum(r["trial_ms"]) / (r["lanes"] * r["trials_ms"])),
            "share"),
        "exp.trial_ms_max": (med_of(lambda r: max(r["trial_ms"])), "ms"),
        "exp.failed_share": (failed / attempted, "share"),
        "obs.trace_overhead_pct": (
            (med("wall_ms") / untraced_wall - 1.0) * 100.0, "%"),
    }


def problems(runs, traced, npoints):
    """Why the outputs of these runs are not correct (empty when they are)."""
    out = []
    first = runs[0]
    for r in runs:
        if r["attempted"] != npoints:
            out.append(f"{r['attempted']} trials ran for {npoints} points")
        for key in ("compiled_rounds", "messages", "max_congestion"):
            if r[key] != first[key]:
                out.append(f"{key} differs between runs: "
                           f"{first[key]} vs {r[key]}")
        if not r["replays_ok"]:
            out.append("a kernel replay returned wrong outputs")
        if any(r[k] != first[k] for k in CONTEXT_KEYS):
            out.append("run context changed within one invocation")
    for r in traced:
        if r["registry_messages"] != r["messages"]:
            out.append(f"obs registry counted {r['registry_messages']} "
                       f"messages for {r['messages']} sent")
        if r["registry_rounds"] != r["compiled_rounds"]:
            out.append(f"obs registry counted {r['registry_rounds']} rounds "
                       f"for {r['compiled_rounds']} executed")
    return sorted(set(out))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    harness = build()
    make_points, lanes = WORKLOADS[args.workload]
    points = make_points(args.seed)

    start = time.monotonic()
    untraced, traced = [], []
    attempted = failed = 0
    died = False
    while True:
        elapsed = time.monotonic() - start
        enough = len(untraced) >= 2 and (
            not args.trace or len(traced) >= 2)
        if elapsed >= args.seconds and enough:
            break
        if elapsed >= RUN_DEADLINE_S - 10:
            break
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        r = run_once(harness, points, lanes, want_trace,
                     args.corrupt_reference, RUN_DEADLINE_S - elapsed)
        attempted += len(points)
        if r is None:
            failed += len(points)
            died = True
            break
        failed += r["failed"]
        (traced if want_trace else untraced).append(r)

    runs = untraced + traced
    why = problems(runs, traced, len(points)) if runs else []
    if died:
        why.append("a harness process died; its trials count as failed")
    if failed:
        why.append(f"{failed} of {attempted} trials failed the outputs check")
    if not untraced or (args.trace and not traced):
        why.append("too few complete runs to report metrics")
        metrics = {}
    elif args.trace:
        metrics = per_layer(traced, untraced, attempted, failed)
    else:
        metrics = end_to_end(untraced, attempted, failed)

    context = {k: runs[0][k] for k in CONTEXT_KEYS} if runs else {}
    print(json.dumps({"context": context, "workload": args.workload,
                      "seed": args.seed, "untraced_runs": len(untraced),
                      "traced_runs": len(traced),
                      "trial_samples": sum(len(r["trial_ms"])
                                           for r in untraced),
                      "problems": why}))
    result = {
        "correct": not why,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
