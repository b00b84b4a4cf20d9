#!/usr/bin/env python3
"""Steadiness self-check for the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/steady.py                      # every workload, seeds 1..10
    python3 e2ebench/steady.py --workloads pages --seeds 5
    python3 e2ebench/steady.py --save a.json        # keep the raw results
    python3 e2ebench/steady.py --compare a.json     # medians vs an earlier set

For each workload it runs the benchmark once per seed with --trace 0 and
reports, for each end-to-end metric, the spread of the values: the
distance between the first and third quartile as a share of the median
(statistics.quantiles, n=4). A spread must stay within the metric's bound
in BENCHMARK.json, and should stay below a third of it. setup_s is
reported but not held to its bound, since only its median is gated.

With --counts it also runs one seed twice with --trace 1 and requires the
deterministic counts to repeat exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys

COUNTS = ["vm.steps", "monitor.hook_runs", "replay.runs", "community.manager_msgs", "sim.events"]


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--counts", action="store_true")
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    ok = True
    raw = {}
    for w in names:
        runs = [run(bench, w, s, 0) for s in seeds]
        raw[w] = runs
        print(f"{w}: {len(runs)} seeds")
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok"
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    verdict, ok = "OVER BOUND", False
                elif spread > m["bound"] / 3:
                    verdict = "over a third of the bound"
            line = f"  {m['name']:<14} median {med:12.6g} {m['unit']:<5} spread {spread:6.3f} (bound {m['bound']}) {verdict}"
            if w in earlier:
                old = statistics.median([r[m["name"]] for r in earlier[w]])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f"  vs earlier median {old:.6g}: {worse:+.3f} worse"
                if worse > m["bound"]:
                    line += " OVER BOUND"
                    ok = False
            print(line)
        if args.counts:
            a, b = run(bench, w, args.first_seed, 1), run(bench, w, args.first_seed, 1)
            for k in COUNTS:
                same = a[k] == b[k]
                ok = ok and same
                print(f"  count {k:<24} {a[k]:.6g} / {b[k]:.6g} {'exact' if same else 'DIFFERS'}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
