#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for
every metric, the median, the quartiles and the spread (inter-quartile
distance as a share of the median) next to the bound BENCHMARK.json
fixes.

    python3 benchmark/spread.py [--seeds 1-10] [--trace 0|1] [--record COMMIT]

Run it from the root of the repository. It runs every workload that
BENCHMARK.json lists, each run the command it names with its
`run_seconds`. `--record COMMIT` appends the medians and quartiles to
the trajectory in benchmark/ledger.json.
Exits 1 when a run was incorrect or failed requests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record", metavar="COMMIT")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values, failed = {}, 0
        for seed in seeds(args.seeds):
            result = run_once(bench, workload, seed, args.trace)
            if not result["correct"] or result["failed"]:
                ok = False
                failed += 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        rows = {}
        print(f"\n{workload} ({len(seeds(args.seeds))} seeds, {failed} incorrect or failing)")
        print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"{name:<34} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                          "runs": len(vs)}
        summary[workload] = rows
    if args.record:
        path = os.path.join("benchmark", "ledger.json")
        with open(path) as f:
            ledger = json.load(f)
        ledger["trajectory"].append({
            "commit": args.record, "seeds": args.seeds, "trace": args.trace,
            "run_seconds": bench["run_seconds"], "cpus": os.cpu_count(),
            "workloads": summary,
        })
        with open(path, "w") as f:
            json.dump(ledger, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
