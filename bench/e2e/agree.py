#!/usr/bin/env python3
"""Agreement mode for the end-to-end benchmark: run it over a list of seeds,
--repeat times, and report how steady each end-to-end metric is.

Run from the repository root:

    python3 bench/e2e/agree.py --repeat 2 --seeds 1,2,3,4,5,6,7,8,9,10
    python3 bench/e2e/agree.py --workload kv-get-udp --seeds 1,2,3,4,5

For every workload, set and metric it prints the median, the interquartile
range (statistics.quantiles(n=4)), the spread (IQR / median) and the metric's
bound from BENCHMARK.json, and flags a spread wider than the bound. With two
or more sets it also flags a set whose median is worse than the first set's
by more than the bound, and any sim-clock metric that is not byte-identical
for the same seed across sets. Exit status 1 when anything is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Sim-clock metrics: a function of the seed alone.
SIM = {"capacity_krps", "p50_us", "p99_us", "p999_us", "p99_us_low"}


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1, (q3 - q1) / statistics.median(values)


def worse_by(first, later, better):
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--repeat", type=int, default=1, help="number of sets")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    a = ap.parse_args()

    with open(a.benchmark) as f:
        bench = json.load(f)
    seeds = [int(s) for s in a.seeds.split(",")]
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # results[set][workload][seed] = parsed result line
    results = []
    for r in range(a.repeat):
        per_w = {}
        for w in workloads:
            per_w[w] = {}
            for seed in seeds:
                res = run_once(bench["command"], w, seed, seconds)
                per_w[w][seed] = res
                print(f"set {r + 1} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}",
                      file=sys.stderr, flush=True)
        results.append(per_w)

    flagged = 0
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':24} {'set':>3} {'median':>14} {'IQR':>12} "
              f"{'spread':>8} {'bound':>6}  flags")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_med = None
            for r, per_w in enumerate(results):
                vals = [per_w[w][s]["metrics"][name]["value"] for s in seeds]
                unit = per_w[w][seeds[0]]["metrics"][name]["unit"]
                med, iqr, sp = spread(vals)
                flags = []
                if unit != m["unit"]:
                    flags.append(f"unit {unit} != {m['unit']}")
                if sp > bound and name != "setup_s":
                    flags.append("SPREAD>BOUND")
                if first_med is None:
                    first_med = med
                elif worse_by(first_med, med, m["better"]) > bound:
                    flags.append("MEDIAN-DRIFT")
                if r > 0 and name in SIM:
                    for s in seeds:
                        if (per_w[w][s]["metrics"][name]["value"]
                                != results[0][w][s]["metrics"][name]["value"]):
                            flags.append(f"seed {s} not identical")
                flagged += len(flags)
                print(f"  {name:24} {r + 1:>3} {med:>14.6g} {iqr:>12.4g} "
                      f"{sp:>8.4f} {bound:>6}  {' '.join(flags)}")
        for r, per_w in enumerate(results):
            bad = [s for s in seeds
                   if not per_w[w][s]["correct"] or per_w[w][s]["failed"] > 0]
            if bad:
                flagged += 1
                print(f"  set {r + 1}: incorrect or failed requests at seeds {bad}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
