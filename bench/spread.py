#!/usr/bin/env python3
"""A/A check for the benchmark, by the driver's own rule.

Runs every workload of BENCHMARK.json once per seed (ten seeds by default),
twice over, and prints for each end-to-end metric and workload:

  spread  distance between the first and third quartile of the ten values
          (statistics.quantiles, n=4) as a share of their median, per set;
  drift   how much worse the second set's median is than the first's.

A metric holds when both spreads (setup_s excepted) and the drift stay within
its bound; the aim is a spread below a third of the bound.

  python3 bench/spread.py            # all workloads, 2 sets of 10 seeds
  python3 bench/spread.py kv-serve   # one workload
"""
import json
import statistics
import subprocess
import sys

SEEDS = 10


def run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.load(open("BENCHMARK.json"))
    only = sys.argv[1:]
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        if only and name not in only:
            continue
        sets = [[run(spec, name, 1 + s * SEEDS + i) for i in range(SEEDS)] for s in range(2)]
        for m in spec["end_to_end"]:
            cols = [[r[m["name"]] for r in rows] for rows in sets]
            med = [statistics.median(c) for c in cols]
            drift = (med[1] - med[0]) / med[0]
            if m["better"] == "higher":
                drift = -drift
            spreads = [spread(c) for c in cols]
            held = drift <= m["bound"] and (m["name"] == "setup_s" or max(spreads) <= m["bound"])
            ok &= held
            print(f"{name:14s} {m['name']:15s} median {med[0]:12.6g} {med[1]:12.6g} {m['unit']:4s}"
                  f" spread {spreads[0]:6.1%} {spreads[1]:6.1%}  drift {drift:+6.1%}  bound {m['bound']:.0%}"
                  f"  {'ok' if held else 'FAILS'}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
