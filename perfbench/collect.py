#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/collect.py --workloads sweep-lossy --seeds 1-5
    python3 perfbench/collect.py --seeds 1-10 --out perfbench/trajectory/BENCH_<commit>.json

For every workload and seed it runs ``run.py --trace 0`` in a fresh process,
one at a time, and prints that run's metrics.  Per workload it then prints
per metric the median, the quartiles and the
spread (Q3 - Q1) / median, the quantity the metric's bound in BENCHMARK.json
is checked against; "steady" means the spread is below a third of the bound.
With ``--out`` it also makes one traced run per workload at the default seed
and writes all of it, with the environment, as one trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return {"result": result, "env": env, "process_s": elapsed}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="write a trajectory point (JSON) here")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    all_steady = all_correct = True
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            runs.append(bench(workload, seed, args.seconds, 0))
            values = runs[-1]["result"]["metrics"]
            print(f"  seed {seed}: " + "  ".join(f"{k} {values[k]['value']:.6g}" for k in bounds),
                  flush=True)
        point["env"] = runs[-1]["env"]
        correct = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs)
        all_correct &= correct
        print(f"{workload}: {len(runs)} runs, all correct: {correct}, "
              f"longest process {max(r['process_s'] for r in runs):.1f} s")
        summary = {}
        for name, bound in bounds.items():
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            steady = stats["spread"] < bound / 3
            if name != "setup_s":
                all_steady &= steady
            summary[name] = stats
            print(f"  {name:<18} median {stats['median']:<12.6g} {stats['unit']:<4} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bound}) "
                  f"{'steady' if steady else 'NOT steady'}")
        entry = {"end_to_end": summary, "process_s": [r["process_s"] for r in runs]}
        if args.out:
            traced = bench(workload, run.DEFAULT_SEED, args.seconds, 1)["result"]
            all_correct &= traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][workload] = entry
    print(f"all correct: {all_correct}; every bounded spread below a third of its bound: "
          f"{all_steady}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
