#!/usr/bin/env python3
"""Smoke-length self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs ``run.py --seconds 1`` untraced
once and traced twice, at the default seed (so outputs are checked against
reference.json), and asserts that:

* the last stdout line is the result object, correct, with no failed call;
* its metrics are exactly the end-to-end (untraced) or per-layer (traced)
  metrics of BENCHMARK.json, each a number with the declared unit, and each
  also printed by name with its unit on a human-readable line
  (``failed_frac`` too);
* the simulated counters of the two traced runs are identical;
* ``engine.msg_count_mismatch_ticks`` is nonzero on run-large-csv (the uint8
  sent-counter wrap on a 256-node grid stays visible).

Finally it checks that run.py fails, without printing a result, in a copy
that holds only BENCHMARK.json and perfbench/.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

COUNTER_UNITS = ("count", "B", "ratio")


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def bench(root, workload, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check_output(proc, expected, label):
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    check(result["correct"] is True and result["failed"] == 0, f"{label}: {proc.stdout}")
    check(result["attempted"] >= 1, label)
    metrics = result["metrics"]
    check(set(metrics) == set(expected), f"{label}: {set(metrics) ^ set(expected)}")
    text = lines[:-1]
    for name, unit in expected.items():
        value = metrics[name]["value"]
        check(metrics[name]["unit"] == unit, f"{label}: {name} unit")
        check(isinstance(value, (int, float)) and not isinstance(value, bool), name)
        printed = any(ln.split()[:1] == [name] and f" {unit} " in ln for ln in text)
        check(printed, f"{label}: {name} [{unit}] not printed")
    return result


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        proc = bench(run.ROOT, workload, 0)
        check_output(proc, end_to_end, f"{workload} --trace 0")
        printed = any(ln.split()[:1] == ["failed_frac"] for ln in proc.stdout.splitlines())
        check(printed, f"{workload}: failed_frac not printed")
        counters = []
        for _ in range(2):
            result = check_output(bench(run.ROOT, workload, 1), per_layer,
                                  f"{workload} --trace 1")
            counters.append({k: v["value"] for k, v in result["metrics"].items()
                             if v["unit"] in COUNTER_UNITS})
        check(counters[0] == counters[1], f"{workload}: counters differ {counters}")
        if workload == "run-large-csv":
            check(counters[0]["engine.msg_count_mismatch_ticks"] > 0, counters[0])
        print(f"ok {workload}")

    bare = run.ROOT / run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout)
    print("ok bare copy fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
