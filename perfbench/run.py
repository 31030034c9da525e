#!/usr/bin/env python3
"""dipsync benchmark: fixed CLI workloads timed end to end, and a separately
traced run that attributes their time to the program's layers.

Run from anywhere inside a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload sweep-lossy --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of ``dipsync.cli.main`` calls built from the
seed.  One iteration runs the whole list in this process (single thread, the
pure kernel backend on machines without numba); iterations repeat until
``--seconds`` have passed.  A fixed calibration loop runs before every call
and after the last one; iteration times are reported scaled by how fast that
loop ran around them, so that drift of the host's CPU speed cancels (see
README.md).  Every call's stdout and output files are digested
and compared, byte for byte, with the recorded reference (``reference.json``,
at the default seed) and with the first iteration of this run (any seed).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (CLI calls), and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Human-readable
lines before it give every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = Path(".perfbench_out")      # relative to ROOT, so CLI output is path-stable
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
SETUP_PROBES = 11

# The calibration loop makes CALIB_ROUNDS passes over a 256-node state.  It
# took 0.075-0.135 s on the 2-vCPU x86-64 VM where the benchmark was written
# (Python 3.11.7, numpy 2.4.6).  Iteration times are reported as seconds on a
# host that runs it in CALIB_REF_S.
CALIB_ROUNDS = 600
CALIB_REF_S = 0.1

# Workload sizes: one iteration takes about 2 s on the pure backend.
SWEEP_TICKS, SWEEP_REPEATS, SWEEP_P = 1000, 3, ("0.75", "0.5", "0.25")
ATTACK_TICKS, ATTACK_SEEDS = 4000, 2
LARGE_TICKS, LARGE_GRID = 600, (16, 16)
GRID16_NODES = 16
PROTOCOLS = ("tsau", "uaf", "baf")

WORKLOADS = ("sweep-lossy", "compare-attack", "run-large-csv")  # see README.md

END_TO_END = {"wall_s": "s", "node_ticks_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "kernels.tsau.us_per_node_tick": "us",
    "kernels.uaf.us_per_node_tick": "us",
    "kernels.baf.us_per_node_tick": "us",
    "kernels.active_node_tick_frac": "ratio",
    "kernels.dip_fired_frac": "ratio",
    "kernels.idle_tick_frac": "ratio",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.link_bytes": "B",
    "engine.trace_bytes": "B",
    "engine.to_csv_s": "s",
    "engine.to_csv_mb_per_s": "MB/s",
    "engine.to_csv_rows": "count",
    "noise.generate_s": "s",
    "noise.calls": "count",
    "topology.s": "s",
    "cli.load_spec_s": "s",
    "metrics.dip_metrics_s": "s",
    "metrics.calls": "count",
    "cli.self_s": "s",
    "engine.messages_sent": "count",
    "engine.messages_delivered": "count",
    "engine.delivery_ratio": "ratio",
    "engine.msg_count_mismatch_ticks": "count",
    "engine.runtime_warnings": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Call:
    """One CLI invocation: argv, the files it writes, its simulated node-ticks."""

    argv: list
    outputs: list = field(default_factory=list)
    node_ticks: int = 0


def build_inputs(workload: str, seed: int) -> list[Call]:
    """The workload's CLI calls for this seed; writes any input files."""
    if workload == "sweep-lossy":
        return [Call(["sweep-links", "--protocol", proto, "--p", *SWEEP_P,
                      "--seed", str(seed), "--repeats", str(SWEEP_REPEATS),
                      "--ticks", str(SWEEP_TICKS)],
                     node_ticks=len(SWEEP_P) * SWEEP_REPEATS * SWEEP_TICKS * GRID16_NODES)
                for proto in PROTOCOLS]
    if workload == "compare-attack":
        return [Call(["compare", "--scenario", "malicious16",
                      "--seed", str(ATTACK_SEEDS * seed + j), "--ticks", str(ATTACK_TICKS)],
                     node_ticks=len(PROTOCOLS) * ATTACK_TICKS * GRID16_NODES)
                for j in range(ATTACK_SEEDS)]
    if workload == "run-large-csv":
        base = WORK_DIR / f"run-large-csv-seed{seed}"
        out = base / "out"
        base.mkdir(parents=True, exist_ok=True)
        rows, cols = LARGE_GRID
        spec = base / "large.spec"
        spec.write_text(
            "name = large-baf\nprotocol = baf\n"
            f"topology = grid:{rows}x{cols}\ndelta = 0.001\nmax_ticks = {LARGE_TICKS}\n"
            f"link_p = 0.75\nmalicious = false\nseed = {seed}\n"
            "freeze_on_dip = false\nrepeat = 1\n", encoding="utf-8")
        return [Call(["run", str(spec), "--out", str(out)],
                     outputs=[out / "trace.csv", out / "metrics.csv", out / "manifest.txt"],
                     node_ticks=LARGE_TICKS * rows * cols)]
    raise ValueError(f"unknown workload {workload!r}")


def calibrate() -> float:
    """Seconds taken by a fixed loop of the kind the pure kernels run:
    Python-level loops that read and write single elements of small numpy
    arrays.  It does the same work every time and touches no program code."""
    import numpy as np
    est = np.zeros(256)
    flag = np.zeros(256, dtype=np.uint8)
    count = np.zeros(256, dtype=np.int64)
    t0 = time.perf_counter()
    for k in range(CALIB_ROUNDS):
        for i in range(1, 256):
            if flag[i - 1] == 0:
                est[i] = 0.5 * (est[i] + est[i - 1]) + 0.001
                count[i] += 1
            flag[i] = (k + i) & 1
    return time.perf_counter() - t0


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Runs CLI calls in process, times them, and checks their output bytes."""

    def __init__(self, cli, calls, reference):
        self.cli = cli
        self.calls = calls
        self.reference = reference      # per-call expected outputs, or None
        self.first = None               # per-call outputs of the first iteration
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _invoke(self, call):
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(call.argv)
            except (Exception, SystemExit):
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), elapsed

    def iteration(self, tracer=None) -> tuple[float, float]:
        """Run every call once, with the calibration loop before each call and
        after the last; return the summed seconds inside cli.main and the mean
        seconds of the calibration loops."""
        gc.collect()
        wall = 0.0
        calibs = []
        got = []
        for idx, call in enumerate(self.calls):
            calibs.append(calibrate())
            self.attempted += 1
            for path in call.outputs:       # a file left by an earlier call proves nothing
                path.unlink(missing_ok=True)
            if tracer is None:
                rc, stdout, stderr, elapsed = self._invoke(call)
            else:
                with tracer.span("cli.main"):
                    rc, stdout, stderr, elapsed = self._invoke(call)
            wall += elapsed
            result = {"argv": call.argv, "rc": rc, "stdout": stdout,
                      "files": {p.name: _digest(p) if p.exists() else None
                                for p in call.outputs}}
            got.append(result)
            problem = None
            if rc != 0:
                problem = f"returned {rc!r}; stderr: {stderr.strip()[-500:]}"
            elif self.reference is not None and result != self.reference[idx]:
                problem = "output differs from the recorded reference"
            elif self.first is not None and result != self.first[idx]:
                problem = "output differs from the first iteration (nondeterministic)"
            if problem:
                self.failed += 1
                self.problems.append(f"{' '.join(call.argv)}: {problem}")
        calibs.append(calibrate())
        if self.first is None:
            self.first = got
        return wall, statistics.fmean(calibs)

    def repeat(self, seconds: float, min_iterations: int = 2, tracer=None):
        """Iterations until `seconds` have passed: their walls, their
        calibration times and, when traced, their per-layer metrics."""
        walls, calibs, per_layer = [], [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < min_iterations or time.perf_counter() < deadline:
            wall, calib = self.iteration(tracer)
            walls.append(wall)
            calibs.append(calib)
            if tracer is not None:
                per_layer.append(tracer.finish_iteration())
        return walls, calibs, per_layer


def environment(dipsync, np) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    backend = dipsync.current_backend()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": usable,
        "machine": platform.machine(),
        "comparable": backend == "pure",
    }


def make_hermetic() -> None:
    """Run from the checkout root, without the variables that change what
    the program does; child processes inherit both."""
    os.chdir(ROOT)
    for var in ("DIPSYNC_SEED", "DIPSYNC_NO_NUMBA"):
        os.environ.pop(var, None)


def import_program():
    """Import dipsync from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np

    import dipsync
    import dipsync.cli as cli
    if not Path(dipsync.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dipsync imported from {dipsync.__file__}, not {src}")
    return dipsync, cli, np


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the point where it would
    make its first cli.main call (imports plus input generation)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {rc}, said {line!r})")
    return elapsed


def load_reference(workload: str, seed: int, calls) -> list | None:
    if seed != DEFAULT_SEED:
        return None
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    argvs = [r["argv"] for r in ref["calls"]]
    if argvs != [c.argv for c in calls]:
        raise RuntimeError(f"{REFERENCE.name} was recorded for other {workload} inputs; "
                           "re-record it with make_reference.py")
    return ref["calls"]


def upper_percentile(values):
    """The highest of p75/p90/p99 with at least ten samples above it, or None."""
    ordered = sorted(values)
    best = None
    for q in (75, 90, 99):
        idx = int(len(ordered) * q / 100)
        if len(ordered) - idx - 1 >= 10:
            best = f"p{q} {ordered[idx]:.6g}  "
    return best


def normalised(times, calibs):
    """Each time scaled to a host on which the calibration loop takes
    CALIB_REF_S, by the calibration time measured around it."""
    return [t * CALIB_REF_S / c for t, c in zip(times, calibs)]


def spread(values):
    """(Q3 - Q1) / median of at least two values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def report_line(name, value, unit, samples):
    """One metric by name with its unit and sample count; for a list of
    samples also the highest percentile that has ten samples above it."""
    extra = ""
    if isinstance(samples, list):
        extra = upper_percentile(samples) or ""
        samples = len(samples)
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {extra}n={samples}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    make_hermetic()
    try:
        dipsync, cli, np = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    calls = build_inputs(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    env = environment(dipsync, np)
    reference = load_reference(args.workload, args.seed, calls)
    # Not scaled: set-up is mostly interpreter start and imports, whose time
    # does not follow the calibration loop's (scaling made it drift more).
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup = statistics.median(setups)
    runner = Runner(cli, calls, reference)
    runner.iteration()      # warm-up: fills lazy imports and caches, checks the bytes

    node_ticks = sum(c.node_ticks for c in calls)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"check: {'reference bytes' if reference else 'determinism across iterations'}")
    print("env " + json.dumps(env, sort_keys=True))
    if not env["comparable"]:
        print("note: backend is not pure; these numbers are not comparable")

    if args.trace == 0:
        raw_walls, calibs, _ = runner.repeat(args.seconds)
        walls = normalised(raw_walls, calibs)
        wall = statistics.median(walls)
        rates = [node_ticks / w for w in walls]
        metrics = {
            "wall_s": wall,
            "node_ticks_per_s": node_ticks / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": setup,
        }
        print(f"end-to-end (median per iteration; wall_s at calibration speed "
              f"{CALIB_REF_S} s, setup_s as measured):")
        report_line("wall_s", wall, "s", walls)
        report_line("node_ticks_per_s", metrics["node_ticks_per_s"], "1/s", rates)
        report_line("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1)
        report_line("setup_s", setup, "s", setups)
        report_line("failed_frac", runner.failed / runner.attempted, "ratio",
                    runner.attempted)
        print("as measured, not scaled:")
        report_line("raw_wall_s", statistics.median(raw_walls), "s", raw_walls)
        report_line("calibration_s", statistics.median(calibs), "s", calibs)
        if len(walls) > 1:
            print(f"  within-run spread (Q3-Q1)/median: wall_s {spread(walls):.3f}, "
                  f"raw_wall_s {spread(raw_walls):.3f}")
        units = END_TO_END
        correct = runner.failed == 0
    else:
        half = args.seconds / 2
        plain, plain_calibs, _ = runner.repeat(half)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, traced_calibs, per_iter = runner.repeat(half, tracer=tracer)
        overhead = (statistics.median(normalised(traced, traced_calibs))
                    - statistics.median(normalised(plain, plain_calibs)))
        metrics, counters_ok = layer_report(per_iter, traced, plain, overhead)
        spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "fields": ["name", "start", "end", "parent"],
            "iterations": tracer.log}), encoding="utf-8")
        print(f"spans written to {spans_path}")
        units = PER_LAYER
        correct = runner.failed == 0 and counters_ok
        if not counters_ok:
            print("error: simulated counters differ between iterations")

    for problem in runner.problems[:10]:
        print(f"FAILED {problem}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def layer_report(per_iter, traced, plain, overhead):
    """Per-layer metrics (medians over traced iterations) and whether the
    simulated counters repeated exactly in every iteration.  `overhead` is
    the traced minus the untraced wall_s, both scaled to calibration speed."""
    timings = tracing.median_of([t for t, _, _ in per_iter])
    counters = per_iter[0][1]
    counters_ok = all(c == counters for _, c, _ in per_iter)
    selfs = tracing.median_of([s for _, _, s in per_iter])
    traced_wall, plain_wall = statistics.median(traced), statistics.median(plain)
    unattributed = statistics.median(
        w - sum(s.values()) for w, (_, _, s) in zip(traced, per_iter))
    metrics = {**timings, **counters,
               "trace.overhead_s": overhead,
               "trace.unattributed_s": unattributed}
    print(f"layer self time (median per iteration, n={len(traced)}; "
          f"traced wall_s {traced_wall:.6g} s):")
    for layer in tracing.LAYERS:
        print(f"  {layer:<34} {selfs[layer]:>14.6g} s      "
              f"{100 * selfs[layer] / traced_wall:5.1f}%")
    print(f"  {'unattributed':<34} {unattributed:>14.6g} s")
    print(f"tracing overhead: traced wall_s - untraced (n={len(plain)}), at calibration "
          f"speed: {overhead:.6g} s; as measured: {traced_wall:.6g} s - "
          f"{plain_wall:.6g} s = {traced_wall - plain_wall:.6g} s")
    print("per-layer:")
    for name, unit in PER_LAYER.items():
        report_line(name, metrics[name], unit, len(per_iter))
    return metrics, counters_ok


if __name__ == "__main__":
    sys.exit(main())
