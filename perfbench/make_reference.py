#!/usr/bin/env python3
"""Record the reference outputs that perfbench/run.py checks at its default seed.

    python3 perfbench/make_reference.py

Runs every workload's CLI calls once at the default seed and writes their
exit codes, exact stdout, and the SHA-256 of every file they write to
perfbench/reference.json.  Re-record only when the workload inputs change,
never to accept a change in the program's output.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.make_hermetic()
    dipsync, cli, np = run.import_program()
    reference = {}
    for workload in sorted(run.WORKLOADS):
        runner = run.Runner(cli, run.build_inputs(workload, run.DEFAULT_SEED), None)
        runner.iteration()
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        reference[workload] = {"seed": run.DEFAULT_SEED, "calls": runner.first}
        print(f"{workload}: {len(runner.first)} calls recorded")
    reference["env"] = run.environment(dipsync, np)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
