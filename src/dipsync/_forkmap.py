"""One fork-based map for independent work items: the episodes of
`sweep-links` and `compare`, and the tick ranges of the trace CSV writer.
Each caller chooses its own number of workers, and may give each item a cost
by which the items are shared out longest first.

The shares are fixed before any worker starts, from the costs alone, so
which process runs which item never depends on timing.  A work queue could
balance better when the costs are off, but the set of items this process
runs, and so what a profile of this process sees, would then change from
call to call."""

from __future__ import annotations

import os
import pickle
import signal
import traceback


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a worker process."""


def usable_cpus() -> int:
    """CPUs in this process's affinity mask, or 1 where there is no mask or
    no `os.fork`."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn, items, workers: int, cost=None) -> list:
    """`[fn(item) for item in items]`, computed by `workers` processes.

    The items are shared out by Graham's longest-processing-time rule: in
    order of descending `cost(item)`, ties in item order, each item goes to
    the worker with the least cost so far, the lowest worker on a tie.  Each
    worker then runs its share in item order.  Costs must be positive; with
    `cost=None` every item costs the same, and worker w runs
    items[w::workers].

    This process is worker 0; each other worker is a child made by
    `os.fork`, which sends its results, or its first exception, back through
    a pipe as one pickle and always leaves through `os._exit`, so it never
    flushes this process's buffers.  With one worker there are no children
    and the items run here in order.  A caller passes at most `usable_cpus()`
    workers and at most one per item.

    Both callers rely on this contract:
    - the results come back in item order, whatever worker computed them;
    - if items fail, the first failure in item order is raised here; one
      raised in a child keeps its type and message, and its traceback text
      is the `WorkerTraceback` cause;
    - every child is reaped on every path (success, failure, interruption),
      and killed first when this process is interrupted.
    """
    costs = [1] * len(items) if cost is None else [cost(item) for item in items]
    loads = [0] * workers
    plan = [[] for _ in range(workers)]
    for i in sorted(range(len(items)), key=costs.__getitem__, reverse=True):
        w = loads.index(min(loads))
        plan[w].append(i)
        loads[w] += costs[i]
    for indices in plan:
        indices.sort()

    def share(w):
        """Worker w's results, up to its first exception, and that failure
        as (item index, exception, traceback text), or None."""
        results = []
        for i in plan[w]:
            try:
                results.append(fn(items[i]))
            except Exception as exc:
                return results, (i, exc, traceback.format_exc())
        return results, None

    children = []   # (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with os.fdopen(wr, "wb") as fh:
                        pickle.dump(share(w), fh)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wr)
            children.append((pid, os.fdopen(r, "rb")))
        shares = [share(0)]
        for w, (pid, fh) in enumerate(children, 1):
            data = fh.read()
            shares.append(pickle.loads(data) if data else ([], (
                plan[w][0], RuntimeError(f"worker process {pid} ended without a result"), "")))
    except BaseException:
        for pid, _ in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        raise
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)

    failures = [failure for _, failure in shares if failure]
    if failures:
        _, exc, tb = min(failures, key=lambda f: f[0])
        if exc.__traceback__ is None:   # raised in a child
            raise exc from WorkerTraceback(tb)
        raise exc
    out = [None] * len(items)
    for indices, (results, _) in zip(plan, shares):
        for i, result in zip(indices, results):
            out[i] = result
    return out
