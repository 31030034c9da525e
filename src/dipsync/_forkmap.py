"""One fork-based map for independent work items, the episodes of
`sweep-links` and `compare`.  Each caller chooses its own number of workers,
and may give each item a cost by which the items are shared out longest
first.

The shares are fixed before any worker starts, from the costs alone, so
which process runs which item never depends on timing.  A work queue could
balance better when the costs are off, but the set of items this process
runs, and so what a profile of this process sees, would then change from
call to call.

`Child`, the forked process under each worker of the map, also runs the
trace CSV's writers: one per spare CPU for each episode whose CSV is
written, fed blocks of ticks through a pipe (`engine.CsvBlocks`).
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a worker process."""


def reraise(exc: BaseException, tb: str):
    """Raise `exc`, a failure that a child sent back with its traceback text
    `tb`, here: with the same type and message, caused by a WorkerTraceback
    of that text.  An `exc` raised in this process is raised as it is."""
    if exc.__traceback__ is None:   # raised in a child
        raise exc from WorkerTraceback(tb)
    raise exc


def failure_of(fn):
    """Call `fn()`; return None, or (exception, traceback text) of the
    Exception it raised."""
    try:
        fn()
    except Exception as exc:
        return exc, traceback.format_exc()
    return None


class Child:
    """`fn()` run in a child made by `os.fork`.

    The child sends what `fn` returns back through a pipe as one pickle and
    always leaves through `os._exit`, so it never flushes this process's
    buffers.  Whoever makes a Child reaps it on every path: through `wait`,
    or through `kill` when this process is interrupted."""

    def __init__(self, fn):
        r, wr = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                with os.fdopen(wr, "wb") as fh:
                    pickle.dump(fn(), fh)
                status = 0
            finally:
                os._exit(status)
        os.close(wr)
        self.pid = pid
        self.pipe = os.fdopen(r, "rb")
        self.reaped = False

    def wait(self, missing):
        """Wait for the child to end and reap it; return what `fn` returned,
        or `missing` if the child ended without sending it.  Interrupted,
        it leaves the child to `kill`."""
        data = self.pipe.read()
        self.pipe.close()
        os.waitpid(self.pid, 0)
        self.reaped = True
        return pickle.loads(data) if data else missing

    def kill(self) -> None:
        """Kill the child, unless it has been reaped, and reap it."""
        self.pipe.close()
        if not self.reaped:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(self.pid, 0)
            self.reaped = True


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

    The episode map (`cli._map_episodes`) relies on this contract:
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
            failure = failure_of(lambda: results.append(fn(items[i])))
            if failure:
                return results, (i, *failure)
        return results, None

    children = []
    try:
        for w in range(1, workers):
            children.append(Child(lambda: share(w)))
        shares = [share(0)]
        for w, child in enumerate(children, 1):
            shares.append(child.wait(([], (plan[w][0], RuntimeError(
                f"worker process {child.pid} ended without a result"), ""))))
    except BaseException:
        for child in children:
            child.kill()
        raise

    failures = [failure for _, failure in shares if failure]
    if failures:
        _, exc, tb = min(failures, key=lambda f: f[0])
        reraise(exc, tb)
    out = [None] * len(items)
    for indices, (results, _) in zip(plan, shares):
        for i, result in zip(indices, results):
            out[i] = result
    return out
