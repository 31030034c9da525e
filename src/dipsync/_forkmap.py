"""One fork primitive, `Worker`, a task pipe, and `fork_map` on top of it.

A Worker is a forked process that serves an iterable of tasks that it takes
at the fork.  Each child of `fork_map` (the episodes of `sweep-links` and
`compare`) is forked with the indices of its share of the items; the trace
CSV writers (`engine.CsvBlocks`) and this process read block numbers from
one shared pipe (`put`, `get`), a queue from which whoever is free takes
the next block.

`fork_map`'s shares are fixed before any worker starts, from the items'
costs alone, so which process runs which item never depends on timing.  A
work queue could balance better when the costs are off, but the set of items
this process runs, and so what a profile of this process sees, would then
change from call to call.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import select
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


def serve_all(serve, tasks) -> tuple:
    """`serve(task)` for each task in turn, up to the first Exception.
    Return (results, failure): what `serve` returned, and None, or
    (exception, traceback text) of that Exception."""
    results = []
    try:
        for task in tasks:
            results.append(serve(task))
    except Exception as exc:
        return results, (exc, traceback.format_exc())
    return results, None


def put(feed: int, tasks) -> int:
    """Write the task numbers `tasks` (ints in [0, 2**64)) in order to the
    pipe write end `feed`, 8 bytes each; return how many were written.

    Each write holds whole tasks and at most PIPE_BUF bytes, so the pipe
    never splits it: a reader never sees part of a task.  A non-blocking
    `feed` stops at the first write that finds the pipe full, and any feed
    stops when the pipe has no reader left (a child that has ended)."""
    tasks = iter(tasks)
    done = 0
    with contextlib.suppress(BlockingIOError, BrokenPipeError):
        while batch := list(itertools.islice(tasks, select.PIPE_BUF // 8)):
            done += os.write(feed, b"".join(task.to_bytes(8, "little") for task in batch)) // 8
    return done


def get(tasks: int):
    """The next task number from the pipe read end `tasks`, or None at EOF.
    It takes one task with one raw 8-byte read, so the readers sharing a
    pipe each take only the task they serve next; a buffered read could
    take tasks that another reader is waiting for."""
    data = os.read(tasks, 8)
    return int.from_bytes(data, "little") if data else None


class Worker:
    """`serve_all(serve, tasks)` in a child made by `os.fork`, for the
    iterable `tasks`, which the child takes as it is at the fork.

    `fork_map` gives each child a fixed share of its items; the trace CSV
    writers (`engine.CsvBlocks`) give each the same lazy reader of one
    shared pipe of task numbers (`get` until EOF), so that each task goes to
    whoever reads it first.  The child sends back one pickle of (results,
    failure) and leaves through `os._exit`, so it never flushes this
    process's buffers.  It first closes `parent_fds`, the pipe ends this
    process holds: the write end of a shared task pipe, without which no EOF
    would come, and the reply ends of the workers made before it, to which
    this worker's is then added.

    Whoever makes a Worker closes it on every path: `close` kills and reaps
    it unless `wait` has reaped it, and closes its reply pipe."""

    def __init__(self, serve, tasks, parent_fds: list):
        replies, reply = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(replies)
            os.close(reply)
            raise
        if self.pid == 0:
            status = 1
            try:
                for fd in (*parent_fds, replies):
                    os.close(fd)
                done = serve_all(serve, tasks)
                with os.fdopen(reply, "wb") as fh:
                    pickle.dump(done, fh)
                status = 0
            finally:
                os._exit(status)
        os.close(reply)
        parent_fds.append(replies)
        self.replies = os.fdopen(replies, "rb")
        self.reaped = False

    def wait(self) -> tuple:
        """Wait for the worker to end and reap it; return its (results,
        failure), with a RuntimeError as the failure if it ended without
        sending them.  Interrupted, it leaves the worker to `close`."""
        data = self.replies.read()
        self.replies.close()
        os.waitpid(self.pid, 0)
        self.reaped = True
        if not data:
            return [], (RuntimeError(f"worker process {self.pid} ended without a result"), "")
        return pickle.loads(data)

    def result(self) -> list:
        """`wait`, and return the worker's results or raise its failure."""
        results, failure = self.wait()
        if failure:
            reraise(*failure)
        return results

    def close(self) -> None:
        """Kill the worker, unless it has been reaped, and reap it; close its
        reply pipe."""
        self.replies.close()
        if not self.reaped:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.reaped = True


def usable_cpus() -> int:
    """CPUs in this process's affinity mask, or 1 where there is no mask or
    no `os.fork`."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn, items, workers: int, cost) -> list:
    """`[fn(item) for item in items]`, computed by `workers` processes.

    The items are shared out by Graham's longest-processing-time rule: in
    order of descending `cost(item)`, ties in item order, each item goes to
    the worker with the least cost so far, the lowest worker on a tie.  Each
    worker then runs its share in item order.  Costs must be positive; with
    equal costs, worker w runs items[w::workers].

    This process is worker 0 and runs its share through `serve_all`; each
    other worker is a `Worker` forked with the indices of its share.  With
    one worker there are no children and the items run here in order.  A
    caller passes at most `usable_cpus()` workers and at most one per item.

    The episode map (`cli._map_episodes`) relies on this contract:
    - the results come back in item order, whatever worker computed them;
    - if items fail, the first failure in item order is raised here; one
      raised in a child keeps its type and message, and its traceback text
      is the `WorkerTraceback` cause;
    - every child is reaped on every path (success, failure, interruption),
      and killed first when this process is interrupted.
    """
    costs = [cost(item) for item in items]
    loads = [0] * workers
    plan = [[] for _ in range(workers)]
    for i in sorted(range(len(items)), key=costs.__getitem__, reverse=True):
        w = loads.index(min(loads))
        plan[w].append(i)
        loads[w] += costs[i]
    for indices in plan:
        indices.sort()

    def serve(i):
        return fn(items[i])

    children = []
    parent_fds = []
    try:
        for indices in plan[1:]:
            children.append(Worker(serve, indices, parent_fds))
        shares = [serve_all(serve, plan[0]), *(child.wait() for child in children)]
    finally:
        for child in children:
            child.close()

    # a share's failure is at the item after its results
    failures = [(indices[len(results)], *failure)
                for indices, (results, failure) in zip(plan, shares) if failure]
    if failures:
        _, exc, tb = min(failures, key=lambda f: f[0])
        reraise(exc, tb)
    out = [None] * len(items)
    for indices, (results, _) in zip(plan, shares):
        for i, result in zip(indices, results):
            out[i] = result
    return out
