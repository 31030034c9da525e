"""One fork primitive, `Worker`, and `fork_map` on top of it.

A Worker is a forked process that serves the tasks sent to it through a
pipe.  Each child of `fork_map` (the episodes of `sweep-links` and
`compare`) is sent the indices of its share of the items; each trace CSV
writer (`engine.CsvBlocks`) is sent blocks of ticks.

`fork_map`'s shares are fixed before any worker starts, from the items'
costs alone, so which process runs which item never depends on timing.  A
work queue could balance better when the costs are off, but the set of items
this process runs, and so what a profile of this process sees, would then
change from call to call.
"""

from __future__ import annotations

import contextlib
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


class Worker:
    """`serve_all(serve, tasks)` in a child made by `os.fork`, for the tasks
    sent to it.

    The child reads pickled tasks from its inbox pipe and acks each one
    served with one byte on a non-blocking ack pipe (an ack that finds the
    pipe full is dropped, so unread acks never block it).  At a pickled
    None, or at the first Exception, it closes its inbox, so that a send
    blocked on a full inbox ends rather than waits for it, and sends back
    one pickle of (results, failure).  It leaves through `os._exit`, so it
    never flushes this process's buffers.  It first closes `parent_fds`, the
    pipe ends this process holds for the workers made before it, to which
    this worker's are then added, so each inbox ends when this process does.

    Whoever makes a Worker closes it on every path: `close` kills and reaps
    it unless `wait` has reaped it, and closes its pipes."""

    def __init__(self, serve, parent_fds: list):
        inbox, self.inbox = os.pipe()
        self.acks, ack = os.pipe2(os.O_NONBLOCK)
        replies, reply = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (inbox, self.inbox, self.acks, ack, replies, reply):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                for fd in (*parent_fds, self.inbox, self.acks, replies):
                    os.close(fd)

                def acked(task):
                    result = serve(task)
                    with contextlib.suppress(BlockingIOError):
                        os.write(ack, b".")
                    return result

                with os.fdopen(inbox, "rb") as tasks:
                    done = serve_all(acked, iter(lambda: pickle.load(tasks), None))
                with os.fdopen(reply, "wb") as fh:
                    pickle.dump(done, fh)
                status = 0
            finally:
                os._exit(status)
        for fd in (inbox, ack, reply):
            os.close(fd)
        parent_fds += [self.inbox, self.acks, replies]
        self.replies = os.fdopen(replies, "rb")
        self.unacked = 0       # tasks sent and not yet acked
        self.reaped = False

    def send(self, task) -> int:
        """Send a task, or None to end the tasks; return its bytes.  A worker
        that has ended gets nothing: its failure shows at `poll` or `wait`."""
        data = pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
        view = memoryview(data)
        with contextlib.suppress(BrokenPipeError):
            while view:
                view = view[os.write(self.inbox, view):]
        if task is not None:
            self.unacked += 1
        return len(data)

    def poll(self) -> None:
        """Count the acks that have come; never blocks.  Raise the worker's
        failure if it has ended before acking every task."""
        if self.unacked:
            try:
                acks = os.read(self.acks, 64)
            except BlockingIOError:
                return
            if not acks:
                self.result()
                raise RuntimeError(f"worker process {self.pid} ended before its last task")
            self.unacked -= len(acks)

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
        pipes."""
        self.replies.close()
        if not self.reaped:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.reaped = True
        os.close(self.inbox)
        os.close(self.acks)


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
    other worker is a `Worker`, sent the indices of its share and then None
    as soon as it is forked.  With one worker there are no children and the
    items run here in order.  A caller passes at most `usable_cpus()` workers
    and at most one per item.

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
            children.append(Worker(serve, parent_fds))
            for i in [*indices, None]:
                children[-1].send(i)
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
