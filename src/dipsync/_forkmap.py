"""One fork-based map for independent work items: the episodes of
`sweep-links` and `compare`, and the tick ranges of the trace CSV writer.
Each caller chooses its own number of workers."""

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


def fork_map(fn, items, workers: int) -> list:
    """`[fn(item) for item in items]`, computed by `workers` processes.

    Worker w runs items[w::workers].  This process is worker 0; each other
    worker is a child made by `os.fork`, which sends its results, or its
    first exception, back through a pipe as one pickle and always leaves
    through `os._exit`, so it never flushes this process's buffers.  With one
    worker there are no children and the items run here in order.  A caller
    passes at most `usable_cpus()` workers and at most one per item.

    Both callers rely on this contract:
    - the results come back in item order, whatever worker computed them;
    - if items fail, the first failure in item order is raised here; one
      raised in a child keeps its type and message, and its traceback text
      is the `WorkerTraceback` cause;
    - every child is reaped on every path (success, failure, interruption),
      and killed first when this process is interrupted.
    """
    def share(w):
        """Worker w's results, up to its first exception, and that failure
        as (item index, exception, traceback text), or None."""
        results = []
        for i in range(w, len(items), workers):
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
                w, RuntimeError(f"worker process {pid} ended without a result"), "")))
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
    for w, (results, _) in enumerate(shares):
        out[w::workers] = results
    return out
