"""The `Worker`s and task pipes of `_forkmap`: a Worker serves the iterable of
tasks it is forked with; `put` writes task numbers 8 bytes each, in writes
the pipe never splits, and `get` takes one task per raw read, so forked
Workers and this process can share one pipe as a queue, each task served
exactly once (the trace CSV writers' queue, `engine.CsvBlocks`)."""

import functools
import io
import itertools
import os
import pickle
import select
import signal

import pytest

from dipsync._forkmap import Worker, get, put
from test_cli import assert_no_child_left


@pytest.fixture(autouse=True)
def bounded():
    """Fail a test that hangs, as a reader waiting for an EOF that never
    comes would, and one that leaves a child process or an open file
    descriptor."""
    def timeout(signum, frame):
        raise TimeoutError("no EOF within 30 s")

    fds = len(os.listdir("/proc/self/fd"))
    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == fds


def queue(tasks):
    """The task numbers read from the pipe read end `tasks` until EOF, one
    `get` at a time, as a Worker of `engine.CsvBlocks` serves them."""
    return iter(functools.partial(get, tasks), None)


def drain(tasks):
    return list(queue(tasks))


def test_a_worker_serves_the_tasks_it_is_forked_with_and_replies_once():
    worker = Worker(lambda task: task * 10, [3, 1, 2], [])
    try:
        data = io.BytesIO(worker.replies.read())
    finally:
        worker.close()
    assert pickle.load(data) == ([30, 10, 20], None)
    assert data.read() == b""


def test_a_failing_task_ends_the_share_with_its_traceback():
    def serve(task):
        if task == 2:
            raise ValueError(f"task {task} fails")
        return task

    worker = Worker(serve, range(5), [])
    try:
        results, (exc, tb) = worker.wait()
    finally:
        worker.close()
    assert results == [0, 1]
    assert isinstance(exc, ValueError) and str(exc) == "task 2 fails"
    assert "Traceback (most recent call last)" in tb
    assert 'raise ValueError(f"task {task} fails")' in tb


def test_put_writes_whole_tasks_of_at_most_pipe_buf_bytes(monkeypatch):
    # 1000 tasks, 8000 bytes: two writes of 512 tasks and 488 tasks
    writes = []
    write = os.write

    def recording_write(fd, data):
        writes.append(len(data))
        return write(fd, data)

    tasks, feed = os.pipe()
    try:
        monkeypatch.setattr(os, "write", recording_write)
        assert put(feed, range(1000)) == 1000
        monkeypatch.undo()
        os.close(feed)
        assert drain(tasks) == list(range(1000))
    finally:
        os.close(tasks)
    assert writes == [select.PIPE_BUF, 8000 - select.PIPE_BUF]
    assert all(n % 8 == 0 and n <= select.PIPE_BUF for n in writes)


def test_put_stops_without_raising_when_the_queue_is_full_or_has_no_reader():
    # 20000 tasks, 160000 bytes, more than a pipe holds
    tasks, feed = os.pipe()
    os.set_blocking(feed, False)
    try:
        queued = put(feed, range(20000))
        assert 0 < queued < 20000
        assert [get(tasks) for _ in range(queued)] == list(range(queued))
        os.close(tasks)
        assert put(feed, range(5)) == 0
    finally:
        os.close(feed)


def test_a_reader_takes_one_task_per_read():
    # the worker holds its first task until this process has drained the
    # rest: a buffered read would have taken more than one
    tasks, feed = os.pipe()
    took_r, took_w = os.pipe()
    go_r, go_w = os.pipe()

    def serve(task):
        os.write(took_w, b".")
        os.read(go_r, 1)
        return task

    parent_fds = [feed]
    worker = None
    try:
        worker = Worker(serve, queue(tasks), parent_fds)
        assert put(feed, range(10)) == 10
        parent_fds.remove(feed)
        os.close(feed)
        os.read(took_r, 1)
        here = drain(tasks)
        os.write(go_w, b".")
        assert worker.result() == [0]
    finally:
        if worker is not None:
            worker.close()
        if feed in parent_fds:
            os.close(feed)
        for fd in (tasks, took_r, took_w, go_r, go_w):
            os.close(fd)
    assert here == list(range(1, 10))


@pytest.mark.parametrize("count", [1, 512, 513, 20000])
def test_workers_and_this_process_serve_each_task_once(count):
    # two workers and this process share one queue, as in CsvBlocks.finish:
    # this process queues what the queue takes and serves the next task
    # itself whenever it is full, then closes the write end and drains the
    # queue.  The workers hold their first task until the queue is closed,
    # so 20000 tasks fill it.  A worker that kept the write end open would
    # never see EOF, and neither would this process
    tasks, feed = os.pipe()
    os.set_blocking(feed, False)
    go_r, go_w = os.pipe()
    started = []

    def serve(task):
        if not started:
            started.append(os.read(go_r, 1))
        return task

    parent_fds = [feed]
    workers = []
    here = []
    try:
        for _ in range(2):
            workers.append(Worker(serve, queue(tasks), parent_fds))
        queued = 0
        while queued < count:
            n = put(feed, range(queued, count))
            if not n:
                here.append(queued)
                n = 1
            queued += n
        served_while_full = len(here)
        parent_fds.remove(feed)
        os.close(feed)
        os.write(go_w, b"..")
        here += drain(tasks)
        shares = [here, *(worker.result() for worker in workers)]
    finally:
        for worker in workers:
            worker.close()
        if feed in parent_fds:
            os.close(feed)
        for fd in (tasks, go_r, go_w):
            os.close(fd)
    assert sorted(itertools.chain(*shares)) == list(range(count))
    assert (served_while_full > 0) == (count == 20000)
