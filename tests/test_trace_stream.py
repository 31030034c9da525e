"""`dipsync run` streams its trace CSV: forked writers format blocks of final
ticks while the kernel runs (`engine.CsvBlocks`), and `Trace.to_csv` writes
the rest.  These tests hold the streamed file to the per-row oracle, bound
its forks and its open files, and check that no writer and no file
outlives a run that ends in success, an abort, an interrupt or a writer's
failure.  `sweep-links`, `compare` and library calls of `engine.run`
stream nothing.
"""

import io
import os
import resource
import signal
import tempfile
import time

import pytest

import dipsync._forkmap as forkmap
import dipsync._kernels as kernels
import dipsync.cli as cli
import dipsync.engine as engine
from dipsync._forkmap import WorkerTraceback
from test_cli import assert_no_child_left, run_cli, use_cpus, write_spec
from test_engine import _per_row_csv, count_forks

PROTOCOLS = ["baseline", "tsau", "uaf", "baf"]


@pytest.fixture
def small_blocks(monkeypatch):
    """A hook at every tick of a grid:4x4 run (24 edges), and blocks of 5 to
    10 ticks (80 to 160 rows of 16 nodes)."""
    monkeypatch.setattr(kernels, "_ROW_CHUNK", 24)
    monkeypatch.setattr(engine, "_CSV_ROWS_PER_WORKER", 80)


def record_blocks(monkeypatch):
    """The tick ranges the writers of every run take, in order."""
    blocks = []
    call = engine.CsvBlocks.__call__

    def recording_call(self, episode, final):
        start = self.taken
        call(self, episode, final)
        if self.taken > start:
            blocks.append((start, self.taken))

    monkeypatch.setattr(engine.CsvBlocks, "__call__", recording_call)
    return blocks


def frozen_spec(tmp_path, protocol):
    # seed 1 at link_p 0.75: with 5-tick blocks every protocol has a fire on
    # the first tick of a block, on its last and inside it
    return write_spec(tmp_path, protocol=protocol, topology="grid:4x4", max_ticks="400",
                      seed="1", link_p="0.75", freeze_on_dip="true")


def per_row_bytes(spec):
    want = io.StringIO()
    _per_row_csv(engine.run(cli.load_spec(spec).config), want)
    return want.getvalue().encode()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_streamed_trace_csv_matches_per_row_writer(protocol, cpus, small_blocks, tmp_path,
                                                   capfd, monkeypatch):
    # the writers' writes to file descriptors 1 and 2 would show in capfd
    spec = frozen_spec(tmp_path, protocol)
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, cpus)
    blocks = record_blocks(monkeypatch)
    forks = count_forks(monkeypatch)
    assert run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capfd)[:2] == (
        0, f"wrote {tmp_path / 'o'}/trace*.csv, metrics.csv, manifest.txt\n")
    assert (tmp_path / "o" / "trace.csv").read_bytes() == want
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")
    # one fork per block, and at most cpus - 1 for the rest of the ticks
    assert len(blocks) <= len(forks) <= len(blocks) + cpus - 1
    assert len(blocks) <= 400 * 16 // engine._CSV_ROWS_PER_WORKER
    if cpus == 1:
        assert forks == []
    else:
        assert blocks[0] == (0, 5)
        assert all(least_rows(a) <= (b - a) * 16 <= 2 * least_rows(a) for a, b in blocks)
        assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))


def least_rows(start):
    """The fewest rows of a block of 16-node ticks from tick `start`."""
    return max(engine._CSV_ROWS_PER_WORKER, start * 16 // engine._CSV_BLOCK_GROWTH)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_streamed_frozen_column_is_final_at_block_boundaries(protocol, small_blocks, tmp_path,
                                                            capfd, monkeypatch):
    # a writer found running is waited for, so every hook with 5 untaken
    # ticks forks the next block; blocks that do not grow are ticks [0, 5),
    # [5, 10), ...
    spec = frozen_spec(tmp_path, protocol)
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(engine, "_CSV_BLOCK_GROWTH", 10**9)
    monkeypatch.setattr(forkmap.Child, "ended", lambda self: True)
    blocks = record_blocks(monkeypatch)
    assert run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capfd)[0] == 0
    assert (tmp_path / "o" / "trace.csv").read_bytes() == want
    assert_no_child_left()
    assert blocks == [(a, a + 5) for a in range(0, 395, 5)]
    fires = engine.run(cli.load_spec(spec).config).dip_fire_tick[1:]
    assert {"first", "inside", "last"} <= {
        ["first", "inside", "inside", "inside", "last"][f % 5] for f in fires if f > 0}


def test_streamed_blocks_grow_with_the_rows_taken(small_blocks, tmp_path, monkeypatch):
    # with every writer waited for at the next hook, each block is the least
    # one: 5 ticks until tick 40, then 1/8 of the ticks taken, rounded up
    spec = write_spec(tmp_path, protocol="tsau", topology="grid:4x4", max_ticks="4000",
                      seed="1", link_p="0.75")
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(engine, "_CSV_BLOCK_GROWTH", 8)
    monkeypatch.setattr(forkmap.Child, "ended", lambda self: True)
    blocks = record_blocks(monkeypatch)
    assert cli.main(["run", str(spec), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "trace.csv").read_bytes() == want
    assert_no_child_left()
    least = []
    a = 0
    while a + -(-least_rows(a) // 16) < 4000:
        least.append((a, a - (-least_rows(a) // 16)))
        a = least[-1][1]
    assert blocks == least
    # blocks of 5 ticks would be 799 forks
    assert len(blocks) == 46


def test_streamed_run_keeps_few_block_files_open(small_blocks, tmp_path, monkeypatch):
    # 200 blocks of 5 ticks stream, each writer waited for at the next hook,
    # while this process may open only 32 files more than it holds now: each
    # reaped block is appended to one file
    spec = write_spec(tmp_path, protocol="baf", topology="grid:4x4", max_ticks="1000",
                      seed="1", link_p="0.75")
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(engine, "_CSV_BLOCK_GROWTH", 10**9)
    monkeypatch.setattr(forkmap.Child, "ended", lambda self: True)
    blocks = record_blocks(monkeypatch)
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (len(os.listdir("/proc/self/fd")) + 32, hard))
    try:
        code = cli.main(["run", str(spec), "--out", str(tmp_path / "o")])
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert code == 0
    assert len(blocks) == 199
    assert (tmp_path / "o" / "trace.csv").read_bytes() == want
    assert_no_child_left()


def test_streamed_trace_csv_waits_for_its_writers(small_blocks, tmp_path, monkeypatch):
    # the two block writers, of ticks [0, 10), are still formatting when the
    # rest of the ticks is written
    spec = frozen_spec(tmp_path, "tsau")
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, 3)
    write_rows = engine._write_rows

    def slow_write_rows(fh, start, *rows):
        if start < 10:
            time.sleep(0.2)
        write_rows(fh, start, *rows)

    monkeypatch.setattr(engine, "_write_rows", slow_write_rows)
    blocks = record_blocks(monkeypatch)
    assert cli.main(["run", str(spec), "--out", str(tmp_path / "o")]) == 0
    assert blocks == [(0, 5), (5, 10)]
    assert (tmp_path / "o" / "trace.csv").read_bytes() == want
    assert_no_child_left()


def test_streamed_run_that_aborts_leaves_nothing(tmp_path, capsys, monkeypatch):
    # a delta of 10 s: the gateway's 4-byte microsecond field overflows at
    # tick 430, after 110080 rows, so writers have forked
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    spec = write_spec(tmp_path, protocol="baf", topology="grid:16x16", delta="10",
                      max_ticks="1000")
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    code, out, err = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: episode aborted at tick 430: ")
    assert forks
    assert_no_child_left()
    assert not (tmp_path / "o").exists()
    assert os.listdir(temp) == []


def test_streamed_run_kills_its_writers_when_interrupted(small_blocks, tmp_path,
                                                        monkeypatch):
    # the writers sleep; the kernel is interrupted once two are running
    spec = frozen_spec(tmp_path, "baf")
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(engine, "_write_rows", lambda *args: time.sleep(60))
    call = engine.CsvBlocks.__call__

    def interrupting_call(self, episode, final):
        call(self, episode, final)
        if len(self.pending) == 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(engine.CsvBlocks, "__call__", interrupting_call)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", str(spec), "--out", str(tmp_path / "o")])
    assert time.monotonic() - start < 30
    assert_no_child_left()
    assert not (tmp_path / "o").exists()


def test_streamed_run_kills_its_writers_when_interrupted_while_waiting(
        small_blocks, tmp_path, monkeypatch):
    # the two block writers, of ticks [0, 10), sleep; this process is
    # interrupted while it waits for them in to_csv
    spec = frozen_spec(tmp_path, "baf")
    use_cpus(monkeypatch, 3)
    write_rows = engine._write_rows

    def sleeping_write_rows(fh, start, *rows):
        if start < 10:
            time.sleep(60)
        write_rows(fh, start, *rows)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "_write_rows", sleeping_write_rows)
    handler = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["run", str(spec), "--out", str(tmp_path / "o")])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert time.monotonic() - start < 30
    assert_no_child_left()
    assert os.listdir(tmp_path / "o") == []


def test_streamed_run_raises_a_writer_error_with_its_traceback(small_blocks, tmp_path,
                                                              capfd, monkeypatch):
    # the writer of the block from tick 0 fails; the path keeps what it held
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    out = tmp_path / "o"
    out.mkdir()
    (out / "trace.csv").write_bytes(b"old\n")
    spec = frozen_spec(tmp_path, "baf")
    use_cpus(monkeypatch, 2)
    write_rows = engine._write_rows

    def failing_write_rows(fh, start, *rows):
        if start == 0:
            raise ValueError("block from tick 0 fails")
        write_rows(fh, start, *rows)

    monkeypatch.setattr(engine, "_write_rows", failing_write_rows)
    with pytest.raises(ValueError, match="^block from tick 0 fails$") as exc:
        cli.main(["run", str(spec), "--out", str(out)])
    assert isinstance(exc.value.__cause__, WorkerTraceback)
    assert "in failing_write_rows" in str(exc.value.__cause__)
    assert_no_child_left()
    assert os.listdir(out) == ["trace.csv"]
    assert (out / "trace.csv").read_bytes() == b"old\n"
    assert os.listdir(temp) == []
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("args", [
    ["sweep-links", "--protocol", "baf", "--p", "0.75", "0.5", "--repeats", "1",
     "--ticks", "400"],
    ["compare", "--scenario", "malicious16", "--ticks", "400"],
], ids=["sweep", "compare"])
def test_episode_maps_stream_no_trace_csv(args, small_blocks, capsys, monkeypatch):
    # each fork is one of fork_map's workers: one child on 2 CPUs
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert run_cli(args, capsys)[0] == 0
    assert len(forks) == 1
    assert_no_child_left()


def test_library_run_streams_nothing_and_writes_the_streamed_bytes(small_blocks, tmp_path,
                                                                  capsys, monkeypatch):
    spec = frozen_spec(tmp_path, "uaf")
    use_cpus(monkeypatch, 2)
    blocks = record_blocks(monkeypatch)
    assert run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)[0] == 0
    assert blocks
    forks = count_forks(monkeypatch)
    trace = engine.run(cli.load_spec(spec).config)
    assert forks == [] and trace.csv_blocks is None
    trace.to_csv(tmp_path / "lib.csv")
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "o" / "trace.csv").read_bytes()
    assert_no_child_left()
