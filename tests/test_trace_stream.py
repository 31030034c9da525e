"""`dipsync run` streams its trace CSV: long-lived forked writers format
blocks of final ticks while the kernel runs (`engine.CsvBlocks`), and
`Trace.to_csv` hands out the rest.  These tests hold the streamed file to
the per-row oracle, bound its forks, its open files and the kernel's wait
on the writers, and check that no writer and no file outlives a run that
ends in success, an abort, an interrupt or a writer's failure.
`sweep-links`, `compare` and library calls of `engine.run` stream nothing.
"""

import io
import os
import resource
import signal
import tempfile
import time
import tracemalloc

import pytest

import dipsync._kernels as kernels
import dipsync.cli as cli
import dipsync.engine as engine
from dipsync._forkmap import WorkerTraceback
from dipsync.protocol import ProtocolKind
from dipsync.topology import make_grid
from test_cli import assert_no_child_left, run_cli, use_cpus, write_spec
from test_engine import _per_row_csv, count_forks

PROTOCOLS = ["baseline", "tsau", "uaf", "baf"]


@pytest.fixture(autouse=True)
def no_leftovers():
    """Fail a test that leaves a child process, or more open file
    descriptors than it started with: each writer adds three pipe ends and
    a file."""
    fds = len(os.listdir("/proc/self/fd"))
    yield
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) <= fds


@pytest.fixture
def small_blocks(monkeypatch):
    """A hook at every tick of a grid:4x4 run (24 edges), and blocks of 5
    ticks (80 rows of 16 nodes)."""
    monkeypatch.setattr(kernels, "_ROW_CHUNK", 24)
    monkeypatch.setattr(engine, "_CSV_ROWS_PER_WORKER", 160)


def record_blocks(monkeypatch):
    """The tick ranges that each call from the kernel hands to the writers,
    in order."""
    blocks = []
    call = engine.CsvBlocks.__call__

    def recording_call(self, episode, final):
        start = self.taken
        call(self, episode, final)
        if self.taken > start:
            blocks.append((start, self.taken))

    monkeypatch.setattr(engine.CsvBlocks, "__call__", recording_call)
    return blocks


def every_block_to_the_first_writer(monkeypatch):
    """Give every block to writer 0, however many it holds, so each call
    from the kernel sends every whole block of final ticks."""
    monkeypatch.setattr(engine.CsvBlocks, "_room",
                        lambda self: self.writers[0] if self.writers else None)


def in_writers(fn):
    """`_write_rows` that runs `fn(start)` first in a writer process only."""
    here = os.getpid()
    write_rows = engine._write_rows

    def write_rows_in_writers(fh, start, *rows):
        if os.getpid() != here:
            fn(start)
        write_rows(fh, start, *rows)

    return write_rows_in_writers


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
    assert capfd.readouterr() == ("", "")
    # one writer per spare CPU; the kernel hands out whole 5-tick blocks in
    # tick order from tick 0
    assert len(forks) == cpus - 1
    if cpus == 1:
        assert blocks == []
    else:
        assert blocks[0][0] == 0
        assert all((b - a) % 5 == 0 for a, b in blocks)
        assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("ticks", [400, 4000])
def test_streamed_run_forks_one_writer_per_spare_cpu(ticks, cpus, small_blocks, tmp_path,
                                                    monkeypatch):
    # 80 and 800 blocks of 5 ticks, and to_csv forks nothing more
    config = cli.load_spec(write_spec(tmp_path, protocol="tsau", topology="grid:4x4",
                                      max_ticks=str(ticks), seed="1", link_p="0.75")).config
    want = io.StringIO()
    _per_row_csv(engine.run(config), want)
    use_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    with engine.CsvBlocks() as blocks:
        trace = engine.run(config, csv_blocks=blocks)
        assert len(forks) == cpus - 1
        trace.to_csv(tmp_path / "trace.csv")
        assert len(forks) == cpus - 1
    assert (tmp_path / "trace.csv").read_bytes() == want.getvalue().encode()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_streamed_frozen_column_is_final_at_block_boundaries(protocol, small_blocks, tmp_path,
                                                            capfd, monkeypatch):
    # every call from the kernel sends each whole block of final ticks, so
    # the kernel takes ticks [0, 5), [5, 10), ..., [390, 395)
    spec = frozen_spec(tmp_path, protocol)
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, 2)
    every_block_to_the_first_writer(monkeypatch)
    blocks = record_blocks(monkeypatch)
    assert run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capfd)[0] == 0
    assert (tmp_path / "o" / "trace.csv").read_bytes() == want
    assert blocks == [(a, a + 5) for a in range(0, 395, 5)]
    fires = engine.run(cli.load_spec(spec).config).dip_fire_tick[1:]
    assert {"first", "inside", "last"} <= {
        ["first", "inside", "inside", "inside", "last"][f % 5] for f in fires if f > 0}


def test_streamed_run_keeps_few_block_files_open(small_blocks, tmp_path, monkeypatch):
    # 200 blocks of 5 ticks stream, 199 of them while the kernel runs, while
    # this process may open only 32 files more than it holds now: the blocks
    # share their writer's file
    spec = write_spec(tmp_path, protocol="baf", topology="grid:4x4", max_ticks="1000",
                      seed="1", link_p="0.75")
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, 3)
    every_block_to_the_first_writer(monkeypatch)
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


def test_the_kernel_never_waits_on_a_busy_writer(small_blocks, tmp_path, monkeypatch):
    # the writer sleeps 0.5 s per block: the kernel sends it two blocks and
    # formats nothing more while it runs; to_csv formats the rest here
    spec = frozen_spec(tmp_path, "baf")
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(engine, "_write_rows", in_writers(lambda start: time.sleep(0.5)))
    with engine.CsvBlocks() as blocks:
        start = time.monotonic()
        trace = engine.run(cli.load_spec(spec).config, csv_blocks=blocks)
        assert time.monotonic() - start < 1
        assert blocks.taken == 10
        trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == want


def test_streamed_to_csv_memory_is_bounded(tmp_path, monkeypatch):
    # the benchmark's large trace, streamed: 600 ticks x 256 nodes, a 7.7 MB
    # file, within test_engine.test_to_csv_memory_is_bounded's bound
    config = engine.SimConfig(topology=make_grid(16, 16), protocol=ProtocolKind.BAF,
                              max_ticks=600, seed=1, link_p=0.75)
    use_cpus(monkeypatch, 2)
    with engine.CsvBlocks() as blocks:
        trace = engine.run(config, csv_blocks=blocks)
        assert blocks.taken > 0
        tracemalloc.start()
        try:
            trace.to_csv(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "trace.csv").stat().st_size > 7_000_000
    assert peak < 4_000_000


def test_streamed_trace_csv_waits_for_its_writers(small_blocks, tmp_path, monkeypatch):
    # the two writers' first blocks, ticks [0, 5) and [5, 10), are still
    # being formatted when this process has written the rest
    spec = frozen_spec(tmp_path, "tsau")
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(engine, "_write_rows",
                        in_writers(lambda start: time.sleep(0.2 if start < 10 else 0)))
    blocks = record_blocks(monkeypatch)
    assert cli.main(["run", str(spec), "--out", str(tmp_path / "o")]) == 0
    assert blocks[:2] == [(0, 5), (5, 10)]
    assert (tmp_path / "o" / "trace.csv").read_bytes() == want


def test_streamed_run_that_aborts_leaves_nothing(tmp_path, capsys, monkeypatch):
    # a delta of 10 s: the gateway's 4-byte microsecond field overflows at
    # tick 430, after 110080 rows, so the writer has forked
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
    assert len(forks) == 1
    assert not (tmp_path / "o").exists()
    assert os.listdir(temp) == []


def test_streamed_run_kills_its_writers_when_interrupted(small_blocks, tmp_path,
                                                        monkeypatch):
    # the writers sleep; the kernel is interrupted once each holds a block
    spec = frozen_spec(tmp_path, "baf")
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(engine, "_write_rows", lambda *args: time.sleep(60))
    call = engine.CsvBlocks.__call__

    def interrupting_call(self, episode, final):
        call(self, episode, final)
        if self.taken == 10:
            raise KeyboardInterrupt

    monkeypatch.setattr(engine.CsvBlocks, "__call__", interrupting_call)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", str(spec), "--out", str(tmp_path / "o")])
    assert time.monotonic() - start < 30
    assert not (tmp_path / "o").exists()


def test_streamed_run_kills_its_writers_when_interrupted_while_waiting(
        small_blocks, tmp_path, monkeypatch):
    # the two writers' first blocks, ticks [0, 5) and [5, 10), sleep; this
    # process is interrupted while it waits for them in to_csv
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
    assert os.listdir(out) == ["trace.csv"]
    assert (out / "trace.csv").read_bytes() == b"old\n"
    assert os.listdir(temp) == []
    assert capfd.readouterr() == ("", "")


def test_streamed_run_raises_when_a_writer_ends_without_a_result(small_blocks, tmp_path,
                                                                  capfd, monkeypatch):
    # the writer ends at its first block; no output file is left
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    spec = frozen_spec(tmp_path, "baf")
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(engine, "_write_rows", in_writers(lambda start: os._exit(1)))
    with pytest.raises(RuntimeError, match=r"process \d+ ended without a result$"):
        cli.main(["run", str(spec), "--out", str(tmp_path / "o")])
    assert list(tmp_path.glob("o/*")) == []
    assert os.listdir(temp) == []
    assert capfd.readouterr() == ("", "")


def test_to_csv_after_its_blocks_are_closed_starts_its_own_writers(small_blocks, tmp_path,
                                                                    monkeypatch):
    spec = frozen_spec(tmp_path, "tsau")
    want = per_row_bytes(spec)
    use_cpus(monkeypatch, 2)
    with engine.CsvBlocks() as blocks:
        trace = engine.run(cli.load_spec(spec).config, csv_blocks=blocks)
        assert blocks.taken > 0
    trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == want


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
