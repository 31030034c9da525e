"""Deterministic tick-driven simulation engine.

One `run` realizes the switched system: per tick it samples the link
realization, delivers the previous tick's broadcasts, applies the protocol
transitions of the activated nodes, feeds each updated node's estimate to its
dip detector (freezing the node at a dip when `freeze_on_dip` is set), and
records a trace row.  Identical config and seed give a
bit-identical trace.

Randomness is split into three named sub-streams derived from the master
seed: "init-clocks" (label 0) draws the initial node clocks in node-id order,
"links" (label 1) draws one Bernoulli value per edge per tick (tick-major,
canonical edge order), and "noise" (label 2) feeds the malicious node's
colored-noise series.  A sub-stream for label m is
``numpy.random.default_rng(numpy.random.SeedSequence([seed, m]))``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from ._forkmap import Child, failure_of, fork_map, reraise, usable_cpus
from ._kernels import get_kernel
from .errors import ConfigError
from .protocol import ProtocolKind
from .topology import (Topology, connectivity_layers, edge_list_size, grid_size, line_size,
                       load_topology, make_grid, make_line, read_lines)

RNG_LABELS = {"init-clocks": 0, "links": 1, "noise": 2}

TRACE_CSV_HEADER = "tick,node,estimate,error,activated,frozen"

# Trace CSV rows per writer process.  A row takes about 3 us to format.  A
# forked writer that formats nothing takes 3-10 ms from fork to reap
# (temporary file, fork, child exit, reap, copy back; median of 30, 6.5 and
# 9.5 ms in two runs), of which os.fork() itself returns in 0.5-1 ms: in a
# 38 MB process that has just run 600 ticks of BAF on grid:16x16, on a
# 2-vCPU x86-64 VM with Python 3.11.7.  So a fork pays for itself from about
# 2000-3000 rows; this leaves a margin.
_CSV_ROWS_PER_WORKER = 5000

# A block of the trace CSV that a writer takes while the kernel runs holds at
# least _CSV_ROWS_PER_WORKER rows, or 1/_CSV_BLOCK_GROWTH of the rows already
# taken if that is more, and at most _CSV_BLOCK_MAX_FACTOR times that least.
# An uncapped block grows to all the rows the kernel made while the last
# writer ran, and the last block then lags the kernel.  Blocks that do not
# grow make the forks as many as the ticks, and each fork stalls the kernel
# for longer the larger this process is; growing blocks make them
# O(_CSV_BLOCK_GROWTH * log(ticks)).  Blocks grow only once
# _CSV_BLOCK_GROWTH * _CSV_ROWS_PER_WORKER rows are taken: with a growth of
# 8, the larger last blocks of a 600-tick BAF run on grid:16x16 (153600
# rows) lagged the kernel: perfbench's run-large-csv wall_s read a median
# 0.418 s against 0.385 s with 32 (4 runs each, 2-vCPU x86-64 VM).
_CSV_BLOCK_MAX_FACTOR = 2
_CSV_BLOCK_GROWTH = 32


@contextlib.contextmanager
def writing_output(path):
    """Raise an OSError from creating or writing the output `path` as a
    ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write output: {exc.strerror}") from exc


def substream(seed: int, label: str) -> np.random.Generator:
    """Named RNG sub-stream; see module docstring for the labels."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), RNG_LABELS[label]]))


@dataclass(frozen=True)
class SimConfig:
    topology: Topology
    protocol: ProtocolKind
    delta: float = 0.001
    max_ticks: int = 4000
    link_p: float = 1.0
    malicious: bool = False
    seed: int = 0
    freeze_on_dip: bool = True


@dataclass
class Trace:
    """Per-tick, per-node record of one episode."""

    estimates: np.ndarray          # (ticks, nodes) float64
    activated: np.ndarray          # (ticks, nodes) uint8
    frozen: np.ndarray             # (ticks, nodes) uint8
    transmitted: np.ndarray        # (ticks, nodes) uint8: node broadcast this tick
    messages_sent: np.ndarray      # (ticks,) broadcasts emitted per tick
    messages_delivered: np.ndarray  # (ticks,) broadcasts that reached >=1 node;
    #   always 0 for the baseline, which has no delivery model
    dip_tick: np.ndarray           # (nodes,) detector's dip tick, -1 if none
    dip_value: np.ndarray          # (nodes,) frozen estimate value
    dip_fire_tick: np.ndarray      # (nodes,) tick the detector fired, -1 if none
    config: SimConfig
    # the CSV blocks formatted while the kernel ran, if `run` was given them
    csv_blocks: CsvBlocks | None = None

    @property
    def n_ticks(self) -> int:
        return self.estimates.shape[0]

    @property
    def node_count(self) -> int:
        return self.estimates.shape[1]

    @property
    def gateway_times(self) -> np.ndarray:
        """The gateway's time at every tick k, the product delta*k (no
        running sum, so no error accumulates)."""
        return self.config.delta * np.arange(self.n_ticks)

    @property
    def errors(self) -> np.ndarray:
        return np.abs(self.gateway_times[:, None] - self.estimates)

    def to_csv(self, path) -> None:
        """Write "tick,node,estimate,error,activated,frozen" rows to the file
        at `path`, all or nothing.

        Floats are written as the `repr` of the Python float (shortest
        round-trip digits), flags as integers; the bytes equal those of
        formatting every (tick, node) row on its own.  Every row is
        formatted by `_write_rows`.

        The ticks that `csv_blocks` holds, [0, taken), were given to forked
        writers while the kernel ran (see `CsvBlocks`).  The rest are split
        into contiguous ranges of equal length: one per usable CPU, and at
        most one per _CSV_ROWS_PER_WORKER rows, so a smaller remainder is
        written here alone.  `fork_map` runs the ranges, this process taking
        the first, and each worker formats its range into its own anonymous
        temporary file, opened before the fork, so a failed or killed child
        leaves no file behind; a failure is raised here as `fork_map` raises
        it.  This process then waits for the block writers, raising the
        first failure among them the same way, writes the header, the blocks
        and the ranges in order into a new file beside the path (mode as
        umask gives) and renames it onto the path, unlinking it on any
        failure or interrupt; an OSError of this last stage is a ConfigError
        naming the path (`writing_output`).  Each process's extra memory is
        O(nodes + copy buffer) whatever the number of ticks.
        """
        blocks = self.csv_blocks
        start = blocks.taken if blocks else 0
        ticks = self.n_ticks - start
        workers = max(1, min(usable_cpus(), ticks * self.node_count // _CSV_ROWS_PER_WORKER))
        bounds = [start + ticks * w // workers for w in range(workers + 1)]
        head, name = os.path.split(os.fsdecode(path))
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        with contextlib.ExitStack() as stack:
            parts = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(workers)]

            def write_range(w):
                with _text(parts[w]) as part:
                    self._write_ticks(part, bounds[w], bounds[w + 1])

            fork_map(write_range, range(workers), workers)
            if blocks:
                parts[:0] = blocks.wait()
            with writing_output(path):
                out = open(tmp, "xb")
                try:
                    with out:
                        out.write(f"{TRACE_CSV_HEADER}\n".encode())
                        for part in parts:
                            part.seek(0)
                            shutil.copyfileobj(part, out)
                    os.replace(tmp, path)
                except BaseException:
                    os.unlink(tmp)
                    raise

    def _write_ticks(self, fh, start: int, stop: int) -> None:
        """The CSV rows of ticks [start, stop)."""
        _write_rows(fh, start, self.estimates[start:stop], self.activated[start:stop],
                    self.frozen[start:stop], self.config.delta)


def _text(part):
    """A UTF-8 text stream with "\n" line ends onto the binary file `part`,
    which stays open when the stream is closed."""
    return open(part.fileno(), "w", encoding="utf-8", newline="\n", closefd=False)


def _write_rows(fh, start: int, estimates, activated, frozen, delta: float) -> None:
    """The trace CSV rows of ticks start, start + 1, ..., whose estimates,
    activated and frozen flags are the rows of these (ticks, nodes) arrays,
    one write call per tick.  The gateway's time at tick k is the product
    delta*k of `Trace.gateway_times`."""
    gw = delta * np.arange(start, start + len(estimates))
    node_cols = [f",{i}," for i in range(estimates.shape[1])]
    for k, g, est, act, frz in zip(range(start, start + len(estimates)), gw, estimates,
                                   activated, frozen):
        tick = str(k)
        fh.write("".join([
            f"{tick}{node}{e!r},{x!r},{a},{f}\n"
            for node, e, x, a, f in zip(
                node_cols, est.tolist(), np.abs(g - est).tolist(), act.tolist(),
                frz.tolist())
        ]))


class CsvBlocks:
    """The leading ticks of one episode's trace CSV, formatted by forked
    writers while the kernel runs, on the CPUs the kernel leaves idle.

    `run(config, csv_blocks=...)` hands the object to the kernel as its
    writer when there is more than one usable CPU.  The kernel calls it
    whenever every tick before some tick `final` is final.  The call first
    reaps, without blocking, the writers that have ended ahead of every
    running one, and appends each one's block to `merged`, one temporary
    file of the blocks [0, ...) in tick order, closing the block's own file.
    Then, when fewer than usable_cpus() - 1 blocks are pending and enough
    rows are untaken (see _CSV_BLOCK_GROWTH), it completes the next block of
    final rows and forks a writer that formats it with `_write_rows` into an
    anonymous temporary file.  So at most usable_cpus() block files are
    open, however long the episode.  `Trace.to_csv` writes the remaining
    ticks and waits for the writers (`wait`).  A failure in a writer is
    raised where the writer is reaped, with its type, message and the
    `WorkerTraceback` cause.

    Use it as a context manager around the run and the `to_csv` call:
    leaving it kills and reaps every writer still running and closes the
    blocks' files, on success, abort and interrupt alike."""

    def __init__(self):
        self.slots = usable_cpus() - 1
        self.taken = 0       # ticks [0, taken) are in the blocks
        self.merged = None   # the blocks of the reaped writers, in tick order
        self.pending = []    # (file, writer) of the other blocks, in tick order

    def __call__(self, episode, final: int) -> None:
        self._merge(block=False)
        n, start = episode.n, self.taken
        least = max(_CSV_ROWS_PER_WORKER, start * n // _CSV_BLOCK_GROWTH)
        if len(self.pending) >= self.slots or (final - start) * n < least:
            return
        stop = min(final, start + max(1, _CSV_BLOCK_MAX_FACTOR * least // n))
        episode.fill(stop)
        block = (start, episode.est_tr[start:stop], episode.act_tr[start:stop],
                 episode.frozen_rows(start, stop), episode.delta)
        if self.merged is None:
            self.merged = tempfile.TemporaryFile()
        part = tempfile.TemporaryFile()

        def write_block():
            with _text(part) as fh:
                _write_rows(fh, *block)

        self.pending.append((part, Child(lambda: failure_of(write_block))))
        self.taken = stop

    def _merge(self, block: bool) -> None:
        """Reap the leading pending writers, those that have ended or, if
        `block`, all of them; append their blocks to `merged`.  Raise the
        first failure."""
        while self.pending and (block or self.pending[0][1].ended()):
            part, writer = self.pending[0]
            failure = writer.wait((RuntimeError(
                f"CSV writer process {writer.pid} ended without a result"), ""))
            del self.pending[0]
            with part:
                if failure:
                    reraise(*failure)
                part.seek(0)
                shutil.copyfileobj(part, self.merged)

    def wait(self) -> list:
        """Wait for every writer; raise the first failure.  Return the files
        that hold ticks [0, taken), in order."""
        self._merge(block=True)
        return [self.merged] if self.merged else []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for part, writer in self.pending:
            writer.kill()
            part.close()
        if self.merged:
            self.merged.close()
        self.taken, self.merged, self.pending = 0, None, []


def _episode_bytes(ticks: int, node_count: int, edge_count: int) -> int:
    """Bytes of the link matrix and trace arrays of an episode: per tick a
    uint8 link row, and per node the float64 estimate and the activated,
    frozen and transmitted flags of the trace."""
    return ticks * (edge_count + 11 * node_count)


def episode_bytes(config: SimConfig) -> int:
    """The `_episode_bytes` of `config`'s episode."""
    topo = config.topology
    return _episode_bytes(config.max_ticks, topo.node_count, len(topo.edges))


# Kernel time in us per node-tick with perfect links, interpreted path: the
# whole kernel call on grid16, 16000 ticks, seed 1, best of 3, on a 2-vCPU
# x86-64 VM with Python 3.11.7 and numpy 2.4.6 (the p = 1 column of the
# kernel table in ROADMAP.md).  Only the ratios matter: `episode_cost` orders
# episodes for `fork_map`'s longest-first plan.
_US_PER_NODE_TICK = {
    ProtocolKind.SYNC_BASELINE: 0.51,
    ProtocolKind.TSAU: 0.10,
    ProtocolKind.UAF: 0.21,
    ProtocolKind.BAF: 0.32,
}


def episode_cost(config: SimConfig) -> float:
    """The estimated kernel time of `config`'s episode in us: max_ticks x
    nodes x its protocol's us per node-tick with perfect links."""
    return (config.max_ticks * config.topology.node_count
            * _US_PER_NODE_TICK[config.protocol])


def physical_memory() -> int:
    """Bytes of physical memory, as `os.sysconf` reports them."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fits(ticks: int, node_count: int, edge_count: int) -> None:
    """Raise a ConfigError naming max_ticks when an episode of `ticks` ticks
    on a graph of these counts needs more than physical memory."""
    need = _episode_bytes(ticks, node_count, edge_count)
    memory = physical_memory()
    if need > memory:
        raise ConfigError(f"max_ticks {ticks} needs {need / 2**30:.1f} GiB for "
                          f"the link matrix and trace, more than the "
                          f"{memory / 2**30:.1f} GiB of physical memory")


def _validate(config: SimConfig) -> int:
    if config.max_ticks < 1:
        raise ConfigError("max_ticks must be >= 1")
    if not 0.0 < config.delta < np.inf:
        raise ConfigError(f"delta must be positive and finite, got {config.delta!r}")
    if not 0.0 <= config.link_p <= 1.0:
        raise ConfigError(f"link_p {config.link_p} outside [0, 1]")
    if config.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {config.seed}")
    topo = config.topology
    if topo.node_count < 2:
        raise ConfigError("need at least one non-gateway node")
    _check_fits(config.max_ticks, topo.node_count, len(topo.edges))
    return max(connectivity_layers(topo))  # raises if disconnected


def _csr(topo: Topology):
    indptr = np.zeros(topo.node_count + 1, dtype=np.int64)
    idx = []
    eidx = topo.edge_index()
    slots = []
    for i in range(topo.node_count):
        for j in topo.neighbors[i]:
            idx.append(j)
            slots.append(eidx[(min(i, j), max(i, j))])
        indptr[i + 1] = len(idx)
    return indptr, np.array(idx, dtype=np.int64), np.array(slots, dtype=np.int64)


# float64 draws per chunk of the link matrix
_LINK_CHUNK = 1 << 16


def _draw_links(rng: np.random.Generator, ticks: int, n_edges: int,
               link_p: float) -> np.ndarray:
    """The (ticks, n_edges) uint8 link matrix: 1 where `rng.random()` < link_p,
    drawn tick-major.  It is filled a chunk of rows at a time; consecutive
    `Generator.random` calls continue one stream, so the matrix equals
    ``(rng.random((ticks, n_edges)) < link_p)`` while its float temporaries
    hold about _LINK_CHUNK values (at least one row)."""
    link_live = np.empty((ticks, n_edges), dtype=np.uint8)
    step = max(1, _LINK_CHUNK // n_edges)
    for a in range(0, ticks, step):
        b = min(a + step, ticks)
        np.less(rng.random((b - a, n_edges)), link_p, out=link_live[a:b])
    return link_live


def kernel_inputs(config: SimConfig) -> tuple[str, tuple]:
    """Validate `config` and draw its random inputs; return the kernel name
    and the argument tuple that `run` passes to that kernel: (indptr,
    indices, edge_slot, link_live, init_est, delta, mal, noise,
    freeze_on_dip), plus max_layer for UAF."""
    max_layer = _validate(config)
    topo = config.topology
    n = topo.node_count
    ticks = config.max_ticks

    init_rng = substream(config.seed, "init-clocks")
    init_est = np.zeros(n)
    init_est[1:] = init_rng.random(n - 1)

    n_edges = len(topo.edges)
    if config.link_p >= 1.0:
        link_live = np.ones((ticks, n_edges), dtype=np.uint8)
    else:
        link_live = _draw_links(substream(config.seed, "links"), ticks, n_edges,
                               config.link_p)

    if config.malicious:
        mal = noise_mod.malicious_node(topo)
        # the attacker biases its advertised clock by a stealth-scaled colored
        # noise stream: unit-variance process scaled to the tick quantum
        noise = config.delta * noise_mod.generate(
            max(ticks, 2), substream(config.seed, "noise"))[:ticks]
    else:
        mal, noise = -1, None

    indptr, indices, edge_slot = _csr(topo)
    args = (indptr, indices, edge_slot, link_live, init_est,
            float(config.delta), mal, noise, config.freeze_on_dip)
    if config.protocol is ProtocolKind.UAF:
        args += (max_layer,)
    return config.protocol.value, args


def run(config: SimConfig, csv_blocks: CsvBlocks | None = None) -> Trace:
    """Simulate one episode; deterministic in (config, seed).  With
    `csv_blocks` and more than one usable CPU, forked writers format the
    leading blocks of the trace CSV while the kernel runs, and the trace
    keeps them for `Trace.to_csv`; see `CsvBlocks`."""
    name, args = kernel_inputs(config)
    if csv_blocks is not None and csv_blocks.slots > 0:
        args += (csv_blocks,)
    # the kernel's first nine outputs come in Trace's field order
    return Trace(*get_kernel(name)(*args)[:9], config=config, csv_blocks=csv_blocks)


# ---------------------------------------------------------------------------
# Config-file ingestion ("key = value" lines mirroring SimConfig field names)
# ---------------------------------------------------------------------------

def topology_from_spec(spec: str, max_ticks: int) -> Topology:
    """Parse a topology spec string: grid:RxC, line:N, edgelist:PATH.  The
    graph's node and edge counts are checked against physical memory for an
    episode of `max_ticks` ticks before the graph is built."""
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    kind = kind.lower()
    if kind == "grid":
        r, _, c = rest.lower().partition("x")
        try:
            rows, cols = int(r), int(c)
        except ValueError:
            raise ConfigError(f"grid spec must be grid:RxC, got {spec!r}") from None
        _check_fits(max_ticks, *grid_size(rows, cols))
        return make_grid(rows, cols)
    if kind == "line":
        try:
            n = int(rest)
        except ValueError:
            raise ConfigError(f"line spec must be line:N, got {spec!r}") from None
        _check_fits(max_ticks, *line_size(n))
        return make_line(n)
    if kind == "edgelist":
        if not rest:
            raise ConfigError(f"edgelist spec must be edgelist:PATH, got {spec!r}")
        _check_fits(max_ticks, *edge_list_size(rest))
        return load_topology(rest)
    raise ConfigError(f"unknown topology spec {spec!r}")


def _parser(convert, what: str):
    """A parser of one outside value: `parse(key, raw)` returns
    `convert(raw)`, or raises a ConfigError naming `key` when that fails."""
    def parse(key, raw):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{key} must be {what}, got {raw!r}") from None
    return parse


parse_int = _parser(int, "an integer")
_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# how a config value is parsed, by the type of its SimConfig field; the
# topology is parsed apart, after max_ticks
_PARSERS = {
    "ProtocolKind": lambda key, raw: ProtocolKind.parse(str(raw)),
    "float": _parser(float, "a number"),
    "int": parse_int,
    "bool": _parser(lambda raw: _BOOL[str(raw).strip().lower()], "a boolean"),
}


def config_from_mapping(fields: dict) -> SimConfig:
    """Build a SimConfig from string key/value pairs named after its fields
    (unknown keys rejected); an absent key takes the field's default.  The
    topology comes last, so that its size is checked against max_ticks before
    its graph is built."""
    params = dataclasses.fields(SimConfig)
    unknown = set(fields) - {f.name for f in params}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {f.name for f in params if f.default is dataclasses.MISSING} - set(fields)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    values = {f.name: _PARSERS[f.type](f.name, fields[f.name])
              for f in params if f.name in fields and f.name != "topology"}
    topology = topology_from_spec(str(fields["topology"]),
                                  values.get("max_ticks", SimConfig.max_ticks))
    return SimConfig(topology=topology, **values)


def parse_keyvalue_file(path) -> dict:
    """Read "key = value" lines; '#' starts a comment.  A key set twice
    raises ConfigError naming the line of its second setting."""
    fields = {}
    for lineno, raw in enumerate(read_lines(path, "spec"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        fields[key] = value.strip()
    return fields


def current_backend() -> str:
    """The name of the kernel implementation: always "pure" (the list-based
    kernels in `_kernels.py`).  Kept for the `kernel_backend` line of a run's
    manifest.txt and for tools that record it."""
    return "pure"
