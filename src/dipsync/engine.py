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
import functools
import itertools
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from ._forkmap import Worker, get, put, usable_cpus
from ._kernels import get_kernel
from .errors import ConfigError
from .protocol import MAX_SENDER_ID, ProtocolKind
from .topology import (Topology, connectivity_layers, edge_list_size, grid_size, line_size,
                       load_topology, make_grid, make_line, read_lines)

RNG_LABELS = {"init-clocks": 0, "links": 1, "noise": 2}

TRACE_CSV_HEADER = "tick,node,estimate,error,activated,frozen"

# Trace CSV rows per writer process, and twice the rows of a block.  A row
# takes about 0.9 us to format where 7% of the estimates repeat the row
# above's (run-large-csv's 600 ticks of BAF on grid:16x16), and about
# 0.6 us where 80-89% do (the bundled grid:4x4 specs); tests/test_engine.py's
# test_estimate_repeat_shares_match_the_readme pins both.  A writer is forked
# once per episode: forking it takes 0.5-1.2 ms, and with the page faults
# after the fork it costs the kernel 3-7%.  Each block is then queued as
# its 8-byte number, about 2 us to put and take, and its rows are read
# where they lie, in shared memory, against the 2.3 ms it takes to format
# a block of 2560 rows.  So a writer pays for itself from a few thousand
# rows, and a block is small enough that no CPU idles long on another's
# last block (run-large-csv, in a 39 MB process, on a 2-vCPU x86-64 VM with
# Python 3.11.7).
_CSV_ROWS_PER_WORKER = 5000


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
    """Per-tick, per-node record of one episode: of its `max_ticks` ticks,
    or of fewer when `run(..., until_decided=True)` ended it once its dip
    metrics were decided.  The detector outputs (dip_tick, dip_value,
    dip_fire_tick) cover the `n_ticks` ticks simulated."""

    estimates: np.ndarray          # (ticks, nodes) float64
    activated: np.ndarray          # (ticks, nodes) uint8, 0 or 1
    frozen: np.ndarray             # (ticks, nodes) uint8, 0 or 1
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
        at `path`, all or nothing: the bytes of formatting every (tick, node)
        row on its own, floats as the `repr` of the Python float (shortest
        round-trip digits) and flags as integers.  An OSError from creating
        or writing the file is raised as a ConfigError naming the path.
        The call takes the trace's `csv_blocks` (see `CsvBlocks`), so a
        later call formats the rows afresh."""
        blocks, self.csv_blocks = self.csv_blocks, None
        if blocks is not None and blocks.writers is not None:
            blocks.write(self, path)
        else:
            with CsvBlocks() as blocks:
                blocks.write(self, path)


# The ",activated,frozen" end of a trace CSV row, indexed by 2*activated + frozen.
_ROW_TAILS = np.array([",0,0\n", ",0,1\n", ",1,0\n", ",1,1\n"], dtype=object)


def _write_rows(fh, start: int, estimates, activated, frozen, delta: float) -> None:
    """The trace CSV rows of ticks start, start + 1, ..., whose estimates,
    activated and frozen flags (0 or 1) are the rows of these (ticks, nodes)
    arrays, one write call per tick.  The gateway's time at tick k is the
    product delta*k of `Trace.gateway_times`.

    Each float is written as its `repr`, but an estimate whose float64
    bits equal the row above's in these arrays reuses that row's text:
    `repr` runs once per run of equal bits down a column, starting afresh
    on the first row.  The bits, unlike the activated flags, tell -0.0 from
    0.0 and catch a value that changes on a row not flagged active, as a
    trace built by hand can have.  The error moves with the gateway's time,
    so it is formatted on every row."""
    ticks, n = estimates.shape
    new = np.empty((ticks, n), dtype=bool)
    new[:1] = True
    bits = estimates.view(np.uint64)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    texts = np.array(list(map(repr, estimates[new].tolist())), dtype=object)
    # each entry's index into texts: its own where new, else the row above's.
    # The indices grow in row-major order, so a running maximum down each
    # column of the new ones, 0 elsewhere, carries them
    idx = np.cumsum(new).reshape(ticks, n)
    idx -= 1
    idx *= new
    np.maximum.accumulate(idx, axis=0, out=idx)
    errors = np.abs(delta * np.arange(start, start + ticks)[:, None] - estimates)
    node_cols = [f",{i}," for i in range(n)]
    for k, est, err, tails in zip(range(start, start + ticks), texts[idx].tolist(),
                                  errors.tolist(),
                                  _ROW_TAILS[2 * activated + frozen].tolist()):
        tick = str(k)
        fh.write("".join([
            f"{tick}{node}{e},{x!r}{tail}"
            for node, e, x, tail in zip(node_cols, est, err, tails)
        ]))


class CsvBlocks:
    """The trace CSV of one episode, formatted in blocks of whole ticks by
    long-lived forked writers and by this process, which all take block
    numbers from one queue, and written to its path by `write`.

    A block holds about _CSV_ROWS_PER_WORKER // 2 rows, rounded up to whole
    ticks: block b holds ticks [b * ticks, (b + 1) * ticks).  Whoever takes
    block b formats it with `_format`, reading its rows straight from the
    trace's arrays, at the end of a file of its own: file 0 is this
    process's, file i the i-th writer's (an anonymous temporary file opened
    before the fork, so a failed or killed writer leaves none behind).
    `_format` returns the block's span (b, i, start, stop), where its bytes
    lie in file i.

    The writers are forked at the first call from the kernel, or in
    `finish` if the kernel did not call: one per spare CPU (usable_cpus() -
    1), and at most one per _CSV_ROWS_PER_WORKER rows of the episode beyond
    the first _CSV_ROWS_PER_WORKER.  The queue is a pipe of block numbers
    (`_forkmap.put`, `_forkmap.get`) that the writers and this process
    read.  A kernel given a writer keeps the trace's arrays in shared memory
    (`_Episode`), so the writers see the rows it completes after the fork.
    Without a writer there is no queue, and `finish` formats every block
    here.

    `run(config, csv_blocks=...)` hands the object to the kernel as its
    writer when there is more than one usable CPU, and the kernel calls it
    with the episode and a tick `final` once rows [0, final) are complete.
    The call queues every whole block of those rows through the queue's
    non-blocking write end, taking only what the queue accepts, so the
    kernel never waits on a writer.  `finish` queues the rest the same way,
    formatting the next block here whenever the queue is full; then it
    closes the write end, formats what is left in the queue here, and waits
    for the writers, raising the first failure among them: a writer's keeps
    its type and message, with its traceback text as the `WorkerTraceback`
    cause.  `write` copies the header and the blocks in tick order into a
    new file beside the path (mode as umask gives) and renames it onto the
    path, unlinking it on any failure or interrupt.  Each process's extra
    memory is O(block + nodes) whatever the number of ticks.

    Use it as a context manager around the run and the `to_csv` call:
    leaving it kills and reaps every writer still running and closes the
    pipe and files, on success, abort and interrupt alike."""

    def __init__(self):
        self.slots = usable_cpus() - 1
        self.ticks = 1         # ticks per block
        self.queued = 0        # blocks [0, queued) are queued
        self.writers = None    # forked at the first call or in finish
        self.rows = None       # the (estimates, activated, frozen, delta) of the trace
        self.files = []        # this process's file of blocks, then each writer's
        self.tasks = self.feed = None   # the queue's read and write ends

    def _start(self, rows) -> None:
        """Fork the writers of the trace whose (estimates, activated,
        frozen, delta) are `rows`."""
        self.rows = rows
        ticks, nodes = rows[0].shape
        self.ticks = max(1, -(-(_CSV_ROWS_PER_WORKER // 2) // nodes))
        self.writers = []
        self.files.append(tempfile.TemporaryFile())
        writers = max(0, min(self.slots, ticks * nodes // _CSV_ROWS_PER_WORKER - 1))
        if writers:     # POSIX only, like os.fork
            self.tasks, self.feed = os.pipe()
            os.set_blocking(self.feed, False)
        parent_fds = [self.feed]
        for i in range(1, writers + 1):
            self.files.append(tempfile.TemporaryFile())
            self.writers.append(Worker(functools.partial(self._format, i),
                                       iter(functools.partial(get, self.tasks), None),
                                       parent_fds))

    def _format(self, i, b) -> tuple:
        """Format block b at the end of file i as UTF-8 with "\n" line ends;
        return its span (b, i, start, stop)."""
        estimates, activated, frozen, delta = self.rows
        a, z = b * self.ticks, (b + 1) * self.ticks
        fd = self.files[i].fileno()
        start = os.lseek(fd, 0, os.SEEK_CUR)
        with open(fd, "w", encoding="utf-8", newline="\n", closefd=False) as fh:
            _write_rows(fh, a, estimates[a:z], activated[a:z], frozen[a:z], delta)
        return b, i, start, os.lseek(fd, 0, os.SEEK_CUR)

    def __call__(self, episode, final: int) -> None:
        if self.writers is None:
            self._start((episode.est_tr, episode.act_tr, episode.frozen_tr, episode.delta))
        if self.writers:
            self.queued += put(self.feed, range(self.queued, final // self.ticks))

    def finish(self, trace: Trace) -> list:
        """Queue the blocks of `trace` from `queued` on, formatting the next
        one here whenever the queue is full; close the queue's write end and
        format the blocks left in it here.  Wait for every writer; raise the
        first failure among them.  Return every block's span, in tick
        order."""
        if self.writers is None:
            self._start((trace.estimates, trace.activated, trace.frozen, trace.config.delta))
        here = functools.partial(self._format, 0)
        spans = []
        blocks = -(-trace.n_ticks // self.ticks)
        while self.queued < blocks:
            queued = put(self.feed, range(self.queued, blocks)) if self.writers else 0
            if not queued:
                spans.append(here(self.queued))
                queued = 1
            self.queued += queued
        if self.writers:
            feed, self.feed = self.feed, None
            os.close(feed)
            spans += map(here, iter(functools.partial(get, self.tasks), None))
        return sorted(itertools.chain(spans, *(w.result() for w in self.writers)))

    def write(self, trace: Trace, path) -> None:
        """`finish` the blocks of `trace` and write the header and the
        blocks, in tick order, to `path`, all or nothing (see the class
        docstring); an OSError from creating, writing or renaming the new
        file is a ConfigError naming the path (`writing_output`)."""
        spans = self.finish(trace)
        head, name = os.path.split(os.fsdecode(path))
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        with writing_output(path):
            out = open(tmp, "xb")
            try:
                with out:
                    out.write(f"{TRACE_CSV_HEADER}\n".encode())
                    for _, i, start, stop in spans:
                        part = self.files[i]
                        part.seek(start)
                        out.write(part.read(stop - start))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for writer in self.writers or []:
            writer.close()
        for part in self.files:
            part.close()
        for fd in (self.tasks, self.feed):
            if fd is not None:
                os.close(fd)
        self.__init__()


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
# whole kernel call on grid16, 16000 ticks, seed 1, freeze_on_dip False (so
# every tick runs the loop, with no settled replay), best of 3, on a 2-vCPU
# x86-64 VM with Python 3.11.7 and numpy 2.4.6.  A later re-measurement,
# recorded in CHANGES.md, gave other figures in the same order.  Only the
# ratios matter: `episode_cost` orders episodes for `fork_map`'s
# longest-first plan.
_US_PER_NODE_TICK = {
    ProtocolKind.SYNC_BASELINE: 0.51,
    ProtocolKind.TSAU: 0.10,
    ProtocolKind.UAF: 0.21,
    ProtocolKind.BAF: 0.32,
}


def episode_cost(config: SimConfig) -> float:
    """The estimated kernel time of `config`'s episode in us: max_ticks x
    nodes x its protocol's us per node-tick with perfect links.  It
    estimates the full tick loop, so it overestimates an episode that
    settles (every node frozen, every later link live), which replays its
    cycle, and one that `run(..., until_decided=True)` ends once its dip
    metrics are decided: both stop sooner, at a tick known only by running
    them."""
    return (config.max_ticks * config.topology.node_count
            * _US_PER_NODE_TICK[config.protocol])


def physical_memory() -> int:
    """Bytes of physical memory, as `os.sysconf` reports them."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fits(ticks: int, node_count: int, edge_count: int) -> None:
    """Raise a ConfigError naming max_ticks when an episode of `ticks` ticks
    on a graph of these counts needs more than physical memory, or one
    naming the sender id when a node id does not fit its 2-byte field."""
    need = _episode_bytes(ticks, node_count, edge_count)
    memory = physical_memory()
    if need > memory:
        raise ConfigError(f"max_ticks {ticks} needs {need / 2**30:.1f} GiB for "
                          f"the link matrix and trace, more than the "
                          f"{memory / 2**30:.1f} GiB of physical memory")
    if node_count > MAX_SENDER_ID + 1:
        raise ConfigError(f"{node_count} nodes: node ids above {MAX_SENDER_ID} do not fit "
                          f"the 2-byte sender id field")


def _validate(config: SimConfig) -> tuple[int, ...]:
    """Raise a ConfigError for a config no episode can run; return each
    node's hop layer (`connectivity_layers`)."""
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
    return connectivity_layers(topo)  # raises if disconnected


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
    and the argument tuple that `run` passes to that kernel, the same for
    every protocol: (indptr, indices, edge_slot, link_live, init_est, delta,
    mal, noise, freeze_on_dip, layers)."""
    layers = _validate(config)
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
    return config.protocol.value, (indptr, indices, edge_slot, link_live, init_est,
                                   float(config.delta), mal, noise, config.freeze_on_dip,
                                   layers)


def run(config: SimConfig, csv_blocks: CsvBlocks | None = None,
        until_decided: bool = False) -> Trace:
    """Simulate one episode; deterministic in (config, seed).  With
    `csv_blocks` and more than one usable CPU, forked writers format the
    leading blocks of the trace CSV while the kernel runs, and the trace
    keeps them for `Trace.to_csv`; see `CsvBlocks`.

    By default the trace has `max_ticks` rows.  With `until_decided`, a
    TSAU, UAF or BAF episode with freezing off and no attacker ends at the
    first link-row chunk start where its dip metrics are decided (see
    `_kernels._Episode._decided`), and the trace holds the ticks before it:
    `n_ticks` can then be less than `max_ticks`, the detector outputs
    cover only those ticks, and `dip_metrics` equals the full trace's bit
    for bit.  An episode with a CSV writer never stops."""
    name, args = kernel_inputs(config)
    if csv_blocks is not None and csv_blocks.slots > 0:
        args += (csv_blocks,)
    elif until_decided:
        args += (None, True)
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
