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
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from ._forkmap import Worker, usable_cpus
from ._kernels import get_kernel
from .errors import ConfigError
from .protocol import MAX_SENDER_ID, ProtocolKind
from .topology import (Topology, connectivity_layers, edge_list_size, grid_size, line_size,
                       load_topology, make_grid, make_line, read_lines)

RNG_LABELS = {"init-clocks": 0, "links": 1, "noise": 2}

TRACE_CSV_HEADER = "tick,node,estimate,error,activated,frozen"

# Trace CSV rows per writer process, and twice the rows of a block.  A row
# takes about 3 us to format.  A writer is forked once per episode: forking
# it takes about 2 ms, and with the page faults after the fork it costs the
# kernel 3-7%.  Each block is then pickled and sent through the writer's
# pipe, 60-80 us for a block of 2560 rows, under 1% of the 7.7 ms it takes
# to format.  So a writer pays for itself from a few thousand rows, and a
# block is small enough that no CPU idles long on another's last block
# (run-large-csv's 600 ticks of BAF on grid:16x16, in a 38 MB process, on a
# 2-vCPU x86-64 VM with Python 3.11.7).
_CSV_ROWS_PER_WORKER = 5000

# Blocks a writer may hold unacknowledged: the one it formats, and the next,
# so it never waits for this process between two blocks.
_CSV_BLOCKS_PER_WRITER = 2


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
        formatted by `_write_rows`, in blocks of whole ticks (see
        `CsvBlocks`): the `csv_blocks` that `run` was given, whose writers
        took the leading blocks while the kernel ran, or, if there are none
        or they have been closed, new ones.

        `CsvBlocks.finish` hands out the ticks no writer has taken and waits
        for the writers, raising the first failure among them; a failure in
        a writer keeps its type and message, with its traceback text as the
        `WorkerTraceback` cause.  This process then writes the header and
        the blocks in tick order into a new file beside the path (mode as
        umask gives) and renames it onto the path, unlinking it on any
        failure or interrupt; an OSError of this last stage is a ConfigError
        naming the path (`writing_output`).  Each process's extra memory is
        O(block + nodes) whatever the number of ticks.
        """
        head, name = os.path.split(os.fsdecode(path))
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        with contextlib.ExitStack() as stack:
            blocks = self.csv_blocks
            if blocks is None or blocks.writers is None:   # none, or closed
                blocks = stack.enter_context(CsvBlocks())
            segments = blocks.finish(self)
            with writing_output(path):
                out = open(tmp, "xb")
                try:
                    with out:
                        out.write(f"{TRACE_CSV_HEADER}\n".encode())
                        for part, a, b in segments:
                            part.seek(a)
                            out.write(part.read(b - a))
                    os.replace(tmp, path)
                except BaseException:
                    os.unlink(tmp)
                    raise


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


def _format(part, block) -> int:
    """Format `block`, the arguments (start, estimates, activated, frozen,
    delta) of `_write_rows`, at the end of the binary file `part` as UTF-8
    with "\n" line ends; return the offset where its rows end."""
    with open(part.fileno(), "w", encoding="utf-8", newline="\n", closefd=False) as fh:
        _write_rows(fh, *block)
    return os.lseek(part.fileno(), 0, os.SEEK_CUR)


class CsvBlocks:
    """The trace CSV of one episode, formatted in blocks of whole ticks by
    long-lived forked writers and by this process.

    The writers are forked at the first call from the kernel, or in
    `finish` if the kernel did not call: one per spare CPU (usable_cpus() -
    1), and at most one per _CSV_ROWS_PER_WORKER rows of the episode beyond
    the first _CSV_ROWS_PER_WORKER.  Each writer is a `Worker` that formats
    the blocks sent to it with `_format` into its own anonymous temporary
    file, opened before the fork, so a failed or killed writer leaves no file
    behind; this process formats its own blocks with the same `_format`.  A
    block holds about _CSV_ROWS_PER_WORKER // 2 rows, rounded up to whole
    ticks; block b holds ticks [b * ticks, (b + 1) * ticks), whoever formats
    it.

    `run(config, csv_blocks=...)` hands the object to the kernel as its
    writer when there is more than one usable CPU, and the kernel calls it
    whenever every tick before some tick `final` is final.  The call
    completes each next block of final ticks (`_Episode.fill`,
    `_Episode.frozen_rows`) and sends it to the writer with the fewest
    unacknowledged blocks, while that writer has room: no block, or fewer
    than _CSV_BLOCKS_PER_WRITER whose bytes fit its pipe's buffer.  So the
    kernel never waits on a writer.  `finish` hands out the rest the same
    way, formatting a block here whenever no writer has room, so no CPU
    idles while another formats a long share; then it waits for the writers.
    A failure in a writer is raised where this process finds it: at an ack
    or at the wait.

    Use it as a context manager around the run and the `to_csv` call:
    leaving it kills and reaps every writer still running and closes the
    pipes and files, on success, abort and interrupt alike."""

    def __init__(self):
        self.slots = usable_cpus() - 1
        self.ticks = 1         # ticks per block
        self.taken = 0         # ticks [0, taken) are in blocks
        self.writers = None    # forked at the first call or in finish
        self.here = None       # this process's file of blocks
        self.parts = {}        # each writer's file of blocks
        self.order = []        # the file of each block, in tick order
        self.ends = {}         # per file, the end offsets of its blocks
        self.fits = False      # two blocks of the last size sent fit a pipe
        self.capacity = 0      # bytes of a writer's pipe buffer
        self.segments = None   # set by finish

    def _start(self, nodes: int, ticks: int) -> None:
        """Fork the writers of an episode of `ticks` ticks and `nodes` nodes."""
        self.ticks = max(1, -(-(_CSV_ROWS_PER_WORKER // 2) // nodes))
        self.writers = []
        self.here = tempfile.TemporaryFile()
        self.ends = {self.here: []}
        parent_fds = []
        for _ in range(max(0, min(self.slots, ticks * nodes // _CSV_ROWS_PER_WORKER - 1))):
            part = tempfile.TemporaryFile()
            self.ends[part] = []
            writer = Worker(functools.partial(_format, part), parent_fds)
            self.writers.append(writer)
            self.parts[writer] = part
        if self.writers:
            import fcntl    # POSIX only, like os.fork
            self.capacity = fcntl.fcntl(self.writers[0].inbox, fcntl.F_GETPIPE_SZ)

    def _room(self):
        """The writer with the fewest unacknowledged blocks, the first on a
        tie, if it has room for one more; or None."""
        if not self.writers:
            return None
        for writer in self.writers:
            writer.poll()
        writer = min(self.writers, key=lambda writer: writer.unacked)
        if writer.unacked == 0 or writer.unacked < _CSV_BLOCKS_PER_WRITER and self.fits:
            return writer
        return None

    def _send(self, writer: Worker, block) -> None:
        self.fits = _CSV_BLOCKS_PER_WRITER * writer.send(block) <= self.capacity
        self.order.append(self.parts[writer])
        self.taken = block[0] + len(block[1])

    def __call__(self, episode, final: int) -> None:
        if self.writers is None:
            self._start(episode.n, len(episode.est_tr))
        while final - self.taken >= self.ticks:
            writer = self._room()
            if writer is None:
                return
            start, stop = self.taken, self.taken + self.ticks
            episode.fill(stop)
            self._send(writer, (start, episode.est_tr[start:stop], episode.act_tr[start:stop],
                                episode.frozen_rows(start, stop), episode.delta))

    def finish(self, trace: Trace) -> list:
        """Hand out the ticks of `trace` from `taken` on, block by block in
        tick order: to a writer with room, or else formatted here.  Wait for
        every writer; raise the first failure.  Return (file, start, stop)
        of every block's bytes, in tick order."""
        if self.segments is not None:
            return self.segments
        if self.writers is None:
            self._start(trace.node_count, trace.n_ticks)
        while self.taken < trace.n_ticks:
            start, stop = self.taken, min(self.taken + self.ticks, trace.n_ticks)
            block = (start, trace.estimates[start:stop], trace.activated[start:stop],
                     trace.frozen[start:stop], trace.config.delta)
            writer = self._room()
            # a writer takes a block only while it holds fewer ticks than are
            # left after the block, so that it has no backlog at the end
            if writer is not None and writer.unacked * self.ticks < trace.n_ticks - stop:
                self._send(writer, block)
                continue
            self.ends[self.here].append(_format(self.here, block))
            self.order.append(self.here)
            self.taken = stop
        for writer in self.writers:
            writer.send(None)
        for writer in self.writers:
            self.ends[self.parts[writer]] = writer.result()
        spans = {part: iter(zip([0, *ends], ends)) for part, ends in self.ends.items()}
        self.segments = [(part, *next(spans[part])) for part in self.order]
        return self.segments

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for writer in self.writers or []:
            writer.close()
        for part in self.ends:
            part.close()
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
    nodes x its protocol's us per node-tick with perfect links.  It
    estimates the full tick loop: an episode that settles (every node
    frozen, every later link live) replays its cycle and stops sooner, at a
    tick known only by running it."""
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
