"""Tick-loop kernels for the four protocols.

Each kernel simulates one episode, or its ticks up to a settled cycle that
it then replays (see the last shared convention), and returns the complete
per-tick trace.  There is one kernel per protocol, resolved by name with
`get_kernel`.  A kernel holds only its protocol's rules; `_Episode` does the
bookkeeping they share.  tests/array_kernels.py keeps an array-form
formulation of the same loops, and a differential test (tests/test_engine.py)
holds these kernels to it bit for bit.

The kernels record only what changes.  An update writes the node's new
estimate in place into the (ticks, nodes) estimate array, and its activated
and transmitted flags into flat bytearrays; no row is stored per tick.  The
rows between a node's updates are filled from the activated flags, and the
gateway column is written as delta*k, a block of final rows at a time: the
blocks a trace CSV writer queues while the kernel runs (`_Episode.rows`),
then the rest at the end of the episode.

Shared conventions:
  * node 0 is the gateway; its estimate column is delta*k exactly;
  * adjacency is CSR (indptr/indices) with neighbor ids ascending, and
    edge_slot maps each CSR slot to its canonical edge index for link lookup;
  * a broadcast sent at tick k-1 is delivered at tick k over the edges that
    tick k's link realization keeps alive, and counts once in tick k's
    deliveries if any is; `_Episode.outputs` counts them from the transmit
    rows and the link matrix, and the baseline counts none;
  * a broadcast is its sender's state: a message carries only the sender's
    time, status bit and (BAF) hop counter, and none of these changes between
    the send and the next tick's deliveries, so the flooding kernels keep
    only last tick's sender list and read the rest from the sender.  UAF
    alone keeps the values it sent (`sent_val`): a woken node sends its
    pending average, not its estimate, and a cycle commit between the send
    and the delivery can commit it or freeze the node at its dip value;
  * `mal` is the malicious node id (or -1); its advertised time at tick k is
    its estimate biased by noise[k] (the pre-scaled colored-noise stream).
    Without an attacker `noise` may be None: it is read only at `mal`;
  * every node runs one `dip.DipDetector` over its own updates, until it
    fires, and the detector records its fire; with `freeze` set the node
    also rewinds to the window's center sample and stops updating;
  * a kernel raises `EpisodeAborted(k)` when a broadcast of tick k would
    overflow the 4-byte microsecond wire field, or, in BAF, when a hop
    counter it sends would overflow its 2-byte field; its tenth output is -1;
  * a kernel's optional argument `writer` is called with the episode and a
    tick whenever every earlier tick is final (see `_Episode.rows`); it
    reads the episode and changes none of its outputs;
  * a kernel's optional last argument, `decide`, ends a TSAU, UAF or BAF
    episode early, at the first link-row chunk start where its dip metrics
    are decided (`_Episode._decided`), and each output is cut there.  It
    applies only with freezing off, no attacker and no writer; the baseline
    never stops;
  * every average adds its values in CSR neighbor order, the order the
    oracle adds them in, so the two agree bit for bit;
  * settle, cycle, replay, abort: an episode settles when the last
    non-gateway node freezes at a tick k and every link of ticks k+1 on is
    live.  No estimate changes after that and the inputs are constant, so
    only a deterministic control plane is left, and where it is finite it
    becomes periodic.  (BAF's hop counters can climb without bound around a
    cycle of the graph; such an episode never repeats, and runs on tick by
    tick once the search gives up, _CYCLE_SEARCH_TICKS after the settle
    tick, until it ends or a counter overflows.)
    The settled ticks run in the same loop and on the same chunk clock as
    the others (`_Episode.rows`), so a writer keeps being called while the
    episode searches.  After each settled tick the loop compares the
    kernel's control state (`_Episode.control`) plus the tick's transmit
    row with a Brent checkpoint (R. P. Brent, BIT 20, 1980); TSAU's row
    names its slot owner, so TSAU keeps no control state.  At the first
    repeat, with period p, it copies the last p transmit rows over the
    remaining ticks, leaves their activated flags 0 (so `fill` carries the
    frozen estimates forward), raises `EpisodeAborted(t)` at the first
    later tick t where the gateway's or the attacker's broadcast would
    overflow the wire field (every other broadcast repeats a value already
    sent in the cycle), and ends the tick loop.
"""

from __future__ import annotations

import mmap

import numpy as np

from .dip import DipDetector
from .errors import EpisodeAborted
from .protocol import MAX_HOP_COUNTER, WIRE_TIME_MAX_TICKS

WIRE_MAX_MICROS = float(WIRE_TIME_MAX_TICKS)


def get_kernel(name: str):
    """The kernel of protocol `name` ("baseline", "tsau", "uaf" or "baf")."""
    return _KERNELS[name]


# ---------------------------------------------------------------------------
# The kernels keep their state in Python lists and floats, not numpy arrays:
# run by the interpreter, indexing an array and computing on the numpy
# scalar it returns costs several times more per neighbor slot than a list
# item and a float.
# ---------------------------------------------------------------------------

class _Episode:
    """What every kernel shares: the node count `n`, the attacker's noise as
    a list, and per node its CSR neighbors as (neighbor id, edge slot) pairs,
    its estimate, frozen and fired flags and its dip detector; the trace
    buffers and the link matrix; the writer, if any; and the replay of a
    settled episode (see the module docstring).

    The kernels record only what changes.  `est_flat` is a flat view of the
    (ticks, nodes) estimate array `est_tr`, preset with tick 0's row, and a
    kernel writes a node's final value of tick k (after its detector and
    any freeze rewind) at k*N + i, on the ticks that update it.  `act` and
    `tx` are flat `bytearray` flags set at k*N + i (a bytearray item store
    costs about a third of a numpy one); `act_tr` is the (ticks, nodes)
    view of `act`.  `fill` completes the estimate rows and the frozen flags
    `frozen_tr` of finished ticks: those the writer queues while the kernel
    runs, and at episode end, in `outputs`, the rest.  With a writer,
    `est_tr`, `act` and `frozen_tr` live in shared memory, which the
    writer's forked processes read (`engine.CsvBlocks`)."""

    def __init__(self, indptr, indices, edge_slot, link_live, init_est, delta,
                 mal, noise, freeze, writer, decide=False):
        ids = indices.tolist()
        slots = edge_slot.tolist()
        bounds = indptr.tolist()
        self.nbrs = [list(zip(ids[a:b], slots[a:b]))
                     for a, b in zip(bounds, bounds[1:])]
        self.n = n = len(self.nbrs)
        self.mal = mal
        # the attacker's noise as a list, None without an attacker; `rows`
        # extends it a chunk of ticks ahead of the kernel, so a replayed
        # episode never converts the noise of the ticks it does not run
        self.noise_arr = noise
        self.noise = [] if mal >= 0 else None
        self.est = init_est.tolist()
        # the gateway's entry stays 0.0; the kernels broadcast delta*k, and
        # `fill` writes that column
        self.est[0] = 0.0
        self.frozen = [0] * n
        self.fired = [0] * n
        self.detectors = [DipDetector() for _ in range(n)]
        self.freeze = freeze
        self.delta = delta
        T = len(link_live)
        if writer is None:
            self.est_tr = np.zeros((T, n))
            self.act = bytearray(T * n)
            self.frozen_tr = np.zeros((T, n), dtype=np.uint8)
        else:
            # the writer's forked processes read these rows: anonymous
            # shared mappings, which a fork shares rather than copies.  An
            # mmap item store costs about a third more than a bytearray's,
            # so only a run with a writer pays it
            self.est_tr = np.frombuffer(mmap.mmap(-1, 8 * T * n)).reshape(T, n)
            self.act = mmap.mmap(-1, T * n)
            self.frozen_tr = np.frombuffer(mmap.mmap(-1, T * n), dtype=np.uint8).reshape(T, n)
        self.est_tr[0] = self.est
        self.est_flat = memoryview(self.est_tr.reshape(-1))
        self.act_tr = np.frombuffer(self.act, dtype=np.uint8).reshape(T, n)
        self.tx = bytearray(self.est_tr.size)
        self.tx_tr = np.frombuffer(self.tx, dtype=np.uint8).reshape(self.est_tr.shape)
        self.writer = writer
        # rows [0, filled) are complete: forward-filled, gateway column and
        # frozen flags set
        self.filled = 1
        self.link_live = link_live
        self.unfrozen = n - 1
        # the tick at which the episode settled, while `rows` searches for
        # its cycle; None before and once the search gives up
        self.settled = None
        # the kernel's control state after tick k: what, with the transmit
        # row, decides the next ticks once every node is frozen and every
        # link is live.  UAF and BAF set their own before their loops.  The
        # baseline has none, so its period is 1, and TSAU needs none: its
        # transmit row names its slot owner ((k-1) % (N-1)) + 1
        self.control = lambda k: ()
        # the values besides the estimates that an average from tick k on
        # can read, given tick k (see `_decided`).  TSAU and UAF set their
        # own; BAF's averages read only estimates and the gateway's time
        self.held = lambda k: []
        # whether `rows` checks for decided dip metrics at each chunk start:
        # only without an attacker, freezing or a writer, with clocks that
        # start non-negative, where no later tick can overflow the wire
        # field, and where the rounding r = T*(D+6)*2**-53 stays under half
        # the margin (see `_decided`)
        self.deciding = (decide and mal < 0 and not freeze and writer is None
                         and bool(init_est.min() >= 0)
                         and delta * (T - 1) * 1e6 <= WIRE_MAX_MICROS
                         and T * (max(map(len, self.nbrs)) + 6) * 2.0 ** -53
                         < _DECIDED_MARGIN / 2)
        # None until `_decided` sees the bound hold; then the per-node
        # minimum error over rows [0, min_rows)
        self.min_err, self.min_rows = None, 0
        # the tick the episode stopped at, its dip metrics decided, or None
        self.stop = None

    def rows(self, link_live):
        """Rows 1, 2, ... of the (ticks, edges) link matrix as lists of 0/1.
        They are converted a chunk of `step` ticks, at most _ROW_CHUNK
        elements (at least one row), at a time, which costs about half of a
        `tolist` per row.  At a chunk's first tick a every tick before a is
        final: the writer, if any, is called with the episode and a, and the
        attacker's noise list is extended to the chunk's ticks.  So the tick
        loops themselves do no extra work.

        When the episode is `deciding`, the rows end at the first chunk
        start a where its dip metrics are decided, and `stop` is set to a.

        Once `observe` settles the episode at tick s, every later row is all
        live, and each tick k in (s, s + _CYCLE_SEARCH_TICKS], when the
        kernel has run it, takes one step of Brent's cycle search: compare
        k's transmit row and control state with a checkpoint, taken at s and
        moved to k whenever the distance to it reaches the next power of
        two.  At the first repeat the episode replays the cycle and the rows
        end.  The control state is built only when the rows match or the
        checkpoint moves.  The search is bounded: BAF's hop counters can
        climb without bound around a cycle of the graph, and such an episode
        never repeats.  When it gives up, `settled` is cleared, and the rows
        run on to T."""
        T, E = link_live.shape
        step = max(1, _ROW_CHUNK // E)
        n, tx, control, noise = self.n, self.tx, self.control, self.noise
        for a in range(1, T, step):
            if self.deciding and self._decided(a):
                self.stop = a
                return
            if self.writer is not None:
                self.writer(self, a)
            if noise is not None:
                noise += self.noise_arr[len(noise):a + step].tolist()
            for k, live in enumerate(link_live[a:a + step].tolist(), a):
                yield live
                if self.settled is None:
                    continue
                # the checkpoint is taken at the settle tick, the first
                # tick seen here
                row = tx[k * n:(k + 1) * n]
                if k == self.settled:
                    mark_k, mark_row, mark, power = k, row, control(k), 1
                elif row == mark_row and control(k) == mark:
                    self._replay(k + 1, k - mark_k)
                    return
                elif k - mark_k == power:
                    mark_k, mark_row, mark, power = k, row, control(k), 2 * power
                if k - self.settled == _CYCLE_SEARCH_TICKS:
                    self.settled = None

    def _decided(self, a):
        """Whether the dip metrics are decided once ticks [0, a) are final:
        whether `dip_metrics` of the trace cut at a equals that of the full
        trace.  Called only without an attacker, with freezing off, and with
        every value non-negative.

        The bound.  Let H be the largest value held at the end of tick a-1
        that a later average can read: every estimate and each of
        `held(a)`.  When H <= delta*(a-1), every estimate at every tick k >= a
        is at most delta*(k-1)*(1+rho), rho = (1+u)**(D+4) - 1 with
        u = 2**-53 and D the largest degree.  Let Y_k = delta*(k-1)*(1+u)**3
        bound the values an average of tick k reads.  At k = a the held
        values are <= H <= fl(delta*(a-1)) <= delta*(a-1)*(1+u), and a TSAU
        sum s of n terms with fl(s/n) <= H has s/n <= H/(1-u) <=
        H*(1+u)**2; the gateway's broadcast heard at tick k is
        fl(delta*(k-1)).  An average reads at most D+1 non-negative terms,
        each <= Y, and rounds at most D+1 times (its additions and the
        division), so it is <= Y*(1+u)**(D+1) = delta*(k-1)*(1+u)**(D+4).
        That is <= Y_(k+1) while (k-1)*((1+u)**(D+1) - 1) <= 1, which holds
        for T*(D+2)*u <= 1.  So from tick a on the bound holds for good: the
        line climbs by delta a tick, faster than rounding can.  This is
        tested only until it first holds (`min_err` is set then).

        The margin.  The error at tick k >= a, fl(|fl(delta*k) - e|) with
        e <= delta*(k-1)*(1+rho), is then at least delta*(1 - r) with
        r = (T-1)*(u + rho) + u <= T*(D+6)*u.  A node whose minimum error
        over rows [0, a) is at most delta*(1 - _DECIDED_MARGIN) has every
        later error strictly larger, since `deciding` requires
        r < _DECIDED_MARGIN / 2, and the threshold's own rounding, under
        3*u relative, fits the other half: its e_dip, its first argmin and
        the transmissions up to it, so its k_dip, are fixed.  The metrics
        are decided when every non-gateway node is.

        `deciding` also requires fl(delta*(T-1))*1e6 to fit the wire field:
        with no attacker nothing sent exceeds the gateway's time, so no
        later tick can abort.  BAF also requires T-1 <= MAX_HOP_COUNTER."""
        if self.min_err is None:
            if max(self.est + self.held(a)) > self.delta * (a - 1):
                return False
            self.min_err = np.full(self.n - 1, np.inf)
        self.fill(a)
        est, delta = self.est_tr, self.delta
        step = max(1, _FILL_CHUNK // self.n)
        for lo in range(self.min_rows, a, step):
            hi = min(lo + step, a)
            err = np.abs(delta * np.arange(lo, hi)[:, None] - est[lo:hi, 1:])
            np.minimum(self.min_err, err.min(axis=0), out=self.min_err)
        self.min_rows = a
        return bool((self.min_err <= delta * (1 - _DECIDED_MARGIN)).all())

    def _replay(self, start, period):
        """Repeat the transmit rows of ticks [start - period, start) over
        ticks [start, T) in place, a chunk of at most _REPLAY_CHUNK ticks at
        a time, and check each chunk's gateway and attacker broadcasts
        against the wire field."""
        T = len(self.tx_tr)
        a = start
        while a < T:
            # a whole number of periods back, and at least the chunk's length
            shift = (a - start) // period * period + period
            b = min(a + shift, a + _REPLAY_CHUNK, T)
            self.tx_tr[a:b] = self.tx_tr[a - shift:b - shift]
            self._check_wire(a, b)
            a = b

    def _check_wire(self, a, b):
        """Raise EpisodeAborted at the first tick in [a, b) where the gateway
        sends delta*k, or the attacker its frozen estimate plus noise[k], and
        the value overflows the wire field.  The products and sums are the
        kernels' own, so the tick is theirs."""
        over = (self.tx_tr[a:b, 0] == 1) & (self.delta * np.arange(a, b) * 1e6 > WIRE_MAX_MICROS)
        mal = self.mal
        if mal >= 0:
            over |= ((self.tx_tr[a:b, mal] == 1)
                     & ((self.est[mal] + self.noise_arr[a:b]) * 1e6 > WIRE_MAX_MICROS))
        if over.any():
            raise EpisodeAborted(a + int(over.argmax()))

    def observe(self, i, k):
        """Feed node i's new estimate, updated at tick k, to its detector; on
        a fire, flag it and, when freezing, rewind and freeze the node.  The
        last freeze settles the episode if every later link is live, and
        `rows` then searches for its cycle."""
        det = self.detectors[i]
        if det.observe(self.est[i], k):
            self.fired[i] = 1
            if self.freeze:
                self.frozen[i] = 1
                self.est[i] = det.dip_value
                self.unfrozen -= 1
                if not self.unfrozen and self.link_live[k + 1:].all():
                    self.settled = k

    def fill(self, stop):
        """Complete the estimate and frozen rows of the final ticks
        [filled, stop).  A non-gateway estimate changes only on a tick that
        activates the node, so each of its rows is carried forward from the
        node's last activation, or from tick 0: from row filled - 1, which
        is complete; the gateway column is delta*k, the product the kernels
        broadcast.  With freezing on, a node is frozen from the tick its
        detector fired on; a fire at tick k sets only rows k and later, so
        the rows of the final ticks are final."""
        a = self.filled
        if stop > a:
            _forward_fill(self.est_tr[a - 1:stop, 1:], self.act_tr[a - 1:stop, 1:])
            self.est_tr[a:stop, 0] = self.delta * np.arange(a, stop)
            if self.freeze:
                fires = np.array([d.fire_tick if d.fired else stop for d in self.detectors])
                np.greater_equal(np.arange(a, stop)[:, None], fires,
                                 out=self.frozen_tr[a:stop].view(bool))
            self.filled = stop

    def outputs(self, deliveries=True):
        """The kernel's 10-tuple of a finished episode: its estimate rows
        completed by `fill`, and each tick's broadcasts and deliveries
        counted from the transmit rows and the link matrix (see the module
        docstring); with `deliveries` False, as the baseline asks, every
        delivery count is 0.  An episode that stopped at tick `stop` returns
        its rows [0, stop), and its detectors' outputs cover those ticks.
        The tenth output is -1: an overflow raises in the kernel."""
        T = len(self.est_tr) if self.stop is None else self.stop
        self.fill(T)
        tx_tr = self.tx_tr[:T]
        delivered = np.zeros(T, dtype=np.int64)
        if deliveries:
            live = self.link_live[1:T]
            for i, nbrs in enumerate(self.nbrs):
                reach = np.logical_or.reduce(live[:, [slot for _, slot in nbrs]], axis=1)
                delivered[1:] += tx_tr[:-1, i] & reach
        dets = self.detectors
        return (self.est_tr[:T], self.act_tr[:T], self.frozen_tr[:T], tx_tr,
                tx_tr.sum(axis=1, dtype=np.int64), delivered,
                np.array([d.dip_tick for d in dets], dtype=np.int64),
                np.array([d.dip_value for d in dets], dtype=np.float64),
                np.array([d.fire_tick for d in dets], dtype=np.int64),
                np.int64(-1))


# elements per chunk of the forward fill's index temporaries
_FILL_CHUNK = 1 << 14


def _forward_fill(est, act):
    """Carry each column of `est` forward over the rows whose `act` flag is
    0: row k takes the value of the column's last flagged row in 1..k, or of
    row 0, whose flags are not read.  Works in chunks of rows, so its
    temporaries stay small.

    Filling rows [a, b) of a larger array incrementally is a call on its rows
    [a - 1, b), once rows before a are filled: row a - 1 then holds the value
    the whole-array fill carries into row a."""
    T, n = est.shape
    cols = np.arange(n)
    last = np.zeros(n, dtype=np.intp)
    step = max(1, _FILL_CHUNK // n)
    for a in range(1, T, step):
        b = min(a + step, T)
        src = np.where(act[a:b], np.arange(a, b)[:, None], 0)
        np.maximum(src[0], last, out=src[0])
        np.maximum.accumulate(src, axis=0, out=src)
        est[a:b] = est[src, cols]
        last = src[-1]


# elements per chunk of link rows converted to lists
_ROW_CHUNK = 1 << 12

# a node's dip metrics are decided once its minimum error is at most
# delta*(1 - _DECIDED_MARGIN); see `_Episode._decided`
_DECIDED_MARGIN = 1e-9

# ticks per chunk of a replay's copies and wire checks; their temporaries
# take about 50 bytes per tick
_REPLAY_CHUNK = 1 << 12

# ticks after the settle tick that the cycle search runs for.  It finds
# every cycle whose period and lead-in add up to well under this (the
# malicious16 periods are 1, 14, 15 and 24 ticks); a futile search costs
# about 0.3 us per tick on top of the tick itself
_CYCLE_SEARCH_TICKS = 1 << 13


def baseline_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, mal, noise, freeze, writer=None, decide=False,
):
    """Synchronous reference system: every non-gateway node averages its full
    live neighborhood each tick, the gateway contributing its current time.
    Each update counts as one broadcast in `sent`; with no delivery model it
    asks `outputs` for no count, so `delivered` stays 0.  It never stops
    early (`decide` is ignored): its nodes hear delta*k at tick k, above the
    line's last value."""
    ep = _Episode(indptr, indices, edge_slot, link_live, init_est, delta, mal, noise, freeze,
                  writer)
    N, noise = ep.n, ep.noise
    nbrs, est, frozen, fired = ep.nbrs, ep.est, ep.frozen, ep.fired
    est_flat, act, tx = ep.est_flat, ep.act, ep.tx
    for k, live in enumerate(ep.rows(link_live), 1):
        row = k * N
        # what each node hears from j: the tick-start estimates
        heard = est[:]
        if mal >= 0:
            heard[mal] = est[mal] + noise[k]
        heard[0] = delta * k
        for i in range(1, N):
            if frozen[i]:
                continue
            ssum = 0.0
            cnt = 0
            for j, slot in nbrs[i]:
                if live[slot]:
                    ssum += heard[j]
                    cnt += 1
            if cnt:
                est[i] = ssum / cnt
                act[row + i] = 1
                tx[row + i] = 1
                if not fired[i]:
                    ep.observe(i, k)
                est_flat[row + i] = est[i]
    return ep.outputs(deliveries=False)


def tsau_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, mal, noise, freeze, writer=None, decide=False,
):
    """Timed sequential update: one slot owner per tick averages what it heard
    since its last slot (if more than one value) and broadcasts; the gateway
    broadcasts its time once per slot cycle."""
    ep = _Episode(indptr, indices, edge_slot, link_live, init_est, delta, mal, noise, freeze,
                  writer, decide)
    N, noise = ep.n, ep.noise
    nbrs, est, frozen, fired = ep.nbrs, ep.est, ep.frozen, ep.fired
    est_flat, act, tx = ep.est_flat, ep.act, ep.tx
    cyc = N - 1
    acc_sum = [0.0] * N
    acc_n = [0] * N
    # a slot owner's average reads what it has heard so far
    ep.held = lambda k, acc_sum=acc_sum, acc_n=acc_n: [
        s / n for s, n in zip(acc_sum, acc_n) if n]
    # last tick's broadcasts as (sender, value), ascending sender; at tick 0
    # only the gateway speaks
    sends = [(0, 0.0)]
    tx[0] = 1
    for k, live in enumerate(ep.rows(link_live), 1):
        row = k * N
        for b, val in sends:
            for j, slot in nbrs[b]:
                if live[slot] and j != 0:
                    acc_sum[j] += val
                    acc_n[j] += 1
        i = ((k - 1) % cyc) + 1
        if acc_n[i] > 1 and not frozen[i]:
            est[i] = acc_sum[i] / acc_n[i]
            act[row + i] = 1
            if not fired[i]:
                ep.observe(i, k)
            est_flat[row + i] = est[i]
        acc_sum[i] = 0.0
        acc_n[i] = 0
        out = est[i] + noise[k] if i == mal else est[i]
        if out * 1e6 > WIRE_MAX_MICROS:
            raise EpisodeAborted(k)
        sends = [(i, out)]
        if k % cyc == 0:
            gv = delta * k
            if gv * 1e6 > WIRE_MAX_MICROS:
                raise EpisodeAborted(k)
            sends.insert(0, (0, gv))
        for b, _ in sends:
            tx[row + b] = 1
    return ep.outputs()


def uaf_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, mal, noise, freeze, max_layer, writer=None, decide=False,
):
    """Gateway-timed flooding waves.  The gateway re-seeds a wave every
    max_layer+1 ticks with an alternating status bit; an opposite-status
    message wakes a node, which computes the average of its full live
    neighborhood and rebroadcasts.  Computed values commit simultaneously at
    the next cycle boundary, so all estimates step in lockstep."""
    ep = _Episode(indptr, indices, edge_slot, link_live, init_est, delta, mal, noise, freeze,
                  writer, decide)
    N, noise = ep.n, ep.noise
    nbrs, est, frozen, fired = ep.nbrs, ep.est, ep.frozen, ep.fired
    est_flat, act, tx = ep.est_flat, ep.act, ep.tx
    cyc = max_layer + 1
    pend = [0.0] * N
    has_pend = [0] * N
    # per node its status bit, s[0] being the gateway's wave status, and the
    # last value it sent; at tick 0 the gateway seeds wave 0 with status 1
    s = [0] * N
    s[0] = 1
    sent_val = [0.0] * N
    senders = [0]
    tx[0] = 1
    # settled, the wave phase and the status bits are the control state:
    # `sent_val`, `heard` and the pending values and flags feed only unfrozen
    # nodes' averages and commits, and the transmit row stands in for the
    # sender list.  Values are bound as defaults, so the loop's own variables
    # stay plain locals
    ep.control = lambda k, cyc=cyc, s=s: (k % cyc, *s)
    # an average of tick k on reads the pending values yet to commit and
    # the values the non-gateway nodes sent at tick k - 1
    ep.held = lambda k, pend=pend, has_pend=has_pend, sent_val=sent_val, tx=tx, N=N: [
        *(v for v, h in zip(pend, has_pend) if h),
        *(sent_val[b] for b in range(1, N) if tx[(k - 1) * N + b])]
    for k, live in enumerate(ep.rows(link_live), 1):
        row = k * N
        if k % cyc == 0:
            for i in range(1, N):
                if has_pend[i]:
                    if not frozen[i]:
                        est[i] = pend[i]
                        act[row + i] = 1
                        if not fired[i]:
                            ep.observe(i, k)
                        est_flat[row + i] = est[i]
                    has_pend[i] = 0
        # wake-ups: a node wakes when an opposite-status message reaches it
        woken = set()
        for b in senders:
            st = s[b]
            for j, slot in nbrs[b]:
                if live[slot] and j != 0 and s[j] != st:
                    woken.add(j)
        # what a woken node hears from j: j's broadcast, else its standing
        # value; the gateway's standing value is its last broadcast
        heard = est[:]
        heard[0] = sent_val[0]
        if mal >= 0:
            heard[mal] = est[mal] + noise[k - 1]
        for b in senders:
            heard[b] = sent_val[b]
        # this tick's senders: the woken nodes, then the gateway at a cycle start
        senders = []
        for i in sorted(woken):
            s[i] = 1 - s[i]
            if not frozen[i]:
                ssum = 0.0
                cnt = 0
                for j, slot in nbrs[i]:
                    if live[slot]:
                        ssum += heard[j]
                        cnt += 1
                # the node's own estimate joins the average
                pend[i] = (ssum + est[i]) / (cnt + 1)
                has_pend[i] = 1
                outv = pend[i]
            else:
                outv = est[i]
            if i == mal:
                outv = est[i] + noise[k]
            if outv * 1e6 > WIRE_MAX_MICROS:
                raise EpisodeAborted(k)
            senders.append(i)
            sent_val[i] = outv
        # gateway re-seeds at cycle starts with alternating wave status
        if k % cyc == 0:
            gv = delta * k
            if gv * 1e6 > WIRE_MAX_MICROS:
                raise EpisodeAborted(k)
            senders.append(0)
            sent_val[0] = gv
            s[0] = 1 - ((k // cyc) % 2)
        for b in senders:
            tx[row + b] = 1
    return ep.outputs()


def baf_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, mal, noise, freeze, writer=None, decide=False,
):
    """Self-regulating bidirectional flooding.  The gateway advertises its
    clock every tick with status 1.  Triggered nodes update immediately,
    take counter c_j+1, and rebroadcast; a node that, two ticks after its
    own wake-up, has heard only same-status counters smaller than its own
    concludes it is the flood frontier, zeroes its counter, negates its
    status and turns the flood around."""
    # a hop counter sent at tick k is at most k, so none can overflow
    # before tick MAX_HOP_COUNTER + 1
    ep = _Episode(indptr, indices, edge_slot, link_live, init_est, delta, mal, noise, freeze,
                  writer, decide and len(link_live) - 1 <= MAX_HOP_COUNTER)
    N, noise = ep.n, ep.noise
    nbrs, est, frozen, fired = ep.nbrs, ep.est, ep.frozen, ep.fired
    est_flat, act, tx = ep.est_flat, ep.act, ep.tx
    # per node its status bit and hop counter; the gateway's stay 1 and 0
    s = [0] * N
    s[0] = 1
    c = [0] * N
    heard_n = [0] * N
    heard_max = [-1] * N
    last_trig = [-(10 ** 9)] * N
    # at tick 0 the gateway starts the first forward flood
    senders = [0]
    tx[0] = 1

    # settled, the status bits, hop counters and frontier windows are the
    # control state, each in the form the frontier rule reads it: `heard`
    # feeds only unfrozen nodes' averages, and the transmit row stands in
    # for the sender list
    def control(k, s=s, c=c, heard_n=heard_n, heard_max=heard_max, last_trig=last_trig):
        return (*s, *c, *[h > 0 for h in heard_n], *heard_max,
                *[min(k - t, 2) for t in last_trig])

    ep.control = control
    for k, live in enumerate(ep.rows(link_live), 1):
        row = k * N
        # per receiver the count and largest counter of the opposite- and
        # same-status messages it hears
        opp_cnt = [0] * N
        opp_max = [-1] * N
        same_cnt = [0] * N
        same_max = [-1] * N
        for b in senders:
            st = s[b]
            # a protocol-ignorant attacker never maintains the hop counter
            cb = 0 if b == mal else c[b]
            for j, slot in nbrs[b]:
                if live[slot]:
                    if s[j] != st:
                        opp_cnt[j] += 1
                        if cb > opp_max[j]:
                            opp_max[j] = cb
                    else:
                        same_cnt[j] += 1
                        if cb > same_max[j]:
                            same_max[j] = cb
        # what a triggered node hears from j: j's tick-start value, which is
        # what j sent if it sent last tick
        heard = est[:]
        heard[0] = delta * (k - 1)
        if mal >= 0:
            heard[mal] = est[mal] + noise[k - 1]
        # this tick's senders: the gateway, then the triggered and frontier
        # nodes
        senders = [0]
        for i in range(1, N):
            if opp_cnt[i]:
                if not frozen[i]:
                    ssum = 0.0
                    cnt = 0
                    for j, slot in nbrs[i]:
                        if live[slot]:
                            ssum += heard[j]
                            cnt += 1
                    # own estimate joins the average
                    est[i] = (ssum + est[i]) / (cnt + 1)
                    act[row + i] = 1
                    if not fired[i]:
                        ep.observe(i, k)
                    est_flat[row + i] = est[i]
                s[i] = 1 - s[i]
                c[i] = opp_max[i] + 1
                # the wake-up messages open this node's new cycle window
                heard_n[i] = opp_cnt[i]
                heard_max[i] = opp_max[i]
                last_trig[i] = k
            else:
                if same_cnt[i]:
                    heard_n[i] += same_cnt[i]
                    if same_max[i] > heard_max[i]:
                        heard_max[i] = same_max[i]
                # frontier rule: heard only smaller counters since waking up
                if not (heard_n[i] > 0 and c[i] > heard_max[i]
                        and k - last_trig[i] >= 2):
                    continue
                c[i] = 0
                s[i] = 1 - s[i]
                heard_n[i] = 0
                heard_max[i] = -1
            outv = est[i] + noise[k] if i == mal else est[i]
            if outv * 1e6 > WIRE_MAX_MICROS:
                raise EpisodeAborted(k)
            senders.append(i)
        if delta * k * 1e6 > WIRE_MAX_MICROS:
            raise EpisodeAborted(k)
        # a counter sent at tick k is at most k, so none overflows its field
        # before tick MAX_HOP_COUNTER + 1; the attacker sends 0
        if k > MAX_HOP_COUNTER and max(c[b] for b in senders if b != mal) > MAX_HOP_COUNTER:
            raise EpisodeAborted(k, "hop counter", 2)
        for b in senders:
            tx[row + b] = 1
    return ep.outputs()


_KERNELS = {
    "baseline": baseline_kernel,
    "tsau": tsau_kernel,
    "uaf": uaf_kernel,
    "baf": baf_kernel,
}
