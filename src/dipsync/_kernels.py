"""Tick-loop kernels for the four protocols.

Each kernel simulates one full episode and returns the complete per-tick
trace.  There are two implementations of every protocol:

  * the compiled kernels (`*_kernel`, numba `@njit` loops over flat numpy
    arrays), which run on the "numba" backend;
  * the interpreted kernels (`_pure_*`, loops over Python lists and floats),
    which run on the "pure" backend: when numba is missing or
    DIPSYNC_NO_NUMBA=1 is set.

The interpreted kernels are their own code, not the compiled source run
without the compiler.  They perform the same floating-point operations in
the same order, and a differential test (tests/test_engine.py) pins them bit
for bit to the compiled source run as plain Python (numba's `py_func`), so
traces are equal across backends.

Shared conventions:
  * node 0 is the gateway; its estimate row is delta*k exactly;
  * adjacency is CSR (indptr/indices) with neighbor ids ascending, and
    edge_slot maps each CSR slot to its canonical edge index for link lookup;
  * a broadcast sent at tick k-1 is delivered at tick k over the edges that
    tick k's link realization keeps alive;
  * `mal` is the malicious node id (or -1); its advertised time at tick k is
    its estimate biased by noise[k] (the pre-scaled colored-noise stream);
  * dip_mode 0 disables dip detection, 1 observes only (the detector's dip
    tick/value are recorded but updates continue), 2 freezes: on a zero
    crossing the node rewinds to the window's center sample and stops
    updating;
  * kernels return abort_tick >= 0 when a broadcast would overflow the 4-byte
    microsecond wire field; the caller raises.
"""

from __future__ import annotations

import os

import numpy as np

NUMBA_AVAILABLE = False
try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


WIRE_MAX_MICROS = 4294967295.0


def backend_name() -> str:
    if NUMBA_AVAILABLE and os.environ.get("DIPSYNC_NO_NUMBA", "") not in ("1", "true", "yes"):
        return "numba"
    return "pure"


def get_kernel(name: str):
    """Resolve a kernel by protocol name honoring the DIPSYNC_NO_NUMBA flag:
    the compiled loop on the numba backend, its interpreted twin otherwise."""
    if backend_name() == "pure":
        return _PURE_KERNELS[name]
    return _KERNELS[name]


@njit(cache=True)
def _observe_dip(
    i, tick, val, warmup,
    win_t, win_v, win_n, nout, yprev,
    fired, frozen, dip_tick, dip_val, fire_tick, est, do_freeze,
):
    # push (tick, val) into node i's 7-sample window
    n = win_n[i]
    if n < 7:
        win_t[i, n] = tick
        win_v[i, n] = val
        win_n[i] = n + 1
    else:
        for m in range(6):
            win_t[i, m] = win_t[i, m + 1]
            win_v[i, m] = win_v[i, m + 1]
        win_t[i, 6] = tick
        win_v[i, 6] = val
    if win_n[i] < 7:
        return
    # paired evaluation: exactly zero on constant windows
    y = (0.2 * (win_v[i, 6] - win_v[i, 0])
         + 0.5 * (win_v[i, 5] - win_v[i, 1])
         + 0.2 * (win_v[i, 4] - win_v[i, 2]))
    nout[i] += 1
    crossed = False
    if nout[i] > warmup:
        if y == 0.0 or y * yprev[i] < 0.0:
            crossed = True
    yprev[i] = y
    if crossed:
        fired[i] = 1
        dip_tick[i] = win_t[i, 3]
        dip_val[i] = win_v[i, 3]
        fire_tick[i] = tick
        if do_freeze == 1:
            frozen[i] = 1
            est[i] = win_v[i, 3]


@njit(cache=True)
def baseline_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, max_ticks, mal, noise, dip_mode, warmup,
):
    """Synchronous reference system: every non-gateway node averages its full
    live neighborhood each tick, the gateway contributing its current time.
    Each update counts as one broadcast in `sent`; `delivered` stays 0, as the
    baseline has no delivery model."""
    N = indptr.shape[0] - 1
    T = max_ticks
    est = init_est.copy()
    est[0] = 0.0
    est_tr = np.zeros((T, N))
    act_tr = np.zeros((T, N), dtype=np.uint8)
    frz_tr = np.zeros((T, N), dtype=np.uint8)
    tx_tr = np.zeros((T, N), dtype=np.uint8)
    sent = np.zeros(T, dtype=np.int64)
    delivered = np.zeros(T, dtype=np.int64)
    win_t = np.zeros((N, 7), dtype=np.int64)
    win_v = np.zeros((N, 7))
    win_n = np.zeros(N, dtype=np.int64)
    nout = np.zeros(N, dtype=np.int64)
    yprev = np.zeros(N)
    fired = np.zeros(N, dtype=np.uint8)
    frozen = np.zeros(N, dtype=np.uint8)
    dip_tick = np.full(N, -1, dtype=np.int64)
    dip_val = np.zeros(N)
    fire_tick = np.full(N, -1, dtype=np.int64)
    prev = est.copy()
    for i in range(N):
        est_tr[0, i] = est[i]
    for k in range(1, T):
        for i in range(N):
            prev[i] = est[i]
        gw_now = delta * k
        est[0] = gw_now
        for i in range(1, N):
            if frozen[i] == 1:
                continue
            ssum = 0.0
            cnt = 0
            for p in range(indptr[i], indptr[i + 1]):
                j = indices[p]
                if link_live[k, edge_slot[p]] == 0:
                    continue
                if j == 0:
                    v = gw_now
                elif j == mal:
                    v = prev[j] + noise[k]
                else:
                    v = prev[j]
                ssum += v
                cnt += 1
            if cnt > 0:
                est[i] = ssum / cnt
                act_tr[k, i] = 1
                tx_tr[k, i] = 1
                sent[k] += 1
                if dip_mode >= 1 and fired[i] == 0:
                    _observe_dip(i, k, est[i], warmup, win_t, win_v, win_n,
                                 nout, yprev, fired, frozen, dip_tick, dip_val,
                                 fire_tick, est, np.uint8(1 if dip_mode == 2 else 0))
        for i in range(N):
            est_tr[k, i] = est[i]
            frz_tr[k, i] = frozen[i]
    return est_tr, act_tr, frz_tr, tx_tr, sent, delivered, dip_tick, dip_val, fire_tick, np.int64(-1)


@njit(cache=True)
def tsau_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, max_ticks, mal, noise, dip_mode, warmup,
):
    """Timed sequential update: one slot owner per tick averages what it heard
    since its last slot (if more than one value) and broadcasts; the gateway
    broadcasts its time once per slot cycle."""
    N = indptr.shape[0] - 1
    T = max_ticks
    cyc = N - 1
    est = init_est.copy()
    est[0] = 0.0
    acc_sum = np.zeros(N)
    acc_n = np.zeros(N, dtype=np.int64)
    b_flag = np.zeros(N, dtype=np.uint8)
    b_val = np.zeros(N)
    nb_flag = np.zeros(N, dtype=np.uint8)
    nb_val = np.zeros(N)
    est_tr = np.zeros((T, N))
    act_tr = np.zeros((T, N), dtype=np.uint8)
    frz_tr = np.zeros((T, N), dtype=np.uint8)
    tx_tr = np.zeros((T, N), dtype=np.uint8)
    sent = np.zeros(T, dtype=np.int64)
    delivered = np.zeros(T, dtype=np.int64)
    win_t = np.zeros((N, 7), dtype=np.int64)
    win_v = np.zeros((N, 7))
    win_n = np.zeros(N, dtype=np.int64)
    nout = np.zeros(N, dtype=np.int64)
    yprev = np.zeros(N)
    fired = np.zeros(N, dtype=np.uint8)
    frozen = np.zeros(N, dtype=np.uint8)
    dip_tick = np.full(N, -1, dtype=np.int64)
    dip_val = np.zeros(N)
    fire_tick = np.full(N, -1, dtype=np.int64)
    abort = np.int64(-1)
    # tick 0: only the gateway speaks
    b_flag[0] = 1
    b_val[0] = 0.0
    tx_tr[0, 0] = 1
    sent[0] = 1
    for i in range(N):
        est_tr[0, i] = est[i]
    for k in range(1, T):
        # deliver tick-(k-1) broadcasts over this tick's live links
        for b in range(N):
            if b_flag[b] == 0:
                continue
            reached = 0
            for p in range(indptr[b], indptr[b + 1]):
                j = indices[p]
                if link_live[k, edge_slot[p]] == 0:
                    continue
                reached = 1
                if j != 0:
                    acc_sum[j] += b_val[b]
                    acc_n[j] += 1
            delivered[k] += reached
        for i in range(N):
            nb_flag[i] = 0
            nb_val[i] = 0.0
        # slot owner updates (when >1 value heard) and always broadcasts
        i = ((k - 1) % cyc) + 1
        if acc_n[i] > 1 and frozen[i] == 0:
            est[i] = acc_sum[i] / acc_n[i]
            act_tr[k, i] = 1
            if dip_mode >= 1 and fired[i] == 0:
                _observe_dip(i, k, est[i], warmup, win_t, win_v, win_n,
                             nout, yprev, fired, frozen, dip_tick, dip_val,
                             fire_tick, est, np.uint8(1 if dip_mode == 2 else 0))
        acc_sum[i] = 0.0
        acc_n[i] = 0
        out = est[i] + noise[k] if i == mal else est[i]
        if out * 1e6 > WIRE_MAX_MICROS:
            abort = k
            break
        nb_flag[i] = 1
        nb_val[i] = out
        if k % cyc == 0:
            gv = delta * k
            if gv * 1e6 > WIRE_MAX_MICROS:
                abort = k
                break
            nb_flag[0] = 1
            nb_val[0] = gv
        ns = 0
        for i2 in range(N):
            b_flag[i2] = nb_flag[i2]
            b_val[i2] = nb_val[i2]
            tx_tr[k, i2] = nb_flag[i2]
            ns += nb_flag[i2]
        sent[k] = ns
        est[0] = delta * k
        for i2 in range(N):
            est_tr[k, i2] = est[i2]
            frz_tr[k, i2] = frozen[i2]
    return est_tr, act_tr, frz_tr, tx_tr, sent, delivered, dip_tick, dip_val, fire_tick, abort


@njit(cache=True)
def uaf_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, max_ticks, mal, noise, dip_mode, warmup, max_layer,
):
    """Gateway-timed flooding waves.  The gateway re-seeds a wave every
    max_layer+1 ticks with an alternating status bit; an opposite-status
    message wakes a node, which computes the average of its full live
    neighborhood and rebroadcasts.  Computed values commit simultaneously at
    the next cycle boundary, so all estimates step in lockstep."""
    N = indptr.shape[0] - 1
    T = max_ticks
    cyc = max_layer + 1
    est = init_est.copy()
    est[0] = 0.0
    s = np.zeros(N, dtype=np.uint8)
    pend = np.zeros(N)
    has_pend = np.zeros(N, dtype=np.uint8)
    b_flag = np.zeros(N, dtype=np.uint8)
    b_val = np.zeros(N)
    b_s = np.zeros(N, dtype=np.uint8)
    nb_flag = np.zeros(N, dtype=np.uint8)
    nb_val = np.zeros(N)
    nb_s = np.zeros(N, dtype=np.uint8)
    est_tr = np.zeros((T, N))
    act_tr = np.zeros((T, N), dtype=np.uint8)
    frz_tr = np.zeros((T, N), dtype=np.uint8)
    tx_tr = np.zeros((T, N), dtype=np.uint8)
    sent = np.zeros(T, dtype=np.int64)
    delivered = np.zeros(T, dtype=np.int64)
    win_t = np.zeros((N, 7), dtype=np.int64)
    win_v = np.zeros((N, 7))
    win_n = np.zeros(N, dtype=np.int64)
    nout = np.zeros(N, dtype=np.int64)
    yprev = np.zeros(N)
    fired = np.zeros(N, dtype=np.uint8)
    frozen = np.zeros(N, dtype=np.uint8)
    dip_tick = np.full(N, -1, dtype=np.int64)
    dip_val = np.zeros(N)
    fire_tick = np.full(N, -1, dtype=np.int64)
    abort = np.int64(-1)
    gw_last = 0.0
    # tick 0: the gateway seeds wave 0 with status 1
    b_flag[0] = 1
    b_val[0] = 0.0
    b_s[0] = 1
    tx_tr[0, 0] = 1
    sent[0] = 1
    for i in range(N):
        est_tr[0, i] = est[i]
    for k in range(1, T):
        # commit boundary: pending estimates from the finished wave take
        # effect simultaneously
        if k % cyc == 0:
            for i in range(1, N):
                if has_pend[i] == 1:
                    if frozen[i] == 0:
                        est[i] = pend[i]
                        act_tr[k, i] = 1
                        if dip_mode >= 1 and fired[i] == 0:
                            _observe_dip(i, k, est[i], warmup, win_t, win_v,
                                         win_n, nout, yprev, fired, frozen, dip_tick,
                                         dip_val, fire_tick, est,
                                         np.uint8(1 if dip_mode == 2 else 0))
                    has_pend[i] = 0
        # count deliveries (sender view)
        for b in range(N):
            if b_flag[b] == 0:
                continue
            for p in range(indptr[b], indptr[b + 1]):
                if link_live[k, edge_slot[p]] == 1:
                    delivered[k] += 1
                    break
        for i in range(N):
            nb_flag[i] = 0
            nb_val[i] = 0.0
            nb_s[i] = 0
        # triggers: an opposite-status message wakes the node this tick
        for i in range(1, N):
            opp = 0
            ssum = 0.0
            cnt = 0
            for p in range(indptr[i], indptr[i + 1]):
                j = indices[p]
                if link_live[k, edge_slot[p]] == 0:
                    continue
                if b_flag[j] == 1:
                    v = b_val[j]
                    if b_s[j] != s[i]:
                        opp = 1
                else:
                    if j == 0:
                        v = gw_last
                    elif j == mal:
                        v = est[j] + noise[k - 1]
                    else:
                        v = est[j]
                ssum += v
                cnt += 1
            if opp == 1:
                s[i] = 1 - s[i]
                if frozen[i] == 0:
                    # the node's own estimate joins the average, damping the
                    # wave-to-wave overshoot of pure neighbor relaying
                    pend[i] = (ssum + est[i]) / (cnt + 1)
                    has_pend[i] = 1
                    outv = pend[i]
                else:
                    outv = est[i]
                if i == mal:
                    outv = est[i] + noise[k]
                if outv * 1e6 > WIRE_MAX_MICROS:
                    abort = k
                    break
                nb_flag[i] = 1
                nb_val[i] = outv
                nb_s[i] = s[i]
        if abort >= 0:
            break
        # gateway re-seeds at cycle starts with alternating wave status
        if k % cyc == 0:
            gv = delta * k
            if gv * 1e6 > WIRE_MAX_MICROS:
                abort = k
                break
            nb_flag[0] = 1
            nb_val[0] = gv
            nb_s[0] = 1 - ((k // cyc) % 2)
            gw_last = gv
        ns = 0
        for i2 in range(N):
            b_flag[i2] = nb_flag[i2]
            b_val[i2] = nb_val[i2]
            b_s[i2] = nb_s[i2]
            tx_tr[k, i2] = nb_flag[i2]
            ns += nb_flag[i2]
        sent[k] = ns
        est[0] = delta * k
        for i2 in range(N):
            est_tr[k, i2] = est[i2]
            frz_tr[k, i2] = frozen[i2]
    return est_tr, act_tr, frz_tr, tx_tr, sent, delivered, dip_tick, dip_val, fire_tick, abort


@njit(cache=True)
def baf_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, max_ticks, mal, noise, dip_mode, warmup,
):
    """Self-regulating bidirectional flooding.  The gateway advertises its
    clock every tick with status 1.  Triggered nodes update immediately,
    take counter c_j+1, and rebroadcast; a node that, two ticks after its
    own wake-up, has heard only same-status counters smaller than its own
    concludes it is the flood frontier, zeroes its counter, negates its
    status and turns the flood around."""
    N = indptr.shape[0] - 1
    T = max_ticks
    est = init_est.copy()
    est[0] = 0.0
    s = np.zeros(N, dtype=np.uint8)
    c = np.zeros(N, dtype=np.int64)
    heard_n = np.zeros(N, dtype=np.int64)
    heard_max = np.full(N, -1, dtype=np.int64)
    last_trig = np.full(N, -(10 ** 9), dtype=np.int64)
    b_flag = np.zeros(N, dtype=np.uint8)
    b_val = np.zeros(N)
    b_s = np.zeros(N, dtype=np.uint8)
    b_c = np.zeros(N, dtype=np.int64)
    nb_flag = np.zeros(N, dtype=np.uint8)
    nb_val = np.zeros(N)
    nb_s = np.zeros(N, dtype=np.uint8)
    nb_c = np.zeros(N, dtype=np.int64)
    est_tr = np.zeros((T, N))
    act_tr = np.zeros((T, N), dtype=np.uint8)
    frz_tr = np.zeros((T, N), dtype=np.uint8)
    tx_tr = np.zeros((T, N), dtype=np.uint8)
    sent = np.zeros(T, dtype=np.int64)
    delivered = np.zeros(T, dtype=np.int64)
    win_t = np.zeros((N, 7), dtype=np.int64)
    win_v = np.zeros((N, 7))
    win_n = np.zeros(N, dtype=np.int64)
    nout = np.zeros(N, dtype=np.int64)
    yprev = np.zeros(N)
    fired = np.zeros(N, dtype=np.uint8)
    frozen = np.zeros(N, dtype=np.uint8)
    dip_tick = np.full(N, -1, dtype=np.int64)
    dip_val = np.zeros(N)
    fire_tick = np.full(N, -1, dtype=np.int64)
    abort = np.int64(-1)
    prev = est.copy()
    # tick 0: the gateway starts the first forward flood
    b_flag[0] = 1
    b_val[0] = 0.0
    b_s[0] = 1
    b_c[0] = 0
    tx_tr[0, 0] = 1
    sent[0] = 1
    for i in range(N):
        est_tr[0, i] = est[i]
    for k in range(1, T):
        for b in range(N):
            if b_flag[b] == 0:
                continue
            for p in range(indptr[b], indptr[b + 1]):
                if link_live[k, edge_slot[p]] == 1:
                    delivered[k] += 1
                    break
        for i in range(N):
            prev[i] = est[i]
            nb_flag[i] = 0
            nb_val[i] = 0.0
            nb_s[i] = 0
            nb_c[i] = 0
        for i in range(1, N):
            opp_cnt = 0
            max_opp_c = np.int64(-1)
            same_cnt = 0
            same_max = np.int64(-1)
            ssum = 0.0
            cnt = 0
            for p in range(indptr[i], indptr[i + 1]):
                j = indices[p]
                if link_live[k, edge_slot[p]] == 0:
                    continue
                if b_flag[j] == 1:
                    v = b_val[j]
                    if b_s[j] != s[i]:
                        opp_cnt += 1
                        if b_c[j] > max_opp_c:
                            max_opp_c = b_c[j]
                    else:
                        same_cnt += 1
                        if b_c[j] > same_max:
                            same_max = b_c[j]
                else:
                    if j == 0:
                        v = delta * (k - 1)
                    elif j == mal:
                        v = prev[j] + noise[k - 1]
                    else:
                        v = prev[j]
                ssum += v
                cnt += 1
            if opp_cnt > 0:
                if frozen[i] == 0:
                    # own estimate joins the average (same damping as the
                    # unidirectional flood)
                    est[i] = (ssum + est[i]) / (cnt + 1)
                    act_tr[k, i] = 1
                    if dip_mode >= 1 and fired[i] == 0:
                        _observe_dip(i, k, est[i], warmup, win_t, win_v,
                                     win_n, nout, yprev, fired, frozen, dip_tick,
                                     dip_val, fire_tick, est,
                                     np.uint8(1 if dip_mode == 2 else 0))
                s[i] = 1 - s[i]
                c[i] = max_opp_c + 1
                # the wake-up messages open this node's new cycle window
                heard_n[i] = opp_cnt
                heard_max[i] = max_opp_c
                last_trig[i] = k
                outv = est[i] + noise[k] if i == mal else est[i]
                if outv * 1e6 > WIRE_MAX_MICROS:
                    abort = k
                    break
                nb_flag[i] = 1
                nb_val[i] = outv
                nb_s[i] = s[i]
                # a protocol-ignorant attacker flips with the flood but never
                # maintains the hop counter
                nb_c[i] = 0 if i == mal else c[i]
            else:
                if same_cnt > 0:
                    heard_n[i] += same_cnt
                    if same_max > heard_max[i]:
                        heard_max[i] = same_max
                # frontier rule: heard only smaller counters since waking up
                if (
                    heard_n[i] > 0
                    and c[i] > heard_max[i]
                    and k - last_trig[i] >= 2
                ):
                    c[i] = 0
                    s[i] = 1 - s[i]
                    heard_n[i] = 0
                    heard_max[i] = -1
                    outv = est[i] + noise[k] if i == mal else est[i]
                    if outv * 1e6 > WIRE_MAX_MICROS:
                        abort = k
                        break
                    nb_flag[i] = 1
                    nb_val[i] = outv
                    nb_s[i] = s[i]
                    nb_c[i] = 0
        if abort >= 0:
            break
        gv = delta * k
        if gv * 1e6 > WIRE_MAX_MICROS:
            abort = k
            break
        nb_flag[0] = 1
        nb_val[0] = gv
        nb_s[0] = 1
        nb_c[0] = 0
        ns = 0
        for i2 in range(N):
            b_flag[i2] = nb_flag[i2]
            b_val[i2] = nb_val[i2]
            b_s[i2] = nb_s[i2]
            b_c[i2] = nb_c[i2]
            tx_tr[k, i2] = nb_flag[i2]
            ns += nb_flag[i2]
        sent[k] = ns
        est[0] = delta * k
        for i2 in range(N):
            est_tr[k, i2] = est[i2]
            frz_tr[k, i2] = frozen[i2]
    return est_tr, act_tr, frz_tr, tx_tr, sent, delivered, dip_tick, dip_val, fire_tick, abort


_KERNELS = {
    "baseline": baseline_kernel,
    "tsau": tsau_kernel,
    "uaf": uaf_kernel,
    "baf": baf_kernel,
}


# ---------------------------------------------------------------------------
# Interpreted kernels
#
# Interpreted, the compiled loops above pay for a numpy scalar index and a
# numpy scalar operation on every neighbor slot.  The kernels below keep all
# state in Python lists and floats: each tick's link row is converted once,
# each node's neighbors are (id, edge slot) pairs, estimate rows are written
# whole, the frozen trace is filled from the fire ticks at the end, and the
# flooding kernels start from last tick's senders to find the nodes that
# wake up.  Each average still sums the same values in CSR order.
# The per-tick broadcast count is a Python int; the compiled source, run
# interpreted, accumulates it in uint8 and wraps at 256.
# ---------------------------------------------------------------------------

class _DipWindows:
    """Per-node dip detectors; list-based twin of `_observe_dip`."""

    def __init__(self, n, warmup, freeze):
        self.warmup = warmup
        self.freeze = freeze
        self.ticks = [[] for _ in range(n)]
        self.vals = [[] for _ in range(n)]
        self.nout = [0] * n
        self.yprev = [0.0] * n
        self.fired = [0] * n
        self.dip_tick = [-1] * n
        self.dip_val = [0.0] * n
        self.fire_tick = [-1] * n

    def observe(self, i, tick, val, est, frozen):
        wt = self.ticks[i]
        wv = self.vals[i]
        wt.append(tick)
        wv.append(val)
        if len(wv) > 7:
            del wt[0]
            del wv[0]
        elif len(wv) < 7:
            return
        y = 0.2 * (wv[6] - wv[0]) + 0.5 * (wv[5] - wv[1]) + 0.2 * (wv[4] - wv[2])
        self.nout[i] += 1
        crossed = self.nout[i] > self.warmup and (y == 0.0 or y * self.yprev[i] < 0.0)
        self.yprev[i] = y
        if crossed:
            self.fired[i] = 1
            self.dip_tick[i] = wt[3]
            self.dip_val[i] = wv[3]
            self.fire_tick[i] = tick
            if self.freeze:
                frozen[i] = 1
                est[i] = wv[3]

    def results(self, frz_tr, abort):
        """Fill the frozen trace (a node stays frozen from its fire tick on,
        up to the abort tick) and return (dip_tick, dip_val, fire_tick)."""
        if self.freeze:
            stop = abort if abort >= 0 else frz_tr.shape[0]
            for i, f in enumerate(self.fire_tick):
                if f >= 0:
                    frz_tr[f:stop, i] = 1
        return (np.array(self.dip_tick, dtype=np.int64),
                np.array(self.dip_val, dtype=np.float64),
                np.array(self.fire_tick, dtype=np.int64))


def _neighbor_lists(indptr, indices, edge_slot):
    """Per node, its CSR neighbors as (neighbor id, edge slot) pairs."""
    ids = indices.tolist()
    slots = edge_slot.tolist()
    bounds = indptr.tolist()
    return [list(zip(ids[a:b], slots[a:b])) for a, b in zip(bounds, bounds[1:])]


def _trace_arrays(T, N):
    return (np.zeros((T, N)), np.zeros((T, N), dtype=np.uint8),
            np.zeros((T, N), dtype=np.uint8), np.zeros((T, N), dtype=np.uint8))


def _pure_baseline(
    indptr, indices, edge_slot, link_live, init_est,
    delta, max_ticks, mal, noise, dip_mode, warmup,
):
    """Interpreted twin of `baseline_kernel`."""
    N = indptr.shape[0] - 1
    T = max_ticks
    nbrs = _neighbor_lists(indptr, indices, edge_slot)
    noise = noise.tolist()
    est = init_est.tolist()
    est[0] = 0.0
    frozen = [0] * N
    dip = _DipWindows(N, warmup, dip_mode == 2)
    fired = dip.fired
    observe = dip_mode >= 1
    est_tr, act_tr, frz_tr, tx_tr = _trace_arrays(T, N)
    est_tr[0] = est
    for k in range(1, T):
        live = link_live[k].tolist()
        gw_now = delta * k
        # what each node hears from j: the tick-start estimates
        heard = est[:]
        if mal >= 0:
            heard[mal] = est[mal] + noise[k]
        heard[0] = gw_now
        est[0] = gw_now
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
                act_tr[k, i] = 1
                tx_tr[k, i] = 1
                if observe and not fired[i]:
                    dip.observe(i, k, est[i], est, frozen)
        est_tr[k] = est
    # every node that updates broadcasts its new estimate
    sent = tx_tr.sum(axis=1, dtype=np.int64)
    return (est_tr, act_tr, frz_tr, tx_tr, sent, np.zeros(T, dtype=np.int64),
            *dip.results(frz_tr, -1), np.int64(-1))


def _pure_tsau(
    indptr, indices, edge_slot, link_live, init_est,
    delta, max_ticks, mal, noise, dip_mode, warmup,
):
    """Interpreted twin of `tsau_kernel`."""
    N = indptr.shape[0] - 1
    T = max_ticks
    cyc = N - 1
    nbrs = _neighbor_lists(indptr, indices, edge_slot)
    noise = noise.tolist()
    est = init_est.tolist()
    est[0] = 0.0
    acc_sum = [0.0] * N
    acc_n = [0] * N
    frozen = [0] * N
    dip = _DipWindows(N, warmup, dip_mode == 2)
    fired = dip.fired
    observe = dip_mode >= 1
    est_tr, act_tr, frz_tr, tx_tr = _trace_arrays(T, N)
    sent = [0] * T
    delivered = [0] * T
    abort = -1
    # last tick's broadcasts as (sender, value), ascending sender; at tick 0
    # only the gateway speaks
    sends = [(0, 0.0)]
    tx_tr[0, 0] = 1
    sent[0] = 1
    est_tr[0] = est
    for k in range(1, T):
        live = link_live[k].tolist()
        for b, val in sends:
            reached = 0
            for j, slot in nbrs[b]:
                if live[slot]:
                    reached = 1
                    if j != 0:
                        acc_sum[j] += val
                        acc_n[j] += 1
            delivered[k] += reached
        i = ((k - 1) % cyc) + 1
        if acc_n[i] > 1 and not frozen[i]:
            est[i] = acc_sum[i] / acc_n[i]
            act_tr[k, i] = 1
            if observe and not fired[i]:
                dip.observe(i, k, est[i], est, frozen)
        acc_sum[i] = 0.0
        acc_n[i] = 0
        out = est[i] + noise[k] if i == mal else est[i]
        if out * 1e6 > WIRE_MAX_MICROS:
            abort = k
            break
        sends = [(i, out)]
        if k % cyc == 0:
            gv = delta * k
            if gv * 1e6 > WIRE_MAX_MICROS:
                abort = k
                break
            sends.insert(0, (0, gv))
        for b, _ in sends:
            tx_tr[k, b] = 1
        sent[k] = len(sends)
        est[0] = delta * k
        est_tr[k] = est
    return (est_tr, act_tr, frz_tr, tx_tr, np.array(sent, dtype=np.int64),
            np.array(delivered, dtype=np.int64), *dip.results(frz_tr, abort),
            np.int64(abort))


def _pure_uaf(
    indptr, indices, edge_slot, link_live, init_est,
    delta, max_ticks, mal, noise, dip_mode, warmup, max_layer,
):
    """Interpreted twin of `uaf_kernel`."""
    N = indptr.shape[0] - 1
    T = max_ticks
    cyc = max_layer + 1
    nbrs = _neighbor_lists(indptr, indices, edge_slot)
    noise = noise.tolist()
    est = init_est.tolist()
    est[0] = 0.0
    s = [0] * N
    pend = [0.0] * N
    has_pend = [0] * N
    frozen = [0] * N
    dip = _DipWindows(N, warmup, dip_mode == 2)
    fired = dip.fired
    observe = dip_mode >= 1
    est_tr, act_tr, frz_tr, tx_tr = _trace_arrays(T, N)
    sent = [0] * T
    delivered = [0] * T
    abort = -1
    gw_last = 0.0
    # last tick's broadcasts: the ascending senders, and per node the value
    # and status it sent; at tick 0 the gateway seeds wave 0 with status 1
    senders = [0]
    b_val = [0.0] * N
    b_st = [0] * N
    b_st[0] = 1
    tx_tr[0, 0] = 1
    sent[0] = 1
    est_tr[0] = est
    for k in range(1, T):
        live = link_live[k].tolist()
        if k % cyc == 0:
            for i in range(1, N):
                if has_pend[i]:
                    if not frozen[i]:
                        est[i] = pend[i]
                        act_tr[k, i] = 1
                        if observe and not fired[i]:
                            dip.observe(i, k, est[i], est, frozen)
                    has_pend[i] = 0
        # deliveries (sender view) and wake-ups: a node wakes when an
        # opposite-status message reaches it
        woken = set()
        for b in senders:
            st = b_st[b]
            reached = 0
            for j, slot in nbrs[b]:
                if live[slot]:
                    reached = 1
                    if j != 0 and s[j] != st:
                        woken.add(j)
            delivered[k] += reached
        # what a woken node hears from j: j's broadcast, else its standing value
        heard = est[:]
        heard[0] = gw_last
        if mal >= 0:
            heard[mal] = est[mal] + noise[k - 1]
        for b in senders:
            heard[b] = b_val[b]
        nb_senders = []
        nb_val = [0.0] * N
        nb_st = [0] * N
        for i in sorted(woken):
            ssum = 0.0
            cnt = 0
            for j, slot in nbrs[i]:
                if live[slot]:
                    ssum += heard[j]
                    cnt += 1
            s[i] = 1 - s[i]
            if not frozen[i]:
                # the node's own estimate joins the average
                pend[i] = (ssum + est[i]) / (cnt + 1)
                has_pend[i] = 1
                outv = pend[i]
            else:
                outv = est[i]
            if i == mal:
                outv = est[i] + noise[k]
            if outv * 1e6 > WIRE_MAX_MICROS:
                abort = k
                break
            nb_senders.append(i)
            nb_val[i] = outv
            nb_st[i] = s[i]
        if abort >= 0:
            break
        # gateway re-seeds at cycle starts with alternating wave status
        if k % cyc == 0:
            gv = delta * k
            if gv * 1e6 > WIRE_MAX_MICROS:
                abort = k
                break
            nb_senders.insert(0, 0)
            nb_val[0] = gv
            nb_st[0] = 1 - ((k // cyc) % 2)
            gw_last = gv
        for b in nb_senders:
            tx_tr[k, b] = 1
        sent[k] = len(nb_senders)
        senders, b_val, b_st = nb_senders, nb_val, nb_st
        est[0] = delta * k
        est_tr[k] = est
    return (est_tr, act_tr, frz_tr, tx_tr, np.array(sent, dtype=np.int64),
            np.array(delivered, dtype=np.int64), *dip.results(frz_tr, abort),
            np.int64(abort))


def _pure_baf(
    indptr, indices, edge_slot, link_live, init_est,
    delta, max_ticks, mal, noise, dip_mode, warmup,
):
    """Interpreted twin of `baf_kernel`."""
    N = indptr.shape[0] - 1
    T = max_ticks
    nbrs = _neighbor_lists(indptr, indices, edge_slot)
    noise = noise.tolist()
    est = init_est.tolist()
    est[0] = 0.0
    s = [0] * N
    c = [0] * N
    heard_n = [0] * N
    heard_max = [-1] * N
    last_trig = [-(10 ** 9)] * N
    frozen = [0] * N
    dip = _DipWindows(N, warmup, dip_mode == 2)
    fired = dip.fired
    observe = dip_mode >= 1
    est_tr, act_tr, frz_tr, tx_tr = _trace_arrays(T, N)
    sent = [0] * T
    delivered = [0] * T
    abort = -1
    # last tick's broadcasts: the ascending senders, and per node the value,
    # status and hop counter it sent; at tick 0 the gateway starts the first
    # forward flood
    senders = [0]
    b_val = [0.0] * N
    b_st = [0] * N
    b_c = [0] * N
    b_st[0] = 1
    tx_tr[0, 0] = 1
    sent[0] = 1
    est_tr[0] = est
    for k in range(1, T):
        live = link_live[k].tolist()
        # deliveries (sender view), and per receiver the count and largest
        # counter of the opposite- and same-status messages it hears
        opp_cnt = [0] * N
        opp_max = [-1] * N
        same_cnt = [0] * N
        same_max = [-1] * N
        for b in senders:
            st = b_st[b]
            cb = b_c[b]
            reached = 0
            for j, slot in nbrs[b]:
                if live[slot]:
                    reached = 1
                    if s[j] != st:
                        opp_cnt[j] += 1
                        if cb > opp_max[j]:
                            opp_max[j] = cb
                    else:
                        same_cnt[j] += 1
                        if cb > same_max[j]:
                            same_max[j] = cb
            delivered[k] += reached
        # what a triggered node hears from j: j's broadcast, else its
        # tick-start value
        heard = est[:]
        heard[0] = delta * (k - 1)
        if mal >= 0:
            heard[mal] = est[mal] + noise[k - 1]
        for b in senders:
            heard[b] = b_val[b]
        nb_senders = []
        nb_val = [0.0] * N
        nb_st = [0] * N
        nb_c = [0] * N
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
                    act_tr[k, i] = 1
                    if observe and not fired[i]:
                        dip.observe(i, k, est[i], est, frozen)
                s[i] = 1 - s[i]
                c[i] = opp_max[i] + 1
                # the wake-up messages open this node's new cycle window
                heard_n[i] = opp_cnt[i]
                heard_max[i] = opp_max[i]
                last_trig[i] = k
                outv = est[i] + noise[k] if i == mal else est[i]
                if outv * 1e6 > WIRE_MAX_MICROS:
                    abort = k
                    break
                nb_senders.append(i)
                nb_val[i] = outv
                nb_st[i] = s[i]
                # a protocol-ignorant attacker never maintains the hop counter
                nb_c[i] = 0 if i == mal else c[i]
            else:
                if same_cnt[i]:
                    heard_n[i] += same_cnt[i]
                    if same_max[i] > heard_max[i]:
                        heard_max[i] = same_max[i]
                # frontier rule: heard only smaller counters since waking up
                if heard_n[i] > 0 and c[i] > heard_max[i] and k - last_trig[i] >= 2:
                    c[i] = 0
                    s[i] = 1 - s[i]
                    heard_n[i] = 0
                    heard_max[i] = -1
                    outv = est[i] + noise[k] if i == mal else est[i]
                    if outv * 1e6 > WIRE_MAX_MICROS:
                        abort = k
                        break
                    nb_senders.append(i)
                    nb_val[i] = outv
                    nb_st[i] = s[i]
        if abort >= 0:
            break
        gv = delta * k
        if gv * 1e6 > WIRE_MAX_MICROS:
            abort = k
            break
        nb_senders.insert(0, 0)
        nb_val[0] = gv
        nb_st[0] = 1
        for b in nb_senders:
            tx_tr[k, b] = 1
        sent[k] = len(nb_senders)
        senders, b_val, b_st, b_c = nb_senders, nb_val, nb_st, nb_c
        est[0] = delta * k
        est_tr[k] = est
    return (est_tr, act_tr, frz_tr, tx_tr, np.array(sent, dtype=np.int64),
            np.array(delivered, dtype=np.int64), *dip.results(frz_tr, abort),
            np.int64(abort))


_PURE_KERNELS = {
    "baseline": _pure_baseline,
    "tsau": _pure_tsau,
    "uaf": _pure_uaf,
    "baf": _pure_baf,
}
