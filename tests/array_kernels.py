"""Array-form tick kernels: the test oracle for `dipsync._kernels`.

These loops keep every piece of per-node state in flat numpy arrays and
index them one scalar at a time.  They are an earlier formulation of the
four protocols, kept only so that tests can hold the production kernels to
them bit for bit (tests/test_engine.py): same positional arguments (the
tuple of `engine.kernel_inputs`, without the kernels' optional `writer` and
`decide`), same 10-tuple of outputs, same floating-point operations in the
same order.

Run by the interpreter, `ns = 0` plus a uint8 flag becomes a uint8 under
numpy 2, so `sent` wraps at 256 broadcasts per tick here; compare on graphs
with fewer than 256 nodes.
"""

import numpy as np

from dipsync._kernels import WIRE_MAX_MICROS
from dipsync.dip import WARMUP_OUTPUTS
from dipsync.protocol import MAX_HOP_COUNTER


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
        if do_freeze:
            frozen[i] = 1
            est[i] = win_v[i, 3]


def baseline_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, mal, noise, freeze, layers,
):
    """Synchronous reference system: every non-gateway node averages its full
    live neighborhood each tick, the gateway contributing its current time.
    Each update counts as one broadcast in `sent`; `delivered` stays 0, as the
    baseline has no delivery model."""
    N = indptr.shape[0] - 1
    T = link_live.shape[0]
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
                if fired[i] == 0:
                    _observe_dip(i, k, est[i], WARMUP_OUTPUTS, win_t, win_v, win_n,
                                 nout, yprev, fired, frozen, dip_tick, dip_val,
                                 fire_tick, est, freeze)
        for i in range(N):
            est_tr[k, i] = est[i]
            frz_tr[k, i] = frozen[i]
    return est_tr, act_tr, frz_tr, tx_tr, sent, delivered, dip_tick, dip_val, fire_tick, np.int64(-1)


def tsau_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, mal, noise, freeze, layers,
):
    """Timed sequential update: one slot owner per tick averages what it heard
    since its last slot (if more than one value) and broadcasts; the gateway
    broadcasts its time once per slot cycle."""
    N = indptr.shape[0] - 1
    T = link_live.shape[0]
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
            if fired[i] == 0:
                _observe_dip(i, k, est[i], WARMUP_OUTPUTS, win_t, win_v, win_n,
                             nout, yprev, fired, frozen, dip_tick, dip_val,
                             fire_tick, est, freeze)
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


def uaf_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, mal, noise, freeze, layers,
):
    """Gateway-timed flooding waves.  The gateway re-seeds a wave every
    L+1 ticks, L the largest hop layer, with an alternating status bit; an
    opposite-status message wakes a node, which computes the average of its
    full live neighborhood and rebroadcasts.  Computed values commit
    simultaneously at the next cycle boundary, so all estimates step in
    lockstep."""
    N = indptr.shape[0] - 1
    T = link_live.shape[0]
    cyc = max(layers) + 1
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
                        if fired[i] == 0:
                            _observe_dip(i, k, est[i], WARMUP_OUTPUTS, win_t, win_v,
                                         win_n, nout, yprev, fired, frozen, dip_tick,
                                         dip_val, fire_tick, est, freeze)
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


def baf_kernel(
    indptr, indices, edge_slot, link_live, init_est,
    delta, mal, noise, freeze, layers,
):
    """Self-regulating bidirectional flooding.  The gateway advertises its
    clock every tick with status 1.  Triggered nodes update immediately,
    take counter c_j+1, and rebroadcast; a node that, two ticks after its
    own wake-up, has heard only same-status counters smaller than its own
    concludes it is the flood frontier, zeroes its counter, negates its
    status and turns the flood around."""
    N = indptr.shape[0] - 1
    T = link_live.shape[0]
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
                    if fired[i] == 0:
                        _observe_dip(i, k, est[i], WARMUP_OUTPUTS, win_t, win_v,
                                     win_n, nout, yprev, fired, frozen, dip_tick,
                                     dip_val, fire_tick, est, freeze)
                s[i] = 1 - s[i]
                c[i] = max_opp_c + 1
                # the attacker sends 0, never its counter
                if c[i] > MAX_HOP_COUNTER and i != mal:
                    abort = k
                    break
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


KERNELS = {
    "baseline": baseline_kernel,
    "tsau": tsau_kernel,
    "uaf": uaf_kernel,
    "baf": baf_kernel,
}
