"""Hand-traced transitions of each protocol, run through the tick kernels.

The kernels in `_kernels.py` are the one executable definition of TSAU, UAF,
BAF and the synchronous baseline.  These tests start them from hand-chosen
initial clocks (and, where it matters, hand-chosen link outages) and check
single transitions against values worked out by hand from the protocol
rules.  Time values are gateway ticks: a broadcast sent at tick k-1 is heard
at tick k.
"""

from collections import namedtuple

import numpy as np
import pytest

import dipsync.engine as engine
from dipsync._kernels import get_kernel
from dipsync.engine import SimConfig, run
from dipsync.errors import ConfigError, MalformedMessage, UnreachableNodeError
from dipsync.protocol import ProtocolKind, SyncMessage, decode, encode
from dipsync.topology import Topology, make_grid, make_line

DELTA = 0.001

Episode = namedtuple("Episode", "est act frz tx sent delivered dip_tick dip_value "
                                "fire_tick abort")

# node 4 hears nodes 1, 2 and 3, which each hear only the gateway and node 4
STAR3 = Topology.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
# nodes 1 and 2 hear the gateway and each other
TRIANGLE = Topology.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def episode(topo, proto, init, ticks, down=(), delta=DELTA):
    """Run one kernel episode from the initial estimates `init` of nodes
    1..N-1 (the gateway starts at 0).  `down` holds (tick, edge) pairs whose
    link is dead at that tick; every other link is alive.  Detectors observe
    but never freeze."""
    config = SimConfig(topology=topo, protocol=proto, delta=delta, max_ticks=ticks,
                       freeze_on_dip=False)
    name, args = engine.kernel_inputs(config)
    args = list(args)
    args[3] = np.ones((ticks, len(topo.edges)), dtype=np.uint8)
    slot = topo.edge_index()
    for k, edge in down:
        args[3][k, slot[tuple(sorted(edge))]] = 0
    args[4] = np.array([0.0, *init])
    return Episode(*get_kernel(name)(*args))


def ticks_of(flags, i):
    return np.nonzero(flags[:, i])[0].tolist()


# --- neighborhood averaging -------------------------------------------------

def test_average_idempotent_on_constant():
    # 2x2 grid: node 3 hears only nodes 1 and 2, which both hold 0.5
    topo = make_grid(2, 2)
    base = episode(topo, ProtocolKind.SYNC_BASELINE, [0.5, 0.5, 0.9], 2)
    assert base.est[1, 3] == 0.5
    # TSAU: node 3's first slot (tick 3) averages the two 0.5 broadcasts
    tsau = episode(topo, ProtocolKind.TSAU, [0.5, 0.5, 0.9], 4)
    assert tsau.act[3, 3] == 1
    assert tsau.est[3, 3] == 0.5


def test_average_two_values():
    base = episode(make_grid(2, 2), ProtocolKind.SYNC_BASELINE, [0.0, 1.0, 0.9], 2)
    assert base.est[1, 3] == 0.5


def test_average_hand_sum():
    # 0.2 + 0.4 + 0.9 = 1.5; 1.5 / 3 = 0.5
    base = episode(STAR3, ProtocolKind.SYNC_BASELINE, [0.2, 0.4, 0.9, 0.7], 2)
    assert base.est[1, 4] == pytest.approx(0.5, abs=1e-15)
    # nodes 1..3 average the gateway's 0.001 and node 4's 0.7
    assert base.est[1, 1:4] == pytest.approx([(0.001 + 0.7) / 2] * 3, abs=1e-15)


def test_average_rejects_empty():
    # no live neighbor at tick 2: nothing is averaged, the estimate stands
    # and the node does not count as updated
    topo = make_line(2)
    base = episode(topo, ProtocolKind.SYNC_BASELINE, [0.7], 4, down=[(2, (0, 1))])
    assert base.act[1:, 1].tolist() == [1, 0, 1]
    assert base.est[2, 1] == base.est[1, 1] == 0.001
    # BAF: the gateway's tick-1 message is lost, so node 1 wakes a tick late
    baf = episode(topo, ProtocolKind.BAF, [0.7], 3, down=[(1, (0, 1))])
    assert baf.act[1:, 1].tolist() == [0, 1]
    assert baf.est[1, 1] == 0.7


def test_average_convexity():
    # every average is a convex combination of values already in the
    # network, so no estimate leaves the hull of the initial clocks and the
    # gateway times so far (up to the rounding of the sum: three copies of
    # 0.025 average to 0.025000000000000005)
    tol = 1e-15
    rng = np.random.default_rng(5)
    topos = [make_line(5), make_grid(3, 3), STAR3, TRIANGLE]
    for trial in range(12):
        topo = topos[trial % len(topos)]
        init = rng.random(topo.node_count - 1).tolist()
        ticks = 60
        down = [(k, e) for k in range(ticks) for e in topo.edges if rng.random() < 0.3]
        for proto in ProtocolKind:
            ep = episode(topo, proto, init, ticks, down=down)
            for k in range(ticks):
                lo, hi = min(0.0, *init), max(DELTA * k, *init)
                assert np.all((lo - tol <= ep.est[k]) & (ep.est[k] <= hi + tol))
        # the baseline stays within its live neighbors' values tick by tick
        base = episode(topo, ProtocolKind.SYNC_BASELINE, init, ticks, down=down)
        dead = set(down)
        for k in range(1, ticks):
            heard = base.est[k - 1].copy()
            heard[0] = DELTA * k
            for i in range(1, topo.node_count):
                vals = [heard[j] for j in topo.neighbors[i]
                        if (k, (min(i, j), max(i, j))) not in dead]
                if vals:
                    assert min(vals) - tol <= base.est[k, i] <= max(vals) + tol


# --- TSAU -------------------------------------------------------------------
# line:4 from (0.2, 0.4, 0.6): the slot of tick k is node ((k-1) % 3) + 1 and
# the gateway speaks at ticks 0, 3, 6, ...

def tsau_line4(ticks=8):
    return episode(make_line(4), ProtocolKind.TSAU, [0.2, 0.4, 0.6], ticks)


def test_tsau_receive_accumulates():
    # node 1 keeps node 2's 0.4 (heard at tick 3) until its slot at tick 4,
    # where the gateway's 0.003 (sent at tick 3) joins it
    ep = tsau_line4()
    assert ep.est[3, 1] == 0.2
    assert ep.est[4, 1] == pytest.approx((0.4 + 0.003) / 2, abs=1e-15)


def test_tsau_receive_running_mean():
    # node 2's slot at tick 5 takes the mean of what it heard (node 3's 0.6
    # at tick 4, node 1's new value at tick 5); its own 0.4 is not part of it
    ep = tsau_line4()
    assert ep.est[5, 2] == pytest.approx((0.6 + ep.est[4, 1]) / 2, abs=1e-15)


def test_tsau_three_receives_hand_mean():
    # node 4 hears nodes 1, 2 and 3 at ticks 2, 3 and 4 and averages at its
    # tick-4 slot: (0.1 + 0.2 + 0.6) / 3 = 0.3
    ep = episode(STAR3, ProtocolKind.TSAU, [0.1, 0.2, 0.6, 0.9], 5)
    assert ep.act[1:5, 4].tolist() == [0, 0, 0, 1]
    assert ep.est[4, 4] == pytest.approx(0.3, abs=1e-15)


def test_tsau_receive_rejects_wrong_kind():
    # a TSAU receiver takes 6-byte payloads only: UAF and BAF messages,
    # which carry status (and counter) bytes, are rejected as malformed
    for msg in (SyncMessage(ProtocolKind.UAF, 2, 0.1, s=0),
                SyncMessage(ProtocolKind.BAF, 2, 0.1, s=0, c=3)):
        with pytest.raises(MalformedMessage):
            decode(encode(msg), ProtocolKind.TSAU)
    assert decode(encode(SyncMessage(ProtocolKind.TSAU, 2, 0.1)),
                  ProtocolKind.TSAU).time == 0.1


def test_tsau_first_slot_at_id_times_delta():
    ep = episode(make_grid(4, 4), ProtocolKind.TSAU, np.linspace(0.1, 0.8, 15), 16)
    for i in range(1, 16):
        assert ticks_of(ep.tx, i)[0] == i
    assert ticks_of(ep.tx, 0) == [0, 15]


def test_tsau_slot_advances_by_n_minus_1():
    ep = episode(make_grid(4, 4), ProtocolKind.TSAU, np.linspace(0.1, 0.8, 15), 80)
    assert ticks_of(ep.tx, 3) == [3, 18, 33, 48, 63, 78]


def test_tsau_single_value_does_not_update_but_broadcasts():
    ep = tsau_line4()
    # tick 1: node 1 has heard only the gateway's 0.0; it keeps 0.2 and
    # still broadcasts it, which node 2 averages at tick 5
    assert ep.act[1, 1] == 0 and ep.tx[1, 1] == 1
    assert ep.est[1, 1] == 0.2
    # node 3 hears one value before each of its slots (ticks 3 and 6): the
    # accumulator is emptied at every slot, so it never updates
    assert ticks_of(ep.tx, 3) == [3, 6]
    assert ep.act[:, 3].sum() == 0
    assert ep.est[7, 3] == 0.6


def test_tsau_two_values_update_at_slot():
    ep = tsau_line4()
    assert ticks_of(ep.act, 1) == [4, 7]
    assert ep.tx[4, 1] == 1
    # the broadcast carries the new value: node 2 averages it at tick 5
    v1 = (0.4 + 0.003) / 2
    assert ep.est[5, 2] == pytest.approx((0.6 + v1) / 2, abs=1e-15)


# --- UAF ----------------------------------------------------------------------
# line:4 from (0.9, 0.3, 0.6): three layers, so a cycle is 4 ticks; the
# gateway opens a wave at ticks 0, 4, 8, ... with alternating status

def uaf_line4(ticks=10, down=()):
    return episode(make_line(4), ProtocolKind.UAF, [0.9, 0.3, 0.6], ticks, down=down)


def test_uaf_opposite_status_updates_and_flips():
    ep = uaf_line4()
    # tick 1: the gateway's wave reaches node 1, which averages the gateway's
    # 0.0, node 2's 0.3 and its own 0.9 and answers at once
    p1 = (0.0 + 0.3 + 0.9) / 3
    assert ep.tx[1, 1] == 1
    assert ep.est[4, 1] == pytest.approx(p1, abs=1e-15)
    # its status flipped: node 2's answer at tick 3 no longer wakes it, the
    # gateway's next wave (tick 4, other status) does
    assert ticks_of(ep.tx, 1)[:2] == [1, 5]


def test_uaf_same_status_is_inert():
    # node 2's tick-2 broadcast reaches node 1 at tick 3 with node 1's own
    # status: no answer, and the pending value from tick 1 is what commits
    ep = uaf_line4()
    assert ep.tx[3, 1] == 0
    assert ep.est[4, 1] == pytest.approx((0.0 + 0.3 + 0.9) / 3, abs=1e-15)
    # with the link to node 2 dead at tick 3 the commit is the same value
    cut = uaf_line4(down=[(3, (1, 2))])
    assert cut.est[4, 1] == ep.est[4, 1]


def test_uaf_two_messages_same_tick_both_accumulate():
    # 2x2 grid from (0.9, 0.3, 0.6), cycle 3: nodes 1 and 2 wake at tick 1
    # with pending values 0.5 and 0.3; node 3 hears both at tick 2, wakes
    # once, and averages both broadcasts with its own 0.6
    ep = episode(make_grid(2, 2), ProtocolKind.UAF, [0.9, 0.3, 0.6], 4)
    p1 = (0.0 + 0.6 + 0.9) / 3
    p2 = (0.0 + 0.6 + 0.3) / 3
    assert ep.tx[1, 1:3].tolist() == [1, 1]
    assert ticks_of(ep.tx[:4], 3) == [2]
    assert ep.est[3, 3] == pytest.approx((p1 + p2 + 0.6) / 3, abs=1e-15)


def test_uaf_boundary_commits_and_reanchors():
    ep = uaf_line4()
    p1 = (0.0 + 0.3 + 0.9) / 3
    p2 = (p1 + 0.6 + 0.3) / 3
    p3 = (p2 + 0.6) / 2
    # woken at ticks 1, 2, 3; quiet until the boundary at tick 4
    assert [ticks_of(ep.tx[:5], i) for i in (1, 2, 3)] == [[1], [2], [3]]
    assert np.all(ep.est[:4, 1:] == [0.9, 0.3, 0.6])
    assert ep.act[:4, 1:].sum() == 0
    # all three pending values commit at the boundary
    assert ep.act[4, 1:].tolist() == [1, 1, 1]
    assert ep.est[4, 1:] == pytest.approx([p1, p2, p3], abs=1e-15)
    # the gateway re-anchors the next wave on its tick-4 time
    assert ep.est[8, 1] == pytest.approx((0.004 + p2 + p1) / 3, abs=1e-15)


def test_uaf_gateway_cycle_strict_inequality():
    # with L layers the gateway opens a wave once L ticks have passed: at
    # multiples of L + 1, never at L itself
    for n, layers in ((2, 1), (4, 3), (6, 5)):
        ep = episode(make_line(n), ProtocolKind.UAF, [0.5] * (n - 1), 25)
        assert ticks_of(ep.tx, 0) == list(range(0, 25, layers + 1))


def test_uaf_gateway_cycle_rejects_bad_layer():
    # a cycle needs at least one layer below the gateway, and every node
    # needs a layer
    alone = Topology(node_count=1, edges=(), neighbors=((),))
    with pytest.raises(ConfigError):
        run(SimConfig(topology=alone, protocol=ProtocolKind.UAF, max_ticks=10))
    split = Topology(node_count=4, edges=((0, 1), (2, 3)),
                     neighbors=((1,), (0,), (3,), (2,)))
    with pytest.raises(UnreachableNodeError):
        run(SimConfig(topology=split, protocol=ProtocolKind.UAF, max_ticks=10))


# --- BAF ----------------------------------------------------------------------
# the gateway speaks every tick with status 1 and counter 0

def test_baf_trigger_takes_counter_plus_one():
    # counters reach the outputs only through the reversal rule, which
    # compares them, so this checks their order: a wake-up puts a node's
    # counter above the waking one and level with a sibling woken by it.
    # triangle: nodes 1 and 2 both wake on the gateway's counter 0 and take
    # counter 1, then hear each other's 1: neither is ahead, so neither
    # turns the flood around
    tri = episode(TRIANGLE, ProtocolKind.BAF, [0.4, 0.8], 20)
    assert ticks_of(tri.tx, 1) == ticks_of(tri.tx, 2) == [1]
    # line:2: node 1's counter 1 beats the gateway's 0, so it turns the
    # flood around two ticks after waking, and the gateway wakes it again
    line = episode(make_line(2), ProtocolKind.BAF, [0.4], 11)
    assert ticks_of(line.tx, 1) == [1, 3, 4, 6, 7, 9, 10]
    assert ticks_of(line.act, 1) == [1, 4, 7, 10]


def test_baf_line_end_reversal_from_hand_trace():
    # line:4: forward wave 1 -> 2 -> 3; the end node has heard only the
    # smaller counter 2 and turns around two ticks after waking (tick 5);
    # the backward wave reaches node 2 at tick 6 and node 1 at tick 7; the
    # gateway starts the next forward wave at node 1 on tick 8
    ep = episode(make_line(4), ProtocolKind.BAF, [0.9, 0.3, 0.6], 11)
    assert [ticks_of(ep.tx, i) for i in (1, 2, 3)] == [[1, 7, 8], [2, 6, 9], [3, 5, 10]]
    assert [ticks_of(ep.act, i) for i in (1, 2, 3)] == [[1, 7, 8], [2, 6, 9], [3, 10]]
    # node 2 wakes on the reversal and averages its neighbors' tick-start
    # values (node 3's broadcast) with its own
    assert ep.est[6, 2] == pytest.approx(
        (ep.est[5, 1] + ep.est[5, 3] + ep.est[5, 2]) / 3, abs=1e-15)


def test_baf_no_reversal_when_larger_counter_heard():
    # interior nodes of line:4 hear their downstream neighbor's larger
    # counter and never turn the flood around: every broadcast is an update
    ep = episode(make_line(4), ProtocolKind.BAF, [0.9, 0.3, 0.6], 40)
    for i in (1, 2):
        assert np.array_equal(ep.tx[:, i], ep.act[:, i])
    # lose node 3's counter-3 message at tick 4 and node 2 has heard only
    # the smaller counter 1: it turns around at tick 4 without updating
    cut = episode(make_line(4), ProtocolKind.BAF, [0.9, 0.3, 0.6], 6, down=[(4, (2, 3))])
    assert cut.tx[4, 2] == 1 and cut.act[4, 2] == 0


def test_baf_same_status_no_update():
    # after waking at tick 1, node 1 hears only same-status messages (the
    # gateway every tick, node 2 at tick 3) until the backward wave at tick 7
    ep = episode(make_line(4), ProtocolKind.BAF, [0.9, 0.3, 0.6], 8)
    assert ticks_of(ep.act, 1) == [1, 7]
    assert np.all(ep.est[1:7, 1] == ep.est[1, 1])
    assert ep.tx[2:7, 1].sum() == 0


def test_baf_zero_same_status_heard_never_fires():
    # the gateway's link is dead throughout: no node ever hears a message,
    # so none wakes, and none turns a flood around either
    ticks = 30
    ep = episode(make_line(4), ProtocolKind.BAF, [0.9, 0.3, 0.6], ticks,
                 down=[(k, (0, 1)) for k in range(ticks)])
    assert ep.tx[:, 1:].sum() == 0
    assert np.all(ep.est[:, 1:] == [0.9, 0.3, 0.6])


# --- synchronous baseline -----------------------------------------------------

def test_baseline_two_node_tracks_gateway():
    # node 1 copies the gateway's current time on every tick its link lives
    ep = episode(make_line(2), ProtocolKind.SYNC_BASELINE, [0.77], 6, down=[(3, (0, 1))])
    assert ep.est[1:, 1].tolist() == [0.001, 0.002, 0.002, 0.004, 0.005]


def test_baseline_fixed_point_when_all_equal_gateway():
    # leaves of a star around the gateway equal the gateway from tick 1 on
    # and stay there
    star = Topology.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ep = episode(star, ProtocolKind.SYNC_BASELINE, [0.3, 0.6, 0.9], 20)
    gw = DELTA * np.arange(20)
    assert np.all(ep.est[1:, 1:] == gw[1:, None])


def test_baseline_three_node_line_hand_iteration():
    # line 0-1-2; independent hand recurrence:
    #   t1(k) = (delta*k + t2(k-1)) / 2 ; t2(k) = t1(k-1)
    t1, t2 = 0.4, 0.8
    ep = episode(make_line(3), ProtocolKind.SYNC_BASELINE, [t1, t2], 4)
    for k in range(1, 4):
        t1, t2 = (DELTA * k + t2) / 2.0, t1
        assert ep.est[k, 1] == pytest.approx(t1, abs=1e-15)
        assert ep.est[k, 2] == pytest.approx(t2, abs=1e-15)
