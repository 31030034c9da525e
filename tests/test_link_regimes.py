"""The lossy-link regimes of UAF and BAF flooding, pinned as they are today.

On the 4x4 grid (seed 1, no freezing, 16000 ticks) the steady broadcast
rate, the mean of `messages_sent` over the last 8000 ticks, falls into
three regimes:

  * clean links: the floods run as designed, a few broadcasts per tick;
  * a storm at p = 0.9: nearly every node wakes and broadcasts every tick;
  * a BAF deadlock at p = 0.5: after an early tick (554 on seed 1) no
    non-gateway node updates again, and only the gateway still broadcasts.

Over seeds 1-11 (no freezing, 16000 ticks) each run is classified by its
second half: a deadlock if no non-gateway node activates in it, a storm if
its mean `messages_sent` reaches 0.85 x nodes, clean otherwise.  BAF
deadlocks at p = 0.5 on the 4x4 grid and on line:8 in every seed; at
p = 0.99 and 0.9 on line:8, and at p = 0.99 on the grid, the seed decides
between a deadlock and a storm.  UAF on line:8 runs clean at every p.

These tests record the current model's behavior; they do not claim it is
the intended one.  A change to the flooding rules that moves a regime has
to update them on purpose.
"""

import functools

import numpy as np
import pytest

from dipsync._forkmap import fork_map, usable_cpus
from dipsync.engine import SimConfig, run
from dipsync.protocol import ProtocolKind
from dipsync.topology import make_grid, make_line

TICKS = 16000


def flood(proto, link_p):
    trace = run(SimConfig(topology=make_grid(4, 4), protocol=proto, max_ticks=TICKS,
                          seed=1, link_p=link_p, freeze_on_dip=False))
    rate = float(trace.messages_sent[TICKS // 2:].mean())
    return trace, rate


@pytest.mark.parametrize("proto,expected", [
    (ProtocolKind.UAF, 2.286), (ProtocolKind.BAF, 3.307),
], ids=["uaf", "baf"])
def test_clean_links_steady_rate(proto, expected):
    _, rate = flood(proto, 1.0)
    assert rate == pytest.approx(expected, abs=5e-4)


@pytest.mark.parametrize("proto", [ProtocolKind.UAF, ProtocolKind.BAF],
                         ids=["uaf", "baf"])
def test_storm_at_p_0_9(proto):
    # 16 nodes: a rate of 16 is every node broadcasting every tick
    _, rate = flood(proto, 0.9)
    assert rate >= 14


def test_baf_deadlock_at_p_0_5():
    trace, rate = flood(ProtocolKind.BAF, 0.5)
    active_ticks = np.nonzero(trace.activated[:, 1:].any(axis=1))[0]
    assert active_ticks.max() == 554
    assert rate == 1.0


SEEDS = range(1, 12)
TOPOLOGIES = {"grid16": make_grid(4, 4), "line8": make_line(8)}


def regime(topology, proto, link_p, seed):
    """"d" (deadlock), "s" (storm) or "c" (clean): the regime of the second
    half of a run without freezing."""
    trace = run(SimConfig(topology=TOPOLOGIES[topology], protocol=proto, max_ticks=TICKS,
                          seed=seed, link_p=link_p, freeze_on_dip=False))
    late = slice(TICKS // 2, None)
    if not trace.activated[late, 1:].any():
        return "d"
    if trace.messages_sent[late].mean() >= 0.85 * trace.node_count:
        return "s"
    return "c"


@pytest.mark.parametrize("topology,proto,link_p,regimes", [
    ("grid16", ProtocolKind.BAF, 0.99, "sdsssssssss"),
    ("grid16", ProtocolKind.BAF, 0.5, "ddddddddddd"),
    ("line8", ProtocolKind.BAF, 1.0, "ccccccccccc"),
    ("line8", ProtocolKind.BAF, 0.99, "dsdddsddsds"),
    ("line8", ProtocolKind.BAF, 0.9, "ssddddssssd"),
    ("line8", ProtocolKind.BAF, 0.5, "ddddddddddd"),
    ("line8", ProtocolKind.UAF, 1.0, "ccccccccccc"),
    ("line8", ProtocolKind.UAF, 0.99, "ccccccccccc"),
    ("line8", ProtocolKind.UAF, 0.9, "ccccccccccc"),
    ("line8", ProtocolKind.UAF, 0.5, "ccccccccccc"),
])
def test_regime_per_seed(topology, proto, link_p, regimes):
    # one letter per seed 1-11; the seeds run on every usable CPU
    got = fork_map(functools.partial(regime, topology, proto, link_p), SEEDS,
                   min(usable_cpus(), len(SEEDS)), cost=lambda seed: 1)
    assert "".join(got) == regimes
