"""The lossy-link regimes of UAF and BAF flooding, pinned as they are today.

On the 4x4 grid (seed 1, no freezing, 16000 ticks) the steady broadcast
rate, the mean of `messages_sent` over the last 8000 ticks, falls into
three regimes:

  * clean links: the floods run as designed, a few broadcasts per tick;
  * a storm at p = 0.9: nearly every node wakes and broadcasts every tick;
  * a BAF deadlock at p = 0.5: after an early tick (554 on seed 1) no
    non-gateway node updates again, and only the gateway still broadcasts.

These tests record the current model's behavior; they do not claim it is
the intended one.  A change to the flooding rules that moves a regime has
to update them on purpose.
"""

import numpy as np
import pytest

from dipsync.engine import SimConfig, run
from dipsync.protocol import ProtocolKind
from dipsync.topology import make_grid

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
