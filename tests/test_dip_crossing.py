"""The dip error is a line crossing sampled on the tick grid, pinned as it is
today.

A node's dip error (`metrics.dip_metrics`) is the minimum over the ticks of
|gateway time - estimate|, and its argmin is the first tick that attains
it.  The estimate is a held value that moves only on updates, while the
gateway time grows by delta a tick, so the minimum is almost always where
the gateway line crosses the estimate: the argmin is a crossing when the
sign (`np.sign`, 0 for an exact tie) of gateway time minus estimate at the
argmin differs from its sign at the tick before it or at the tick after it.
The dip error is then set by where the crossing falls within a tick.

The node's dip detector (`Trace.dip_tick`) locates the sign change of the
filtered slope, which is not the argmin.  Its offset, dip tick minus argmin
over the nodes whose detector fired, is small on the 4x4 grid and large
and early on the 16-node line.

Measured on grid16 and line16 (`cli.scenario_config`: perfect links, no
attacker, freezing off), seeds 1-11, 4000 ticks, 165 non-gateway nodes per
protocol.  These tests record the current model's behavior; a kernel change
that moves a value has to update them on purpose.
"""

import numpy as np
import pytest

from dipsync.cli import scenario_config
from dipsync.engine import run
from dipsync.metrics import dip_metrics
from dipsync.protocol import ProtocolKind

SEEDS = range(1, 12)
TICKS = 4000


def crossings_and_offsets(scenario, proto):
    """Over seeds 1-11: the number of non-gateway nodes whose error argmin is
    a crossing, the number of nodes, and each fired detector's dip tick
    minus the argmin."""
    crossings, nodes, offsets = 0, 0, []
    for seed in SEEDS:
        trace = run(scenario_config(scenario, proto, seed, TICKS))
        argmins = dip_metrics(trace).k_dip_tick
        gateway = trace.estimates[:, 0]
        for i, m in enumerate(argmins.tolist(), 1):
            sign = np.sign(gateway - trace.estimates[:, i])
            crossings += bool(m > 0 and sign[m - 1] != sign[m]
                              or m < TICKS - 1 and sign[m + 1] != sign[m])
            nodes += 1
            if trace.dip_tick[i] >= 0:
                offsets.append(int(trace.dip_tick[i]) - m)
    return crossings, nodes, offsets


@pytest.mark.parametrize("scenario,proto,crossings,median_offset", [
    ("grid16", ProtocolKind.TSAU, 162, 4),
    ("grid16", ProtocolKind.UAF, 164, 4),
    ("grid16", ProtocolKind.BAF, 161, 0),
    ("line16", ProtocolKind.TSAU, 159, -134),
    ("line16", ProtocolKind.UAF, 165, -71.5),
    ("line16", ProtocolKind.BAF, 164, -81.5),
], ids=lambda v: getattr(v, "value", None))
def test_dip_error_is_a_sampled_crossing(scenario, proto, crossings, median_offset):
    got, nodes, offsets = crossings_and_offsets(scenario, proto)
    assert nodes == 165
    assert got == crossings
    assert np.median(offsets) == median_offset
