"""Transient-dip detection: a length-7 antisymmetric difference filter over a
node's own estimate series, with zero-crossing detection.

The filter is a smoothed slope estimator.  While a node's estimate descends
toward the rising gateway line the output is negative; once the estimate
starts tracking the gateway from below it turns positive.  The detector finds
that sign change of the filtered slope, which is not the tick of least error
against the gateway (the argmin that `metrics.dip_metrics` reads): over
seeds 1-11 and 4000 ticks, freezing off, it lies a median of 0-4 ticks from
the argmin on grid16 and falls a median of 71.5-134 ticks before it on
line16 (tests/test_dip_crossing.py pins these).
The causal realization delays the noncausal kernel by 3 samples, so on a fire
the dip is attributed to the window's center sample and the frozen clock
takes that sample's value.

`DipDetector` is the one detector of the package: the tick kernels in
`_kernels.py` run one per node over that node's updates, until it fires, and
apply the freeze rule there.  Its independent check is `_observe_dip` in the
array-form test oracle (tests/array_kernels.py), which the kernels' outputs
are held to bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ProtocolViolation

# Weights applied to the window ordered oldest -> newest.  Antisymmetric,
# zero-sum, zero center tap: length 7 with 6 nonzero taps.
FILTER_TAPS = (-0.2, -0.5, -0.2, 0.0, 0.2, 0.5, 0.2)

WINDOW_LEN = 7
CAUSAL_DELAY = 3
WARMUP_OUTPUTS = 3


def filter_output(window: Sequence[float]) -> float:
    """Apply the difference filter to exactly 7 samples (oldest first).

    Evaluated in paired form 0.2(x6-x0) + 0.5(x5-x1) + 0.2(x4-x2), which is
    exactly zero on constant and even-symmetric windows (the zero-crossing
    rule relies on exact zeros).
    """
    if len(window) != WINDOW_LEN:
        raise ValueError(f"window must hold exactly {WINDOW_LEN} samples")
    return (
        0.2 * (window[6] - window[0])
        + 0.5 * (window[5] - window[1])
        + 0.2 * (window[4] - window[2])
    )


class DipDetector:
    """Streaming zero-crossing detector over one node's estimate samples.

    Feed one (tick, estimate) pair per communication instant via `observe`.
    The first `WARMUP_OUTPUTS` outputs only seed the sign comparison;
    afterwards the detector fires once, on a strict sign change or an exact
    zero, records the tick it fired at, and reports the dip at the window's
    center sample (undoing the 3-sample delay).  Until it fires, `fire_tick`
    and `dip_tick` are -1 and `dip_value` is 0.0, as in a `Trace`.
    """

    def __init__(self):
        self.ticks = []
        self.values = []
        self.last_output = 0.0
        self.outputs_seen = 0
        self.fired = False
        self.fire_tick = -1
        self.dip_tick = -1
        self.dip_value = 0.0

    def observe(self, estimate: float, tick: int) -> bool:
        if self.fired:
            raise ProtocolViolation("detector observed after firing")
        self.ticks.append(tick)
        self.values.append(float(estimate))
        if len(self.values) > WINDOW_LEN:
            del self.ticks[0]
            del self.values[0]
        if len(self.values) < WINDOW_LEN:
            return False
        y = filter_output(self.values)
        self.outputs_seen += 1
        # the warm-up outputs come first, so a test always has an earlier one
        crossed = (self.outputs_seen > WARMUP_OUTPUTS
                   and (y == 0.0 or y * self.last_output < 0.0))
        self.last_output = y
        if crossed:
            self.fired = True
            self.fire_tick = tick
            self.dip_tick = self.ticks[CAUSAL_DELAY]
            self.dip_value = self.values[CAUSAL_DELAY]
        return crossed
