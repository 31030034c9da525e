import math

import numpy as np
import pytest

from dipsync.clock import resync_period
from dipsync.engine import SimConfig, Trace, run, substream
from dipsync.protocol import ProtocolKind
from dipsync.topology import make_grid, make_line


def gateway_times(delta, ticks):
    """`Trace.gateway_times` of a `ticks`-tick trace at tick length `delta`.
    The property reads only the tick count and delta, so the trace holds no
    node columns."""
    empty = np.empty((ticks, 0))
    config = SimConfig(topology=make_line(2), protocol=ProtocolKind.TSAU, delta=delta,
                       max_ticks=ticks)
    return Trace(empty, empty, empty, empty, None, None, None, None, None,
                 config=config).gateway_times


def test_gateway_time_zero():
    assert gateway_times(0.001, 1)[0] == 0.0


def test_gateway_time_product():
    assert gateway_times(0.001, 1001)[1000] == 1.0
    assert gateway_times(0.5, 8)[7] == 3.5


def test_gateway_time_no_accumulated_error():
    # product form: exact for values representable as delta*k, where a
    # running sum of delta has drifted to 999.9999999832651
    delta = 0.001
    k = 1_000_000
    assert gateway_times(delta, k + 1)[k] == delta * k == 1000.0


def test_gateway_time_near_linearity():
    delta = 0.001
    times = gateway_times(delta, 66667)
    for a, b in [(3, 4), (100, 900), (12345, 54321)]:
        lhs = times[a + b]
        rhs = times[a] + times[b]
        assert lhs == pytest.approx(rhs, abs=math.ulp(rhs))


def initial_clocks(seed, protocol=ProtocolKind.TSAU, **kw):
    """Tick-0 estimates of a 4x4 grid episode: the nodes' initial clocks."""
    config = SimConfig(topology=make_grid(4, 4), protocol=protocol, max_ticks=1,
                       seed=seed, **kw)
    return run(config).estimates[0]


def test_init_node_clock_range_and_fields():
    clocks = initial_clocks(42)
    assert clocks[0] == 0.0
    assert np.all((0.0 <= clocks[1:]) & (clocks[1:] < 1.0))
    # drawn in node-id order from the "init-clocks" sub-stream
    assert np.array_equal(clocks[1:], substream(42, "init-clocks").random(15))


def test_init_node_clock_distinct_draws():
    clocks = initial_clocks(1)
    assert len(set(clocks[1:].tolist())) == 15
    assert np.all(clocks[1:] != initial_clocks(2)[1:])


def test_init_node_clock_deterministic():
    clocks = initial_clocks(99)
    assert np.array_equal(clocks, initial_clocks(99))
    # the draw has its own sub-stream: protocol, links and attacker leave it alone
    for proto in ProtocolKind:
        assert np.array_equal(clocks, initial_clocks(99, proto, link_p=0.5, malicious=True))


def test_resync_period_reference_example():
    # 100 ppm drift, 1 ms accuracy -> resynchronize every 10 seconds
    assert resync_period(100, 0.001) == 10.0


def test_resync_period_scaling():
    assert resync_period(100, 0.0001) == pytest.approx(1.0)
    assert resync_period(50, 0.001) == pytest.approx(20.0)


def test_resync_period_homogeneity():
    base = resync_period(80, 0.002)
    assert resync_period(80, 0.004) == pytest.approx(2 * base)
    assert resync_period(160, 0.002) == pytest.approx(base / 2)


@pytest.mark.parametrize("drift,acc", [(0, 0.001), (-5, 0.001), (100, 0), (100, -1)])
def test_resync_period_rejects_nonpositive(drift, acc):
    with pytest.raises(ValueError):
        resync_period(drift, acc)
