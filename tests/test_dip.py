import numpy as np
import pytest

import array_kernels
from dipsync.dip import FILTER_TAPS, WARMUP_OUTPUTS, WINDOW_LEN, DipDetector, filter_output
from dipsync.engine import SimConfig, run
from dipsync.errors import ProtocolViolation
from dipsync.protocol import ProtocolKind
from dipsync.topology import make_grid


def feed(det, series, start_tick=0):
    fired_at = None
    for off, v in enumerate(series):
        if det.observe(v, start_tick + off):
            fired_at = start_tick + off
            break
    return fired_at


def test_constant_window_is_zero():
    assert filter_output([3.7] * 7) == 0.0


def test_unit_ramp_value():
    # 0.2*(6-2) + 0.5*(5-1) + 0.2*(4-0) = 0.8 + 2.0 + 0.8 ... computed: 3.6
    assert filter_output([0, 1, 2, 3, 4, 5, 6]) == pytest.approx(3.6, abs=1e-15)


def test_symmetric_vee_is_zero():
    assert filter_output([3, 2, 1, 0, 1, 2, 3]) == pytest.approx(0.0, abs=1e-15)


def test_filter_taps_are_antisymmetric_with_zero_centre():
    assert len(FILTER_TAPS) == WINDOW_LEN
    assert FILTER_TAPS[WINDOW_LEN // 2] == 0.0
    assert all(FILTER_TAPS[j] == -FILTER_TAPS[-1 - j] for j in range(WINDOW_LEN))


def test_filter_output_is_the_tap_weighted_sum():
    # filter_output evaluates the taps in paired form; the plain weighted sum
    # differs from it by rounding only
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 1e6):
        for _ in range(200):
            w = rng.uniform(-scale, scale, WINDOW_LEN).tolist()
            weighted = sum(t * x for t, x in zip(FILTER_TAPS, w))
            assert abs(filter_output(w) - weighted) <= 1e-12 * max(map(abs, w))


def test_filter_rejects_wrong_length():
    with pytest.raises(ValueError):
        filter_output([1.0] * 6)


def test_filter_linearity_and_shift_invariance():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        x = rng.random(7)
        y = rng.random(7)
        a, b = rng.random(2) * 4 - 2
        lin = filter_output(a * x + b * y)
        assert lin == pytest.approx(a * filter_output(x) + b * filter_output(y), abs=1e-12)
        shift = filter_output(x + 123.456)
        assert shift == pytest.approx(filter_output(x), abs=1e-12)


def test_detector_fires_near_series_minimum():
    # V-shaped estimate trajectory: strictly decreasing then increasing;
    # the sign change of the smoothed slope marks the turn
    series = [1.0 - 0.05 * k for k in range(20)] + [0.05 + 0.03 * k for k in range(20)]
    true_min = int(np.argmin(series))
    det = DipDetector()
    fired = feed(det, series)
    assert fired is not None
    assert abs(det.dip_tick - true_min) <= 2


def test_detector_never_fires_on_monotone_series():
    det = DipDetector()
    assert feed(det, [0.1 * k for k in range(100)]) is None


def test_detector_needs_seven_samples():
    det = DipDetector()
    assert feed(det, [5, 4, 3, 2, 1, 0.5]) is None
    assert det.outputs_seen == 0


def test_detector_fires_once_then_rejects():
    series = [1.0 - 0.05 * k for k in range(15)] + [0.3 + 0.05 * k for k in range(15)]
    det = DipDetector()
    fired_tick = feed(det, series, start_tick=100)
    assert fired_tick is not None
    assert det.dip_tick == fired_tick - 3  # causal delay undone
    assert det.dip_value == series[det.dip_tick - 100]
    with pytest.raises(ProtocolViolation):
        det.observe(1.0, 999)


def test_warmup_swallows_early_crossings():
    # an immediate kink would flip the sign within the first 3 outputs;
    # warm-up keeps the detector quiet there
    series = [1.0, 0.8, 0.6, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8]
    det = DipDetector()
    fired = feed(det, series)
    assert fired is None or det.outputs_seen > WARMUP_OUTPUTS


def test_exact_zero_counts_as_crossing():
    # descend, then hold perfectly flat: the output hits exactly 0
    series = [10.0 - k for k in range(9)] + [1.0] * 12
    det = DipDetector()
    assert feed(det, series) is not None


def grid16_run(proto, freeze):
    return run(SimConfig(topology=make_grid(4, 4), protocol=proto, max_ticks=1500,
                         seed=3, freeze_on_dip=freeze))


def test_freeze_at_dip_takes_center_sample():
    for proto in ProtocolKind:
        trace = grid16_run(proto, freeze=True)
        fired = [i for i in range(16) if trace.dip_fire_tick[i] >= 0]
        assert fired
        for i in fired:
            fire, dip = int(trace.dip_fire_tick[i]), int(trace.dip_tick[i])
            updates = np.nonzero(trace.activated[:, i])[0].tolist()
            # the fire is the node's last update; the window's center
            # sample, three updates earlier, is the dip
            assert updates[-1] == fire
            assert updates[-4] == dip
            assert trace.dip_value[i] == trace.estimates[dip, i]
            # the frozen clock holds that sample's value from the fire tick on
            assert np.all(trace.estimates[fire:, i] == trace.dip_value[i])


def test_freeze_requires_fire_and_rejects_double():
    for proto in ProtocolKind:
        trace = grid16_run(proto, freeze=True)
        assert trace.dip_fire_tick[0] == -1  # the gateway never freezes
        for i in range(16):
            fire = int(trace.dip_fire_tick[i])
            frozen = trace.frozen[:, i]
            if fire < 0:
                assert not frozen.any()
            else:
                # frozen once, from the fire tick on, and never updated again
                assert not frozen[:fire].any() and frozen[fire:].all()
                assert not trace.activated[fire + 1:, i].any()
        # without freezing the detectors still fire, but nothing freezes
        free = grid16_run(proto, freeze=False)
        assert (free.dip_fire_tick >= 0).any()
        assert not free.frozen.any()


def _oracle_fire(series):
    """Feed `series` (ticks 0, 1, ...) to the array oracle's `_observe_dip`
    for one node, with the detector's warm-up; return (fire tick, dip tick,
    dip value), or None."""
    win_t = np.zeros((1, 7), dtype=np.int64)
    win_v = np.zeros((1, 7))
    win_n = np.zeros(1, dtype=np.int64)
    nout = np.zeros(1, dtype=np.int64)
    yprev = np.zeros(1)
    fired = np.zeros(1, dtype=np.uint8)
    frozen = np.zeros(1, dtype=np.uint8)
    dip_tick = np.full(1, -1, dtype=np.int64)
    dip_val = np.zeros(1)
    fire_tick = np.full(1, -1, dtype=np.int64)
    est = np.zeros(1)
    for k, v in enumerate(series):
        array_kernels._observe_dip(0, k, v, WARMUP_OUTPUTS, win_t, win_v, win_n, nout,
                                   yprev, fired, frozen, dip_tick, dip_val,
                                   fire_tick, est, False)
        if fired[0]:
            return int(fire_tick[0]), int(dip_tick[0]), float(dip_val[0])
    return None


def _detector_fire(series):
    det = DipDetector()
    for k, v in enumerate(series):
        if det.observe(v, k):
            return k, det.dip_tick, det.dip_value
    return None


def _streams():
    rng = np.random.default_rng(11)
    yield [0.5] * 7
    yield [0.5] * 12
    yield [10.0 - k for k in range(9)] + [1.0] * 12
    for _ in range(40):
        yield rng.random(int(rng.integers(7, 40))).tolist()
    for _ in range(20):
        # coarse values: exact-zero outputs and equal runs
        yield rng.integers(0, 3, int(rng.integers(7, 30))).astype(float).tolist()


def test_detector_matches_array_oracle():
    fires = 0
    for series in _streams():
        want = _oracle_fire(series)
        assert _detector_fire(series) == want, series
        fires += want is not None
    assert fires > 0

