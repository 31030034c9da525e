import tracemalloc

import numpy as np
import pytest

from dipsync.engine import SimConfig, Trace, run
from dipsync.metrics import (
    dip_metrics,
    error_series,
    summary_table,
    total_energy,
)
from dipsync.protocol import ProtocolKind
from dipsync.topology import Topology, make_grid, make_line

DELTA = 0.001


def synthetic_trace(estimates, delta=DELTA, activated=None, transmitted=None):
    est = np.asarray(estimates, dtype=float)
    ticks, nodes = est.shape
    if activated is None:
        activated = np.ones((ticks, nodes), dtype=np.uint8)
        activated[0] = 0
        activated[:, 0] = 0
    if transmitted is None:
        transmitted = activated.copy()
    cfg = SimConfig(topology=make_line(max(nodes, 2)), protocol=ProtocolKind.SYNC_BASELINE,
                    delta=delta)
    return Trace(
        estimates=est, activated=activated, frozen=np.zeros_like(activated),
        transmitted=transmitted,
        messages_sent=np.zeros(ticks, dtype=np.int64),
        messages_delivered=np.zeros(ticks, dtype=np.int64),
        dip_tick=np.full(nodes, -1, dtype=np.int64),
        dip_value=np.zeros(nodes),
        dip_fire_tick=np.full(nodes, -1, dtype=np.int64),
        config=cfg,
    )


# --- dip metrics ---------------------------------------------------------------

def test_dip_metrics_error_free_tick():
    # both nodes exactly on gateway time at tick 5
    ticks = 10
    est = np.zeros((ticks, 3))
    gw = DELTA * np.arange(ticks)
    est[:, 0] = gw
    est[:, 1] = gw + 0.01
    est[:, 2] = gw + 0.01
    est[5, 1] = gw[5]
    est[5, 2] = gw[5]
    dm = dip_metrics(synthetic_trace(est))
    assert dm.v_k_dip == 0.0
    assert dm.k_dip_min == 5.0
    assert dm.e_dip_min == 0.0


def test_dip_metrics_two_node_variance_formula():
    # minima at ticks 4 and 6 -> mean 5, variance ((4-5)^2 + (6-5)^2)/2 = 1.0
    ticks = 10
    est = np.zeros((ticks, 3))
    gw = DELTA * np.arange(ticks)
    est[:, 0] = gw
    est[:, 1] = gw + 0.02
    est[:, 2] = gw + 0.02
    est[4, 1] = gw[4] + 1e-6
    est[6, 2] = gw[6] + 1e-6
    dm = dip_metrics(synthetic_trace(est))
    assert dm.k_dip_min == 5.0
    assert dm.v_k_dip == 1.0


def test_dip_metrics_first_minimizer_on_ties():
    ticks = 8
    est = np.zeros((ticks, 2))
    gw = DELTA * np.arange(ticks)
    est[:, 0] = gw
    est[:, 1] = gw + 0.01
    est[3, 1] = gw[3]
    est[6, 1] = gw[6]  # same minimal error, later
    dm = dip_metrics(synthetic_trace(est))
    assert dm.k_dip_tick[0] == 3


def test_dip_metrics_matches_exhaustive_scan():
    # cross-check against a brute-force scan on a real trace
    trace = run(SimConfig(topology=make_grid(3, 3), protocol=ProtocolKind.TSAU,
                          max_ticks=600, seed=5, freeze_on_dip=False))
    dm = dip_metrics(trace)
    err = trace.errors
    for idx, i in enumerate(range(1, 9)):
        best_tick = min(range(trace.n_ticks), key=lambda k: (err[k, i], k))
        assert dm.k_dip_tick[idx] == best_tick
        assert dm.e_dip[idx] == err[best_tick, i]
        assert dm.k_dip[idx] == trace.transmitted[: best_tick + 1, i].sum()


def test_dip_metrics_memory_is_one_error_column():
    # 100000 ticks of grid16: the (ticks, nodes) estimates are 12.8 MB, and
    # dip_metrics holds a few (ticks,) columns of 0.8 MB, not a copy of them
    trace = run(SimConfig(topology=make_grid(4, 4), protocol=ProtocolKind.TSAU,
                          max_ticks=100_000, seed=1, link_p=0.5, freeze_on_dip=False))
    tracemalloc.start()
    try:
        dip_metrics(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trace.estimates.nbytes // 2


def test_dip_metrics_rejects_single_node():
    est = np.zeros((5, 1))
    with pytest.raises(ValueError):
        dip_metrics(synthetic_trace(est))


def test_dip_metrics_uses_detector_cycle_counts_in_docs_example():
    # nodes that never transmitted report cycle 0 (pre-first-update dip)
    ticks = 6
    est = np.zeros((ticks, 2))
    est[:, 1] = 0.002
    tx = np.zeros((ticks, 2), dtype=np.uint8)
    dm = dip_metrics(synthetic_trace(est, transmitted=tx))
    assert dm.k_dip[0] == 0.0


def test_dip_cycles_halves_baf_counts():
    # BAF transmits twice per wake-up cycle, so its k_dip is the node's
    # transmissions up to and including its argmin tick, divided by 2
    trace = run(SimConfig(topology=make_grid(3, 3), protocol=ProtocolKind.BAF,
                          max_ticks=300, seed=2, freeze_on_dip=False))
    dm = dip_metrics(trace)
    assert np.array_equal(dm.k_dip_tick, trace.errors[:, 1:].argmin(axis=0))
    tx = np.array([trace.transmitted[: k + 1, i].sum()
                   for i, k in enumerate(dm.k_dip_tick, 1)])
    assert (tx % 2).any()
    assert np.array_equal(dm.k_dip, tx / 2)
    assert dm.k_dip_min == (tx / 2).mean()


# --- error series ----------------------------------------------------------------

def test_error_series_all_equal():
    est = np.full((7, 4), 0.5)
    es = error_series(synthetic_trace(est))
    for arr in (es.e_max_g, es.e_avg_g, es.e_max_l, es.e_avg_l):
        assert np.all(arr == 0.0)


def test_error_series_hand_values_line():
    # the synthetic trace's line 0-1-2 with clocks {0, 1, 3}: global spread 3,
    # worst link 2
    est = np.array([[0.0, 1.0, 3.0]])
    es = error_series(synthetic_trace(est))
    assert es.e_max_g[0] == 3.0
    assert es.e_max_l[0] == 2.0
    # per-node worst pairwise: node0 -> 3, node1 -> 2, node2 -> 3
    assert es.e_avg_g[0] == pytest.approx((3 + 2 + 3) / 3)
    # per-node worst neighbor: node0 -> 1, node1 -> 2, node2 -> 2
    assert es.e_avg_l[0] == pytest.approx((1 + 2 + 2) / 3)


def test_error_series_invariants_on_real_trace():
    topo = make_grid(3, 3)
    trace = run(SimConfig(topology=topo, protocol=ProtocolKind.SYNC_BASELINE,
                          max_ticks=300, seed=9, freeze_on_dip=False))
    es = error_series(trace)
    assert np.all(es.e_avg_g <= es.e_max_g + 1e-15)
    assert np.all(es.e_avg_l <= es.e_max_l + 1e-15)
    assert np.all(es.e_avg_l <= es.e_avg_g + 1e-15)


def test_error_series_translation_invariance():
    base = np.array([[0.1, 0.4, 0.2, 0.9]])
    shifted = base + 5.0
    a = error_series(synthetic_trace(base))
    b = error_series(synthetic_trace(shifted))
    for x, y in zip((a.e_max_g, a.e_avg_g, a.e_max_l, a.e_avg_l),
                    (b.e_max_g, b.e_avg_g, b.e_max_l, b.e_avg_l)):
        assert np.allclose(x, y, atol=1e-12)


# --- energy -----------------------------------------------------------------------

def test_energy_tsau_cpu_term_hand_value():
    # 141 one-microsecond ticks * 8 mA * 2.7 V = 3.0456 microjoules
    rep = total_energy(141, 6)
    assert rep.cpu_energy == pytest.approx(141e-6 * 8.0e-3 * 2.7, rel=1e-15)
    assert rep.cpu_energy == pytest.approx(3.0456e-6, rel=1e-12)


def test_energy_total_is_sum_of_parts():
    rep = total_energy(133, 7)
    assert rep.total == pytest.approx(rep.cpu_energy + rep.tx_energy + rep.rx_energy, rel=1e-15)


def test_energy_empty_payload_pays_for_the_framing():
    # 18 framing bytes = 144 bits at 250 kbit/s = 576 us on air;
    # 576 us * 21 mA * 2.7 V and 576 us * 23.3 mA * 2.7 V
    rep = total_energy(100, 0)
    assert rep.tx_energy == pytest.approx(32.6592e-6, rel=1e-12)
    assert rep.rx_energy == pytest.approx(36.23616e-6, rel=1e-12)
    assert rep.cpu_energy > 0


def test_energy_linear_in_packet_length():
    # payloads of 10 and 38 bytes are packets of 28 and 56 bytes
    small = total_energy(50, 10)
    big = total_energy(50, 38)
    assert big.tx_energy + big.rx_energy == pytest.approx(
        2 * (small.tx_energy + small.rx_energy), rel=1e-12)
    assert big.cpu_energy == small.cpu_energy


def test_energy_linear_in_cpu_ticks():
    a = total_energy(100, 6)
    b = total_energy(200, 6)
    assert b.cpu_energy == pytest.approx(2 * a.cpu_energy, rel=1e-12)


@pytest.mark.parametrize("cpu,payload", [(0, 6), (-3, 6), (100, -1)])
def test_energy_rejects_bad_inputs(cpu, payload):
    with pytest.raises(ValueError):
        total_energy(cpu, payload)


# --- summary table ----------------------------------------------------------------

def _dm(e, k, v):
    return type("DM", (), {"e_dip_min": e, "k_dip_min": k, "v_k_dip": v})()


def test_summary_table_single_row():
    out = summary_table([("tsau", _dm(1e-4, 10.0, 0.5))])
    lines = out.strip().split("\n")
    assert lines[0] == "protocol,E_dip_min,k_dip_min,V_k_dip"
    assert len(lines) == 2
    assert lines[1].startswith("tsau,")


def test_summary_table_canonical_order():
    out = summary_table([
        ("baf", _dm(1, 1, 1)), ("tsau", _dm(2, 2, 2)), ("uaf", _dm(3, 3, 3)),
    ])
    names = [ln.split(",")[0] for ln in out.strip().split("\n")[1:]]
    assert names == ["tsau", "uaf", "baf"]


def test_summary_table_empty_is_header_only():
    assert summary_table([]) == "protocol,E_dip_min,k_dip_min,V_k_dip\n"
