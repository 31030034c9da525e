import dataclasses
import io
import os
import tempfile
import time
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import array_kernels
from test_cli import assert_no_child_left, use_cpus
import dipsync._kernels as kernels
import dipsync.engine as engine
from dipsync._forkmap import WorkerTraceback
from dipsync.cli import scenario_config
from dipsync.dip import DipDetector
from dipsync.engine import (
    SimConfig,
    config_from_mapping,
    parse_keyvalue_file,
    run,
    substream,
    topology_from_spec,
)
from dipsync.errors import ConfigError, EpisodeAborted
from dipsync.protocol import ProtocolKind
from dipsync.topology import Topology, connectivity_layers, make_grid, make_line

DELTA = 0.001


def cfg(topo, proto, **kw):
    kw.setdefault("freeze_on_dip", False)
    return SimConfig(topology=topo, protocol=proto, **kw)


def init_values(seed, n):
    vals = np.zeros(n)
    vals[1:] = substream(seed, "init-clocks").random(n - 1)
    return vals


# ---------------------------------------------------------------------------
# independent mini-simulators (plain-dict reference implementations)
# ---------------------------------------------------------------------------

def ref_tsau(topo, init, ticks, delta=DELTA):
    n = topo.node_count
    est = init.copy()
    acc = {i: [] for i in range(n)}
    bcast = {0: 0.0}  # sender -> value, sent last tick
    out = np.zeros((ticks, n))
    out[0] = est
    for k in range(1, ticks):
        for sender, val in bcast.items():
            for j in topo.neighbors[sender]:
                if j != 0:
                    acc[j].append(val)
        bcast = {}
        slot = ((k - 1) % (n - 1)) + 1
        if len(acc[slot]) > 1:
            est[slot] = sum(acc[slot]) / len(acc[slot])
        acc[slot] = []
        bcast[slot] = est[slot]
        if k % (n - 1) == 0:
            bcast[0] = delta * k
        est[0] = delta * k
        out[k] = est
    return out


def ref_uaf(topo, init, ticks, delta=DELTA):
    n = topo.node_count
    cyc = max(connectivity_layers(topo)) + 1
    est = init.copy()
    s = [0] * n
    pend = {}
    bcast = {0: (0.0, 1)}  # sender -> (value, status)
    gw_last = 0.0
    out = np.zeros((ticks, n))
    out[0] = est
    for k in range(1, ticks):
        if k % cyc == 0:
            for i, v in pend.items():
                est[i] = v
            pend = {}
        new_bcast = {}
        for i in range(1, n):
            inbox = [(j, bcast[j]) for j in topo.neighbors[i] if j in bcast]
            if not any(st != s[i] for _, (_, st) in inbox):
                continue
            total = est[i]
            cnt = 1
            for j in topo.neighbors[i]:
                if j in bcast:
                    total += bcast[j][0]
                elif j == 0:
                    total += gw_last
                else:
                    total += est[j]
                cnt += 1
            s[i] = 1 - s[i]
            pend[i] = total / cnt
            new_bcast[i] = (pend[i], s[i])
        if k % cyc == 0:
            gw_last = delta * k
            new_bcast[0] = (gw_last, 1 - ((k // cyc) % 2))
        bcast = new_bcast
        est[0] = delta * k
        out[k] = est
    return out


def ref_baf(topo, init, ticks, delta=DELTA):
    n = topo.node_count
    est = init.copy()
    s = [0] * n
    c = [0] * n
    heard = {i: [] for i in range(n)}  # same-status counters since last trigger
    last_trig = [-(10 ** 9)] * n
    bcast = {0: (0.0, 1, 0)}
    out = np.zeros((ticks, n))
    out[0] = est
    for k in range(1, ticks):
        prev = est.copy()
        new_bcast = {}
        for i in range(1, n):
            inbox = [bcast[j] for j in topo.neighbors[i] if j in bcast]
            trig = [(v, st, cc) for v, st, cc in inbox if st != s[i]]
            same = [cc for v, st, cc in inbox if st == s[i]]
            if trig:
                total = est[i]
                cnt = 1
                for j in topo.neighbors[i]:
                    if j in bcast:
                        total += bcast[j][0]
                    elif j == 0:
                        total += delta * (k - 1)
                    else:
                        total += prev[j]
                    cnt += 1
                est[i] = total / cnt
                s[i] = 1 - s[i]
                c[i] = max(cc for _, _, cc in trig) + 1
                heard[i] = [cc for _, _, cc in trig]
                last_trig[i] = k
                new_bcast[i] = (est[i], s[i], c[i])
            else:
                heard[i].extend(same)
                if heard[i] and c[i] > max(heard[i]) and k - last_trig[i] >= 2:
                    c[i] = 0
                    s[i] = 1 - s[i]
                    heard[i] = []
                    new_bcast[i] = (est[i], s[i], 0)
        new_bcast[0] = (delta * k, 1, 0)
        bcast = new_bcast
        est[0] = delta * k
        out[k] = est
    return out


@pytest.mark.parametrize("proto,ref,topo", [
    (ProtocolKind.TSAU, ref_tsau, make_grid(2, 2)),
    (ProtocolKind.TSAU, ref_tsau, make_line(3)),
    (ProtocolKind.UAF, ref_uaf, make_line(4)),
    (ProtocolKind.UAF, ref_uaf, make_grid(2, 2)),
    (ProtocolKind.BAF, ref_baf, make_line(4)),
    (ProtocolKind.BAF, ref_baf, make_grid(2, 2)),
])
def test_kernel_matches_reference_simulator(proto, ref, topo):
    seed = 5
    ticks = 40
    trace = run(cfg(topo, proto, max_ticks=ticks, seed=seed))
    expected = ref(topo, init_values(seed, topo.node_count), ticks)
    assert np.allclose(trace.estimates, expected, rtol=0, atol=1e-15)


def test_tsau_2x2_hand_values():
    # first real update: node 3 averages u1 and u2 at tick 3; node 1 then
    # averages the gateway's 0.003 with node 3's value at tick 4
    topo = make_grid(2, 2)
    seed = 9
    init = init_values(seed, 4)
    trace = run(cfg(topo, ProtocolKind.TSAU, max_ticks=6, seed=seed))
    v3 = (init[1] + init[2]) / 2
    assert trace.estimates[3, 3] == pytest.approx(v3, abs=1e-15)
    assert trace.estimates[4, 1] == pytest.approx((0.003 + v3) / 2, abs=1e-15)


def test_uaf_line4_first_commit_hand_value():
    topo = make_line(4)
    seed = 3
    init = init_values(seed, 4)
    trace = run(cfg(topo, ProtocolKind.UAF, max_ticks=6, seed=seed))
    # layer 1 wakes at tick 1: averages gateway 0.0, sleeping node 2, itself;
    # the value takes effect at the cycle boundary (tick 4)
    p1 = (0.0 + init[2] + init[1]) / 3
    assert trace.estimates[3, 1] == pytest.approx(init[1], abs=1e-15)
    assert trace.estimates[4, 1] == pytest.approx(p1, abs=1e-15)
    assert trace.activated[4, 1] == 1


def test_baf_line4_trigger_and_reversal_schedule():
    topo = make_line(4)
    trace = run(cfg(topo, ProtocolKind.BAF, max_ticks=12, seed=3))
    tx = trace.transmitted
    # forward wave: node 1 at tick 1, node 2 at 2, node 3 at 3;
    # the end node turns the flood around two ticks after its wake-up
    assert tx[1, 1] == 1 and tx[2, 2] == 1 and tx[3, 3] == 1
    assert tx[5, 3] == 1  # reversal broadcast
    assert trace.activated[5, 3] == 0  # reversal is not an estimate update


def test_baseline_two_nodes_error_zero_from_tick_one():
    topo = make_line(2)
    trace = run(cfg(topo, ProtocolKind.SYNC_BASELINE, max_ticks=50, seed=1))
    err = trace.errors
    assert err[0, 1] > 0
    assert np.all(err[1:, 1] == 0.0)


def test_gateway_error_identically_zero():
    for proto in ProtocolKind:
        trace = run(cfg(make_grid(3, 3), proto, max_ticks=200, seed=2))
        assert np.all(trace.errors[:, 0] == 0.0)


def test_tsau_one_activation_per_tick_beyond_first_cycle():
    trace = run(cfg(make_grid(4, 4), ProtocolKind.TSAU, max_ticks=600, seed=4))
    sums = trace.activated[15:].sum(axis=1)
    assert np.all(sums == 1)


def test_baseline_all_nodes_active_every_tick():
    trace = run(cfg(make_grid(3, 3), ProtocolKind.SYNC_BASELINE, max_ticks=100, seed=4))
    assert np.all(trace.activated[1:, 1:] == 1)


def test_uaf_grid16_cycle_length_seven():
    # L = 6 layers -> gateway re-seeds every 7 ticks; layer-1 nodes wake at
    # ticks = 1 (mod 7) and estimates step at the cycle boundaries
    trace = run(cfg(make_grid(4, 4), ProtocolKind.UAF, max_ticks=300, seed=6))
    tx1 = np.nonzero(trace.transmitted[:, 1])[0]
    assert np.all(tx1 % 7 == 1)
    commits = np.nonzero(trace.activated[:, 1])[0]
    assert np.all(commits % 7 == 0)


def test_message_conservation():
    for proto in (ProtocolKind.TSAU, ProtocolKind.UAF, ProtocolKind.BAF):
        ideal = run(cfg(make_grid(3, 3), proto, max_ticks=400, seed=8))
        assert np.all(ideal.messages_delivered[1:] == ideal.messages_sent[:-1])
        lossy = run(cfg(make_grid(3, 3), proto, max_ticks=400, seed=8, link_p=0.6))
        assert np.all(lossy.messages_delivered[1:] <= lossy.messages_sent[:-1])


def test_freezing_is_monotone_and_stops_estimates():
    trace = run(SimConfig(topology=make_grid(4, 4), protocol=ProtocolKind.TSAU,
                          max_ticks=2000, seed=11, freeze_on_dip=True))
    frz = trace.frozen.astype(int)
    assert np.all(np.diff(frz, axis=0) >= 0)
    for i in range(1, 16):
        ticks = np.nonzero(frz[:, i])[0]
        if len(ticks):
            k0 = ticks[0]
            assert np.all(trace.estimates[k0:, i] == trace.estimates[k0, i])


def test_freeze_coverage_and_dip_error_band():
    # flooding protocols freeze (nearly) the whole network; TSAU's frozen
    # gateway-adjacent nodes stall the rest, so only they are guaranteed
    from dipsync.metrics import dip_metrics

    for proto, min_fired in ((ProtocolKind.UAF, 14), (ProtocolKind.BAF, 12),
                             (ProtocolKind.TSAU, 2), (ProtocolKind.SYNC_BASELINE, 15)):
        trace = run(SimConfig(topology=make_grid(4, 4), protocol=proto,
                              max_ticks=4000, seed=1, freeze_on_dip=True))
        assert int((trace.dip_fire_tick[1:] >= 0).sum()) >= min_fired
        dm = dip_metrics(trace)
        assert 1e-5 < dm.e_dip_min < 1e-3


def test_baseline_first_freezers_beat_unfrozen_steady_state():
    # for the nodes whose detectors stop them first (uncontaminated by other
    # frozen estimates), the frozen clock's error at the dip stays below the
    # unfrozen run's error long after the transient has settled
    topo = make_grid(4, 4)
    frozen = run(SimConfig(topology=topo, protocol=ProtocolKind.SYNC_BASELINE,
                           max_ticks=4000, seed=2, freeze_on_dip=True))
    free = run(cfg(topo, ProtocolKind.SYNC_BASELINE, max_ticks=4000, seed=2))
    assert np.all(frozen.dip_fire_tick[1:] >= 0)
    err_free = free.errors
    first = frozen.dip_fire_tick[1:].min()
    checked = 0
    for i in range(1, 16):
        if frozen.dip_fire_tick[i] != first:
            continue
        dip_tick = int(frozen.dip_tick[i])
        frozen_err = abs(DELTA * dip_tick - frozen.dip_value[i])
        late = min(10 * dip_tick, free.n_ticks - 1)
        assert frozen_err < err_free[late, i]
        checked += 1
    assert checked >= 1


def _detector_on_updates(trace, i):
    """Feed a fresh DipDetector node i's estimate after each of its updates,
    until it fires; return the fire tick (-1 if none) and the detector."""
    det = DipDetector()
    for k in np.nonzero(trace.activated[:, i])[0].tolist():
        if det.observe(trace.estimates[k, i], k):
            return k, det
    return -1, det


# freezing is off: with it on, the trace row at the fire tick holds the
# frozen value rather than the sample the kernel's detector observed
@pytest.mark.parametrize("topo,malicious", [
    (make_grid(4, 4), False), (make_grid(4, 4), True), (make_line(6), False),
], ids=["grid16", "grid16-malicious", "line6"])
@pytest.mark.parametrize("link_p", [1.0, 0.5])
@pytest.mark.parametrize("proto", list(ProtocolKind))
def test_kernel_dip_detector_matches_dip_detector(proto, link_p, topo, malicious):
    """The kernels run one `DipDetector` per node, fed at each update until it
    fires.  Replaying each node's updates from the trace into a fresh detector
    must give the same fire tick, dip tick and dip value.  This checks how the
    kernels feed the detector; the detector's own rules are checked
    independently by the array oracle's `_observe_dip`."""
    trace = run(cfg(topo, proto, max_ticks=2000, seed=3, link_p=link_p,
                    malicious=malicious))
    for i in range(1, topo.node_count):
        fire, det = _detector_on_updates(trace, i)
        assert trace.dip_fire_tick[i] == fire
        assert trace.dip_tick[i] == (det.dip_tick if det.fired else -1)
        assert trace.dip_value[i] == (det.dip_value if det.fired else 0.0)


def test_determinism_same_config_same_trace(tmp_path):
    c = cfg(make_grid(3, 3), ProtocolKind.BAF, max_ticks=500, seed=13, link_p=0.7)
    a, b = run(c), run(c)
    assert np.array_equal(a.estimates, b.estimates)
    a.to_csv(tmp_path / "a.csv")
    b.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_trace_csv_shape_and_header(tmp_path):
    trace = run(cfg(make_line(3), ProtocolKind.SYNC_BASELINE, max_ticks=4, seed=0))
    trace.to_csv(tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "tick,node,estimate,error,activated,frozen"
    assert len(lines) == 1 + 4 * 3
    assert lines[1].startswith("0,0,0.0,0.0,")


def _per_row_csv(trace, fh):
    """The trace CSV as one f-string per (tick, node) row: the oracle for
    `Trace.to_csv`."""
    fh.write(engine.TRACE_CSV_HEADER + "\n")
    err = trace.errors
    for k in range(trace.n_ticks):
        for i in range(trace.node_count):
            fh.write(
                f"{k},{i},{float(trace.estimates[k, i])!r},{float(err[k, i])!r},"
                f"{int(trace.activated[k, i])},{int(trace.frozen[k, i])}\n"
            )


def _assert_csv_matches_per_row_writer(trace, tmp_path):
    trace.to_csv(tmp_path / "got.csv")
    with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="\n") as fh:
        _per_row_csv(trace, fh)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_to_csv_matches_per_row_writer_on_frozen_baf_run(tmp_path):
    trace = run(SimConfig(topology=make_grid(4, 4), protocol=ProtocolKind.BAF,
                          max_ticks=1500, seed=3, freeze_on_dip=True))
    assert trace.frozen.any()
    assert trace.activated.any() and not trace.activated.all()
    _assert_csv_matches_per_row_writer(trace, tmp_path)


def test_to_csv_matches_per_row_writer_on_edge_floats(tmp_path):
    est = np.array([[0.0, -0.0, 1e-05, 1e16, 5e-324, 0.1 + 0.2],
                    [0.001, 5e-324, -0.0, 0.1 + 0.2, 1e-05, -1e16]])
    flags = np.array([[0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0]], dtype=np.uint8)
    ticks, n = est.shape
    trace = engine.Trace(
        estimates=est,
        activated=flags, frozen=1 - flags, transmitted=flags,
        messages_sent=np.zeros(ticks, dtype=np.int64),
        messages_delivered=np.zeros(ticks, dtype=np.int64),
        dip_tick=np.full(n, -1), dip_value=np.zeros(n), dip_fire_tick=np.full(n, -1),
        config=cfg(make_line(n), ProtocolKind.BAF, max_ticks=ticks),
    )
    _assert_csv_matches_per_row_writer(trace, tmp_path)


def test_to_csv_memory_is_bounded(tmp_path):
    # the benchmark's large trace: 600 ticks x 256 nodes, a 7.7 MB file
    trace = run(cfg(make_grid(16, 16), ProtocolKind.BAF, max_ticks=600, seed=1,
                    link_p=0.75))
    tracemalloc.start()
    try:
        trace.to_csv(tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trace.csv").stat().st_size > 7_000_000
    assert peak < 4_000_000


# a trace whose ticks do not split evenly into 2 or 3 ranges
CSV_TRACE = cfg(make_grid(4, 4), ProtocolKind.BAF, max_ticks=301, seed=3, freeze_on_dip=True)


def count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_to_csv_on_more_cpus_matches_per_row_writer(cpus, tmp_path, capfd, monkeypatch):
    # the writer on 1 CPU forks nothing; on 2 and 3 it forks one and two
    # writers, and their writes to file descriptors 1 and 2 would show in
    # capfd
    trace = run(CSV_TRACE)
    want = io.StringIO()
    _per_row_csv(trace, want)
    monkeypatch.setattr(engine, "_CSV_ROWS_PER_WORKER", 1000)
    use_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == want.getvalue().encode()
    assert len(forks) == cpus - 1
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def test_to_csv_below_the_row_threshold_does_not_fork(tmp_path, monkeypatch):
    # one row short of two writers' worth of rows
    ticks = (2 * engine._CSV_ROWS_PER_WORKER - 1) // 16
    trace = run(cfg(make_grid(4, 4), ProtocolKind.TSAU, max_ticks=ticks, seed=2))
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below the row threshold"))
    _assert_csv_matches_per_row_writer(trace, tmp_path)


@pytest.fixture
def csv_writer_in_children(tmp_path, monkeypatch):
    """Two CPUs, so a writer formats the first block of CSV_TRACE, ticks
    [0, 32), and a temporary-file directory of its own under tmp_path."""
    monkeypatch.setattr(engine, "_CSV_ROWS_PER_WORKER", 1000)
    use_cpus(monkeypatch, 2)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    target = tmp_path / "out"
    target.mkdir()
    (target / "trace.csv").touch()
    return run(CSV_TRACE), target / "trace.csv"


def assert_no_file_left(target):
    assert os.listdir(tempfile.gettempdir()) == []
    assert os.listdir(target.parent) == [target.name]


def test_to_csv_raises_a_child_error_with_its_traceback(csv_writer_in_children, capfd,
                                                        monkeypatch):
    trace, target = csv_writer_in_children
    here = os.getpid()
    write_rows = engine._write_rows

    def failing_write_rows(fh, start, *rows):
        if os.getpid() != here:
            raise ValueError(f"ticks from {start} fail")
        write_rows(fh, start, *rows)

    monkeypatch.setattr(engine, "_write_rows", failing_write_rows)
    with pytest.raises(ValueError, match="^ticks from 0 fail$") as exc:
        trace.to_csv(target)
    assert isinstance(exc.value.__cause__, WorkerTraceback)
    assert "in failing_write_rows" in str(exc.value.__cause__)
    assert_no_child_left()
    assert_no_file_left(target)
    # the path keeps what it held, not the header and the blocks formatted here
    assert target.read_bytes() == b""
    assert capfd.readouterr() == ("", "")


def test_to_csv_kills_its_children_when_interrupted(csv_writer_in_children, monkeypatch):
    # this process is interrupted in the first block it formats, while the
    # writer sleeps in its first; the writer is killed and reaped, not
    # waited for
    trace, target = csv_writer_in_children
    here = os.getpid()

    def interrupted_write_rows(*args):
        if os.getpid() == here:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(engine, "_write_rows", interrupted_write_rows)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        trace.to_csv(target)
    assert time.monotonic() - start < 30
    assert_no_child_left()
    assert_no_file_left(target)
    assert target.read_bytes() == b""


def test_to_csv_replaces_a_path_with_a_new_file(tmp_path):
    # the whole trace lands at once, in a file with the mode a new file gets
    trace = run(cfg(make_line(3), ProtocolKind.TSAU, max_ticks=20, seed=1))
    target = tmp_path / "trace.csv"
    target.write_text("old\n")
    target.chmod(0o600)
    trace.to_csv(target)
    want = io.StringIO()
    _per_row_csv(trace, want)
    assert target.read_text() == want.getvalue()
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_seed_substreams_are_independent():
    links = substream(10, "links").random(8)
    noise = substream(10, "noise").random(8)
    init = substream(10, "init-clocks").random(8)
    assert not np.allclose(links, noise)
    assert not np.allclose(links, init)


def test_wire_overflow_aborts_with_tick():
    # delta of 10 s: the gateway's 4-byte microsecond field overflows
    # at tick ceil(4294.967295 / 10) = 430
    topo = make_line(3)
    with pytest.raises(EpisodeAborted) as exc:
        run(cfg(topo, ProtocolKind.TSAU, max_ticks=4000, seed=0, delta=10.0))
    assert 0 < exc.value.tick < 4000


def test_oversized_run_rejected_before_allocation():
    # 10^11 ticks of grid16 would need about 18 TiB for links and trace
    with pytest.raises(ConfigError, match="max_ticks 100000000000 needs"):
        run(cfg(make_grid(4, 4), ProtocolKind.TSAU, max_ticks=10 ** 11))


def test_no_noise_array_without_attacker():
    c = cfg(make_grid(3, 3), ProtocolKind.BAF, max_ticks=10)
    assert engine.kernel_inputs(c)[1][7] is None
    c = cfg(make_grid(3, 3), ProtocolKind.BAF, max_ticks=10, malicious=True)
    assert engine.kernel_inputs(c)[1][7].shape == (10,)


def test_disconnected_topology_rejected():
    broken = Topology(node_count=4, edges=((0, 1), (2, 3)),
                      neighbors=((1,), (0,), (3,), (2,)))
    with pytest.raises((ConfigError, ValueError)):
        run(cfg(broken, ProtocolKind.TSAU, max_ticks=10, seed=0))


def test_backend_equivalence_bit_identical(monkeypatch):
    # engine.run goes through the module-level get_kernel (the seam the
    # benchmark's layer trace patches): swapping in the array-form oracle
    # leaves every trace array bit-identical
    c = cfg(make_grid(3, 3), ProtocolKind.BAF, max_ticks=300, seed=21, link_p=0.8,
            malicious=True)
    fast = run(c)
    monkeypatch.setattr(engine, "get_kernel", array_kernels.KERNELS.__getitem__)
    slow = run(c)
    assert engine.current_backend() == "pure"
    for field in ("estimates", "activated", "frozen", "transmitted", "messages_sent",
                  "messages_delivered", "dip_tick", "dip_value", "dip_fire_tick"):
        assert np.array_equal(getattr(fast, field), getattr(slow, field)), field


def test_pure_backend_all_protocols():
    assert engine.current_backend() == "pure"
    for proto in ProtocolKind:
        trace = run(cfg(make_line(4), proto, max_ticks=60, seed=2))
        assert trace.estimates.shape == (60, 4)


def _assert_same_kernel_outputs(got, want):
    assert len(got) == len(want) == 10
    for a, b in zip(got[:9], want[:9]):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    assert int(got[9]) == int(want[9])


# graphs stay under 256 nodes: the array-form oracle counts messages_sent per
# tick in uint8 (see test_messages_sent_counts_every_broadcast)
@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("malicious", [False, True])
@pytest.mark.parametrize("link_p", [1.0, 0.5])
@pytest.mark.parametrize("proto", list(ProtocolKind))
def test_interpreted_kernels_match_compiled_source(proto, link_p, malicious, freeze):
    c = SimConfig(topology=make_grid(3, 3), protocol=proto, max_ticks=600, seed=7,
                  link_p=link_p, malicious=malicious, freeze_on_dip=freeze)
    name, args = engine.kernel_inputs(c)
    _assert_same_kernel_outputs(kernels.get_kernel(name)(*args),
                                array_kernels.KERNELS[name](*args))


@pytest.mark.parametrize("proto", list(ProtocolKind))
def test_interpreted_kernels_match_compiled_source_on_abort(proto):
    # delta of 10 s overflows the wire field near tick 430 (the baseline
    # sends no messages and never aborts)
    c = cfg(make_line(3), proto, max_ticks=4000, seed=0, delta=10.0)
    name, args = engine.kernel_inputs(c)
    want = array_kernels.KERNELS[name](*args)
    if proto is ProtocolKind.SYNC_BASELINE:
        _assert_same_kernel_outputs(kernels.get_kernel(name)(*args), want)
        return
    # the kernel raises at the tick where the oracle stops
    assert want[9] > 0
    with pytest.raises(EpisodeAborted) as exc:
        kernels.get_kernel(name)(*args)
    assert exc.value.tick == want[9]


@pytest.mark.parametrize("proto", [ProtocolKind.TSAU, ProtocolKind.UAF, ProtocolKind.BAF])
def test_node_broadcast_overflow_raises_at_the_oracle_tick(proto):
    # node clocks that start past the 4-byte microsecond field: a node's own
    # broadcast overflows long before the gateway's time does
    c = cfg(make_line(3), proto, max_ticks=50, seed=0)
    name, args = engine.kernel_inputs(c)
    init_est = args[4].copy()
    init_est[1:] += 10000.0
    args = (*args[:4], init_est, *args[5:])
    want = array_kernels.KERNELS[name](*args)
    assert 0 < want[9] < 50
    with pytest.raises(EpisodeAborted) as exc:
        kernels.get_kernel(name)(*args)
    assert exc.value.tick == want[9]


# ---------------------------------------------------------------------------
# settled episodes: once every node is frozen and every link is live, the
# kernels find the control plane's cycle and replay it
# ---------------------------------------------------------------------------

def spy_on_replays():
    """Patch `_Episode._replay` to record each replay's (last simulated tick,
    period) in the returned list; undone by leaving the patch."""
    seen = []
    replay = kernels._Episode._replay

    def recording_replay(episode, start, period):
        seen.append((start - 1, period))
        return replay(episode, start, period)

    return seen, mock.patch.object(kernels._Episode, "_replay", recording_replay)


@pytest.fixture
def replays():
    seen, patch = spy_on_replays()
    with patch:
        yield seen


def malicious16_inputs(proto, seed, ticks):
    return engine.kernel_inputs(scenario_config("malicious16", proto, seed, ticks))


# the tick after which each kernel replays on malicious16 seed 3 at 4000
# ticks; its last node froze at 203 (baseline), 1744, 1372 and 1233
MALICIOUS16_SEED3_REPLAY = {"baseline": 203, "tsau": 1774, "uaf": 1401, "baf": 1288}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("proto", list(ProtocolKind))
def test_settled_episodes_match_the_oracle(proto, seed, replays):
    name, args = malicious16_inputs(proto, seed, 4000)
    _assert_same_kernel_outputs(kernels.get_kernel(name)(*args),
                                array_kernels.KERNELS[name](*args))
    if (name, seed) == ("uaf", 2):
        # node 2 never fires, so the episode never settles
        assert replays == []
        return
    assert len(replays) == 1
    if seed == 3:
        assert replays[0][0] == MALICIOUS16_SEED3_REPLAY[name]


# Three overflows on malicious16 seed 3.  With a kernel delta of 2.0 s no
# node fires before the gateway's time overflows, so nothing replays.  A 3 s wire field
# (both modules read WIRE_MAX_MICROS when they check) lets the gateway's
# time overflow near tick 3000, and a noise jump at tick 3000 the attacker's
# broadcast: both long after the replay starts.
@pytest.mark.parametrize("overflow, ticks, aborts", [
    ("delta", 8000, {"tsau": 2160, "uaf": 2149, "baf": 2148}),
    ("gateway", 4000, {"tsau": 3015, "uaf": 3003, "baf": 3001}),
    ("attacker", 4000, {"tsau": 3000, "uaf": 3002, "baf": 3006}),
])
@pytest.mark.parametrize("proto", [ProtocolKind.TSAU, ProtocolKind.UAF, ProtocolKind.BAF])
def test_overflow_of_a_settled_episode_raises_at_the_oracle_tick(proto, overflow, ticks,
                                                                  aborts, replays, monkeypatch):
    name, args = malicious16_inputs(proto, 3, ticks)
    if overflow == "delta":
        args = (*args[:5], 2.0, *args[6:])
    elif overflow == "gateway":
        for module in (kernels, array_kernels):
            monkeypatch.setattr(module, "WIRE_MAX_MICROS", 3e6)
    else:
        noise = args[7].copy()
        noise[3000:] += 5000.0
        args = (*args[:7], noise, *args[8:])
    want = array_kernels.KERNELS[name](*args)
    assert want[9] == aborts[name]
    with pytest.raises(EpisodeAborted) as exc:
        kernels.get_kernel(name)(*args)
    assert exc.value.tick == want[9]
    if overflow == "delta":
        assert replays == []
    else:
        assert replays[0][0] == MALICIOUS16_SEED3_REPLAY[name]


@pytest.mark.parametrize("links", ["p=0.5", "one dead link"])
@pytest.mark.parametrize("proto", list(ProtocolKind))
def test_episodes_with_a_dead_link_after_the_last_freeze_do_not_replay(proto, links,
                                                                       replays):
    if links == "p=0.5":
        c = dataclasses.replace(scenario_config("malicious16", proto, 4, 2500), link_p=0.5)
        name, args = engine.kernel_inputs(c)
    else:
        name, args = malicious16_inputs(proto, 4, 2500)
        link_live = args[3].copy()
        link_live[2499, 5] = 0
        args = (*args[:3], link_live, *args[4:])
    want = array_kernels.KERNELS[name](*args)
    _assert_same_kernel_outputs(kernels.get_kernel(name)(*args), want)
    assert replays == []
    if links == "one dead link":
        # every node froze, and the dead link alone keeps the episode unsettled
        assert np.all(want[8][1:] >= 0)


def test_a_settled_episode_that_never_repeats_runs_in_full(replays, monkeypatch):
    # every node froze by tick 327, but around the triangle 0-1-3 BAF's hop
    # counters climb for good, so the control state never repeats: the
    # search gives up 64 ticks later, and the rest runs a chunk of 585 ticks
    # at a time, the writer called at each chunk's first tick
    monkeypatch.setattr(kernels, "_CYCLE_SEARCH_TICKS", 64)
    topo = Topology.from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (4, 6)])
    c = SimConfig(topology=topo, protocol=ProtocolKind.BAF, max_ticks=1500, seed=0,
                  freeze_on_dip=True)
    name, args = engine.kernel_inputs(c)
    finals = []
    got = kernels.get_kernel(name)(*args, lambda ep, final: finals.append(final))
    want = array_kernels.KERNELS[name](*args)
    _assert_same_kernel_outputs(got, want)
    assert want[8].max() == 327
    assert replays == []
    assert finals == [1, 392, 977]


@st.composite
def connected_topologies(draw):
    """A connected graph of 2-10 nodes, gateway 0: a random spanning tree
    (each node in a random order attaches to one placed before it) plus any
    set of extra edges."""
    n = draw(st.integers(2, 10))
    order = [0, *draw(st.permutations(range(1, n)))]
    tree = {tuple(sorted((order[i], order[draw(st.integers(0, i - 1))])))
            for i in range(1, n)}
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return Topology.from_edges(n, [*tree, *extra])


@settings(derandomize=True, deadline=None)
@given(topo=connected_topologies(), proto=st.sampled_from(list(ProtocolKind)),
       link_p=st.sampled_from([1.0, 0.5]), malicious=st.booleans(),
       freeze=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       ticks=st.integers(2, 300))
def test_kernels_on_random_connected_topologies(topo, proto, link_p, malicious, freeze,
                                                seed, ticks):
    c = SimConfig(topology=topo, protocol=proto, max_ticks=ticks, seed=seed,
                  link_p=link_p, malicious=malicious, freeze_on_dip=freeze)
    name, args = engine.kernel_inputs(c)
    got = kernels.get_kernel(name)(*args)
    _assert_same_kernel_outputs(got, array_kernels.KERNELS[name](*args))
    # the gateway's estimate is its own time: its error is exactly zero
    assert np.all(np.abs(c.delta * np.arange(ticks) - got[0][:, 0]) == 0.0)
    if link_p == 1.0 and proto is not ProtocolKind.SYNC_BASELINE:
        # every broadcast reaches a neighbor on the next tick
        sent, delivered = got[4], got[5]
        assert np.array_equal(delivered[1:], sent[:-1])


# perfect links, freezing on and 1500 ticks: long enough for many episodes to
# settle and replay (a third of these examples do)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(topo=connected_topologies(), proto=st.sampled_from(list(ProtocolKind)),
       malicious=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_settled_episodes_on_random_connected_topologies(topo, proto, malicious, seed):
    c = SimConfig(topology=topo, protocol=proto, max_ticks=1500, seed=seed,
                  malicious=malicious, freeze_on_dip=True)
    name, args = engine.kernel_inputs(c)
    seen, patch = spy_on_replays()
    with patch:
        got = kernels.get_kernel(name)(*args)
    _assert_same_kernel_outputs(got, array_kernels.KERNELS[name](*args))
    assert np.all(np.abs(c.delta * np.arange(1500) - got[0][:, 0]) == 0.0)
    if proto is not ProtocolKind.SYNC_BASELINE:
        sent, delivered = got[4], got[5]
        assert np.array_equal(delivered[1:], sent[:-1])
    # an episode whose nodes all froze in its first half has replayed; not
    # always BAF's, whose hop counters can climb without bound around a
    # cycle of the graph
    fires = got[8][1:]
    if np.all(fires >= 0) and fires.max() < 750 and proto is not ProtocolKind.BAF:
        assert len(seen) == 1


def _assert_recorded_rows(out, delta):
    """What the kernels' recording relies on and produces: a non-gateway
    estimate changes only on a tick that activates the node; the gateway
    column is delta*k."""
    est, act = out[0], out[1]
    changed = est[1:, 1:] != est[:-1, 1:]
    assert not np.any(changed & (act[1:, 1:] == 0))
    assert np.array_equal(est[:, 0], delta * np.arange(est.shape[0]))


# a delta of 50 s overflows the wire field near tick 86, so some cases abort:
# there the kernel raises at the oracle's abort tick
@settings(derandomize=True, deadline=None)
@given(topo=connected_topologies(), proto=st.sampled_from(list(ProtocolKind)),
       link_p=st.sampled_from([1.0, 0.5]), malicious=st.booleans(),
       freeze=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       ticks=st.integers(2, 300), delta=st.sampled_from([DELTA, 50.0]))
def test_kernel_rows_change_only_on_activation(topo, proto, link_p, malicious,
                                              freeze, seed, ticks, delta):
    c = SimConfig(topology=topo, protocol=proto, max_ticks=ticks, seed=seed,
                  link_p=link_p, malicious=malicious, freeze_on_dip=freeze,
                  delta=delta)
    name, args = engine.kernel_inputs(c)
    want = array_kernels.KERNELS[name](*args)
    if want[9] >= 0:
        with pytest.raises(EpisodeAborted) as exc:
            kernels.get_kernel(name)(*args)
        assert exc.value.tick == want[9]
        return
    got = kernels.get_kernel(name)(*args)
    _assert_same_kernel_outputs(got, want)
    _assert_recorded_rows(got, delta)


def test_kernel_memory_is_outputs_plus_small_excess():
    # 100000 ticks of grid16 TSAU, no attacker: beyond its output arrays the
    # kernel holds the per-tick delivery list (0.8 MB) and small temporaries;
    # it builds no per-tick noise list, and fills the estimates in chunks
    c = SimConfig(topology=make_grid(4, 4), protocol=ProtocolKind.TSAU,
                  max_ticks=100_000, seed=1, link_p=0.5, freeze_on_dip=False)
    name, args = engine.kernel_inputs(c)
    kernel = kernels.get_kernel(name)
    tracemalloc.start()
    try:
        out = kernel(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = sum(np.asarray(a).nbytes for a in out)
    assert peak < out_bytes + 2_000_000


def test_replay_memory_is_outputs_plus_small_excess(replays):
    # 100000 ticks of malicious16 BAF settle by tick 1381: the replay tiles
    # the transmit rows and delivery counts in place and checks the wire a
    # chunk at a time, and the attacker's noise list covers only the ticks
    # the kernel ran
    name, args = malicious16_inputs(ProtocolKind.BAF, 1, 100_000)
    kernel = kernels.get_kernel(name)
    tracemalloc.start()
    try:
        out = kernel(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert replays and replays[0][0] < 2000
    out_bytes = sum(np.asarray(a).nbytes for a in out)
    assert peak < out_bytes + 2_000_000


def test_link_draw_in_chunks_equals_one_call(monkeypatch):
    # consecutive Generator.random calls continue one stream
    rng = substream(5, "links")
    parts = np.concatenate([rng.random((m, 24)) for m in (300, 1, 699)])
    assert np.array_equal(parts, substream(5, "links").random((1000, 24)))
    # a chunk of 7 draws holds one row of 24 edges (a row is never split)
    # or two rows of 3 edges, so the chunks end inside and at the matrix end
    monkeypatch.setattr(engine, "_LINK_CHUNK", 7)
    for n_edges, ticks in ((24, 50), (3, 50), (3, 1)):
        got = engine._draw_links(substream(5, "links"), ticks, n_edges, 0.5)
        want = substream(5, "links").random((ticks, n_edges)) < 0.5
        assert got.dtype == np.uint8
        assert np.array_equal(got, want.astype(np.uint8))


def test_link_rows_in_chunks_equal_the_rows(monkeypatch):
    # a chunk of 7 elements holds one row of 24 edges, or two rows of 3; the
    # episode's writer is called at the first tick of every chunk
    m = substream(5, "links").integers(0, 2, (50, 24), dtype=np.uint8)
    args = engine.kernel_inputs(cfg(make_grid(4, 4), ProtocolKind.BAF, max_ticks=50))[1]
    for chunk, edges, step in ((7, 24, 1), (7, 3, 2), (1 << 12, 24, 170), (1 << 12, 3, 1365)):
        monkeypatch.setattr(kernels, "_ROW_CHUNK", chunk)
        for link_live in (m[:, :edges], m[:1, :edges]):
            finals = []
            ep = kernels._Episode(*args, lambda ep, final: finals.append(final))
            assert list(ep.rows(link_live)) == link_live[1:].tolist()
            assert finals == list(range(1, len(link_live), step))


@settings(derandomize=True, deadline=None)
@given(data=st.data(), ticks=st.integers(1, 40), n=st.integers(1, 4),
       fill_chunk=st.sampled_from([1, 7, 1 << 14]))
def test_forward_fill_in_blocks_equals_one_fill(data, ticks, n, fill_chunk):
    # each block [a, b) is filled by a call on rows [a - 1, b), starting from
    # the last filled row; row 0 may carry flags, which no fill reads, and a
    # block may be a single row
    size = ticks * n
    est = np.array(data.draw(st.lists(st.floats(allow_nan=False), min_size=size,
                                      max_size=size))).reshape(ticks, n)
    act = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)),
                   dtype=np.uint8).reshape(ticks, n)
    cuts = sorted(data.draw(st.sets(st.integers(2, ticks - 1)))) if ticks > 2 else []
    chunk = kernels._FILL_CHUNK
    kernels._FILL_CHUNK = fill_chunk
    try:
        want = est.copy()
        kernels._forward_fill(want, act)
        got = est.copy()
        for a, b in zip([1, *cuts], [*cuts, ticks]):
            kernels._forward_fill(got[a - 1:b], act[a - 1:b])
    finally:
        kernels._FILL_CHUNK = chunk
    assert got.tobytes() == want.tobytes()


def test_link_draw_memory_is_bounded():
    # grid16 at 100000 ticks and p = 0.5: a 2.4 MB link matrix, where one
    # float64 draw of the whole matrix would take 19.2 MB
    c = SimConfig(topology=make_grid(4, 4), protocol=ProtocolKind.TSAU,
                  max_ticks=100_000, seed=1, link_p=0.5)
    tracemalloc.start()
    try:
        link_live = engine.kernel_inputs(c)[1][3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert link_live.nbytes == 2_400_000
    assert peak < 2 * link_live.nbytes


def test_messages_sent_counts_every_broadcast():
    # lossy links on a 256-node grid: some BAF ticks carry 256 broadcasts
    for proto in ProtocolKind:
        trace = run(cfg(make_grid(16, 16), proto, max_ticks=200, seed=1, link_p=0.75))
        per_tick = trace.transmitted.sum(axis=1, dtype=np.int64)
        assert per_tick.max() >= (256 if proto is ProtocolKind.BAF else 1)
        assert np.array_equal(trace.messages_sent, per_tick)


# --- config-file ingestion ----------------------------------------------------

def test_topology_specs():
    assert topology_from_spec("grid:4x4", 1).node_count == 16
    assert topology_from_spec("line:7", 1).node_count == 7
    with pytest.raises(ConfigError):
        topology_from_spec("torus:3", 1)


def test_config_mapping_roundtrip(tmp_path):
    path = tmp_path / "run.spec"
    path.write_text(
        "protocol = uaf\ntopology = grid:3x3\nlink_p = 0.25\nseed = 77\n"
        "max_ticks = 123\nfreeze_on_dip = false\n# comment\n",
        encoding="utf-8",
    )
    c = config_from_mapping(parse_keyvalue_file(path))
    assert c.protocol is ProtocolKind.UAF
    assert c.link_p == 0.25
    assert c.seed == 77
    assert c.max_ticks == 123
    assert c.freeze_on_dip is False
    assert c.delta == 0.001


def test_config_mapping_defaults_are_simconfig_defaults():
    c = config_from_mapping({"topology": "grid:3x3", "protocol": "baf"})
    assert c == SimConfig(topology=make_grid(3, 3), protocol=ProtocolKind.BAF)


def test_config_mapping_rejects_unknown_and_missing():
    with pytest.raises(ConfigError):
        config_from_mapping({"protocol": "tsau"})
    with pytest.raises(ConfigError):
        config_from_mapping({"protocol": "tsau", "topology": "line:4", "bogus": "1"})


@pytest.mark.parametrize("topology", ["grid:3000x3000", "line:100", "edgelist:{tmp}/net.txt"],
                         ids=["grid", "line", "edgelist"])
def test_oversized_spec_rejected_before_its_graph_is_built(topology, tmp_path, monkeypatch):
    (tmp_path / "net.txt").write_text("3 0\n0 1\n1 2\n", encoding="utf-8")
    # one episode of the default 4000 ticks on any of these graphs needs
    # more than 100 bytes
    monkeypatch.setattr(engine, "physical_memory", lambda: 100)

    def from_edges(*args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(Topology, "from_edges", from_edges)
    with pytest.raises(ConfigError, match="max_ticks 4000 needs"):
        config_from_mapping({"protocol": "tsau", "topology": topology.format(tmp=tmp_path)})


def test_node_ids_must_fit_the_2_byte_sender_id(monkeypatch):
    # 65536 nodes, ids 0-65535, fit the field; one more node does not, and
    # is rejected before its graph is built
    monkeypatch.setattr(engine, "make_line", lambda n: f"line of {n} nodes")
    spec = {"protocol": "tsau", "max_ticks": "3"}
    assert config_from_mapping({**spec, "topology": "line:65536"}).topology == (
        "line of 65536 nodes")
    with pytest.raises(ConfigError, match="^65537 nodes: .* 2-byte sender id field$"):
        config_from_mapping({**spec, "topology": "line:65537"})
    # run checks a topology built elsewhere the same way
    huge = types.SimpleNamespace(node_count=65537, edges=())
    with pytest.raises(ConfigError, match="^65537 nodes: .* 2-byte sender id field$"):
        run(cfg(huge, ProtocolKind.TSAU, max_ticks=3))


def test_spec_grid_shape_is_checked_before_its_size():
    # (-10^5) x (-10^5) cells would count as 10^10 nodes
    with pytest.raises(ConfigError, match="rows and cols must be positive"):
        config_from_mapping({"protocol": "tsau", "topology": "grid:-100000x-100000"})
