"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them).  Statistical criteria use
the fixed seed panel 1..11.  Criterion runtimes are measured around the
computational sections only.
"""

import io
import time

import numpy as np

import dipsync.metrics as metrics
from dipsync.cli import _map_episodes, main
from dipsync.clock import resync_period
from dipsync.dip import filter_output
from dipsync.engine import SimConfig, run, substream
from dipsync.metrics import dip_metrics, total_energy
from dipsync.noise import generate
from dipsync.protocol import PAYLOAD_BYTES, ProtocolKind, SyncMessage, decode, encode
from dipsync.topology import Topology, make_grid, make_line

SEEDS = list(range(1, 12))
GRID16 = make_grid(4, 4)
PROTOCOLS = (ProtocolKind.TSAU, ProtocolKind.UAF, ProtocolKind.BAF)


def verdict(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def dense_baseline_oracle(topo, init, delta, ticks):
    """Independent dense matrix iteration of the synchronous reference system."""
    n = topo.node_count
    A = np.zeros((n - 1, n - 1))
    b = np.zeros(n - 1)
    for i in range(1, n):
        nbrs = topo.neighbors[i]
        w = 1.0 / len(nbrs)
        for j in nbrs:
            if j == 0:
                b[i - 1] = w
            else:
                A[i - 1, j - 1] = w
    T = init[1:].copy()
    out = np.zeros((ticks, n))
    out[0, 1:] = T
    for k in range(1, ticks):
        T = A @ T + b * (delta * k)
        out[k, 1:] = T
        out[k, 0] = delta * k
    return out


def grid16_config(proto, seed, freeze, malicious=False, link_p=1.0, ticks=4000):
    return SimConfig(topology=GRID16, protocol=proto, max_ticks=ticks, seed=seed,
                     freeze_on_dip=freeze, malicious=malicious, link_p=link_p)


def grid16_run(proto, seed, freeze, malicious=False, link_p=1.0, ticks=4000):
    return run(grid16_config(proto, seed, freeze, malicious, link_p, ticks))


def test_criterion_1_baseline_oracle_equivalence():
    topologies = [
        make_grid(3, 3), make_grid(2, 2), make_grid(2, 4),
        make_line(2), make_line(5), make_line(9),
        Topology.from_edges(9, [(0, i) for i in range(1, 9)]),   # star
        Topology.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]),  # ring
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for topo in topologies:
        trace = run(SimConfig(topology=topo, protocol=ProtocolKind.SYNC_BASELINE,
                              max_ticks=200, seed=3, freeze_on_dip=False))
        init = np.zeros(topo.node_count)
        init[1:] = substream(3, "init-clocks").random(topo.node_count - 1)
        oracle = dense_baseline_oracle(topo, init, 0.001, 200)
        worst = max(worst, float(np.abs(oracle - trace.estimates).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    assert verdict(1, ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_dip_existence_and_error_band():
    t0 = time.perf_counter()
    ok = True
    details = []
    for proto in PROTOCOLS:
        e_runs = []
        for seed in SEEDS:
            trace = grid16_run(proto, seed, freeze=False)
            err = trace.errors
            mins = err[:, 1:].min(axis=0)
            argmins = err[:, 1:].argmin(axis=0)
            # pre-steady-state: an interior minimum for every node
            ok &= bool(np.all(argmins < trace.n_ticks - 1))
            ok &= bool(np.all(err[-1, 1:] > mins))
            e_runs.append(mins.mean())
        med = float(np.median(e_runs))
        details.append(f"{proto.value}={med:.2e}")
        ok &= 1e-5 <= med <= 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    assert verdict(2, ok, f"median E_dip {', '.join(details)}, {elapsed:.2f}s")


def test_criterion_3_uaf_zero_variance():
    variances = []
    for seed in SEEDS:
        trace = grid16_run(ProtocolKind.UAF, seed, freeze=False)
        variances.append(dip_metrics(trace).v_k_dip)
    ok = all(v == 0.0 for v in variances)
    assert verdict(3, ok, f"V_k_dip per seed: {[round(v, 3) for v in variances]}")


def test_criterion_4_baf_lowest_error():
    meds = {}
    for proto in PROTOCOLS:
        meds[proto.value] = float(np.median(
            [dip_metrics(grid16_run(proto, s, freeze=True)).e_dip_min for s in SEEDS]))
    ok = meds["baf"] < meds["tsau"] and meds["baf"] < meds["uaf"]
    assert verdict(4, ok, ", ".join(f"{k}={v:.3e}" for k, v in meds.items()))


def test_criterion_5_lossy_link_dip_persistence():
    # no time bound: the seed panels run on every usable CPU
    panels = [(p, proto) for p in (0.75, 0.5, 0.25) for proto in PROTOCOLS]
    mins = _map_episodes(
        lambda cfg: run(cfg).errors[:, 1:].min(axis=0),
        [grid16_config(proto, s, freeze=False, link_p=p, ticks=16000)
         for p, proto in panels for s in SEEDS])
    ok = True
    worst = (0.0, 1.0)
    for n in range(len(panels)):
        per_node = np.array(mins[n * len(SEEDS):(n + 1) * len(SEEDS)])
        med = np.median(per_node, axis=0)
        ok &= bool(np.all(med >= 1e-5) and np.all(med <= 1e-2))
        worst = (max(worst[0], float(med.max())), min(worst[1], float(med.min())))
    assert verdict(5, ok, f"per-node medians within [{worst[1]:.1e}, {worst[0]:.1e}]")


def test_criterion_6_malicious_node_statistics():
    # no time bound: the seed panels run on every usable CPU
    dms = _map_episodes(
        lambda cfg: dip_metrics(run(cfg)),
        [grid16_config(proto, seed, freeze=True, malicious=True)
         for proto in PROTOCOLS for seed in SEEDS])
    stats = {}
    for n, proto in enumerate(PROTOCOLS):
        panel = dms[n * len(SEEDS):(n + 1) * len(SEEDS)]
        stats[proto.value] = (np.array([dm.k_dip_min for dm in panel]),
                              np.array([dm.v_k_dip for dm in panel]))
    n_a = sum(
        1 for i in range(len(SEEDS))
        if stats["baf"][1][i] > 10 * max(stats["tsau"][1][i], stats["uaf"][1][i])
    )
    n_b = sum(
        1 for i in range(len(SEEDS))
        if stats["uaf"][0][i] > stats["tsau"][0][i] and stats["uaf"][0][i] > stats["baf"][0][i]
    )
    ok_a = n_a >= 8
    ok_b = n_b >= 8
    verdict("6a", ok_a, f"V(BAF) > 10x both in {n_a}/11 seeds")
    verdict("6b", ok_b, f"k_dip(UAF) largest in {n_b}/11 seeds")
    assert ok_a and ok_b


def test_criterion_7_filter_identities():
    ok = filter_output([2.5] * 7) == 0.0
    ok &= abs(filter_output([0, 1, 2, 3, 4, 5, 6]) - 3.6) < 1e-12
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = rng.random(7)
        y = rng.random(7)
        a, b = rng.random(2) * 4 - 2
        ok &= abs(filter_output(a * x + b * y)
                  - (a * filter_output(x) + b * filter_output(y))) < 1e-12
        ok &= abs(filter_output(x + 17.0) - filter_output(x)) < 1e-12
    assert verdict(7, bool(ok))


def test_criterion_8_colored_noise_spectrum():
    x = generate(1 << 14, 7)
    spec = np.abs(np.fft.rfft(x)) ** 2 / len(x)
    freqs = np.fft.rfftfreq(len(x))
    keep = (freqs > 0) & (freqs <= 0.125)
    lf, lp = np.log10(freqs[keep]), np.log10(spec[keep])
    A = np.vstack([lf, np.ones_like(lf)]).T
    slope = float(np.linalg.lstsq(A, lp, rcond=None)[0][0])
    ok = abs(slope + 2.0) <= 0.3
    ok &= abs(x.mean()) < 1e-12 and abs(x.std() - 1.0) < 1e-12
    assert verdict(8, bool(ok), f"slope {slope:.2f}")


def test_criterion_9_energy_formula():
    rep = total_energy(141, 6)
    expected_cpu = 141e-6 * 8.0e-3 * 2.7
    ok = abs(rep.cpu_energy - expected_cpu) <= 1e-15 * expected_cpu
    full = 141e-6 * 8e-3 * 2.7 + (24 * 8 / 250e3) * (21e-3 + 23.3e-3) * 2.7
    ok &= abs(rep.total - full) <= 1e-12 * full
    # previously reported totals are displayed as unverified reference, not reproduced
    ok &= metrics.QUOTED_TOTALS_UJ["tsau"] == 14.53
    ok &= abs(rep.total * 1e6 - 14.53) > 1.0  # explicitly NOT an acceptance target
    assert verdict(9, bool(ok), f"computed {rep.total * 1e6:.2f} uJ vs quoted 14.53 uJ")


def test_criterion_10_resync_period_exact():
    ok = resync_period(100, 0.001) == 10.0
    assert verdict(10, ok)


def test_criterion_11_determinism(tmp_path):
    spec = tmp_path / "det.spec"
    spec.write_text(
        "name = det\nprotocol = baf\ntopology = grid:3x3\nmax_ticks = 500\n"
        "link_p = 0.6\nseed = 9\nfreeze_on_dip = true\n", encoding="utf-8")
    main(["run", str(spec), "--out", str(tmp_path / "a")])
    main(["run", str(spec), "--out", str(tmp_path / "b")])
    ok = (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
    assert verdict(11, ok)


def test_criterion_12_codec_roundtrip():
    rng = np.random.default_rng(2718)
    n = 100_000
    ok = True
    for kind in PROTOCOLS:
        senders = rng.integers(0, 1 << 16, n)
        ticks = rng.integers(0, 1 << 32, n)
        ss = rng.integers(0, 2, n)
        cs = rng.integers(0, 1 << 16, n)
        for m in range(n):
            msg = SyncMessage(
                kind, int(senders[m]), int(ticks[m]) / 1e6,
                s=int(ss[m]) if kind is not ProtocolKind.TSAU else None,
                c=int(cs[m]) if kind is ProtocolKind.BAF else None,
            )
            raw = encode(msg)
            if len(raw) != PAYLOAD_BYTES[kind] or decode(raw, kind) != msg:
                ok = False
                break
    assert verdict(12, ok, "10^5 messages per protocol, payloads 6/7/9 bytes")
