"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them).  Statistical criteria use
the fixed seed panel 1..11.  Criterion runtimes are measured around the
computational sections only.

With DIPSYNC_ACCEPTANCE_REPORT set to a path, the session also writes every
verdict there as a JSON list of {criterion, pass, measured, bound}:

    DIPSYNC_ACCEPTANCE_REPORT=acceptance.json pytest tests/test_acceptance.py
"""

import io
import json
import os
import time

import numpy as np
import pytest

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


@pytest.fixture(scope="session")
def report():
    """The session's verdicts; written as JSON to the path in
    $DIPSYNC_ACCEPTANCE_REPORT, if set, when the session ends."""
    records = []
    yield records
    path = os.environ.get("DIPSYNC_ACCEPTANCE_REPORT")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")


def verdict(report, num, ok, measured, bound, detail=""):
    """Print criterion `num`'s PASS/FAIL line and add its record to
    `report`: `measured` maps names to the values the verdict rests on,
    `bound` says what they must meet.  Return `ok`."""
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    report.append({"criterion": str(num), "pass": bool(ok), "measured": measured,
                   "bound": bound})
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


def test_criterion_1_baseline_oracle_equivalence(report):
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
    assert verdict(report, 1, ok, {"max_deviation": worst, "seconds": elapsed},
                   "max_deviation < 1e-12, seconds < 1.0",
                   f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_dip_existence_and_error_band(report):
    t0 = time.perf_counter()
    interior = True
    details = []
    meds = {}
    for proto in PROTOCOLS:
        e_runs = []
        for seed in SEEDS:
            trace = grid16_run(proto, seed, freeze=False)
            err = trace.errors
            mins = err[:, 1:].min(axis=0)
            argmins = err[:, 1:].argmin(axis=0)
            # pre-steady-state: an interior minimum for every node
            interior &= bool(np.all(argmins < trace.n_ticks - 1))
            interior &= bool(np.all(err[-1, 1:] > mins))
            e_runs.append(mins.mean())
        med = float(np.median(e_runs))
        meds[proto.value] = med
        details.append(f"{proto.value}={med:.2e}")
    elapsed = time.perf_counter() - t0
    ok = interior and all(1e-5 <= med <= 1e-3 for med in meds.values()) and elapsed < 5.0
    assert verdict(report, 2, ok,
                   {"median_e_dip": meds, "interior_minima": interior, "seconds": elapsed},
                   "an interior error minimum for every node and seed, "
                   "1e-5 <= median_e_dip <= 1e-3 per protocol, seconds < 5.0",
                   f"median E_dip {', '.join(details)}, {elapsed:.2f}s")


def test_criterion_3_uaf_zero_variance(report):
    variances = []
    for seed in SEEDS:
        trace = grid16_run(ProtocolKind.UAF, seed, freeze=False)
        variances.append(dip_metrics(trace).v_k_dip)
    ok = all(v == 0.0 for v in variances)
    assert verdict(report, 3, ok, {"v_k_dip": [float(v) for v in variances]},
                   "v_k_dip == 0 on every seed",
                   f"V_k_dip per seed: {[round(v, 3) for v in variances]}")


def test_criterion_4_baf_lowest_error(report):
    meds = {}
    for proto in PROTOCOLS:
        meds[proto.value] = float(np.median(
            [dip_metrics(grid16_run(proto, s, freeze=True)).e_dip_min for s in SEEDS]))
    ok = meds["baf"] < meds["tsau"] and meds["baf"] < meds["uaf"]
    assert verdict(report, 4, ok, {"median_e_dip_min": meds},
                   "baf below tsau and uaf",
                   ", ".join(f"{k}={v:.3e}" for k, v in meds.items()))


def test_criterion_5_lossy_link_dip_persistence(report):
    # no time bound: the seed panels run on every usable CPU
    panels = [(p, proto) for p in (0.75, 0.5, 0.25) for proto in PROTOCOLS]
    mins = _map_episodes(
        lambda cfg: run(cfg, until_decided=True).errors[:, 1:].min(axis=0),
        [grid16_config(proto, s, freeze=False, link_p=p, ticks=16000)
         for p, proto in panels for s in SEEDS])
    ok = True
    worst = (0.0, 1.0)
    for n in range(len(panels)):
        per_node = np.array(mins[n * len(SEEDS):(n + 1) * len(SEEDS)])
        med = np.median(per_node, axis=0)
        ok &= bool(np.all(med >= 1e-5) and np.all(med <= 1e-2))
        worst = (max(worst[0], float(med.max())), min(worst[1], float(med.min())))
    assert verdict(report, 5, ok,
                   {"min_node_median": worst[1], "max_node_median": worst[0]},
                   "1e-5 <= every per-node median <= 1e-2",
                   f"per-node medians within [{worst[1]:.1e}, {worst[0]:.1e}]")


def test_criterion_6_malicious_node_statistics(report):
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
    verdict(report, "6a", ok_a,
            {"seeds": n_a, "v_k_dip": {p: [float(v) for v in stats[p][1]] for p in stats}},
            "V(BAF) > 10x both others in >= 8 of 11 seeds",
            f"V(BAF) > 10x both in {n_a}/11 seeds")
    verdict(report, "6b", ok_b,
            {"seeds": n_b, "k_dip_min": {p: [int(k) for k in stats[p][0]] for p in stats}},
            "k_dip(UAF) largest in >= 8 of 11 seeds",
            f"k_dip(UAF) largest in {n_b}/11 seeds")
    assert ok_a and ok_b


def test_criterion_7_filter_identities(report):
    constant = filter_output([2.5] * 7)
    ramp = filter_output([0, 1, 2, 3, 4, 5, 6])
    linearity = shift = 0.0
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = rng.random(7)
        y = rng.random(7)
        a, b = rng.random(2) * 4 - 2
        linearity = max(linearity, abs(filter_output(a * x + b * y)
                                       - (a * filter_output(x) + b * filter_output(y))))
        shift = max(shift, abs(filter_output(x + 17.0) - filter_output(x)))
    ok = constant == 0.0 and abs(ramp - 3.6) < 1e-12 and linearity < 1e-12 and shift < 1e-12
    assert verdict(report, 7, bool(ok),
                   {"constant": float(constant), "ramp": float(ramp),
                    "max_linearity_error": float(linearity), "max_shift_error": float(shift)},
                   "constant == 0, |ramp - 3.6| < 1e-12, both errors < 1e-12")


def test_criterion_8_colored_noise_spectrum(report):
    x = generate(1 << 14, 7)
    spec = np.abs(np.fft.rfft(x)) ** 2 / len(x)
    freqs = np.fft.rfftfreq(len(x))
    keep = (freqs > 0) & (freqs <= 0.125)
    lf, lp = np.log10(freqs[keep]), np.log10(spec[keep])
    A = np.vstack([lf, np.ones_like(lf)]).T
    slope = float(np.linalg.lstsq(A, lp, rcond=None)[0][0])
    ok = abs(slope + 2.0) <= 0.3
    ok &= abs(x.mean()) < 1e-12 and abs(x.std() - 1.0) < 1e-12
    assert verdict(report, 8, bool(ok),
                   {"slope": slope, "mean": float(x.mean()), "std": float(x.std())},
                   "|slope + 2| <= 0.3, |mean| < 1e-12, |std - 1| < 1e-12",
                   f"slope {slope:.2f}")


def test_criterion_9_energy_formula(report):
    rep = total_energy(141, 6)
    expected_cpu = 141e-6 * 8.0e-3 * 2.7
    ok = abs(rep.cpu_energy - expected_cpu) <= 1e-15 * expected_cpu
    full = 141e-6 * 8e-3 * 2.7 + (24 * 8 / 250e3) * (21e-3 + 23.3e-3) * 2.7
    ok &= abs(rep.total - full) <= 1e-12 * full
    # the quoted 14.53 uJ takes the air time in bytes, not bits (see
    # test_metrics), so it is reported beside the formula's total, not a target
    ok &= metrics.QUOTED_TOTALS_UJ["tsau"] == 14.53
    ok &= abs(rep.total * 1e6 - 14.53) > 1.0  # explicitly NOT an acceptance target
    bytes_total = 141e-6 * 8e-3 * 2.7 + (24 / 250e3) * (21e-3 + 23.3e-3) * 2.7
    assert verdict(report, 9, bool(ok),
                   {"cpu_energy_J": rep.cpu_energy, "total_uJ": rep.total * 1e6,
                    "byte_reading_total_uJ": bytes_total * 1e6},
                   "the formula's cpu and total energy to 1e-15 and 1e-12 relative; "
                   "the quoted 14.53 uJ is not a target",
                   f"computed {rep.total * 1e6:.2f} uJ vs quoted 14.53 uJ")


def test_criterion_10_resync_period_exact(report):
    period = resync_period(100, 0.001)
    assert verdict(report, 10, period == 10.0, {"resync_period": period}, "== 10.0")


def test_criterion_11_determinism(report, tmp_path):
    spec = tmp_path / "det.spec"
    spec.write_text(
        "name = det\nprotocol = baf\ntopology = grid:3x3\nmax_ticks = 500\n"
        "link_p = 0.6\nseed = 9\nfreeze_on_dip = true\n", encoding="utf-8")
    main(["run", str(spec), "--out", str(tmp_path / "a")])
    main(["run", str(spec), "--out", str(tmp_path / "b")])
    ok = (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
    assert verdict(report, 11, ok, {"identical": ok}, "two runs write identical trace.csv bytes")


def test_criterion_12_codec_roundtrip(report):
    rng = np.random.default_rng(2718)
    n = 100_000
    ok = True
    failed = None
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
                failed = failed or f"{kind.value} message {m}"
                break
    assert verdict(report, 12, ok, {"messages_per_protocol": n, "first_failure": failed},
                   "every message round-trips at its payload size",
                   "10^5 messages per protocol, payloads 6/7/9 bytes")
