"""Quantitative evaluation: dip metrics, global/local synchronization errors,
and the energy model.

Dip metrics follow the communication-cycle convention: the dip error of a
node is the minimum of its per-tick error series, and the dip instant is the
first tick that attains it (the argmin tick).  The dip "time" k_dip counts
that node's own transmissions up to and including the argmin tick, in the
protocol's wake-up cycles: the count is divided by `TX_PER_CYCLE`, so BAF,
which transmits twice per wake-up cycle, counts half its transmissions.  The
tick the node's dip detector located (`Trace.dip_tick`) is not used.  For
the synchronous baseline (one transmission per tick from tick 1 on, until a
node freezes) k_dip equals the argmin tick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Trace
from .protocol import PAYLOAD_BYTES, ProtocolKind

MICROS_PER_TICK = 1e-6  # one CPU tick is ~1 microsecond on the target MCU

# transmissions per dip cycle: a BAF wake-up cycle is one full
# forward+backward round trip (two transmissions); every other protocol 1
TX_PER_CYCLE = {ProtocolKind.BAF: 2.0}


@dataclass(frozen=True)
class DipMetrics:
    """Per-node dip statistics over the N-1 non-gateway nodes, plus the three
    aggregates: mean minimum error, mean dip cycle, variance of dip cycles
    (population normalization 1/(N-1) over the slaves)."""

    k_dip: np.ndarray        # (N-1,) wake-up cycles up to and including k_dip_tick
    k_dip_tick: np.ndarray   # (N-1,) tick index of the error minimum
    e_dip: np.ndarray        # (N-1,) minimum error, seconds
    e_dip_min: float
    k_dip_min: float
    v_k_dip: float


def dip_metrics(trace: Trace) -> DipMetrics:
    """Per-node dip statistics and their aggregates.

    e_dip is the minimum of the node's error series and k_dip_tick the first
    tick that attains it.  k_dip counts the node's transmissions up to and
    including k_dip_tick, divided by the protocol's `TX_PER_CYCLE` (1 unless
    listed); the detector's dip tick is not read.  If freezing was enabled
    the post-freeze error grows monotonically, so minima are unaffected.
    """
    n = trace.node_count
    if n < 2:
        raise ValueError("dip metrics need at least one non-gateway node")
    per_cycle = TX_PER_CYCLE.get(trace.config.protocol, 1.0)
    gw = trace.gateway_times
    k_dip = np.zeros(n - 1)
    k_tick = np.zeros(n - 1, dtype=np.int64)
    e_dip = np.zeros(n - 1)
    for idx, i in enumerate(range(1, n)):
        # one node's error column at a time; `trace.errors` would copy (T, N)
        err = np.abs(gw - trace.estimates[:, i])
        k_star = int(np.argmin(err))
        e_dip[idx] = err[k_star]
        k_tick[idx] = k_star
        k_dip[idx] = int(trace.transmitted[: k_star + 1, i].sum()) / per_cycle
    mean_k = float(k_dip.mean())
    return DipMetrics(k_dip=k_dip, k_dip_tick=k_tick, e_dip=e_dip,
                      e_dip_min=float(e_dip.mean()), k_dip_min=mean_k,
                      v_k_dip=float(((k_dip - mean_k) ** 2).mean()))


@dataclass(frozen=True)
class ErrorSeries:
    """Per-tick global and local synchronization errors.

    Global: over all node pairs (gateway included).  Local: over adjacent
    pairs.  The averaged variants take each node's worst pairwise difference
    and average over the N nodes.
    """

    e_max_g: np.ndarray
    e_avg_g: np.ndarray
    e_max_l: np.ndarray
    e_avg_l: np.ndarray


def error_series(trace: Trace) -> ErrorSeries:
    """The error series of `trace`, whose local pairs are the edges of its
    config's topology."""
    est = trace.estimates
    mx = est.max(axis=1)
    mn = est.min(axis=1)
    e_max_g = mx - mn
    e_avg_g = np.maximum(est - mn[:, None], mx[:, None] - est).mean(axis=1)
    node_worst = np.zeros_like(est)
    e_max_l = np.zeros(est.shape[0])
    for u, v in trace.config.topology.edges:
        d = np.abs(est[:, u] - est[:, v])
        np.maximum(e_max_l, d, out=e_max_l)
        np.maximum(node_worst[:, u], d, out=node_worst[:, u])
        np.maximum(node_worst[:, v], d, out=node_worst[:, v])
    e_avg_l = node_worst.mean(axis=1)
    return ErrorSeries(e_max_g=e_max_g, e_avg_g=e_avg_g, e_max_l=e_max_l, e_avg_l=e_avg_l)


# ---------------------------------------------------------------------------
# Energy model
# ---------------------------------------------------------------------------

# MicaZ-class electrical constants: supply voltage (V), MCU, transmit and
# receive currents (A) and the radio's data rate (bit/s).  Packet framing adds
# 18 bytes (11-byte header + 7-byte footer) to every payload.
V_MIN = 2.7
I_MCU = 8.0e-3
I_TX = 21.0e-3
I_RX = 23.3e-3
DATA_RATE = 250_000.0
HEADER_FOOTER_BYTES = 18


@dataclass(frozen=True)
class EnergyReport:
    cpu_energy: float
    tx_energy: float
    rx_energy: float
    total: float


def total_energy(cpu_ticks: float, payload_bytes: int) -> EnergyReport:
    """Per-message energy: CPU term plus air-time transmit and receive terms.

    cpu_ticks is in 1-microsecond CPU ticks; the L/R terms use the full
    packet length (payload + framing) in bits.
    """
    if cpu_ticks <= 0:
        raise ValueError("cpu_ticks must be positive")
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    c_seconds = cpu_ticks * MICROS_PER_TICK
    air_seconds = (payload_bytes + HEADER_FOOTER_BYTES) * 8 / DATA_RATE
    cpu = c_seconds * I_MCU * V_MIN
    tx = air_seconds * I_TX * V_MIN
    rx = air_seconds * I_RX * V_MIN
    return EnergyReport(cpu_energy=cpu, tx_energy=tx, rx_energy=rx, total=cpu + tx + rx)


# Per-protocol constants: measured CPU overhead in ticks and payload bytes,
# the latter the wire codec's for the three protocols simulated here.
# FTSP and FloodPISync appear as external reference rows only.
PROTOCOL_ENERGY_CONSTANTS = {
    "tsau": (141, PAYLOAD_BYTES[ProtocolKind.TSAU]),
    "uaf": (133, PAYLOAD_BYTES[ProtocolKind.UAF]),
    "baf": (162, PAYLOAD_BYTES[ProtocolKind.BAF]),
    "ftsp": (5440, 9),
    "floodpisync": (145, 9),
}

# Previously reported per-message totals in microjoules.  They follow from
# the formula above when the air time is the packet's bytes / DATA_RATE,
# without the x8 from bytes to bits: tsau 14.528, uaf 14.834, baf 16.417,
# ftsp 130.422 and floodpisync 16.0499 uJ.  The first four round to the
# quoted digits; floodpisync's 16.1 follows only when 16.0499 is rounded
# through 16.05.  `total_energy` takes DATA_RATE in bit/s, so the `energy`
# table shows these only as its quoted column.
QUOTED_TOTALS_UJ = {
    "tsau": 14.53,
    "uaf": 14.8,
    "baf": 16.4,
    "ftsp": 130.4,
    "floodpisync": 16.1,
}


def summary_table(rows) -> str:
    """Aligned CSV comparing dip metrics per protocol.

    `rows` is an iterable of (protocol_name, DipMetrics).  Output rows keep
    the canonical TSAU, UAF, BAF order first, then anything else in the
    given order.  Empty input yields the header only.
    """
    header = "protocol,E_dip_min,k_dip_min,V_k_dip"
    rows = list(rows)
    canon = {"tsau": 0, "uaf": 1, "baf": 2}
    rows.sort(key=lambda r: (canon.get(str(r[0]).lower(), 3),))
    lines = [header]
    for name, dm in rows:
        lines.append(f"{name},{dm.e_dip_min!r},{dm.k_dip_min!r},{dm.v_k_dip!r}")
    return "\n".join(lines) + "\n"
