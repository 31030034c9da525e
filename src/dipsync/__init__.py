"""dipsync: deterministic simulator of asynchronous, decentralized, single-hop
WSN time synchronization (TSAU, UAF, BAF) with transient-dip stopping."""

from .clock import resync_period
from .dip import FILTER_TAPS, DipDetector, filter_output
from .engine import SimConfig, Trace, current_backend, run, substream
from .errors import (
    ConfigError,
    EpisodeAborted,
    MalformedMessage,
    ProtocolViolation,
    UnreachableNodeError,
)
from .metrics import (
    DipMetrics,
    EnergyReport,
    ErrorSeries,
    dip_metrics,
    error_series,
    summary_table,
    total_energy,
)
from .noise import malicious_node
from .protocol import ProtocolKind, SyncMessage, decode, encode
from .topology import (
    Topology,
    connectivity_layers,
    load_topology,
    make_grid,
    make_line,
)

__version__ = "0.1.0"
