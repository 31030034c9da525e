"""Protocol kinds and the byte-exact wire codec.

The protocols themselves are simulated by the tick kernels in `_kernels.py`.
This module names them (`ProtocolKind`) and defines the messages they
broadcast: the fields of each kind (`SyncMessage`), their fixed payload
lengths (`PAYLOAD_BYTES`), and the little-endian encoding (`encode` and
`decode`).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, MalformedMessage

MICROS_PER_SECOND = 1_000_000
WIRE_TIME_MAX_TICKS = 0xFFFFFFFF  # 4-byte unsigned microsecond counter
MAX_SENDER_ID = 0xFFFF            # 2-byte unsigned sender id
MAX_HOP_COUNTER = 0xFFFF          # 2-byte unsigned BAF hop counter


class ProtocolKind(enum.Enum):
    SYNC_BASELINE = "baseline"
    TSAU = "tsau"
    UAF = "uaf"
    BAF = "baf"

    @classmethod
    def parse(cls, text: str) -> "ProtocolKind":
        for kind in cls:
            if kind.value == text.strip().lower():
                return kind
        raise ConfigError(f"unknown protocol {text!r}")


PAYLOAD_BYTES = {
    ProtocolKind.TSAU: 6,  # 2B sender id + 4B time
    ProtocolKind.UAF: 7,   # + 1B status
    ProtocolKind.BAF: 9,   # + 2B counter
}


@dataclass(frozen=True)
class SyncMessage:
    """Protocol-tagged wire message.  `time` is seconds on the microsecond grid."""

    kind: ProtocolKind
    sender: int
    time: float
    s: Optional[int] = None
    c: Optional[int] = None


# ---------------------------------------------------------------------------
# Wire codec: little-endian, byte-exact payloads (6 / 7 / 9 bytes)
# ---------------------------------------------------------------------------

def _seconds_to_wire(t: float) -> int:
    ticks = round(t * MICROS_PER_SECOND)
    return min(max(ticks, 0), WIRE_TIME_MAX_TICKS)  # saturating


def encode(msg: SyncMessage) -> bytes:
    """Serialize a message to its protocol's fixed-length payload."""
    if msg.kind not in PAYLOAD_BYTES:
        raise MalformedMessage(f"{msg.kind.value} has no wire format")
    if not 0 <= msg.sender <= MAX_SENDER_ID:
        raise MalformedMessage(f"sender id {msg.sender} does not fit 2 bytes")
    ticks = _seconds_to_wire(msg.time)
    if msg.kind is ProtocolKind.TSAU:
        return struct.pack("<HI", msg.sender, ticks)
    if msg.kind is ProtocolKind.UAF:
        return struct.pack("<HIB", msg.sender, ticks, _checked_status(msg.s))
    c = msg.c if msg.c is not None else 0
    if not 0 <= c <= MAX_HOP_COUNTER:
        raise MalformedMessage(f"counter {c} does not fit 2 bytes")
    return struct.pack("<HIBH", msg.sender, ticks, _checked_status(msg.s), c)


def _checked_status(s) -> int:
    if s not in (0, 1):
        raise MalformedMessage(f"status bit must be 0 or 1, got {s!r}")
    return s


def decode(payload: bytes, kind: ProtocolKind) -> SyncMessage:
    """Inverse of encode; rejects wrong lengths and invalid field values."""
    expected = PAYLOAD_BYTES.get(kind)
    if expected is None:
        raise MalformedMessage(f"{kind.value} has no wire format")
    if len(payload) != expected:
        raise MalformedMessage(
            f"{kind.value} payload must be {expected} bytes, got {len(payload)}"
        )
    if kind is ProtocolKind.TSAU:
        sender, ticks = struct.unpack("<HI", payload)
        return SyncMessage(kind, sender, ticks / MICROS_PER_SECOND)
    if kind is ProtocolKind.UAF:
        sender, ticks, s = struct.unpack("<HIB", payload)
        return SyncMessage(kind, sender, ticks / MICROS_PER_SECOND, s=_checked_status(s))
    sender, ticks, s, c = struct.unpack("<HIBH", payload)
    return SyncMessage(kind, sender, ticks / MICROS_PER_SECOND, s=_checked_status(s), c=c)
