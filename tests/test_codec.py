import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipsync.engine import SimConfig, run
from dipsync.errors import MalformedMessage
from dipsync.protocol import PAYLOAD_BYTES, ProtocolKind, SyncMessage, decode, encode
from test_engine import connected_topologies


def micros(t_us):
    return t_us / 1e6


def test_payload_lengths():
    assert len(encode(SyncMessage(ProtocolKind.TSAU, 1, micros(5)))) == 6
    assert len(encode(SyncMessage(ProtocolKind.UAF, 1, micros(5), s=0))) == 7
    assert len(encode(SyncMessage(ProtocolKind.BAF, 1, micros(5), s=1, c=3))) == 9


def test_uaf_seven_byte_roundtrip():
    msg = SyncMessage(ProtocolKind.UAF, 5, micros(1000), s=1)
    raw = encode(msg)
    assert len(raw) == 7
    assert decode(raw, ProtocolKind.UAF) == msg


def test_uaf_golden_bytes_little_endian():
    raw = encode(SyncMessage(ProtocolKind.UAF, 5, micros(1000), s=1))
    assert raw == b"\x05\x00\xe8\x03\x00\x00\x01"


def test_tsau_zero_message_bytes():
    raw = encode(SyncMessage(ProtocolKind.TSAU, 9, 0.0))
    assert raw == b"\x09\x00\x00\x00\x00\x00"


def test_baf_roundtrip():
    msg = SyncMessage(ProtocolKind.BAF, 300, micros(123456789), s=0, c=7)
    assert decode(encode(msg), ProtocolKind.BAF) == msg


def test_time_saturates():
    over = SyncMessage(ProtocolKind.TSAU, 1, 1e9)
    assert decode(encode(over), ProtocolKind.TSAU).time == pytest.approx(4294.967295)
    under = SyncMessage(ProtocolKind.TSAU, 1, -5.0)
    assert decode(encode(under), ProtocolKind.TSAU).time == 0.0


def test_decode_rejects_wrong_length():
    with pytest.raises(MalformedMessage):
        decode(b"\x00" * 5, ProtocolKind.TSAU)
    with pytest.raises(MalformedMessage):
        decode(b"\x00" * 9, ProtocolKind.UAF)


def test_decode_rejects_bad_status():
    raw = bytearray(encode(SyncMessage(ProtocolKind.UAF, 1, 0.0, s=1)))
    raw[-1] = 7
    with pytest.raises(MalformedMessage):
        decode(bytes(raw), ProtocolKind.UAF)


def test_encode_rejects_wide_fields():
    with pytest.raises(MalformedMessage):
        encode(SyncMessage(ProtocolKind.TSAU, 70000, 0.0))
    with pytest.raises(MalformedMessage):
        encode(SyncMessage(ProtocolKind.BAF, 1, 0.0, s=1, c=70000))
    with pytest.raises(MalformedMessage):
        encode(SyncMessage(ProtocolKind.UAF, 1, 0.0, s=2))


def test_baseline_has_no_wire_format():
    with pytest.raises(MalformedMessage):
        encode(SyncMessage(ProtocolKind.SYNC_BASELINE, 1, 0.0))


def test_roundtrip_random_messages():
    rng = np.random.default_rng(2024)
    n = 10_000
    for kind in (ProtocolKind.TSAU, ProtocolKind.UAF, ProtocolKind.BAF):
        senders = rng.integers(0, 1 << 16, n)
        times_us = rng.integers(0, 1 << 32, n)
        ss = rng.integers(0, 2, n)
        cs = rng.integers(0, 1 << 16, n)
        for m in range(n):
            msg = SyncMessage(
                kind,
                int(senders[m]),
                int(times_us[m]) / 1e6,
                s=int(ss[m]) if kind is not ProtocolKind.TSAU else None,
                c=int(cs[m]) if kind is ProtocolKind.BAF else None,
            )
            raw = encode(msg)
            assert len(raw) == PAYLOAD_BYTES[kind]
            assert decode(raw, kind) == msg


# TSAU and BAF broadcast their estimates, so a trace holds the time of each
# broadcast: node i's sent at tick k is estimates[k, i], and the gateway's
# column is delta*k.  UAF sends its pending average and the attacker adds
# noise, values the outputs do not hold, so they stay out.  BAF's status and
# hop counter are not in the outputs either: s=1, c=0 stand in for them
@settings(derandomize=True, deadline=None, max_examples=40)
@given(topo=connected_topologies(), proto=st.sampled_from([ProtocolKind.TSAU, ProtocolKind.BAF]),
       freeze=st.booleans(), link_p=st.sampled_from([1.0, 0.7]),
       seed=st.integers(0, 2 ** 32 - 1), ticks=st.integers(100, 600))
def test_kernel_broadcasts_survive_the_codec(topo, proto, freeze, link_p, seed, ticks):
    trace = run(SimConfig(topology=topo, protocol=proto, max_ticks=ticks, link_p=link_p,
                          seed=seed, freeze_on_dip=freeze))
    fields = {"s": 1, "c": 0} if proto is ProtocolKind.BAF else {}
    for k, i in zip(*np.nonzero(trace.transmitted)):
        time = float(trace.estimates[k, i])
        got = decode(encode(SyncMessage(proto, int(i), time, **fields)), proto)
        assert got.sender == i
        assert abs(got.time - time) <= 0.5e-6 * (1 + 1e-9)
