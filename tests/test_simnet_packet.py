"""Unit tests for packets and message segmentation."""

import numpy as np
import pytest

from repro.simnet import (
    TRANSPORT_HEADER_BYTES,
    Message,
    as_payload,
    segment_message,
)


def _msg(nbytes, header_bytes=0, **kw):
    data = np.arange(nbytes, dtype=np.uint8) if nbytes else None
    return Message(
        src="c0", dst="s0", op="write", data=data, header_bytes=header_bytes, **kw
    )


def test_single_packet_message():
    pkts = segment_message(_msg(100), mtu=2048)
    assert len(pkts) == 1
    (p,) = pkts
    assert p.is_header and p.is_completion
    assert p.payload_bytes == 100
    assert p.size == TRANSPORT_HEADER_BYTES + 100


def test_exact_mtu_fill():
    pkts = segment_message(_msg(2048), mtu=2048)
    assert len(pkts) == 1
    assert pkts[0].payload_bytes == 2048


def test_multi_packet_segmentation_counts():
    pkts = segment_message(_msg(2049), mtu=2048)
    assert len(pkts) == 2
    assert pkts[0].payload_bytes == 2048
    assert pkts[1].payload_bytes == 1


def test_header_bytes_reduce_first_packet_budget():
    hdr = 100
    pkts = segment_message(_msg(2048, header_bytes=hdr), mtu=2048)
    assert len(pkts) == 2
    assert pkts[0].payload_bytes == 2048 - hdr
    assert pkts[0].header_bytes == hdr
    assert pkts[1].payload_bytes == hdr
    assert pkts[1].header_bytes == 0
    # headers only travel on the first packet
    assert pkts[0].size == TRANSPORT_HEADER_BYTES + 2048
    assert pkts[1].size == TRANSPORT_HEADER_BYTES + hdr


def test_payload_is_view_not_copy():
    data = np.zeros(5000, dtype=np.uint8)
    msg = Message(src="a", dst="b", op="write", data=data)
    pkts = segment_message(msg, mtu=2048)
    data[:] = 7
    for p in pkts:
        assert (p.payload == 7).all()
    assert all(p.payload.base is data for p in pkts)


def test_payload_reassembly_roundtrip():
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=10_000, dtype=np.uint8)
    msg = Message(src="a", dst="b", op="write", data=data, header_bytes=77)
    pkts = segment_message(msg, mtu=2048)
    out = np.concatenate([p.payload for p in pkts])
    assert np.array_equal(out, data)
    assert pkts[0].is_header and pkts[-1].is_completion
    assert [p.seq for p in pkts] == list(range(len(pkts)))
    assert all(p.nseq == len(pkts) for p in pkts)


def test_zero_byte_message_is_one_control_packet():
    pkts = segment_message(_msg(0, header_bytes=32), mtu=2048)
    assert len(pkts) == 1
    assert pkts[0].payload is None
    assert pkts[0].size == TRANSPORT_HEADER_BYTES + 32


def test_headers_must_fit_in_mtu():
    with pytest.raises(ValueError):
        segment_message(_msg(10, header_bytes=4096), mtu=2048)


def test_headers_dict_only_on_first_packet():
    msg = _msg(5000)
    msg.headers["cap"] = "token"
    pkts = segment_message(msg, mtu=2048)
    assert pkts[0].headers == {"cap": "token"}
    assert all(p.headers == {} for p in pkts[1:])


def test_child_packet_shares_payload_and_overrides():
    pkts = segment_message(_msg(100), mtu=2048)
    fwd = pkts[0].child(dst="s1", headers={"hop": 1})
    assert fwd.dst == "s1"
    assert fwd.payload is pkts[0].payload
    assert fwd.msg_id == pkts[0].msg_id


def test_as_payload_accepts_bytes_and_arrays():
    a = as_payload(b"\x01\x02")
    assert a.dtype == np.uint8 and a.tolist() == [1, 2]
    arr = np.array([3, 4], dtype=np.uint8)
    assert as_payload(arr) is arr
    with pytest.raises(TypeError):
        as_payload(np.array([1.0]))
