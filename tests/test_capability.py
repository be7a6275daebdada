"""Capability authentication tests (§IV threat model)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dfs.capability import (
    CAPABILITY_WIRE_BYTES,
    Capability,
    CapabilityAuthority,
    Rights,
)


@pytest.fixture
def authority():
    return CapabilityAuthority(key=b"test-key")


def test_issue_and_verify(authority):
    cap = authority.issue(1, 42, addr=0, length=4096, rights=Rights.RW)
    assert authority.verify(cap, Rights.WRITE, 0, 4096)
    assert authority.verify(cap, Rights.READ, 100, 100)
    assert authority.verified_ok == 2


def test_forged_signature_rejected(authority):
    cap = authority.issue(1, 42, 0, 4096, Rights.RW)
    bad = Capability(
        cap.client_id, cap.object_id, cap.addr, cap.length,
        cap.rights, cap.expiry_ns, bytes(b ^ 1 for b in cap.signature),
    )
    assert not authority.verify(bad, Rights.WRITE, 0, 4096)
    assert authority.verified_fail == 1


def test_tampered_descriptor_rejected(authority):
    """Upgrading your own rights invalidates the signature."""
    cap = authority.issue(1, 42, 0, 4096, Rights.READ)
    escalated = Capability(
        cap.client_id, cap.object_id, cap.addr, cap.length,
        Rights.RW, cap.expiry_ns, cap.signature,
    )
    assert not authority.verify(escalated, Rights.WRITE, 0, 4096)


def test_rights_enforced(authority):
    cap = authority.issue(1, 42, 0, 4096, Rights.READ)
    assert authority.verify(cap, Rights.READ, 0, 4096)
    assert not authority.verify(cap, Rights.WRITE, 0, 4096)


def test_range_enforced(authority):
    cap = authority.issue(1, 42, addr=1000, length=100, rights=Rights.RW)
    assert authority.verify(cap, Rights.WRITE, 1000, 100)
    assert authority.verify(cap, Rights.WRITE, 1050, 50)
    assert not authority.verify(cap, Rights.WRITE, 999, 10)   # before range
    assert not authority.verify(cap, Rights.WRITE, 1050, 51)  # past range


def test_expiry_enforced(authority):
    cap = authority.issue(1, 42, 0, 64, Rights.RW, expiry_ns=1000)
    assert authority.verify(cap, Rights.WRITE, 0, 64, now_ns=999)
    assert not authority.verify(cap, Rights.WRITE, 0, 64, now_ns=1001)


def test_different_key_rejects(authority):
    other = CapabilityAuthority(key=b"other-key")
    cap = authority.issue(1, 42, 0, 64, Rights.RW)
    assert not other.verify(cap, Rights.WRITE, 0, 64)


def test_key_rotation(authority):
    """§III-C: the host updates keys in NIC memory; old tickets die."""
    cap = authority.issue(1, 42, 0, 64, Rights.RW)
    authority.rotate_key(b"new-key")
    assert not authority.verify(cap, Rights.WRITE, 0, 64)
    cap2 = authority.issue(1, 42, 0, 64, Rights.RW)
    assert authority.verify(cap2, Rights.WRITE, 0, 64)


def test_wire_roundtrip(authority):
    cap = authority.issue(7, 99, 512, 2048, Rights.WRITE, expiry_ns=123456)
    blob = cap.to_wire()
    assert len(blob) == CAPABILITY_WIRE_BYTES
    back = Capability.from_wire(blob)
    assert back == cap
    assert authority.verify(back, Rights.WRITE, 512, 2048)


def test_wire_bad_length():
    with pytest.raises(ValueError):
        Capability.from_wire(b"short")


def test_rights_flags_compose():
    assert Rights.RW == Rights.READ | Rights.WRITE
    assert (Rights.READ & Rights.WRITE) == Rights.NONE


@given(
    client=st.integers(min_value=0, max_value=2**32 - 1),
    obj=st.integers(min_value=0, max_value=2**64 - 1),
    addr=st.integers(min_value=0, max_value=2**63 - 1),
    length=st.integers(min_value=0, max_value=2**62 - 1),
)
def test_wire_roundtrip_property(client, obj, addr, length):
    auth = CapabilityAuthority(key=b"prop")
    cap = auth.issue(client, obj, addr, length, Rights.RW)
    back = Capability.from_wire(cap.to_wire())
    assert back == cap


@given(flip=st.integers(min_value=0, max_value=CAPABILITY_WIRE_BYTES * 8 - 1))
def test_any_single_bit_flip_rejected(flip):
    """Flipping ANY bit of the wire blob (descriptor or signature) must
    fail verification — the HMAC binds the whole descriptor."""
    auth = CapabilityAuthority(key=b"prop2")
    cap = auth.issue(3, 9, 0, 1 << 20, Rights.RW)
    blob = bytearray(cap.to_wire())
    blob[flip // 8] ^= 1 << (flip % 8)
    tampered = Capability.from_wire(bytes(blob))
    assert not auth.verify(tampered, Rights.WRITE, 0, 1 << 20)


# ------------------------------------------------- signer vs the hmac reference
def _reference_sig(key: bytes, descriptor: bytes) -> bytes:
    import hashlib
    import hmac

    return hmac.new(key, descriptor, hashlib.sha256).digest()[:16]


@pytest.mark.parametrize("key_len", [0, 16, 32, 64, 65, 100])
def test_signer_matches_hmac_reference(key_len):
    """The pre-keyed signer equals ``hmac.new`` for keys below, at and
    above the SHA-256 block size (64 B), and again after a rotation."""
    key = bytes((7 * i + key_len) % 256 for i in range(key_len))
    auth = CapabilityAuthority(key=key)
    assert auth.key == key
    cap = auth.issue(3, 99, addr=16, length=4096, rights=Rights.WRITE, expiry_ns=5)
    assert cap.signature == _reference_sig(key, cap.descriptor_bytes())
    new_key = bytes(reversed(key)) + b"r"
    auth.rotate_key(new_key)
    assert auth.key == new_key
    cap2 = auth.issue(3, 99, addr=16, length=4096, rights=Rights.WRITE, expiry_ns=5)
    assert cap2.signature == _reference_sig(new_key, cap2.descriptor_bytes())
    assert auth.verify(cap2, Rights.WRITE, 16, 4096)
    assert not auth.verify(cap, Rights.WRITE, 16, 4096)


@given(
    key=st.binary(max_size=130),
    client_id=st.integers(0, 2**32 - 1),
    object_id=st.integers(0, 2**64 - 1),
    rights=st.sampled_from([Rights.READ, Rights.WRITE, Rights.RW]),
)
def test_signer_matches_hmac_reference_property(key, client_id, object_id, rights):
    auth = CapabilityAuthority(key=key)
    cap = auth.issue(client_id, object_id, 0, 64, rights)
    assert cap.signature == _reference_sig(key, cap.descriptor_bytes())
