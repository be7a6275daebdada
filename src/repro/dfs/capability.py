"""Capability-based client authentication (§IV).

Threat model (the one the paper assumes): clients are *not* trusted, the
network *is*.  The metadata service hands the client a ticket containing
a **capability descriptor** — which operations are allowed on which
object range — signed with a key shared among DFS services (the
storage-node handlers hold the key; clients do not).  Storage-side
validation recomputes the HMAC and checks the requested operation
against the descriptor [32].

The signature uses HMAC-SHA256 truncated to 16 bytes; together with the
descriptor fields a capability serializes to a fixed 53-byte blob that
rides in the DFS header of every request (§III-A).  The authority keeps
the SHA-256 states of the HMAC inner and outer key pads (RFC 2104),
computed once per key, so a signature costs two state copies and two
short hashes instead of a fresh key schedule.
"""

import hmac
import hashlib
import secrets
import struct
from enum import IntFlag
from typing import NamedTuple

__all__ = ["Rights", "Capability", "CapabilityAuthority", "CAPABILITY_WIRE_BYTES"]


class Rights(IntFlag):
    """Operation bits a capability can grant."""

    NONE = 0
    READ = 1
    WRITE = 2
    RW = READ | WRITE


#: Packed descriptor: client_id(4) object_id(8) addr(8) length(8)
#: rights(1) expiry(8) = 37 bytes, + 16-byte truncated HMAC = 53.
_DESC_FMT = "<IQQQBQ"
_DESC = struct.Struct(_DESC_FMT)
_SIG_BYTES = 16
CAPABILITY_WIRE_BYTES = _DESC.size + _SIG_BYTES

#: HMAC (RFC 2104) over SHA-256: block size and the two pad bytes
_BLOCK = hashlib.sha256().block_size
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class Capability(NamedTuple):
    """A signed grant of ``rights`` on ``[addr, addr+length)`` of an object.

    Immutable: a tuple, so building one is a single ``tuple.__new__``
    (a frozen dataclass pays an ``object.__setattr__`` per field).
    Equality and hashing are a frozen dataclass's: field by field, and
    only between capabilities, never with a bare tuple.
    """

    client_id: int
    object_id: int
    addr: int
    length: int
    rights: Rights
    expiry_ns: int
    signature: bytes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Capability:
            return tuple.__eq__(self, other)
        # a bare tuple would otherwise compare equal field by field
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    # ------------------------------------------------------------ wire
    def descriptor_bytes(self) -> bytes:
        return _DESC.pack(
            self.client_id,
            self.object_id,
            self.addr,
            self.length,
            int(self.rights),
            self.expiry_ns,
        )

    def to_wire(self) -> bytes:
        return self.descriptor_bytes() + self.signature

    @classmethod
    def from_wire(cls, blob: bytes) -> "Capability":
        if len(blob) != CAPABILITY_WIRE_BYTES:
            raise ValueError(
                f"capability blob must be {CAPABILITY_WIRE_BYTES} B, got {len(blob)}"
            )
        desc, sig = blob[:-_SIG_BYTES], blob[-_SIG_BYTES:]
        client_id, object_id, addr, length, rights, expiry = _DESC.unpack(desc)
        return cls(client_id, object_id, addr, length, Rights(rights), expiry, sig)

    # ------------------------------------------------------------ checks
    def covers(self, op_rights: Rights, addr: int, length: int) -> bool:
        """Does this capability allow ``op_rights`` on the given range?"""
        return (
            (self.rights & op_rights) == op_rights
            and addr >= self.addr
            and addr + length <= self.addr + self.length
        )


class CapabilityAuthority:
    """Holds the service-shared signing key; issues and verifies capabilities.

    One instance is shared by the management/metadata services (issuers)
    and the storage-node handlers (verifiers) — never by clients.
    """

    def __init__(self, key: bytes | None = None):
        self.key = key if key is not None else secrets.token_bytes(32)
        self.issued = 0
        self.verified_ok = 0
        self.verified_fail = 0

    @property
    def key(self) -> bytes:
        return self._key

    @key.setter
    def key(self, key: bytes) -> None:
        # the pad states depend only on the key: build them once here,
        # so every assignment (construction, rotation) refreshes them
        self._key = key
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        block = key.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def _sign(self, descriptor: bytes) -> bytes:
        """``hmac.new(key, descriptor, sha256).digest()[:16]``, from the
        precomputed pad states."""
        inner = self._inner.copy()
        inner.update(descriptor)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:_SIG_BYTES]

    def issue(
        self,
        client_id: int,
        object_id: int,
        addr: int,
        length: int,
        rights: Rights,
        expiry_ns: int = 2**63 - 1,
    ) -> Capability:
        sig = self._sign(
            _DESC.pack(client_id, object_id, addr, length, int(rights), expiry_ns)
        )
        self.issued += 1
        return Capability(client_id, object_id, addr, length, rights, expiry_ns, sig)

    def verify(
        self,
        cap: Capability,
        op_rights: Rights,
        addr: int,
        length: int,
        now_ns: float = 0.0,
    ) -> bool:
        """The storage-side check the sPIN header handler runs
        (DFS_request_init of Listing 1)."""
        expected = self._sign(cap.descriptor_bytes())
        ok = (
            hmac.compare_digest(expected, cap.signature)
            and now_ns <= cap.expiry_ns
            and cap.covers(op_rights, addr, length)
        )
        if ok:
            self.verified_ok += 1
        else:
            self.verified_fail += 1
        return ok

    def rotate_key(self, new_key: bytes) -> None:
        """Key rotation: the DFS software updates the key in NIC memory
        (§III-C: "e.g., to update encryption keys")."""
        self.key = new_key
