"""DfsClient end-to-end API tests."""

import numpy as np
import pytest

from repro.dfs.capability import Capability
from repro.dfs.client import DfsClient
from repro.dfs.cluster import build_testbed
from repro.dfs.layout import EcSpec, ReplicationSpec
from repro.ec import DecodeError
from repro.protocols import install_spin_targets

KiB = 1024


@pytest.fixture
def env():
    tb = build_testbed(n_storage=8, n_clients=2)
    install_spin_targets(tb)
    return tb, DfsClient(tb, principal="alice")


def test_create_issues_ticket(env):
    tb, c = env
    c.create("/f", size=1 * KiB)
    cap = c.ticket("/f")
    assert tb.authority.verify(cap, cap.rights, 0, 100)


def test_open_existing_object(env):
    tb, c = env
    lay = c.create("/f", size=1 * KiB)
    other = DfsClient(tb, client_index=1, principal="bob")
    assert other.open("/f") is lay
    assert other.ticket("/f").client_id == other.client_id


def test_write_and_read_back(env):
    _, c = env
    c.create("/f", size=8 * KiB)
    data = np.random.default_rng(0).integers(0, 256, 5 * KiB, dtype=np.uint8)
    out = c.write_sync("/f", data, protocol="spin")
    assert out.ok
    got = c.read_back("/f")
    assert np.array_equal(got[: data.nbytes], data)


def test_read_back_ec_object(env):
    _, c = env
    c.create("/e", size=30 * KiB, ec=EcSpec(k=3, m=2))
    data = np.random.default_rng(1).integers(0, 256, 30 * KiB, dtype=np.uint8)
    assert c.write_sync("/e", data, protocol="spin").ok
    assert np.array_equal(c.read_back("/e"), data)


def test_recover_requires_ec(env):
    _, c = env
    c.create("/plain", size=1 * KiB)
    with pytest.raises(DecodeError):
        c.recover("/plain", set())


def test_recover_too_many_failures(env):
    _, c = env
    lay = c.create("/e", size=30 * KiB, ec=EcSpec(k=3, m=1))
    data = np.zeros(30 * KiB, dtype=np.uint8)
    assert c.write_sync("/e", data, protocol="spin").ok
    with pytest.raises(DecodeError):
        c.recover("/e", {lay.extents[0].node, lay.extents[1].node})


def test_forge_ticket_differs_only_in_signature(env):
    _, c = env
    c.create("/f", size=1 * KiB)
    good, bad = c.ticket("/f"), c.forge_ticket("/f")
    assert good.descriptor_bytes() == bad.descriptor_bytes()
    assert good.signature != bad.signature


def test_unopened_ticket_names_client_and_path(env):
    _, c = env
    c.create("/f", size=1 * KiB)
    other = DfsClient(c.testbed, client_index=1, principal="bob")
    for get in (other.ticket, other.forge_ticket):
        with pytest.raises(KeyError, match=rf"client {other.client_id} on "
                                           rf"{other.node.name}\b.*'/f'"):
            get("/f")


def test_capability_value_semantics(env):
    """Tickets compare and hash field by field, equal only to tickets."""
    tb, c = env
    c.create("/f", size=1 * KiB)
    cap = c.ticket("/f")
    again = Capability.from_wire(cap.to_wire())
    assert again == cap and not again != cap and hash(again) == hash(cap)
    assert cap != cap._replace(addr=1)
    assert cap != tuple(cap) and tuple(cap) != cap and not cap == tuple(cap)
    with pytest.raises(AttributeError):
        cap.addr = 1


def test_two_clients_distinct_identities(env):
    tb, alice = env
    bob = DfsClient(tb, client_index=1, principal="bob")
    assert alice.client_id != bob.client_id
    assert tb.mgmt.principal(alice.client_id) == "alice"
    assert tb.mgmt.principal(bob.client_id) == "bob"


def test_two_clients_write_different_objects_concurrently(env):
    tb, alice = env
    bob = DfsClient(tb, client_index=1, principal="bob")
    alice.create("/a", size=64 * KiB)
    bob.create("/b", size=64 * KiB)
    da = np.full(32 * KiB, 0xA, dtype=np.uint8)
    db = np.full(32 * KiB, 0xB, dtype=np.uint8)
    ea = alice.write("/a", da, protocol="spin")
    eb = bob.write("/b", db, protocol="spin")
    ra = tb.run_until(ea)
    rb = tb.run_until(eb)
    assert ra.ok and rb.ok
    assert np.array_equal(alice.read_back("/a")[: da.nbytes], da)
    assert np.array_equal(bob.read_back("/b")[: db.nbytes], db)


def test_write_uses_stored_ticket_by_default(env):
    _, c = env
    c.create("/f", size=4 * KiB)
    out = c.write_sync("/f", np.zeros(1 * KiB, dtype=np.uint8))
    assert out.ok  # spin is the default protocol


def test_metadata_lookup_failure_propagates(env):
    _, c = env
    with pytest.raises(Exception):
        c.write("/missing", np.zeros(10, dtype=np.uint8))
