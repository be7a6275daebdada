"""RDMA NIC tests: one-sided write/read, RPC delivery, ack handling."""

import numpy as np
import pytest

from repro.dfs.cluster import build_testbed
from repro.dfs.nodes import RpcCall
from repro.params import SimParams


@pytest.fixture
def tb():
    return build_testbed(n_storage=3, n_clients=2)


def _data(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def test_one_sided_write_lands_in_memory(tb):
    client = tb.clients[0]
    data = _data(10_000)
    ev = client.nic.post_write("sn0", data, headers={"addr": 128})
    res = tb.run_until(ev)
    assert res.ok
    assert np.array_equal(tb.node("sn0").memory.view(128, 10_000), data)


def test_write_latency_includes_post_and_completion(tb):
    client = tb.clients[0]
    ev = client.nic.post_write("sn0", _data(100), headers={"addr": 0})
    res = tb.run_until(ev)
    p = tb.params
    floor = p.client_post_ns + p.nic_tx_ns + p.nic_rx_ns + p.client_completion_ns
    assert res.latency_ns > floor


def test_rdma_write_acks_before_flush(tb):
    """RDMA semantics (§III-B1): the ack races the PCIe flush."""
    client = tb.clients[0]
    data = _data(4096)
    ev = client.nic.post_write("sn0", data, headers={"addr": 0})
    res = tb.run_until(ev)
    assert res.ok
    # data becomes durable shortly after; let DMA drain
    tb.run(until=tb.sim.now + 10_000)
    assert np.array_equal(tb.node("sn0").memory.view(0, 4096), data)


def test_one_sided_read_roundtrip(tb):
    data = _data(30_000, seed=3)
    tb.node("sn1").memory.write(512, data)
    client = tb.clients[0]
    ev = client.nic.post_read("sn1", addr=512, length=30_000)
    res = tb.run_until(ev)
    assert res.ok
    assert np.array_equal(res.data, data)


def test_read_of_zeros(tb):
    client = tb.clients[0]
    res = tb.run_until(client.nic.post_read("sn0", addr=0, length=64))
    assert res.ok and not res.data.any()


def test_rpc_request_response(tb):
    node = tb.node("sn0")

    def echo(call: RpcCall):
        h = call.headers
        call.node.respond(call.src, h["greq_id"], f"echo:{h['x']}:{call.payload.nbytes}")

    node.register_rpc("echo", lambda call: call.cpu(100, echo))
    client = tb.clients[0]
    ev = client.nic.post_rpc("sn0", {"rpc": "echo", "x": 7}, data=_data(500))
    res = tb.run_until(ev)
    assert res.ok and res.data == "echo:7:500"
    assert node.rpcs_served == 1


def test_unknown_rpc_errors(tb):
    client = tb.clients[0]
    res = tb.run_until(client.nic.post_rpc("sn0", {"rpc": "nope"}))
    assert not res.ok


def test_concurrent_writes_from_two_clients(tb):
    c0, c1 = tb.clients
    d0, d1 = _data(8000, 1), _data(8000, 2)
    e0 = c0.nic.post_write("sn0", d0, headers={"addr": 0})
    e1 = c1.nic.post_write("sn0", d1, headers={"addr": 16_384})
    r0 = tb.run_until(e0)
    r1 = tb.run_until(e1)
    assert r0.ok and r1.ok
    tb.run(until=tb.sim.now + 10_000)
    assert np.array_equal(tb.node("sn0").memory.view(0, 8000), d0)
    assert np.array_equal(tb.node("sn0").memory.view(16_384, 8000), d1)


def test_multi_ack_transaction(tb):
    client = tb.clients[0]
    greq, done = client.nic.open_transaction(expected_acks=3)
    for sn in ["sn0", "sn1", "sn2"]:
        client.nic.post_write(
            sn, _data(100), headers={"addr": 0}, greq_id=greq, expected_acks=0
        )
    res = tb.run_until(done)
    assert res.ok


def test_nack_completes_with_failure(tb):
    client = tb.clients[0]
    greq, done = client.nic.open_transaction(expected_acks=1)
    # server-side NACK (simulate policy rejection)
    tb.node("sn0").nic.send_control(client.name, "nack", {"ack_for": greq, "reason": "auth"})
    res = tb.run_until(done)
    assert not res.ok and res.nacks[0]["reason"] == "auth"


def test_stray_ack_ignored(tb):
    client = tb.clients[0]
    tb.node("sn0").nic.send_control(client.name, "ack", {"ack_for": 999_999})
    tb.run(until=10_000)  # must not raise


def test_send_message_fire_and_forget(tb):
    client = tb.clients[0]
    client.nic.send_message("sn0", "write", {"addr": 64}, data=_data(100, 9))
    tb.run(until=100_000)
    assert np.array_equal(tb.node("sn0").memory.view(64, 100), _data(100, 9))
    assert client.nic.pending_count() == 0


def test_failed_node_ignores_traffic(tb):
    tb.node("sn2").fail()
    client = tb.clients[0]
    ev = client.nic.post_write("sn2", _data(100), headers={"addr": 0})
    with pytest.raises(Exception):
        tb.run_until(ev, timeout_ns=1_000_000)


def test_crash_between_tx_done_and_arrival_drops_the_packet():
    """On a fault-free wire the switch port hands a packet to the NIC at
    tx-done.  A crash landing after that but before the packet arrives
    must still drop it: the crash instant is checked at dispatch."""

    def run(crash_after_ns=None):
        tb = build_testbed(n_storage=1, n_clients=1)
        port = tb.net.switch.out_port("sn0")
        sn0 = tb.node("sn0")
        tx_done = []
        orig = port._tx_done

        def spy(ser):
            tx_done.append(tb.sim.now)
            orig(ser)
            if crash_after_ns is not None:
                tb.sim._call_soon1(lambda _: sn0.fail(), None, delay=crash_after_ns)

        port._tx_done = spy
        ev = tb.clients[0].nic.post_write("sn0", _data(100), headers={"addr": 0})
        tb.run(until=100_000)
        return tb, ev, tx_done

    tb, ev, tx_done = run()
    assert ev.triggered and ev.value.ok  # the reference run lands
    lat = tb.net.cfg.link_latency_ns
    tb, ev, tx_done = run(crash_after_ns=lat / 2)
    (t_done,) = tx_done
    sn0 = tb.node("sn0")
    assert t_done < sn0.nic.crashed_at < t_done + lat
    assert sn0.nic.rx_packets == 0 and not ev.triggered
    assert not sn0.memory.view(0, 100).any()


def test_large_write_segments_and_reassembles(tb):
    client = tb.clients[0]
    data = _data(300_000, seed=11)
    res = tb.run_until(client.nic.post_write("sn1", data, headers={"addr": 0}))
    assert res.ok
    tb.run(until=tb.sim.now + 50_000)
    assert np.array_equal(tb.node("sn1").memory.view(0, 300_000), data)
