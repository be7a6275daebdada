"""Unit tests for ports, links, switches and the star network."""

import numpy as np
import pytest

from repro.simnet import (
    Message,
    NetConfig,
    Network,
    Packet,
    Port,
    Simulator,
    gbps_to_ns_per_byte,
    segment_message,
)


class Sink:
    def __init__(self, name="sink"):
        self.name = name
        self.received = []

    def receive(self, pkt):
        self.received.append(pkt)


class TimestampSink(Sink):
    def __init__(self, sim, name="sink"):
        super().__init__(name)
        self.sim = sim
        self.times = []

    def receive(self, pkt):
        super().receive(pkt)
        self.times.append(self.sim.now)


def _pkt(size_payload, src="a", dst="b", seq=0, nseq=1):
    return Packet(
        src=src,
        dst=dst,
        op="write",
        msg_id=1,
        seq=seq,
        nseq=nseq,
        payload=np.zeros(size_payload, dtype=np.uint8),
    )


def test_gbps_conversion():
    # 400 Gbit/s -> 0.02 ns per byte
    assert gbps_to_ns_per_byte(400) == pytest.approx(0.02)


def test_port_serialization_plus_latency():
    sim = Simulator()
    sink = TimestampSink(sim)
    port = Port(sim, "a", bandwidth_gbps=400)
    port.connect(sink, latency_ns=20)
    pkt = _pkt(2048 - 64)  # wire size exactly 2048 B
    port.send(pkt)
    sim.run()
    # 2048 B * 0.02 ns/B = 40.96 ns serialization + 20 ns propagation
    assert sink.times == [pytest.approx(60.96)]


def test_port_pipelines_back_to_back_packets():
    """Second packet arrives one serialization time after the first."""
    sim = Simulator()
    sink = TimestampSink(sim)
    port = Port(sim, "a", bandwidth_gbps=400)
    port.connect(sink, latency_ns=0)
    for _ in range(3):
        port.send(_pkt(2048 - 64))
    sim.run()
    ser = 2048 * 0.02
    assert sink.times == [
        pytest.approx(ser),
        pytest.approx(2 * ser),
        pytest.approx(3 * ser),
    ]


def test_send_event_fires_at_serialization_end():
    sim = Simulator()
    sink = Sink()
    port = Port(sim, "a", bandwidth_gbps=400)
    port.connect(sink, latency_ns=1000)
    t_done = []

    def sender():
        yield port.send(_pkt(2048 - 64))
        t_done.append(sim.now)

    sim.process(sender())
    sim.run()
    # sender unblocked at serialization end, not delivery
    assert t_done == [pytest.approx(40.96)]


def test_port_stats():
    sim = Simulator()
    sink = Sink()
    port = Port(sim, "a", bandwidth_gbps=400)
    port.connect(sink, latency_ns=0)
    port.send(_pkt(2048 - 64))
    port.send(_pkt(1024 - 64))
    sim.run()
    assert port.tx_packets == 2
    assert port.tx_bytes == 2048 + 1024
    assert port.busy_ns == pytest.approx((2048 + 1024) * 0.02)


def test_double_connect_rejected():
    sim = Simulator()
    port = Port(sim, "a", bandwidth_gbps=400)
    port.connect(Sink(), latency_ns=0)
    with pytest.raises(RuntimeError):
        port.connect(Sink(), latency_ns=0)


# ------------------------------------------------------------- network/star
def test_star_network_end_to_end_latency():
    sim = Simulator()
    cfg = NetConfig(bandwidth_gbps=400, link_latency_ns=20, switch_latency_ns=100)
    net = Network(sim, cfg)
    a, b = TimestampSink(sim, "a"), TimestampSink(sim, "b")
    port_a = net.register(a)
    net.register(b)
    pkt = _pkt(2048 - 64, src="a", dst="b")
    port_a.send(pkt)
    sim.run()
    ser = 2048 * 0.02  # per store-and-forward hop
    expect = ser + 20 + 100 + ser + 20
    assert b.times == [pytest.approx(expect)]


def test_network_routes_to_correct_endpoint():
    sim = Simulator()
    net = Network(sim)
    nodes = {n: Sink(n) for n in ["a", "b", "c"]}
    ports = {n: net.register(nodes[n]) for n in nodes}
    ports["a"].send(_pkt(10, src="a", dst="c"))
    ports["b"].send(_pkt(10, src="b", dst="a"))
    sim.run()
    assert len(nodes["c"].received) == 1
    assert len(nodes["a"].received) == 1
    assert len(nodes["b"].received) == 0


def test_network_unknown_destination_raises():
    sim = Simulator()
    net = Network(sim)
    a = Sink("a")
    pa = net.register(a)
    pa.send(_pkt(10, src="a", dst="ghost"))
    with pytest.raises(KeyError):
        sim.run()


def test_duplicate_registration_rejected():
    sim = Simulator()
    net = Network(sim)
    net.register(Sink("a"))
    with pytest.raises(ValueError):
        net.register(Sink("a"))


def test_in_order_delivery_of_message():
    """sPIN requires header first, completion last; links are FIFO."""
    sim = Simulator()
    net = Network(sim)
    a, b = Sink("a"), Sink("b")
    pa = net.register(a)
    net.register(b)
    data = np.arange(100_000, dtype=np.uint64).view(np.uint8)
    msg = Message(src="a", dst="b", op="write", data=data)
    for p in segment_message(msg, mtu=2048):
        pa.send(p)
    sim.run()
    seqs = [p.seq for p in b.received]
    assert seqs == sorted(seqs)
    assert b.received[0].is_header and b.received[-1].is_completion


def test_congestion_two_senders_one_receiver():
    """Two hosts flooding one sink share the sink's egress port at the
    switch: total delivery time is ~2x the one-sender case."""
    cfg = NetConfig(bandwidth_gbps=400, link_latency_ns=0, switch_latency_ns=0)

    def run(n_senders):
        sim = Simulator()
        net = Network(sim, cfg)
        sink = TimestampSink(sim, "sink")
        net.register(sink)
        for s in range(n_senders):
            name = f"src{s}"
            port = net.register(Sink(name))
            for _ in range(50):
                port.send(_pkt(2048 - 64, src=name, dst="sink"))
        sim.run()
        return sim.now

    t1, t2 = run(1), run(2)
    assert t2 / t1 == pytest.approx(2.0, rel=0.05)
