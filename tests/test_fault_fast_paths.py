"""Fast paths under faults and telemetry.

An armed fault injector or telemetry keeps the fused hand-offs: a port
that decides an intact fate at tx-done hands the packet to the peer's
fused entry, which runs the receiver's crash and node-down checks at
the arrival instant; the retransmission timer is a chain of heap
callbacks, not a process; PCIe commit spans are closed at post.  These
tests pin the receiver-side boundaries, the corrupted-packet fallback,
the timer's outcomes, every telemetry record of a lossy traced run, and
that a request leaves no reference cycles behind.
"""

from __future__ import annotations

import gc
import hashlib
import json

import numpy as np

import repro.dfs.cluster as cluster
from repro import ReplicationSpec
from repro.dfs.cluster import build_testbed
from repro.experiments.common import fresh_client
from repro.faults import DownWindow
from repro.params import SimParams
from repro.scenarios import builtin
from repro.scenarios.matrix import run_scenario

def _control_to_sn0(node_down=()):
    """Send one control packet client0 -> sn0 (fault-free when no
    ``node_down`` window is given); returns the testbed and the packet's
    arrival instants at sn0's fused entry."""
    params = SimParams()
    if node_down:
        params = params.with_faults(node_down=node_down)
    tb = build_testbed(n_storage=2, params=params)
    nic = tb.node("sn0").nic
    arrivals = []
    fused = nic._dispatch_arrived

    def recording(arg):
        arrivals.append(arg[1])
        fused(arg)

    nic._dispatch_arrived = recording
    tb.clients[0].nic.send_control("sn0", "ack", {"ack_for": -1})
    tb.sim.run()
    return tb, arrivals


def _arrival_instant() -> float:
    tb, arrivals = _control_to_sn0()
    assert tb.node("sn0").nic.rx_packets == 1 and len(arrivals) == 1
    return arrivals[0]


def test_node_down_window_opening_in_flight_drops_at_arrival():
    """Up at the last hop's tx-done (20 ns before arrival) and at the
    dispatch (150 ns after), down at the arrival instant itself: the
    packet is dropped and counted."""
    t_arr = _arrival_instant()
    tb, _ = _control_to_sn0(node_down=(DownWindow("sn0", t_arr - 1.0, t_arr + 1.0),))
    nic = tb.node("sn0").nic
    assert (tb.faults.node_drops, nic.rx_packets) == (1, 0)


def test_packet_arriving_at_window_end_is_delivered():
    """Windows are half-open: down at the last hop's tx-done, the node
    takes a packet arriving exactly at ``t1_ns``."""
    t_arr = _arrival_instant()
    tb, _ = _control_to_sn0(node_down=(DownWindow("sn0", t_arr - 50.0, t_arr),))
    nic = tb.node("sn0").nic
    assert (tb.faults.node_drops, nic.rx_packets) == (0, 1)


def test_corrupted_on_first_hop_dropped_at_receiver():
    """The corrupted flag sticks: a packet corrupted on the uplink and
    intact on the downlink still fails the receiving NIC's CRC check."""
    tb = build_testbed(n_storage=2, params=SimParams().with_faults(corrupt_prob=1e-9))
    uplink = f"{tb.clients[0].name}->switch"
    verdicts = []

    def first_hop_corrupts(link_name, pkt):
        verdicts.append(link_name)
        return "corrupt" if link_name == uplink else None

    tb.sim.faults.egress_verdict = first_hop_corrupts
    tb.clients[0].nic.send_control("sn0", "ack", {"ack_for": -1})
    tb.sim.run()
    nic = tb.node("sn0").nic
    assert verdicts == [uplink, "switch->sn0"]
    assert (nic.rx_dropped, nic.rx_packets) == (1, 0)


# ---------------------------------------------------- retransmission timer
def _timed_write(**faults):
    params = SimParams().with_faults(
        retransmit=True, rto_ns=10_000.0, rto_max_ns=40_000.0, max_retransmits=3,
        **faults,
    )
    tb, c = fresh_client("raw", params, n_storage=2, telemetry=True)
    started = []
    spawn = tb.sim.process

    def recording(gen, name="", at=None):
        started.append(name)
        return spawn(gen, name=name, at=at)

    tb.sim.process = recording
    c.create("/f", size=8 * 1024)
    out = c.write_sync("/f", np.arange(8 * 1024, dtype=np.uint8), protocol="raw")
    tb.drain()
    nic = tb.clients[0].nic
    spans = [(s.name, s.t0, s.t1, s.args)
             for s in tb.sim.telemetry.spans if s.cat == "retransmit"]
    assert not any(".rto(" in name for name in started), started
    return (out.ok, [n["reason"] for n in out.nacks], nic.retransmits,
            nic.timeouts, spans, tb.sim.now)


def _backoff(n, t0, t1):
    return (f"rto backoff x{n}", t0, t1, {"greq_id": 1, "attempts": n})


def test_retransmit_timer_gives_up_as_the_watchdog_did():
    """Total loss: three backed-off retransmissions, then a timeout
    nack (values recorded from the watchdog process)."""
    assert _timed_write(loss_prob=1.0, seed=0) == (
        False, ["timeout"], 3, 1,
        [_backoff(2, 0.0, 10_000.0), _backoff(3, 10_000.0, 30_000.0),
         _backoff(4, 30_000.0, 70_000.0),
         ("rto gave-up", 70_000.0, 110_000.0, {"greq_id": 1, "attempts": 4})],
        310_150.0,
    )


def test_retransmit_timer_recovers_as_the_watchdog_did():
    """A 25 us node outage: two retransmissions, then the write lands."""
    assert _timed_write(node_down=(DownWindow("sn", 0.0, 25_000.0),)) == (
        True, [], 2, 0,
        [_backoff(2, 0.0, 10_000.0), _backoff(3, 10_000.0, 30_000.0)],
        231_595.84,
    )


# ------------------------------------------------------------- record pins
def _records(monkeypatch, spec):
    """Run ``spec`` at seed 1; return its request count, the retransmits
    of every NIC, the span count and digests of every span, metric and
    raw gauge sample."""
    built = []
    build = cluster.build_testbed

    def capture(*a, **kw):
        built.append(build(*a, **kw))
        return built[-1]

    monkeypatch.setattr(cluster, "build_testbed", capture)
    row = run_scenario(spec, seed=1)
    (tb,) = built
    tel = tb.sim.telemetry
    spans = repr([(s.name, s.cat, s.pid, s.tid, s.t0, s.t1, s.span_id, s.trace_id,
                   s.parent_id, s.args, s.phase) for s in tel.spans])
    metrics = json.dumps(tel.metrics.to_dict(tb.sim.now), sort_keys=True)
    gauges = repr(sorted((n, g.times, g.values) for n, g in tel.metrics.gauges.items()))
    digests = [hashlib.sha256(blob.encode()).hexdigest()[:16]
               for blob in (spans, metrics, gauges)]
    nodes = [*tb.clients, *tb.storage_nodes]
    return (row["issued"], sum(n.nic.retransmits for n in nodes), len(tel.spans), digests)


def test_lossy_traced_run_records_pinned(monkeypatch):
    """Every span, metric and raw gauge sample of a quick
    ``hot_shard_lossy`` run (digests recorded before the fast paths
    covered lossy, traced runs)."""
    assert _records(monkeypatch, builtin.get("hot_shard_lossy", quick=True)) == (
        12, 0, 274, ["4f9455217eac5e25", "0029510f9e7edd83", "1fd0bda08e108c1c"]
    )


def test_full_lossy_traced_run_records_pinned(monkeypatch):
    """The same records over the full ``hot_shard_lossy`` run: 665
    requests, three of whose packets are lost and retransmitted (digests
    recorded while every handler run built a ``Request`` and every hop a
    tx-done event)."""
    assert _records(monkeypatch, builtin.get("hot_shard_lossy")) == (
        665, 3, 14913, ["cc160bcd4b1db4b6", "72b4b13e2f7575ed", "0be3285a1611f7ec"]
    )


# --------------------------------------------------------- reference cycles
def _cyclic_garbage(tb, write) -> int:
    """Objects only the cyclic collector can free after three writes
    (one warm-up write first, so lazy set-up is not counted)."""
    write()
    tb.run(until=tb.sim.now + 5_000_000)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            ev = write()
            tb.run(until=tb.sim.now + 5_000_000)
            assert ev.triggered and ev.value.ok
        del ev
        return gc.collect()
    finally:
        gc.enable()


def _client(protocol, params=None, **create_kw):
    tb, c = fresh_client(protocol, params, n_storage=4)
    c.create("/f", size=64 * 1024, **create_kw)
    c.open("/f")
    return tb, c


def test_requests_leave_no_reference_cycles():
    """Granted requests, resource waiters, handler APIs and retransmit
    timers are freed by reference counting alone."""
    data = np.arange(16 * 1024, dtype=np.uint8)
    tb, c = _client("spin", replication=ReplicationSpec(k=3))
    assert _cyclic_garbage(tb, lambda: c.write("/f", data, protocol="spin")) == 0
    tb, c = _client("rpc")
    assert _cyclic_garbage(tb, lambda: c.write("/f", data, protocol="rpc")) == 0
    lossy = SimParams().with_faults(seed=3, loss_prob=0.05, retransmit=True)
    tb, c = _client("spin", lossy)
    assert _cyclic_garbage(tb, lambda: c.write("/f", data, protocol="spin")) == 0
    assert tb.clients[0].nic.retransmits > 0
