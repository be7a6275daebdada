"""Handler runs and switch hops build nothing nobody waits on.

A packet's record takes an HPU slot of its cluster's pool itself (no
``Request``), a skeleton handler calls the request's effective policy
directly (a straight-line payload body and an admitted header run no
generator), and a switch hop enqueues on its output port without the
tx-done event that ``Port.send`` returns.  The contention pins below
were recorded when every handler run built a ``Request``: a queued
handler must still be granted at the same heap position, so the
completion instants, the HPU utilisation and the handler statistics
stay identical.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro import DfsClient, build_testbed
from repro.core.policies.dispatch import DispatchPolicy
from repro.params import SimParams
from repro.protocols import install_spin_targets
from repro.simnet import resources
from repro.simnet.link import Port

KiB = 1024


def _data(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


# ------------------------------------------------ an uncontended write
class _Spy:
    """Records ``Request`` constructions, what each skeleton handler run
    returns (None, or a generator still to step) and every port enqueue
    and ``send`` by the port's owner."""

    def __init__(self, monkeypatch, tb) -> None:
        self.requests: list = []
        self.bodies: Counter = Counter()
        self.sends: Counter = Counter()
        self.enqueues: Counter = Counter()
        orig_req = resources.Request.__init__

        def request(req, res):
            self.requests.append(res.name)
            orig_req(req, res)

        monkeypatch.setattr(resources.Request, "__init__", request)
        for node in tb.storage_nodes:
            for ctx in node.accelerator.contexts:
                for htype in ("header", "payload", "completion"):
                    handler = getattr(ctx.handlers, htype)
                    monkeypatch.setattr(handler, "run", self._wrap(htype, handler.run))
        orig_send, orig_enqueue = Port.send, Port.enqueue

        def send(port, pkt):
            self.sends[port.owner_name.split("->")[0]] += 1
            return orig_send(port, pkt)

        def enqueue(port, pkt, done=None):
            self.enqueues[port.owner_name.split("->")[0]] += 1
            orig_enqueue(port, pkt, done)

        monkeypatch.setattr(Port, "send", send)
        monkeypatch.setattr(Port, "enqueue", enqueue)

    def _wrap(self, htype, run):
        def spy(api, task, pkt):
            body = run(api, task, pkt)
            self.bodies[htype, "none" if body is None else type(body).__name__] += 1
            return body

        return spy


@pytest.mark.parametrize("size_kib, packets", [
    (4, 3),
    (16, 9),
], ids=["per-packet", "paced-train"])
def test_uncontended_write_builds_no_request_generator_or_hop_event(
    monkeypatch, size_kib, packets
):
    """Every packet and every hop one at a time, for a 3- and a 9-packet
    write."""
    tb = build_testbed(n_storage=2)
    install_spin_targets(tb)
    c = DfsClient(tb)
    tb.metadata.create("/f", size=size_kib * KiB, pin_nodes=["sn0"])
    c.open("/f")
    spy = _Spy(monkeypatch, tb)
    assert tb.run_until(c.write("/f", _data(size_kib * KiB), protocol="spin")).ok
    assert spy.requests == []
    assert dict(spy.bodies) == {
        ("header", "none"): 1,
        ("payload", "none"): packets,
        ("completion", "generator"): 1,   # it waits for the DMA flush
    }
    assert spy.sends["switch"] == 0
    # the write's packets and the ack, each one hop through the switch
    assert spy.enqueues["switch"] == packets + 1


# -------------------------------------------------- contended HPU slots
def _contended(quota):
    """Five concurrent 16 KiB writes to sn0 with one HPU per cluster, with
    or without a 2-HPU tenant quota: handlers queue for HPU slots (and
    for the quota).  Returns the testbed, the completions, sn0's
    per-cluster HPU utilisation and a digest of its handler statistics."""
    tb = build_testbed(n_storage=2, n_clients=5,
                       params=SimParams().with_pspin(hpus_per_cluster=1), sanitize=True)
    for node in tb.storage_nodes:
        node.install_pspin(DispatchPolicy(mtu=tb.params.net.mtu), authority=tb.authority,
                           n_accumulators=64, hpu_quota=quota)
    jobs = []
    for i in range(5):
        c = DfsClient(tb, client_index=i, principal=f"t{i}")
        path = f"/h{i}"
        tb.metadata.create(path, size=16 * KiB, pin_nodes=["sn0"])
        c.open(path)
        jobs.append((c, path, _data(16 * KiB, seed=i)))
    evs = [c.write(p, d, protocol="spin") for c, p, d in jobs]
    tb.run(until=20_000_000)
    acc = tb.node("sn0").accelerator
    done = [(e.value.ok, e.value.latency_ns) for e in evs if e.triggered]
    util = [cl.hpus.utilisation() for cl in acc.clusters]
    stats = repr(sorted((k, tuple(s.durations_ns), tuple(s.instructions))
                        for k, s in acc.stats.items()))
    return tb, done, util, hashlib.sha256(stats.encode()).hexdigest()[:16]


#: quota -> (events, completion instants, sn0 HPU utilisation per
#: cluster, HandlerStats digest), from the per-packet path.  The values
#: recorded while uncontended bursts moved as packet trains were not the
#: per-packet path's: five writers racing for one HPU per cluster is a
#: multi-writer case the trains did not reproduce exactly.  Then, no
#: quota: 403 events, the last write done at 4170.477624999997 (now
#: 4151.757624999997), digest 7274ed77087e448c; quota 2: 429 events,
#: completions from 4835.666000000002 (now 4928.626000000001), digest
#: 12209c74516fdbd0.
CONTENDED = {
    None: (464,
           [3935.785624999997, 3954.505624999997, 4043.7716249999967,
            4062.491624999997, 4151.757624999997],
           [9.521888125000002e-05, 6.042400000000002e-05,
            8.102658125000002e-05, 5.577600000000002e-05],
           "0300aa901863035f"),
    2: (492,
        [4928.626000000001, 5021.586000000001, 5036.612000000001,
         5129.572000000001, 5145.600000000001],
        [9.4522e-05, 6.042400000000002e-05, 7.847460000000001e-05, 5.5775999999999996e-05],
        "211d9f62db0e77b0"),
}


@pytest.mark.parametrize("quota", [None, 2], ids=["no-quota", "quota-2"])
def test_queued_handlers_are_granted_where_a_request_was(monkeypatch, quota):
    queued = Counter()
    acquire = resources.Resource.acquire

    def spy(res, holder, wake):
        got = acquire(res, holder, wake)
        if not got:
            queued["quota" if ".quota." in res.name else "hpu"] += 1
        return got

    monkeypatch.setattr(resources.Resource, "acquire", spy)
    tb, done, util, stats = _contended(quota)
    events, instants, utilisation, digest = CONTENDED[quota]
    assert queued["hpu"] > 0 and (quota is None or queued["quota"] > 0)
    assert (tb.sim.events_dispatched, done, util, stats) == (
        events, [(True, t) for t in instants], utilisation, digest
    )
    assert tb.sanitize_report().ok


def test_a_slot_never_released_is_a_leak(monkeypatch):
    """Drop every release of cluster 0's HPU: its holder keeps the slot,
    later handlers stay queued, and the quiesce sweep reports both with
    the chain that took them: packet records, and the cleanup process
    whose ``Request`` queues in the same pool."""
    release = resources.Resource.release

    def leaky(res, holder):
        if res.name != "cluster0.hpus":
            release(res, holder)

    monkeypatch.setattr(resources.Resource, "release", leaky)
    tb, done, _util, _stats = _contended(None)
    assert len(done) < 5
    leaks = [f.message for f in tb.sim.sanitizer.check_quiesce()
             if f.kind == "leak-resource"]
    held = [m for m in leaks if m.startswith("slot on 'cluster0.hpus' still held")]
    waiting = [m for m in leaks if m.startswith("waiter on 'cluster0.hpus' still queued")]
    assert len(held) == 1 and held[0].endswith("by strand:pspin.pipeline)"), leaks
    chains = Counter(m[m.rindex(" by ") + 4:-1] for m in waiting)
    assert chains["strand:pspin.pipeline"] > 0 and chains["proc:sn0.cleanup"] == 1, leaks
