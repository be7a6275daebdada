"""Per-packet path pins, and the traced-vs-untraced differential.

Every packet is serialized, forwarded and processed on its own: the
simulator has one network path.  The pins below hold, for every write
protocol (clean and under seeded faults), the sPIN write mixes and the
racing-writer cases, three digests of an untraced run:

* the outcome tuple (completion status and latency, final clock);
* :func:`_hw_sig`, the hardware counters left with telemetry off;
* the wire schedule: per port, the multiset of ``(message, seq,
  tx-done instant)`` of every packet it serialized.

They were recorded from this per-packet path while a packet-train fast
path still existed beside it (as the reference side of the
differentials that compared the two), so they show the per-packet path
unchanged, the multi-writer cases included.

Telemetry must never perturb simulated time: a traced run agrees with
the untraced one on outcomes, the final clock and hardware counters.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict

import pytest

from repro import DfsClient, build_testbed
from repro.dfs import cluster
from repro.protocols import install_spin_targets
from repro.simnet.link import Port

from .write_cases import (
    KiB,
    LOSS,
    PROTO,
    _data,
    _hw_sig,
    _run_protocol,
    _run_spin_scenario,
    _simultaneous_writes,
    _spin_writes,
)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _observe(monkeypatch, run):
    """Run ``run()`` (telemetry off) and return the digests of its result,
    its testbed's :func:`_hw_sig` and its wire schedule, taken at every
    ``Port._tx_done``."""
    sched = defaultdict(Counter)
    tbs = []
    tx_done, tb_init = Port._tx_done, cluster.Testbed.__init__

    def spy_tx_done(self, ser):
        sched[self.owner_name][(self._cur_pkt.msg_id, self._cur_pkt.seq, self.sim.now)] += 1
        tx_done(self, ser)

    def spy_testbed(self, *a, **kw):
        tb_init(self, *a, **kw)
        tbs.append(self)

    with monkeypatch.context() as m:
        m.setattr(Port, "_tx_done", spy_tx_done)
        m.setattr(cluster.Testbed, "__init__", spy_testbed)
        result = run()
    (tb,) = tbs
    wire = sorted((port, sorted(c.items())) for port, c in sched.items())
    return _digest(result), _digest(_hw_sig(tb)), _digest(wire)


def _case_id(name, kw):
    return f"{name}{'-' + '-'.join(kw) if kw else ''}"


# ------------------------------------------------------ traced vs untraced
TEL_CASES = [
    ("auth", {}),
    ("rep", {}),
    ("ec", {}),
    ("multi", {}),
    ("auth", {"topology": "leafspine"}),
    ("auth", {"faults": LOSS}),
    ("rep", {"faults": dict(seed=7, loss_prob=0.08, retransmit=True)}),
]


@pytest.mark.parametrize("name,kw", TEL_CASES, ids=[_case_id(n, k) for n, k in TEL_CASES])
def test_telemetry_differential(name, kw):
    """The traced run and the untraced run agree on outcomes, the final
    clock and hardware counters."""
    r_on, tb_on = _run_spin_scenario(name, True, **kw)
    r_off, tb_off = _run_spin_scenario(name, False, **kw)
    assert r_on == r_off
    assert _hw_sig(tb_on) == _hw_sig(tb_off)


# ------------------------------------------------------------ the pins
TELOFF_CASES = [
    ("auth", {}),
    ("rep", {}),
    ("ec", {}),
    ("multi", {}),
    ("auth", {"backend": "nvme"}),
    ("auth", {"topology": "leafspine"}),
    ("auth", {"faults": LOSS}),
    ("ec", {"faults": dict(seed=3, corrupt_prob=0.05, retransmit=True)}),
]

#: case -> (outcome, _hw_sig, wire schedule) digests of the untraced run
TELOFF_PINS = {
    'auth': ('148fa8991003e4ba', 'b0c62a03eb1a625b', 'ea7fec424b65fb81'),
    'rep': ('39763f50ab8a9ed3', '2069739843a79a3f', '26ed6c3446b20cd8'),
    'ec': ('3643dd7392b348a4', '2224a9ded3af5257', '6d410f693dace25a'),
    'multi': ('9b35adb227c43272', 'de11dc1523ba45ed', 'fa54f2100967ac09'),
    'auth-backend': ('d56105ab08aa18b2', 'c3ab680700458416', 'ff2556aa2e49949f'),
    'auth-topology': ('ad23198d8e7eca3f', '0c6a2cd254946db6', '8ad9dca52b7cba14'),
    'auth-faults': ('33e43d7579dfe15c', 'a7ef540e08e3a536', '0079869bf265afef'),
    'ec-faults': ('6ea3cf07d63379a7', '509596946ff60430', 'e1e54e311f78df3c'),
}


@pytest.mark.parametrize("name,kw", TELOFF_CASES,
                         ids=[_case_id(n, k) for n, k in TELOFF_CASES])
def test_teloff_differential(monkeypatch, name, kw):
    """sPIN write mixes, with and without faults, keep their pins."""
    got = _observe(monkeypatch, lambda: _run_spin_scenario(name, False, **kw)[0])
    assert got == TELOFF_PINS[_case_id(name, kw)]


FAULTS = {"clean": None, "faulty": LOSS}

#: "protocol-faults" -> (outcome, _hw_sig, wire schedule) digests
PROTOCOL_PINS = {
    'spin-clean': ('23ca784e8f96cb11', 'b0c62a03eb1a625b', 'ea7fec424b65fb81'),
    'spin-faulty': ('498bcf8bd156200f', 'a7ef540e08e3a536', '0079869bf265afef'),
    'raw-clean': ('b14b5822bfab9914', '2e12f98c2c2b8a3b', 'a2f1a1c556f5e987'),
    'raw-faulty': ('a6184939677b2cbf', 'd0630e730180bbbd', '69ec355a1640f5c5'),
    'rpc-clean': ('2bdd83468e9add59', '0a9d95c8409a57db', 'd39920ab7c667f11'),
    'rpc-faulty': ('a6184939677b2cbf', 'a615121632325fd7', 'e843d5d59dec51fb'),
    'rpc+rdma-clean': ('0ef1906b89f92a26', '3c90d01398ffbe7b', '8f598e8f28c2a944'),
    'rpc+rdma-faulty': ('a6184939677b2cbf', 'ee1271f2eca717b0', 'b49ad19e0e84dad6'),
    'cpu-clean': ('a6244841aa650e8e', '13842a48a390de33', 'e3aa9e7adf15b2a9'),
    'cpu-faulty': ('64ffde7a61cee9e9', '127552b369ec35b1', 'be25163a4372636d'),
    'rdma-flat-clean': ('51810ee6adbf1a44', '750a57c184153320', 'c6f17f3e59863975'),
    'rdma-flat-faulty': ('a6184939677b2cbf', '77d4f6be8015091d', '2325e0ddd14cffb1'),
    'rdma-hyperloop-clean': ('eb26ceef4609660e', '92cbe2f4a437cc2c', '441d34680c5668bc'),
    'rdma-hyperloop-faulty': ('f2e70637d8879bef', 'b646c4c91b5ebbfb', '71a4b90a3b8903c9'),
    'inec-clean': ('88b31f41b7e82011', '4d464e2ebc8f2332', '21c3db970c57381e'),
    'inec-faulty': ('a6184939677b2cbf', 'a615121632325fd7', '30958748fb436a3a'),
}


@pytest.mark.parametrize("faults", list(FAULTS))
@pytest.mark.parametrize("protocol", list(PROTO))
def test_every_protocol_differential(monkeypatch, protocol, faults):
    """Every write protocol, with and without seeded faults, keeps its
    pins, and its traced run agrees with the untraced one: telemetry
    never perturbs simulated time."""
    got = _observe(monkeypatch, lambda: _run_protocol(protocol, False, FAULTS[faults])[0])
    assert got == PROTOCOL_PINS[f"{protocol}-{faults}"]
    r_on, tb_on = _run_protocol(protocol, True, FAULTS[faults])
    assert (_digest(r_on), _digest(_hw_sig(tb_on))) == got[:2], (r_on, _hw_sig(tb_on))


#: case -> run() -> comparable result, all with telemetry off
WIRE_CASES = {
    **{p: lambda p=p: _run_protocol(p, False, None)[0] for p in PROTO},
    **{_case_id(n, k): lambda n=n, k=k: _run_spin_scenario(n, False, **k)[0]
       for n, k in TELOFF_CASES if "faults" not in k},
    **{f"writes-{kib}k": lambda kib=kib: _spin_writes(kib * KiB)
       for kib in (2, 4, 8, 10, 12, 16, 32, 64)},
    **{f"simultaneous-{kib}k": lambda kib=kib: _simultaneous_writes(kib * KiB)
       for kib in (8, 10, 12, 16)},
}

#: case -> (outcome, _hw_sig, wire schedule) digests
WIRE_PINS = {
    'spin': ('23ca784e8f96cb11', 'b0c62a03eb1a625b', 'ea7fec424b65fb81'),
    'raw': ('b14b5822bfab9914', '2e12f98c2c2b8a3b', 'a2f1a1c556f5e987'),
    'rpc': ('2bdd83468e9add59', '0a9d95c8409a57db', 'd39920ab7c667f11'),
    'rpc+rdma': ('0ef1906b89f92a26', '3c90d01398ffbe7b', '8f598e8f28c2a944'),
    'cpu': ('a6244841aa650e8e', '13842a48a390de33', 'e3aa9e7adf15b2a9'),
    'rdma-flat': ('51810ee6adbf1a44', '750a57c184153320', 'c6f17f3e59863975'),
    'rdma-hyperloop': ('eb26ceef4609660e', '92cbe2f4a437cc2c', '441d34680c5668bc'),
    'inec': ('88b31f41b7e82011', '4d464e2ebc8f2332', '21c3db970c57381e'),
    'auth': ('148fa8991003e4ba', 'b0c62a03eb1a625b', 'ea7fec424b65fb81'),
    'rep': ('39763f50ab8a9ed3', '2069739843a79a3f', '26ed6c3446b20cd8'),
    'ec': ('3643dd7392b348a4', '2224a9ded3af5257', '6d410f693dace25a'),
    'multi': ('9b35adb227c43272', 'de11dc1523ba45ed', 'fa54f2100967ac09'),
    'auth-backend': ('d56105ab08aa18b2', 'c3ab680700458416', 'ff2556aa2e49949f'),
    'auth-topology': ('ad23198d8e7eca3f', '0c6a2cd254946db6', '8ad9dca52b7cba14'),
    'writes-2k': ('bc56ede444c66e9b', '9822351cbdd1b8a9', '47d429ba13c38e91'),
    'writes-4k': ('bf322ebbaeaa007c', '006c8fab2fb6f908', '4afe0052623c56a5'),
    'writes-8k': ('5e862fdbd942c154', '93dcc9ca7287f07b', '14df84e81d9620df'),
    'writes-10k': ('2fe4ac0ce78dd695', '5b4020ed3439a969', '8ddd61cd163e08cc'),
    'writes-12k': ('bf6d05d143d99295', 'df990e7b057875a4', '0f97eb59e27812ce'),
    'writes-16k': ('8bf5d9c928084dcc', 'c2ac255931b92be3', '317bb615df509598'),
    'writes-32k': ('db0fca176ab560c6', '504515433a81f54d', '99b2e09e8405a96d'),
    'writes-64k': ('0cb18b0c2cc70a24', 'b19884052c31cc44', 'd5855dfc01f62acb'),
    'simultaneous-8k': ('6d199f1d2d2c8475', '58637befccc0f590', '3b5bd50e3d9acf13'),
    'simultaneous-10k': ('e0d4c08e550cfb32', '775656c853fc14ea', '1863bf2aec886ba0'),
    'simultaneous-12k': ('592de15fe5fbcf11', 'daa1282bd97408a1', '0c55621d1a415af2'),
    'simultaneous-16k': ('df8410e88e2c9f9a', 'f3d2402a3ab4e028', '7dc5564a5eef0ec3'),
}


@pytest.mark.parametrize("case", list(WIRE_CASES))
def test_wire_schedule_differential(monkeypatch, case):
    """Every packet leaves every port at its pinned instant: single
    writes, back-to-back and overlapping writers, and two writers whose
    bursts meet at one switch egress at t=0."""
    assert _observe(monkeypatch, WIRE_CASES[case]) == WIRE_PINS[case]


# ------------------------------------------------------- racing writers
@pytest.mark.parametrize("delay_ns", [390, 420, 435, 450, 480])
def test_teardown_after_completion_commit_still_acks(delay_ns):
    """A 2 KiB write issued 390-480 ns after a 16 KiB one to the same
    node races the big write's completion (its short tail packet
    finishes before full-MTU packets): both writes must be acked."""
    tb = build_testbed(n_storage=2, n_clients=2)
    install_spin_targets(tb)
    a = DfsClient(tb, client_index=0, principal="a")
    b = DfsClient(tb, client_index=1, principal="b")
    tb.metadata.create("/big", size=16384, pin_nodes=["sn0"])
    tb.metadata.create("/small", size=2048, pin_nodes=["sn0"])
    a.open("/big")
    b.open("/small")
    big = _data(16384)
    small = _data(2048, seed=1)
    evs = []

    def go():
        evs.append(a.write("/big", big, protocol="spin"))
        yield tb.sim.timeout(float(delay_ns))
        evs.append(b.write("/small", small, protocol="spin"))

    tb.sim.process(go())
    tb.run(until=5_000_000)
    assert all(e.triggered for e in evs), "a write never completed"
    assert all(e.value.ok for e in evs)
