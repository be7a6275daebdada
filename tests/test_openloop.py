"""Open-loop workload engine: determinism, aggregation exactness,
samplers, and the payload cache."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.cluster import build_testbed
from repro.workloads import payload_bytes
from repro.workloads.openloop import (
    _REQ_PACK,
    ArrivalSpec,
    OpenLoopSpec,
    PopularitySpec,
    SizeSpec,
    WorkloadClass,
    ZipfSampler,
    _class_of,
    _class_tables,
    _first_arrival_blocks,
    _first_arrivals,
    _make_stepper,
    open_loop_write_load,
    sample_size,
)
from repro.workloads.streams import (
    TAG_CLASS,
    TAG_GAP,
    TAG_OBJ,
    TAG_SIZE,
    TAG_STATE,
    client_key,
    u01,
    u01_array,
    u01_keyed,
)


# ------------------------------------------------------------------ streams
def test_u01_open_interval_and_pure():
    vals = [u01(3, c, k, TAG_GAP) for c in range(50) for k in range(20)]
    assert all(0.0 < v < 1.0 for v in vals)
    # pure function: same key -> same draw, in any evaluation order
    assert u01(3, 7, 11, TAG_GAP) == u01(3, 7, 11, TAG_GAP)
    # distinct tags decorrelate the same (seed, client, k) triple
    assert u01(3, 7, 11, TAG_GAP) != u01(3, 7, 11, TAG_OBJ)
    # roughly uniform: the mean of 1000 draws is near 1/2
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_u01_array_bit_identical_to_u01(seed):
    clients = np.r_[np.arange(0, 512), np.arange(10**6 - 512, 10**6 + 1)]
    for tag in (TAG_GAP, TAG_OBJ, TAG_SIZE, TAG_STATE, TAG_CLASS):
        for k in (0, 1, 3, 2**20 + 7, 2**40):
            bulk = u01_array(seed, clients, k, tag).tolist()
            assert bulk == [u01(seed, c, k, tag) for c in clients.tolist()]


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_u01_keyed_bit_identical_to_u01(seed):
    for c in (0, 1, 2, 777, 10**6 - 1, 10**6, 2**64 - 1):
        key = client_key(seed, c)
        for tag in (TAG_GAP, TAG_OBJ, TAG_SIZE, TAG_STATE, TAG_CLASS):
            for k in (0, 1, 3, 2**20 + 7, 2**40, 2**64 - 1):
                assert u01_keyed(key, k, tag) == u01(seed, c, k, tag)


def test_zipf_sampler_skew_and_bounds():
    z = ZipfSampler(100, alpha=1.2)
    assert z.mass[0] > z.mass[1] > z.mass[50]
    assert z.pick(1e-12) == 0
    assert z.pick(1.0 - 1e-12) == 99
    # alpha=0 degenerates to uniform mass
    u = ZipfSampler(10, alpha=0.0)
    assert abs(u.mass[0] - 0.1) < 1e-12 and abs(u.mass[9] - 0.1) < 1e-12


@pytest.mark.parametrize("dist", ["lognormal", "pareto"])
def test_sample_size_clamped_and_quantized(dist):
    s = SizeSpec(dist=dist, median_bytes=4096, sigma=1.5, alpha=1.1,
                 min_bytes=1024, max_bytes=32768, quantum=512)
    for k in range(500):
        size = sample_size(u01(1, 5, k, TAG_OBJ), s)
        assert 1024 <= size <= 32768
        assert size % 512 == 0 or size == s.min_bytes


def test_sample_size_fixed():
    s = SizeSpec(dist="fixed", fixed_bytes=9999)
    assert sample_size(0.5, s) == 9999


# ---------------------------------------------------------------- validation
def test_burst_requires_jitter():
    with pytest.raises(ValueError, match="jitter"):
        ArrivalSpec(kind="burst", burst_jitter_ns=0.0).validate()


def test_spec_validation():
    with pytest.raises(ValueError):
        OpenLoopSpec(n_users=0).validate()
    with pytest.raises(ValueError):
        OpenLoopSpec(arrival=ArrivalSpec(kind="nope")).validate()
    with pytest.raises(ValueError):
        OpenLoopSpec(size=SizeSpec(min_bytes=0)).validate()
    with pytest.raises(ValueError):
        OpenLoopSpec(
            classes=(WorkloadClass("a", 0.5), WorkloadClass("b", 0.9)),
        ).validate()
    bad_arrivals = [
        (dict(kind="burst", burst_period_ns=0.0), r"burst_period_ns must be > 0, got 0\.0"),
        (dict(kind="burst", burst_join=1.5), r"burst_join must be in \[0, 1\], got 1\.5"),
        (dict(kind="onoff", on_alpha=0.0), r"on_alpha must be > 0, got 0\.0"),
        (dict(kind="onoff", off_alpha=-1.0), r"off_alpha must be > 0, got -1\.0"),
        (dict(kind="onoff", on_min_ns=0.0), r"on_min_ns must be > 0, got 0\.0"),
        (dict(kind="onoff", off_min_ns=-5.0), r"off_min_ns must be > 0, got -5\.0"),
    ]
    for kw, message in bad_arrivals:
        with pytest.raises(ValueError, match=message):
            OpenLoopSpec(arrival=ArrivalSpec(**kw)).validate()
    with pytest.raises(ValueError, match=r"size alpha must be > 0, got 0\.0"):
        OpenLoopSpec(size=SizeSpec(dist="pareto", alpha=0.0)).validate()
    with pytest.raises(ValueError, match=r"warmup_ns must be >= 0, got -1\.0"):
        OpenLoopSpec(warmup_ns=-1.0).validate()
    ArrivalSpec(kind="burst", burst_join=1.0).validate()  # every burst joined


# ------------------------------------------------------- engine differential
def _spec(kind: str, n_users: int, seed: int = 11) -> OpenLoopSpec:
    return OpenLoopSpec(
        n_users=n_users,
        arrival=ArrivalSpec(
            kind=kind, rate_hz=2000.0,
            on_min_ns=20_000.0, off_min_ns=50_000.0,
            burst_period_ns=100_000.0, burst_jitter_ns=10_000.0,
            burst_join=0.4,
        ),
        popularity=PopularitySpec(n_objects=32, alpha=1.2),
        size=SizeSpec(dist="lognormal", median_bytes=4096, sigma=0.6,
                      min_bytes=1024, max_bytes=8192),
        warmup_ns=100_000.0,
        measure_ns=1_000_000.0,
        seed=seed,
    )


def _run(engine: str, kind: str, n_users: int, record: bool = False):
    tb = build_testbed(n_storage=4, n_clients=2)
    res, nodes = open_loop_write_load(
        tb, _spec(kind, n_users), protocol="raw", engine=engine, record=record
    )
    return res, nodes


def _assert_engines_agree(spec: OpenLoopSpec):
    runs = []
    for engine in ("aggregated", "explicit"):
        tb = build_testbed(n_storage=4, n_clients=2)
        runs.append(open_loop_write_load(tb, spec, protocol="raw", engine=engine))
    (a, na), (b, nb) = runs
    assert a.schedule_digest == b.schedule_digest
    assert a.issued == b.issued
    assert (a.ops, a.failures, a.bytes) == (b.ops, b.failures, b.bytes)
    assert a.latency == b.latency
    assert a.obj_counts == b.obj_counts
    assert na == nb
    return a


_DIFFERENTIAL = [
    (kind, n_users, {})
    for n_users in (1, 4, 32) for kind in ("poisson", "onoff", "burst")
] + [
    # sparse populations, where the first-arrival pass drops most
    # clients: ~5% draw a first gap inside the 1.1 ms horizon ...
    ("poisson", 400, dict(rate_hz=46.6)),
    # ... or scans many bursts: 22 start inside it, each joined by 5%
    ("burst", 400, dict(burst_period_ns=50_000.0, burst_join=0.05)),
    # on/off clients resolve their first arrivals in lockstep cycles
    ("onoff", 400, {}),
]


@pytest.mark.parametrize(
    "kind,n_users,arrival", _DIFFERENTIAL,
    ids=[f"{n}-{k}" + ("-sparse" if a else "") for k, n, a in _DIFFERENTIAL],
)
def test_aggregated_matches_explicit(kind, n_users, arrival):
    """The exactness gate: the aggregated heap-merge generator must
    produce the byte-identical request schedule — and therefore the
    identical completions — of the per-client reference engine."""
    spec = _spec(kind, n_users)
    spec = dataclasses.replace(
        spec, arrival=dataclasses.replace(spec.arrival, **arrival))
    assert _assert_engines_agree(spec).issued > 0


def test_schedule_deterministic_across_runs():
    a, _ = _run("aggregated", "poisson", 16)
    b, _ = _run("aggregated", "poisson", 16)
    assert a.schedule_digest == b.schedule_digest
    assert a.latency == b.latency


def test_seed_changes_schedule():
    tb1 = build_testbed(n_storage=4, n_clients=2)
    r1, _ = open_loop_write_load(tb1, _spec("poisson", 16, seed=1), protocol="raw")
    tb2 = build_testbed(n_storage=4, n_clients=2)
    r2, _ = open_loop_write_load(tb2, _spec("poisson", 16, seed=2), protocol="raw")
    assert r1.schedule_digest != r2.schedule_digest


def test_recorded_schedule_matches_digest():
    res, _ = _run("aggregated", "poisson", 8, record=True)
    assert res.schedule is not None
    assert len(res.schedule) == res.issued
    # timestamps ascend and the digest re-derives from the entries
    ts = [e[0] for e in res.schedule]
    assert ts == sorted(ts)
    h = hashlib.sha256()
    for entry in res.schedule:
        h.update(_REQ_PACK.pack(*entry))
    assert h.hexdigest() == res.schedule_digest


def test_workload_classes_differential():
    """Mixed populations (per-class arrival + size) stay exact."""
    spec = OpenLoopSpec(
        n_users=24,
        arrival=ArrivalSpec(kind="poisson", rate_hz=1000.0),
        popularity=PopularitySpec(n_objects=16, alpha=1.0),
        size=SizeSpec(dist="fixed", fixed_bytes=2048),
        classes=(
            WorkloadClass("small", 0.7),
            WorkloadClass(
                "bulk", 0.3,
                arrival=ArrivalSpec(kind="poisson", rate_hz=200.0),
                size=SizeSpec(dist="fixed", fixed_bytes=8192),
            ),
        ),
        warmup_ns=0.0,
        measure_ns=2_000_000.0,
        seed=5,
    )
    a = _assert_engines_agree(spec)
    # both class sizes actually occur
    assert a.bytes % 2048 != 0 or a.bytes >= 8192

    # two arrival kinds: the first-arrival pass filters each class its
    # own way (poisson threshold, burst scan)
    mixed = dataclasses.replace(spec, n_users=64, classes=(
        WorkloadClass("steady", 0.6),
        WorkloadClass(
            "incast", 0.4,
            arrival=ArrivalSpec(kind="burst", burst_period_ns=200_000.0,
                                burst_jitter_ns=20_000.0, burst_join=0.1),
            size=SizeSpec(dist="fixed", fixed_bytes=8192),
        ),
    ))
    a = _assert_engines_agree(mixed)
    assert a.bytes % 2048 != 0 or a.bytes >= 8192


def _scalar_first_arrivals(spec: OpenLoopSpec, k_buckets: int):
    """What the first-arrival pass must equal: ``step(cid, 0.0, init)``
    for every client, kept when it arrives before the horizon."""
    _, cum, arrivals, _ = _class_tables(spec)
    steppers = [_make_stepper(a, spec.seed, spec.horizon_ns) for a in arrivals]
    heaps, states = {}, [None] * spec.n_users
    for cid in range(spec.n_users):
        cls = _class_of(spec.seed, cid, cum)
        init, step = steppers[cls]
        t, st = step(cid, 0.0, init)
        if t < spec.horizon_ns:
            states[cid] = st
            heaps.setdefault((cid % k_buckets, cls), []).append((t, cid))
    return heaps, states


def _assert_first_arrivals_exact(spec: OpenLoopSpec, k_buckets: int = 3):
    """Same heap contents (each generator heapifies its list, and its
    distinct ``(t, cid)`` entries pop in one order) and the same states,
    compared as exact floats."""
    heaps, states = _first_arrivals(spec, k_buckets)
    want_heaps, want_states = _scalar_first_arrivals(spec, k_buckets)
    assert {k: sorted(v) for k, v in heaps.items()} == {
        k: sorted(v) for k, v in want_heaps.items()}
    assert states == want_states
    return heaps


_ONOFF = _spec("onoff", 400)
_FIRST_ARRIVALS = {
    "onoff-dense": _ONOFF,
    # the horizon ends inside every client's first OFF phase
    "onoff-sparse": dataclasses.replace(_ONOFF, arrival=dataclasses.replace(
        _ONOFF.arrival, off_min_ns=2 * _ONOFF.horizon_ns)),
    "onoff+poisson": dataclasses.replace(_ONOFF, classes=(
        WorkloadClass("onoff", 0.5),
        WorkloadClass("steady", 0.5, arrival=ArrivalSpec(rate_hz=800.0)),
    )),
    "onoff+burst": dataclasses.replace(_ONOFF, classes=(
        WorkloadClass("onoff", 0.7),
        WorkloadClass("incast", 0.3, arrival=ArrivalSpec(
            kind="burst", burst_period_ns=100_000.0, burst_jitter_ns=10_000.0,
            burst_join=0.2)),
    )),
}


@pytest.mark.parametrize("spec", _FIRST_ARRIVALS.values(), ids=_FIRST_ARRIVALS)
def test_first_arrivals_match_scalar_stepper(spec):
    heaps = _assert_first_arrivals_exact(spec)
    n_entered = sum(map(len, heaps.values()))
    if spec.arrival.off_min_ns > spec.horizon_ns:
        assert n_entered == 0
    else:
        assert 0 < n_entered < spec.n_users


_KINDS = st.sampled_from(["poisson", "onoff", "burst"])
_NS = st.floats(1_000.0, 1_000_000.0)


@settings(max_examples=60, deadline=None)
@given(
    kind=_KINDS,
    rate_hz=st.floats(1.0, 1e5),
    on_alpha=st.floats(0.5, 3.0), on_min_ns=_NS,
    off_alpha=st.floats(0.5, 3.0), off_min_ns=_NS,
    burst_period_ns=_NS, jitter_share=st.floats(1e-3, 1.0),
    burst_join=st.floats(0.0, 1.0),
    n_users=st.integers(1, 80), measure_ns=st.floats(1e4, 2e6),
    seed=st.integers(0, 2**32),
)
def test_first_arrivals_match_scalar_stepper_property(
        kind, rate_hz, on_alpha, on_min_ns, off_alpha, off_min_ns,
        burst_period_ns, jitter_share, burst_join, n_users, measure_ns, seed):
    arrival = ArrivalSpec(
        kind=kind, rate_hz=rate_hz, on_alpha=on_alpha, on_min_ns=on_min_ns,
        off_alpha=off_alpha, off_min_ns=off_min_ns,
        burst_period_ns=burst_period_ns,
        burst_jitter_ns=burst_period_ns * jitter_share, burst_join=burst_join)
    spec = OpenLoopSpec(n_users=n_users, arrival=arrival,
                        measure_ns=measure_ns, seed=seed)
    spec.validate()
    _assert_first_arrivals_exact(spec)


def test_first_arrival_pass_is_o_active():
    """The bulk pass yields every client that arrives before the
    horizon and at most 1% more; a client whose first arrival equals
    the horizon is excluded, as the scalar ``t < horizon`` does."""
    spec = OpenLoopSpec(
        n_users=200_000,
        arrival=ArrivalSpec(kind="poisson", rate_hz=0.02),
        measure_ns=1e9,
        seed=3,
    )
    init, step = _make_stepper(spec.arrival, spec.seed, spec.horizon_ns)
    first = [step(cid, 0.0, init)[0] for cid in range(spec.n_users)]
    arriving = {cid for cid, t in enumerate(first) if t < spec.horizon_ns}

    def candidates(s):
        return {cid for _, cids, _, _ in _first_arrival_blocks(s) for cid in cids}

    found = candidates(spec)
    assert arriving <= found
    assert len(found) <= 1.01 * len(arriving)
    assert 0.01 * spec.n_users < len(arriving) < 0.03 * spec.n_users

    last = max(arriving, key=first.__getitem__)
    edge = dataclasses.replace(spec, measure_ns=first[last])
    assert edge.horizon_ns == first[last]
    assert last in candidates(edge)
    heaps, states = _first_arrivals(edge, 4)
    entered = {cid for heap in heaps.values() for _, cid in heap}
    assert entered == arriving - {last}
    assert states[last] is None


def test_onoff_first_arrivals_take_no_scalar_step(monkeypatch):
    """Set-up of a quick ``uniform_onoff`` calls the scalar stepper zero
    times: each client's first ``step`` follows its first request."""
    import repro.workloads.openloop as openloop
    from repro.scenarios import get, run_scenario

    calls = []
    make, finish = openloop._make_stepper, openloop.finish

    def counting_stepper(*args):
        init, step = make(*args)

        def counted(*a):
            calls.append(a[0])
            return step(*a)
        return init, counted

    def finish_after_setup(*args, **kw):
        at_first_event.append(len(calls))
        return finish(*args, **kw)

    at_first_event = []
    monkeypatch.setattr(openloop, "_make_stepper", counting_stepper)
    monkeypatch.setattr(openloop, "finish", finish_after_setup)
    spec = get("uniform_onoff", quick=True)
    assert spec.workload.arrival.kind == "onoff"
    row = run_scenario(spec, seed=1)
    assert at_first_event == [0]
    assert row["issued"] > 0 and len(calls) == row["issued"]


def test_open_loop_signs_one_ticket_per_written_pair():
    """Tickets are signed on a host's first write to an object: the
    authority signs once per distinct (host, object) pair written."""
    tb = build_testbed(n_storage=4, n_clients=2)
    spec = dataclasses.replace(_spec("poisson", 64),
                               popularity=PopularitySpec(n_objects=512, alpha=1.2))
    res, _ = open_loop_write_load(tb, spec, protocol="raw", record=True)
    pairs = {(cid % 2, obj) for _, cid, _, obj, _ in res.schedule}
    assert 0 < len(pairs) < 2 * spec.popularity.n_objects
    assert tb.authority.issued == len(pairs)


def test_quiet_client_beyond_horizon():
    """A rate so low that no arrival lands inside the horizon issues
    nothing — and the run still quiesces cleanly."""
    spec = OpenLoopSpec(
        n_users=4,
        arrival=ArrivalSpec(kind="poisson", rate_hz=1e-6),
        measure_ns=1_000.0,
        seed=9,
    )
    tb = build_testbed(n_storage=2, n_clients=1)
    res, _ = open_loop_write_load(tb, spec, protocol="raw")
    assert res.issued == 0
    assert res.quiesced
    assert res.active_users == 0


def test_inflight_gauge_when_telemetry_on():
    tb = build_testbed(n_storage=4, n_clients=2, telemetry=True)
    res, _ = open_loop_write_load(tb, _spec("poisson", 8), protocol="raw")
    g = tb.telemetry.metrics.gauges.get("workload.openloop.inflight")
    assert g is not None
    assert res.inflight_peak >= 1
    assert res.phase_latency is not None
    assert "end_to_end" in res.phase_latency


# ------------------------------------------------------------- payload cache
def test_payload_cache_identity_and_immutability():
    a = payload_bytes(4096, seed=3)
    b = payload_bytes(4096, seed=3)
    assert a is b  # cached: no allocator churn per request
    assert not a.flags.writeable
    c = payload_bytes(4096, seed=4)
    assert c is not a and not (a == c).all()
    with pytest.raises(ValueError):
        a[0] = 1


def test_payload_cache_slices_are_views():
    base = payload_bytes(16384, seed=0)
    view = base[:4096]
    assert view.base is base
    assert not view.flags.writeable
