"""Open-loop workload engine: determinism, aggregation exactness,
samplers, and the payload cache."""

import dataclasses
import hashlib

import numpy as np
import pytest

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
    _first_arrival_candidates,
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


def test_first_arrival_pass_is_o_active():
    """The bulk pass hands the scalar stepper every client that arrives
    before the horizon and at most 1% more; a client whose first arrival
    equals the horizon is excluded, as the scalar ``t < horizon`` does."""
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
        return {cid for _, cids, _ in _first_arrival_candidates(s) for cid in cids}

    found = candidates(spec)
    assert arriving <= found
    assert len(found) <= 1.01 * len(arriving)
    assert 0.01 * spec.n_users < len(arriving) < 0.03 * spec.n_users

    last = max(arriving, key=first.__getitem__)
    edge = dataclasses.replace(spec, measure_ns=first[last])
    assert edge.horizon_ns == first[last]
    assert last in candidates(edge)
    heaps, states = _first_arrivals(edge, [(init, step)], 4)
    entered = {cid for heap in heaps.values() for _, cid in heap}
    assert entered == arriving - {last}
    assert states[last] is None


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
