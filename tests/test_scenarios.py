"""Scenario specs, the matrix runner, and placement pinning."""

import dataclasses
import textwrap

import pytest

from repro.dfs.cluster import build_testbed
from repro.dfs.layout import ReplicationSpec
from repro.dfs.metadata import MetadataError
from repro.scenarios import (
    MATRIX_NAMES,
    QUICK_NAMES,
    SCENARIOS,
    ScenarioSpec,
    get,
    load_toml,
    quick_variant,
    run_scenario,
    scenario_row_keys,
    spec_from_dict,
    spec_to_dict,
)
from repro.scenarios.spec import FaultCampaign, TopologySpec
from repro.workloads.openloop import ArrivalSpec, OpenLoopSpec


# ------------------------------------------------------------------- specs
def test_builtin_specs_validate():
    for spec in SCENARIOS.values():
        spec.validate()
    assert set(MATRIX_NAMES) <= set(SCENARIOS)
    assert set(QUICK_NAMES) <= set(MATRIX_NAMES)
    assert len(QUICK_NAMES) == 3


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_spec_dict_roundtrip(name):
    spec = SCENARIOS[name]
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_quick_variant_shrinks_but_keeps_shape():
    full = get("hot_shard")
    q = quick_variant(full)
    assert q.workload.n_users < full.workload.n_users
    assert q.workload.measure_ns < full.workload.measure_ns
    assert q.pin_top == full.pin_top
    assert q.protocol == full.protocol


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="pin_node_index"):
        ScenarioSpec(
            name="x", topology=TopologySpec(n_storage=4),
            pin_top=4, pin_node_index=7,
        ).validate()
    with pytest.raises(ValueError, match="telemetry"):
        ScenarioSpec(name="x", slo_budgets=(("end_to_end.p99", 1.0),)).validate()
    with pytest.raises(ValueError, match="telemetry"):
        spec_from_dict({"name": "x", "telemetry": "yes"})
    with pytest.raises(ValueError, match="telemetry"):
        ScenarioSpec(name="x", telemetry=1).validate()
    with pytest.raises(ValueError, match="kill_node_index"):
        ScenarioSpec(
            name="x", topology=TopologySpec(n_storage=2),
            faults=FaultCampaign(kill_node_index=5),
        ).validate()
    with pytest.raises(ValueError,
                       match=r"scenario\.faults\.loss must be in \[0, 1\], got 1\.5"):
        FaultCampaign(loss=1.5).validate()
    with pytest.raises(ValueError,
                       match=r"scenario\.faults\.corrupt must be in \[0, 1\], got -0\.1"):
        FaultCampaign(corrupt=-0.1).validate()
    FaultCampaign(loss=1.0, corrupt=1.0).validate()  # total loss is legal


@pytest.mark.parametrize("workload,field", [
    ({"arrival": {"rate_hz": float("inf")}}, "rate_hz"),
    ({"arrival": {"rate_hz": float("nan")}}, "rate_hz"),
    ({"measure_ns": float("nan")}, "measure_ns"),
    ({"measure_ns": float("inf")}, "measure_ns"),
    ({"warmup_ns": float("inf")}, "warmup_ns"),
    ({"size": {"fixed_bytes": 0}}, "fixed_bytes"),
    ({"size": {"fixed_bytes": -512}}, "fixed_bytes"),
    ({"size": {"quantum": 2.5}}, "quantum"),
    ({"n_users": 2.5}, "n_users"),
    ({"popularity": {"n_objects": 2.5}}, "n_objects"),
    ({"classes": [{"name": "a", "fraction": -0.5},
                  {"name": "b", "fraction": 1.0}]}, "fraction"),
])
def test_workload_field_errors_name_the_field(workload, field):
    """Non-finite, non-positive and non-integer workload fields fail at
    validation, naming the field, before anything runs."""
    with pytest.raises(ValueError, match=field):
        spec_from_dict({"name": "bad", "workload": workload})


@pytest.mark.parametrize("fields,field", [
    ({"topology": {"n_storage": 2.5}}, "n_storage"),
    ({"topology": {"storage_mib": 1.5}}, "storage_mib"),
    ({"replication_k": 2.5}, "replication_k"),
    ({"faults": {"kill_node_index": 1.5}}, "kill_node_index"),
    ({"protocol": "foo"}, "protocol"),
    ({"faults": {"kill_at_ns": -5}}, "kill_at_ns"),
    ({"pin_top": 1.5}, "pin_top"),
    ({"topology": {"n_clients": True}}, "n_clients"),
    ({"topology": {"n_storage": "4"}}, "n_storage"),
])
def test_scenario_field_errors_name_the_field(fields, field):
    """Non-integer sizes and indices, negative times and unknown
    protocols fail at validation, naming the field, instead of failing
    (or silently running something else) inside run_scenario."""
    with pytest.raises(ValueError, match=field):
        spec_from_dict({"name": "bad", **fields})


def test_toml_round_trip(tmp_path):
    path = tmp_path / "scenarios.toml"
    path.write_text(textwrap.dedent("""\
        [[scenario]]
        name = "mini_hot"
        protocol = "spin"
        pin_top = 4
        pin_node_index = 0

        [scenario.topology]
        n_storage = 4
        n_clients = 2

        [scenario.workload]
        n_users = 100
        warmup_ns = 0.0
        measure_ns = 500000.0
        seed = 3

        [scenario.workload.arrival]
        kind = "poisson"
        rate_hz = 500.0

        [scenario.workload.popularity]
        n_objects = 16
        alpha = 1.2

        [[scenario]]
        name = "mini_burst"

        [scenario.workload]
        n_users = 50

        [scenario.workload.arrival]
        kind = "burst"
        burst_period_ns = 50000.0
        burst_jitter_ns = 5000.0
        burst_join = 0.5
    """))
    specs = load_toml(str(path))
    assert [s.name for s in specs] == ["mini_hot", "mini_burst"]
    assert specs[0].pin_top == 4
    assert specs[0].workload.arrival.rate_hz == 500.0
    assert specs[1].workload.arrival.kind == "burst"
    # loaded specs run end to end
    row = run_scenario(specs[0], seed=42)
    assert row["issued"] > 0 and row["quiesced"]


def test_toml_missing_tables(tmp_path):
    path = tmp_path / "empty.toml"
    path.write_text("title = 'nothing'\n")
    with pytest.raises(ValueError, match="scenario"):
        load_toml(str(path))


@pytest.mark.parametrize("text, message", [
    ('[[scenario]]\nname = "x"\n[scenario.workload]\nn_userz = 5\n',
     "unknown field 'n_userz' in [scenario.workload]"),
    ('[[scenario]]\nname = "x"\nprotocl = "spin"\n',
     "unknown field 'protocl' in [scenario]"),
    ('[[scenario]]\nname = "x"\n[scenario.workload.arrival]\nkinds = "burst"\n',
     "unknown field 'kinds' in [scenario.workload.arrival]"),
    ('[[scenario]]\nprotocol = "spin"\n',
     "missing field 'name' in [scenario]"),
    ('[scenario]\nname = "x"\n',
     "must be an array of tables: write [[scenario]]"),
    (None, "No such file or directory"),
])
def test_toml_errors_name_the_problem(tmp_path, capsys, text, message):
    """Malformed scenario files raise a ValueError naming the offending key
    or table, and ``repro scenario --toml`` prints it and exits 2."""
    from repro.__main__ import main

    path = tmp_path / "bad.toml"
    if text is not None:
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_toml(str(path))
        assert message in str(err.value)
    assert main(["scenario", "--toml", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_scenario_cli_needs_a_name_or_toml(capsys):
    """``repro scenario`` runs one named scenario or a TOML file; without
    either it is a usage error that points at the matrix experiment."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["scenario"])
    assert exc.value.code == 2
    assert "python -m repro.experiments scenario_matrix" in capsys.readouterr().err


# ----------------------------------------------------------------- matrix
def test_hot_shard_pins_majority():
    row = run_scenario(get("hot_shard", quick=True), seed=77)
    assert tuple(row) == scenario_row_keys
    assert row["hot_node"] == "sn0"
    assert row["hot_share"] > 0.5
    assert row["quiesced"]


@pytest.mark.parametrize("name,digest", [
    ("hot_shard", "e2abaacde1994991"),
    ("incast", "3266e0b68318ee21"),
    ("uniform_onoff", "7c3ef0498289dae2"),
    ("hot_shard_lossy", "338a9a289417b7f9"),
])
def test_quick_schedule_digest_pinned(name, digest):
    """Golden request schedules of the quick scenarios, one per arrival
    kind plus a lossy run: any change to the draw streams, the arrival
    steppers or the first-arrival pass shows up here."""
    assert run_scenario(get(name, quick=True), seed=1)["schedule_digest"] == digest


@pytest.mark.parametrize("name,digest", [
    ("hot_shard", "afe7d22e49ba88da"),
    ("incast", "ae7fd30ad366eaa7"),
    ("uniform_onoff", "0b15cecedc7a4167"),
    ("hot_shard_lossy", "abf17a411641c175"),
])
def test_quick_outcome_digest_pinned(name, digest):
    """Golden outcomes of the quick scenarios: every request's completion
    instant and verdict.  The schedule digest only covers what was
    issued, so a change that moves a completion shows up here alone."""
    assert run_scenario(get(name, quick=True), seed=1)["outcome_digest"] == digest


def test_quick_hot_shard_namespace_digest_pinned():
    """Golden namespace of the quick hot shard: every object's path,
    layout and each client host's capability ticket on the wire.
    Namespace set-up (placement, allocation, ticket signing) must build
    exactly this, however fast it gets.  The open loop signs a ticket on
    a host's first write, so the test opens every path itself."""
    import hashlib

    from repro.params import MiB, SimParams
    from repro.workloads.openloop import build_namespace

    spec = get("hot_shard", quick=True)
    params = dataclasses.replace(
        SimParams(), storage_capacity_bytes=spec.topology.storage_mib * MiB
    )
    tb = build_testbed(n_storage=spec.topology.n_storage,
                       n_clients=spec.topology.n_clients, params=params)
    md = tb.metadata
    endpoints, paths, _ = build_namespace(
        tb, spec.workload.popularity.n_objects, 16 * 1024,
        pin_top=spec.pin_top, pin_node=md.nodes[spec.pin_node_index],
    )
    h = hashlib.sha256()
    for path in paths:
        for ep in endpoints:
            ep.open(path)
            h.update(repr((path, md.lookup(path), ep.ticket(path).to_wire())).encode())
    assert len(paths) == 4096
    assert h.hexdigest()[:16] == "cd99243db00f2b41"


def test_fault_free_hops_match_an_armed_idle_injector():
    """With no fault injector armed, wire hops hand packets straight to
    the peer; an armed injector that can never fire takes the per-hop
    path.  Every outcome must agree."""
    from repro.faults import DownWindow, FaultParams
    from repro.params import SimParams

    spec = get("incast", quick=True)
    idle = SimParams(faults=FaultParams(
        node_down=(DownWindow("no-such-node", 0.0, 0.0),)))
    plain = run_scenario(spec, seed=3)
    armed = run_scenario(spec, seed=3, params_base=idle)
    assert armed["outcome_digest"] == plain["outcome_digest"]
    assert armed == plain


def test_telemetry_does_not_move_outcomes():
    """Telemetry turns off the one-wake-up handler path and the fused
    switch hop; the outcomes must not notice."""
    spec = get("hot_shard", quick=True)
    off = run_scenario(spec, seed=4)
    on = run_scenario(dataclasses.replace(spec, telemetry=True), seed=4)
    assert on["outcome_digest"] == off["outcome_digest"]
    assert on == off


def test_row_determinism_and_engine_equivalence():
    spec = get("incast", quick=True)
    r1 = run_scenario(spec, seed=5)
    r2 = run_scenario(spec, seed=5)
    assert r1 == r2
    r3 = run_scenario(spec, seed=5, engine="explicit")
    # engine choice is reported but changes nothing observable
    assert {k: v for k, v in r1.items() if k != "engine"} == \
        {k: v for k, v in r3.items() if k != "engine"}


def test_timings_out_param():
    timings = {}
    run_scenario(get("uniform_onoff", quick=True), seed=1, timings=timings)
    assert timings["events"] > 0


def test_matrix_rows_jobs_parity():
    """--jobs fan-out must reproduce the serial rows byte for byte."""
    from repro.experiments import run
    from repro.experiments import scenario_matrix as sm

    rows1 = run(sm.ID, quick=True, jobs=1, cache=False)
    rows2 = run(sm.ID, quick=True, jobs=2, cache=False)
    assert rows1 == rows2
    sm.check(rows1)


def test_kill_campaign_runs():
    spec = ScenarioSpec(
        name="crashy",
        topology=TopologySpec(n_storage=4, n_clients=2),
        workload=OpenLoopSpec(
            n_users=200,
            arrival=ArrivalSpec(kind="poisson", rate_hz=300.0),
            warmup_ns=0.0,
            measure_ns=2_000_000.0,
            seed=2,
        ),
        protocol="spin",
        faults=FaultCampaign(kill_node_index=1, kill_at_ns=500_000.0),
    )
    row = run_scenario(spec, seed=13)
    assert row["issued"] > 0
    # writes against the dead node fail in bounded time, survivors flow
    assert row["failures"] > 0
    assert row["ops"] > 0


# ------------------------------------------------------------ pin placement
def test_pin_nodes_places_and_validates():
    tb = build_testbed(n_storage=4, n_clients=1)
    md = tb.metadata
    lay = md.create("/pinned", size=4096, pin_nodes=["sn2"])
    assert lay.extents[0].node == "sn2"
    lay3 = md.create("/pinned3", size=4096,
                     replication=ReplicationSpec(k=3),
                     pin_nodes=["sn3", "sn0", "sn1"])
    assert [e.node for e in lay3.extents] == ["sn3", "sn0", "sn1"]
    with pytest.raises(MetadataError, match="needs"):
        md.create("/bad1", size=4096, replication=ReplicationSpec(k=3),
                  pin_nodes=["sn0"])
    with pytest.raises(MetadataError, match="unknown"):
        md.create("/bad2", size=4096, pin_nodes=["sn99"])
    with pytest.raises(MetadataError, match="distinct"):
        md.create("/bad3", size=4096, replication=ReplicationSpec(k=2),
                  pin_nodes=["sn0", "sn0"])


def test_pin_nodes_does_not_advance_policy_cursor():
    def first_policy_node(pin_first: bool) -> str:
        tb = build_testbed(n_storage=4, n_clients=1)
        if pin_first:
            tb.metadata.create("/pin", size=1024, pin_nodes=["sn3"])
        return tb.metadata.create("/plain", size=1024).extents[0].node

    assert first_policy_node(pin_first=True) == first_policy_node(pin_first=False)
