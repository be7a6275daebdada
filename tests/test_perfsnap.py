"""``repro perf --check``: wall-clock floors apply only on the baseline's
host; the deterministic checks and the same-host telemetry ratio apply
everywhere."""

import copy
import json

from repro.perfsnap import check_against, host_mismatch

BASE = {
    "meta": {"cpus_affinity": 2, "python": "3.11.7"},
    "kernel_events_per_s": 1_000_000,
    "pipeline": {"events_per_wall_s": 500_000, "packets_per_wall_s": 80_000,
                 "events_per_packet": 6.0, "telemetry_off_on_ratio": 0.95},
    "workload": {"users_per_wall_s": 10_000, "events_per_wall_s": 400_000,
                 "events": 1_000_000, "schedule_digest": "7eb71d331881a1a4"},
}


def _slow_snapshot(**meta):
    """A snapshot at a tenth of the baseline's throughput."""
    snap = copy.deepcopy(BASE)
    snap["meta"].update(meta)
    snap["kernel_events_per_s"] //= 10
    snap["pipeline"]["events_per_wall_s"] //= 10
    snap["pipeline"]["packets_per_wall_s"] //= 10
    snap["workload"]["users_per_wall_s"] //= 10
    snap["workload"]["events_per_wall_s"] //= 10
    return snap


def test_same_host_gates_wall_clock():
    snap = _slow_snapshot()
    assert host_mismatch(snap, BASE) is None
    failures = check_against(snap, BASE)
    assert {f.split(":")[0] for f in failures} == {
        "kernel_events_per_s", "pipeline.packets_per_wall_s",
        "workload.users_per_wall_s",
    }


def test_fewer_events_for_the_same_work_passes():
    """The floors count work done (packets, users) per second, not
    events: removing cheap events at the same wall time drops events/s
    but is no regression.  More events is one, whatever the wall time."""
    snap = copy.deepcopy(BASE)
    snap["pipeline"]["events_per_wall_s"] //= 2
    snap["pipeline"]["events_per_packet"] = 3.0
    snap["workload"]["events_per_wall_s"] //= 2
    snap["workload"]["events"] //= 2
    assert check_against(snap, BASE) == []
    snap["workload"]["events"] = 1_050_001
    snap["workload"]["users_per_wall_s"] *= 2
    assert check_against(snap, BASE) == [
        "workload.events: 1050001 > baseline 1000000 (+5% cap)"
    ]


def test_other_host_skips_wall_clock_floors():
    snap = _slow_snapshot(cpus_affinity=1, python="3.12.1")
    line = host_mismatch(snap, BASE)
    assert "cpus_affinity 1 (baseline 2)" in line
    assert "python 3.12.1 (baseline 3.11.7)" in line
    assert check_against(snap, BASE) == []


def test_other_host_still_runs_deterministic_checks():
    snap = _slow_snapshot(python="3.12.1")
    snap["pipeline"]["events_per_packet"] = 7.0
    snap["workload"]["events"] = 2_000_000
    snap["workload"]["schedule_digest"] = "0000000000000000"
    failures = check_against(snap, BASE)
    assert len(failures) == 3
    assert failures[0].startswith("pipeline.events_per_packet")
    assert failures[1].startswith("workload.events")
    assert failures[2].startswith("workload: schedule digest drifted")


def test_telemetry_off_slower_than_on_fails_on_any_host():
    for meta in ({}, {"python": "3.12.1"}):
        snap = copy.deepcopy(BASE)
        snap["meta"].update(meta)
        snap["pipeline"]["telemetry_off_on_ratio"] = 1.031
        failures = check_against(snap, BASE)
        assert len(failures) == 1
        assert failures[0].startswith("pipeline.telemetry_off_on_ratio: 1.031 > 1.03")


def test_outcome_digest_drift_fails_on_any_host():
    """Every request's completion is a pure function of spec + seed, so a
    moved completion fails the check like a changed schedule does."""
    base = copy.deepcopy(BASE)
    base["workload"]["outcome_digest"] = "2ec8535927108066"
    for meta in ({}, {"python": "3.12.1"}):
        snap = copy.deepcopy(base)
        snap["meta"].update(meta)
        assert check_against(snap, base) == []
        snap["workload"]["outcome_digest"] = "0000000000000000"
        assert check_against(snap, base) == [
            "workload: outcome digest drifted from baseline "
            "(0000000000000000 != 2ec8535927108066)"
        ]


def test_check_prints_the_digests_it_compared(tmp_path, monkeypatch, capsys):
    """The workload line and the verdict name the schedule and outcome
    digests, so a passing determinism gate says which digests held."""
    from repro import perfsnap

    base = copy.deepcopy(BASE)
    base["workload"].update(outcome_digest="2ec8535927108066", scenario="hot_shard_1m",
                            n_users=1_000_000, sim_seconds=180.0, wall_s=100.0,
                            requests_per_wall_s=1000)
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    snap = {"meta": dict(base["meta"]), "workload": dict(base["workload"])}
    monkeypatch.setattr(perfsnap, "collect_snapshot", lambda sections=None: snap)
    assert perfsnap.main(["--check", str(path), "--section", "workload"]) == 0
    out = capsys.readouterr().out.splitlines()
    digests = "schedule 7eb71d331881a1a4, outcome 2ec8535927108066"
    assert out[0].startswith("workload : hot_shard_1m") and out[0].endswith(digests)
    assert out[-1].startswith("perf check vs ") and out[-1].endswith(
        f"workload digests held: {digests}")
    snap["meta"]["python"] = "3.12.1"
    assert perfsnap.main(["--check", str(path), "--section", "workload"]) == 2
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        f"deterministic checks passed; workload digests held: {digests}")
