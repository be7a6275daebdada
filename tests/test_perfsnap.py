"""``repro perf --check``: wall-clock floors apply only on the baseline's
host; the deterministic checks and the same-host telemetry ratio apply
everywhere."""

import copy

from repro.perfsnap import check_against, host_mismatch

BASE = {
    "meta": {"cpus_affinity": 2, "python": "3.11.7"},
    "kernel_events_per_s": 1_000_000,
    "pipeline": {"events_per_wall_s": 500_000, "events_per_packet": 6.0,
                 "telemetry_off_on_ratio": 0.95},
    "workload": {"users_per_wall_s": 10_000, "events_per_wall_s": 400_000,
                 "schedule_digest": "7eb71d331881a1a4"},
}


def _slow_snapshot(**meta):
    """A snapshot at a tenth of the baseline's throughput."""
    snap = copy.deepcopy(BASE)
    snap["meta"].update(meta)
    snap["kernel_events_per_s"] //= 10
    snap["pipeline"]["events_per_wall_s"] //= 10
    snap["workload"]["users_per_wall_s"] //= 10
    snap["workload"]["events_per_wall_s"] //= 10
    return snap


def test_same_host_gates_wall_clock():
    snap = _slow_snapshot()
    assert host_mismatch(snap, BASE) is None
    failures = check_against(snap, BASE)
    assert {f.split(":")[0] for f in failures} == {
        "kernel_events_per_s", "pipeline.events_per_wall_s",
        "workload.users_per_wall_s", "workload.events_per_wall_s",
    }


def test_other_host_skips_wall_clock_floors():
    snap = _slow_snapshot(cpus_affinity=1, python="3.12.1")
    line = host_mismatch(snap, BASE)
    assert "cpus_affinity 1 (baseline 2)" in line
    assert "python 3.12.1 (baseline 3.11.7)" in line
    assert check_against(snap, BASE) == []


def test_other_host_still_runs_deterministic_checks():
    snap = _slow_snapshot(python="3.12.1")
    snap["pipeline"]["events_per_packet"] = 7.0
    snap["workload"]["schedule_digest"] = "0000000000000000"
    failures = check_against(snap, BASE)
    assert len(failures) == 2
    assert failures[0].startswith("pipeline.events_per_packet")
    assert failures[1].startswith("workload: schedule digest drifted")


def test_telemetry_off_slower_than_on_fails_on_any_host():
    for meta in ({}, {"python": "3.12.1"}):
        snap = copy.deepcopy(BASE)
        snap["meta"].update(meta)
        snap["pipeline"]["telemetry_off_on_ratio"] = 1.031
        failures = check_against(snap, BASE)
        assert len(failures) == 1
        assert failures[0].startswith("pipeline.telemetry_off_on_ratio: 1.031 > 1.03")
