"""SLO suite: scenario runs, budget evaluation, snapshot regression."""

import json

import pytest

from repro.slo import (
    QUICK_NAMES,
    SCENARIOS,
    SloReport,
    SloSpec,
    compare_snapshots,
    evaluate,
    main,
    run_scenario,
    snapshot,
)

SC = {sc.name: sc for sc in SCENARIOS}


# ------------------------------------------------------------- evaluation
def test_evaluate_pass_and_fail():
    spec = SloSpec(budgets={"end_to_end.p99": 100.0, "wire.p50": 10.0})
    phases = {"end_to_end": {"p99": 80.0}, "wire": {"p50": 50.0}}
    rep = evaluate(spec, phases, scenario="s", n_ops=1)
    verdicts = {key: ok for key, _, _, ok in rep.checks}
    assert verdicts == {"end_to_end.p99": True, "wire.p50": False}
    assert not rep.slo_ok


def test_evaluate_missing_stat_cannot_violate():
    # n too small for a p999: the stat is None and the budget passes
    spec = SloSpec(budgets={"end_to_end.p999": 1.0})
    rep = evaluate(spec, {"end_to_end": {"p999": None}}, "s", 1)
    assert rep.slo_ok


def test_evaluate_real_phase_with_too_few_samples_passes():
    spec = SloSpec(budgets={"wire.p999": 1.0, "end_to_end.p50": 10.0})
    phases = {"wire": {"p999": None}, "end_to_end": {"p50": 5.0}}
    rep = evaluate(spec, phases, "s", 1)
    assert rep.slo_ok
    assert ("wire.p999", None, 1.0, True) in rep.checks


@pytest.mark.parametrize("key,named", [
    ("bogus.p99", "bogus"),           # no such phase
    ("end_to_end.p98", "p98"),        # no such stat
    ("wire.mean", "mean"),            # a summarize() stat that is not tracked
    ("end_to_end", "<phase>"),        # no stat at all
    ("endtoend.p99", "endtoend"),     # misspelt phase
])
def test_budget_on_unknown_key_is_rejected(key, named):
    """A budget nothing measures would pass forever: reject it, naming
    the key, in the SLO spec and in a scenario spec."""
    from repro.scenarios import spec_from_dict

    with pytest.raises(ValueError, match=f"{key!r}.*{named}"):
        SloSpec(budgets={key: 1.0})
    with pytest.raises(ValueError, match=f"{key!r}.*{named}"):
        spec_from_dict({"name": "x", "telemetry": True,
                        "slo_budgets": {key: 1.0}})


# -------------------------------------------------------------- scenarios
def test_scenario_names_unique_and_quick_subset():
    names = [sc.name for sc in SCENARIOS]
    assert len(names) == len(set(names))
    assert set(QUICK_NAMES) <= set(names)


def test_clean_scenario_decomposes_exactly():
    rep = run_scenario(SC["spin_r3_64k"])
    assert rep.slo_ok
    assert rep.n_ops >= SC["spin_r3_64k"].repeats
    assert rep.phases["hpu"]["p50"] > 0.0
    assert rep.phases["retransmit"]["max"] == 0.0  # clean run


def test_lossy_scenario_attributes_retransmit_phase():
    rep = run_scenario(SC["spin_r3_64k_lossy"])
    # seeded loss must surface as retransmit-phase time somewhere
    assert rep.phases["retransmit"]["max"] > 0.0


def test_load_scenario_reports_phase_latency():
    rep = run_scenario(SC["load_spin_8k"])
    assert rep.slo_ok
    assert rep.n_ops > 100  # a real population, not a single op
    assert rep.phases["end_to_end"]["p999"] is not None


def test_scenarios_are_deterministic():
    a = run_scenario(SC["raw_64k"])
    b = run_scenario(SC["raw_64k"])
    assert a.phases == b.phases


# -------------------------------------------------------------- snapshots
def _snap(p99_e2e=100.0, p99_hpu=50.0):
    return {
        "scenarios": {
            "s1": {
                "n_ops": 3,
                "slo_ok": True,
                "phases": {
                    "end_to_end": {"p50": 80.0, "p99": p99_e2e, "p999": None},
                    "hpu": {"p50": 40.0, "p99": p99_hpu, "p999": None},
                },
            }
        }
    }


def test_compare_identical_passes():
    assert compare_snapshots(_snap(), _snap()) == []


def test_compare_flags_phase_regression_beyond_band():
    base, got = _snap(), _snap(p99_hpu=50.0 * 1.2 + 300.0)
    fails = compare_snapshots(got, base, rtol=0.10, atol_ns=200.0)
    assert len(fails) == 1 and "hpu.p99" in fails[0]


def test_compare_tolerates_noise_band():
    got = _snap(p99_e2e=100.0 * 1.05, p99_hpu=50.0 + 150.0)
    assert compare_snapshots(got, _snap(), rtol=0.10, atol_ns=200.0) == []


def test_compare_improvement_is_not_a_regression():
    assert compare_snapshots(_snap(p99_e2e=10.0), _snap()) == []


def test_compare_flags_missing_scenario_and_blown_budget():
    base = _snap()
    assert compare_snapshots({"scenarios": {}}, base)
    got = _snap()
    got["scenarios"]["s1"]["slo_ok"] = False
    assert any("budget" in f for f in compare_snapshots(got, base))


def test_compare_flags_blown_budget_of_unbaselined_scenario():
    got = _snap()
    got["scenarios"]["s2"] = dict(got["scenarios"]["s1"], slo_ok=False)
    assert compare_snapshots(got, _snap()) == ["s2: SLO budget violated"]


def test_compare_skips_none_stats():
    base, got = _snap(), _snap()
    base["scenarios"]["s1"]["phases"]["hpu"]["p99"] = None
    assert compare_snapshots(got, base) == []


# -------------------------------------------------------------------- CLI
def test_cli_check_round_trip(tmp_path):
    out = tmp_path / "slo.json"
    assert main(["--quick", "--out", str(out)]) == 0
    assert main(["--quick", "--check", str(out)]) == 0


def test_cli_check_fails_on_injected_regression(tmp_path):
    out = tmp_path / "slo.json"
    assert main(["--quick", "--out", str(out)]) == 0
    base = json.loads(out.read_text())
    # shrink a baseline stat: the fresh run now reads as a regression
    ph = base["scenarios"]["spin_r3_64k"]["phases"]["hpu"]
    ph["p99"] = ph["p99"] * 0.5
    out.write_text(json.dumps(base))
    assert main(["--quick", "--check", str(out)]) == 1


def test_cli_check_prints_blown_budgets(tmp_path, monkeypatch, capsys):
    """--check applies every budget verdict of the run, also for a
    scenario the baseline lacks, and prints which budget blew."""
    import repro.slo

    blown = SloReport(
        scenario="new_scenario",
        n_ops=1,
        phases={"end_to_end": {"p50": 900.0, "p99": 900.0, "p999": None}},
        checks=[("end_to_end.p99", 900.0, 500.0, False)],
    )
    monkeypatch.setattr(repro.slo, "run_suite", lambda quick=False: [blown])
    base = tmp_path / "slo.json"
    base.write_text(json.dumps({"scenarios": {}}))
    assert main(["--check", str(base)]) == 1
    out = capsys.readouterr().out
    assert "new_scenario: SLO budget violated" in out
    assert "new_scenario: end_to_end.p99 900 ns > budget 500 ns" in out


def test_cli_reports_decomposition_defect(monkeypatch, capsys):
    """A request whose phases miss its latency fails ``repro slo`` with
    the defect named, before any snapshot is written."""
    import repro.slo
    from repro.telemetry import AnatomyError

    def defective(quick=False):
        raise AnatomyError("trace 7: phases sum to 103.000 ns, 3.000 ns over ...")

    monkeypatch.setattr(repro.slo, "run_suite", defective)
    assert main(["--quick"]) == 1
    out = capsys.readouterr().out
    assert "DECOMPOSITION DEFECT" in out and "trace 7" in out


def test_committed_baseline_matches(request):
    # BENCH_slo.json is the committed contract: the quick subset of the
    # suite must still agree with it within the default noise band
    path = request.config.rootpath / "BENCH_slo.json"
    base = json.loads(path.read_text())
    reports = [run_scenario(SC[name]) for name in QUICK_NAMES]
    fails = compare_snapshots(snapshot(reports), base)
    # restrict to the scenarios this quick run produced
    ran = {r.scenario for r in reports}
    fails = [f for f in fails if f.split(":")[0] in ran]
    assert fails == [], fails
