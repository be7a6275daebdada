"""Experiment-registry smoke tests: every module runs in quick mode and
passes its own shape checks.  recovery_storm and scenario_matrix are
left to scripts/ci.sh, which runs each twice and compares the rows."""

import pytest

from repro.experiments import REGISTRY


def test_registry_complete():
    expected = {
        "fig04", "fig06", "fig07", "fig09_latency", "fig09_goodput",
        "fig10", "fig11_table1", "fig15_latency", "fig15_bandwidth",
        "fig16_table2", "fig16_budget", "loss", "recovery_storm",
        "scenario_matrix", "table3", "throughput_sweep",
    }
    assert set(REGISTRY) == expected


def test_every_experiment_declares_metadata():
    for eid, mod in REGISTRY.items():
        assert mod.ID == eid
        assert isinstance(mod.TITLE, str) and mod.TITLE
        assert isinstance(mod.CLAIMS, list) and mod.CLAIMS
        assert callable(mod.run) and callable(mod.check) and callable(mod.render)


@pytest.mark.parametrize("eid", ["fig04", "fig07", "fig16_budget", "table3"])
def test_cheap_experiments_run_and_check(eid):
    mod = REGISTRY[eid]
    rows = mod.run(quick=True)
    assert rows
    mod.check(rows)
    out = mod.render(rows)
    assert isinstance(out, str) and len(out) > 50


@pytest.mark.parametrize("eid", [
    "fig06", "fig15_latency", "fig09_latency", "fig09_goodput", "fig10",
    "fig11_table1", "fig15_bandwidth", "fig16_table2", "loss",
    "throughput_sweep",
])
def test_simulation_experiments_quick(eid):
    mod = REGISTRY[eid]
    rows = mod.run(quick=True)
    assert rows
    mod.check(rows)


def test_cli_list(capsys):
    from repro.experiments.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for eid in REGISTRY:
        assert eid in out


def test_cli_unknown_experiment():
    from repro.experiments.__main__ import main

    assert main(["nope"]) == 2


def test_cli_runs_single(capsys):
    from repro.experiments.__main__ import main

    assert main(["fig04", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "82" in out or "81707" in out
