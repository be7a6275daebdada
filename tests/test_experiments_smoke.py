"""Experiment-registry smoke tests: every module runs in quick mode and
passes its own shape checks.  recovery_storm and scenario_matrix are
left to scripts/ci.sh, which runs each twice and compares the rows."""

import pytest

from repro.experiments import REGISTRY, run


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
        assert callable(mod.check) and callable(mod.render)
        # exactly one shape: a sweep (points + run_point) or a table (run)
        shape = {a for a in ("points", "run_point", "run") if hasattr(mod, a)}
        assert shape in ({"points", "run_point"}, {"run"}), (eid, shape)


@pytest.mark.parametrize("eid", ["fig04", "fig07", "fig16_budget", "table3"])
def test_cheap_experiments_run_and_check(eid):
    mod = REGISTRY[eid]
    rows = run(eid, quick=True)
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
    rows = run(eid, quick=True)
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


def test_cli_footer_names_only_this_runs_sweep(capsys):
    """A table run after a sweep (as in 'all') prints no sweep footer:
    the previous experiment's runner stats are not this one's."""
    from repro.experiments.__main__ import main

    assert main(["fig06", "--quick", "--no-cache", "--no-check"]) == 0
    assert "(4 points (0 cached + 4 computed), serial" in capsys.readouterr().out
    assert main(["fig04", "--quick", "--no-check"]) == 0
    footer = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("[fig04: ") and " rows in " in ln]
    assert len(footer) == 1 and "points" not in footer[0], footer
