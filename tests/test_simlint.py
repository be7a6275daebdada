"""repro.simlint: rule fixtures, suppressions, CLI, and the tree gate.

Every shipped rule gets at least one true-positive fixture (the hazard
is flagged) and one false-positive fixture (the idiomatic equivalent is
NOT flagged).  The tree gate at the bottom is the PR's contract: the
committed ``src/repro`` lints clean, so any new hazard fails CI with a
file:line diagnostic instead of a debugging session three PRs later.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.simlint import RULES, all_rules, lint_paths, lint_source
from repro.simlint.cli import main as lint_main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")


def rules_found(source, rule_ids=None):
    """Lint a dedented snippet; return the sorted list of rule ids hit."""
    res = lint_source("snippet.py", textwrap.dedent(source), rule_ids=rule_ids)
    return sorted(d.rule for d in res.findings)


def lint(source, rule_ids=None):
    return lint_source("snippet.py", textwrap.dedent(source), rule_ids=rule_ids)


# --------------------------------------------------------------- registry
class TestRegistry:
    def test_all_twelve_rules_registered(self):
        assert sorted(RULES) == [
            "SIM101", "SIM102", "SIM103", "SIM104",
            "SIM201", "SIM203", "SIM301", "SIM401",
            "SIM501", "SIM502", "SIM503",
        ]

    def test_every_rule_has_metadata(self):
        for rule in all_rules():
            assert rule.name, rule.id
            assert rule.rationale, rule.id
            assert rule.severity.value in ("error", "warning")

    def test_syntax_error_is_a_diagnostic_not_a_crash(self):
        res = lint_source("bad.py", "def f(:\n")
        assert [d.rule for d in res.findings] == ["SIM000"]
        assert res.findings[0].line == 1


# ------------------------------------------------------- SIM101 wall clock
class TestWallClock:
    def test_time_time_flagged(self):
        assert "SIM101" in rules_found("""
            import time
            def f():
                return time.time()
        """)

    def test_perf_counter_and_aliases_flagged(self):
        assert rules_found("""
            import time as t
            from time import perf_counter as pc
            def f():
                return t.monotonic() + pc()
        """).count("SIM101") == 2

    def test_datetime_now_flagged(self):
        assert "SIM101" in rules_found("""
            import datetime
            def f():
                return datetime.datetime.now()
        """)

    def test_sim_now_not_flagged(self):
        assert rules_found("""
            def f(sim):
                return sim.now
        """) == []

    def test_unrelated_time_method_not_flagged(self):
        # no `import time` in scope: t.time() is someone else's API
        assert rules_found("""
            def f(t):
                return t.time()
        """) == []

    def test_bare_clock_reference_flagged(self):
        # handing the function itself out smuggles the host clock
        assert "SIM101" in rules_found("""
            import time
            def f(engine):
                engine.tick_source = time.monotonic
        """)

    def test_bare_from_import_reference_flagged(self):
        assert "SIM101" in rules_found("""
            from time import monotonic
            def f(engine):
                engine.tick_source = monotonic
        """)

    def test_call_not_double_counted_as_bare_ref(self):
        assert rules_found("""
            import time
            def f():
                return time.monotonic()
        """).count("SIM101") == 1


# ------------------------------------------------------- SIM102 randomness
class TestUnseededRandom:
    def test_module_level_draw_flagged(self):
        assert "SIM102" in rules_found("""
            import random
            def f():
                return random.randint(0, 5)
        """)

    def test_from_import_flagged(self):
        assert "SIM102" in rules_found("""
            from random import shuffle
        """)

    def test_seeded_stream_not_flagged(self):
        assert rules_found("""
            import random
            def f(seed):
                return random.Random(seed).randint(0, 5)
        """) == []

    def test_numpy_default_rng_not_flagged(self):
        assert rules_found("""
            import numpy as np
            def f(seed):
                return np.random.default_rng(seed)
        """) == []

    def test_os_urandom_flagged(self):
        assert "SIM102" in rules_found("""
            import os
            def f():
                return os.urandom(16)
        """)

    def test_from_os_import_urandom_flagged(self):
        assert "SIM102" in rules_found("""
            from os import urandom
        """)

    def test_unseeded_random_ctor_flagged(self):
        assert "SIM102" in rules_found("""
            import random
            def f():
                return random.Random()
        """)

    def test_unseeded_imported_ctor_flagged(self):
        assert "SIM102" in rules_found("""
            from random import Random
            def f():
                return Random()
        """)

    def test_seeded_imported_ctor_not_flagged(self):
        assert rules_found("""
            from random import Random
            def f(seed):
                return Random(seed)
        """) == []

    def test_os_path_not_flagged(self):
        assert rules_found("""
            import os
            def f(p):
                return os.path.basename(p)
        """) == []


# -------------------------------------------------- SIM103/104 ordering
class TestOrdering:
    def test_iteration_over_set_call_flagged(self):
        assert "SIM103" in rules_found("""
            def f(xs):
                for x in set(xs):
                    print(x)
        """)

    def test_comprehension_over_local_set_flagged(self):
        assert "SIM103" in rules_found("""
            def f(xs):
                pending = {x.name for x in xs}
                return [dispatch(x) for x in pending]
        """)

    def test_sorted_set_not_flagged(self):
        assert rules_found("""
            def f(xs):
                for x in sorted(set(xs)):
                    print(x)
        """) == []

    def test_membership_test_not_flagged(self):
        assert rules_found("""
            def f(xs, y):
                seen = set(xs)
                return y in seen
        """) == []

    def test_id_keyed_dict_flagged(self):
        assert "SIM104" in rules_found("""
            def f(d, obj):
                d[id(obj)] = 1
        """)

    def test_sort_key_id_flagged(self):
        assert "SIM104" in rules_found("""
            def f(objs):
                return sorted(objs, key=id)
        """)

    def test_deterministic_key_not_flagged(self):
        assert rules_found("""
            def f(d, obj):
                d[obj.seq] = 1
                return sorted([obj], key=lambda o: o.seq)
        """) == []


# -------------------------------------------------- SIM201 yield-non-event
class TestYieldNonEvent:
    def test_literal_yield_in_sim_process_flagged(self):
        assert "SIM201" in rules_found("""
            def proc(sim):
                yield sim.timeout(1)
                yield 5
        """)

    def test_bare_yield_in_sim_process_flagged(self):
        assert "SIM201" in rules_found("""
            def proc(sim):
                yield sim.timeout(1)
                yield
        """)

    def test_data_generator_not_flagged(self):
        # plain iterator: yields rows, never a waitable — out of scope
        assert rules_found("""
            def rows():
                yield {"a": 1}
                yield {"a": 2}
        """) == []

    def test_event_variable_yield_not_flagged(self):
        assert rules_found("""
            def proc(sim):
                ev = sim.timeout(3)
                yield ev
        """) == []


# ------------------------------------------------- SIM203 abandoned claim
class TestAbandonedClaim:
    def test_unreferenced_claim_flagged(self):
        found = rules_found("""
            def proc(sim, pool):
                req = pool.request()
                yield sim.timeout(1)
        """)
        assert "SIM203" in found

    def test_discarded_claim_flagged(self):
        assert "SIM203" in rules_found("""
            def proc(sim, pool):
                pool.request()
                yield sim.timeout(1)
        """)

    def test_yielded_claim_not_flagged(self):
        assert rules_found("""
            def proc(sim, pool):
                req = pool.request()
                yield req
                try:
                    yield sim.timeout(1)
                finally:
                    pool.release(req)
        """) == []

    def test_dict_get_not_flagged(self):
        # dict.get always takes arguments, so it can never match
        assert rules_found("""
            def proc(sim, cfg):
                delay = cfg.get("delay", 1)
                yield sim.timeout(delay)
        """) == []


# ------------------------------------------------ SIM301 leak on interrupt
class TestLeakOnInterrupt:
    CANONICAL = """
        def proc(sim, pool):
            req = pool.request()
            yield req
            try:
                yield sim.timeout(5)
            finally:
                pool.release(req)
    """

    def test_canonical_shape_not_flagged(self):
        assert rules_found(self.CANONICAL) == []

    def test_release_outside_finally_flagged(self):
        found = rules_found("""
            def proc(sim, pool):
                req = pool.request()
                yield req
                yield sim.timeout(5)
                pool.release(req)
        """)
        assert "SIM301" in found

    def test_wait_between_grant_and_try_flagged(self):
        # the _train_cont_hpu / _exec shape PR 5 fixed: the release IS in
        # a finally, but an interrupt during the gap yield still leaks
        found = rules_found("""
            def proc(sim, pool):
                req = pool.request()
                yield req
                yield sim.timeout(1)
                try:
                    yield sim.timeout(5)
                finally:
                    pool.release(req)
        """)
        assert "SIM301" in found

    def test_never_released_flagged(self):
        found = rules_found("""
            def proc(sim, pool):
                req = pool.request()
                yield req
                yield sim.timeout(5)
        """, rule_ids=["SIM301"])
        assert found == ["SIM301"]

    def test_handed_off_claim_not_flagged(self):
        # ownership transferred: the tracker releases it later
        assert rules_found("""
            def proc(sim, pool, tracker):
                req = pool.request()
                yield req
                tracker.adopt(req)
                yield sim.timeout(5)
        """, rule_ids=["SIM301"]) == []

    def test_request_method_release_form_recognised(self):
        # recognised as a leak: ``Request`` has no ``release`` method, so
        # this process raises AttributeError instead of releasing
        assert rules_found("""
            def proc(sim, pool):
                req = pool.request()
                yield req
                try:
                    yield sim.timeout(5)
                finally:
                    req.release()
        """) == ["SIM301"]

    def test_conditional_quota_shape_not_flagged(self):
        # the restructured accelerator._exec shape: nested claims, each
        # protected before the next wait
        assert rules_found("""
            def proc(sim, pool, quota):
                qreq = None
                if quota is not None:
                    qreq = quota.request()
                    yield qreq
                try:
                    req = pool.request()
                    yield req
                    try:
                        yield sim.timeout(5)
                    finally:
                        pool.release(req)
                finally:
                    if quota is not None:
                        quota.release(qreq)
        """) == []


# -------------------------------------------- SIM401 uncached metric handle
class TestUncachedMetricHandle:
    def test_lookup_in_sim_process_flagged(self):
        assert "SIM401" in rules_found("""
            def proc(sim, tel):
                yield sim.timeout(1)
                tel.metrics.counter("pkts").inc()
        """)

    def test_lookup_in_loop_flagged(self):
        assert "SIM401" in rules_found("""
            def f(m, items):
                for it in items:
                    m.counter(f"n.{it}").inc()
        """)

    def test_handlecache_builder_not_flagged(self):
        assert rules_found("""
            class Port:
                def __init__(self, name):
                    self._handles = HandleCache(
                        lambda m: (m.counter(f"link.{name}.busy_ns"),)
                    )
        """) == []

    def test_one_shot_lookup_not_flagged(self):
        assert rules_found("""
            def snapshot(m):
                return m.counter("pkts").value
        """) == []


# ------------------------------------- SIM501 unjoined child process (flow)
class TestUnjoinedChildProcess:
    def test_spawn_dropped_on_early_return_flagged(self):
        assert "SIM501" in rules_found("""
            def proc(sim):
                child = sim.process(worker(sim))
                yield sim.timeout(5)
                if sim.now > 100:
                    return
                yield child
        """)

    def test_spawn_never_referenced_flagged(self):
        assert "SIM501" in rules_found("""
            def proc(sim):
                child = sim.process(worker(sim))
                yield sim.timeout(5)
        """)

    def test_yielded_child_not_flagged(self):
        assert rules_found("""
            def proc(sim):
                child = sim.process(worker(sim))
                yield child
        """) == []

    def test_interrupt_in_finally_not_flagged(self):
        assert rules_found("""
            def proc(sim):
                child = sim.process(worker(sim))
                try:
                    yield sim.timeout(5)
                finally:
                    child.interrupt()
        """) == []

    def test_stored_handle_not_flagged(self):
        # handing the child off to the owner is a join we can't follow
        assert rules_found("""
            def proc(self, sim):
                child = sim.process(worker(sim))
                self._children.append(child)
                yield sim.timeout(5)
        """) == []

    def test_plain_generator_exempt(self):
        # no waitable yields -> a data generator, not a sim process
        assert rules_found("""
            def rows(db):
                h = db.process(1)
                yield h + 1
        """) == []


# ---------------------------------------- SIM502 set-order emission (flow)
class TestSetOrderEmission:
    def test_dict_from_set_loop_then_iterated_flagged(self):
        assert "SIM502" in rules_found("""
            def f(names, emit):
                offsets = {}
                for n in set(names):
                    offsets[n] = place(n)
                for n, off in offsets.items():
                    emit(n, off)
        """, rule_ids=["SIM502"])

    def test_dict_comprehension_over_set_flagged(self):
        assert "SIM502" in rules_found("""
            def f(names, emit):
                live = {n for n in names}
                offsets = {n: place(n) for n in live}
                for n in offsets:
                    emit(n)
        """, rule_ids=["SIM502"])

    def test_sorted_emission_not_flagged(self):
        assert rules_found("""
            def f(names, emit):
                offsets = {}
                for n in set(names):
                    offsets[n] = place(n)
                for n in sorted(offsets):
                    emit(n)
        """, rule_ids=["SIM502"]) == []

    def test_sorted_population_not_flagged(self):
        assert rules_found("""
            def f(names, emit):
                offsets = {}
                for n in sorted(set(names)):
                    offsets[n] = place(n)
                for n in offsets:
                    emit(n)
        """, rule_ids=["SIM502"]) == []

    def test_unrelated_dict_not_flagged(self):
        assert rules_found("""
            def f(rows, emit):
                d = {}
                for r in rows:
                    d[r.key] = r
                for k in d:
                    emit(k)
        """, rule_ids=["SIM502"]) == []


# ------------------------------------ SIM503 span close on all paths (flow)
class TestSpanCloseAllPaths:
    def test_early_return_skips_close_flagged(self):
        assert "SIM503" in rules_found("""
            def handle(tel, sim, req):
                s = tel.begin("req", pid="c0", tid="w", t0=sim.now)
                if req.denied:
                    return None
                tel.end(s, sim.now)
                return req
        """)

    def test_close_on_every_path_not_flagged(self):
        assert rules_found("""
            def handle(tel, sim, req):
                s = tel.begin("req", pid="c0", tid="w", t0=sim.now)
                if req.denied:
                    tel.end(s, sim.now)
                    return None
                tel.end(s, sim.now)
                return req
        """) == []

    def test_close_in_finally_not_flagged(self):
        assert rules_found("""
            def handle(tel, sim, req):
                s = tel.begin("req", pid="c0", tid="w", t0=sim.now)
                try:
                    if req.denied:
                        return None
                    return req
                finally:
                    tel.end(s, sim.now)
        """) == []

    def test_handoff_to_callback_not_flagged(self):
        # closure capture keeps the span reachable: completion closes it
        assert rules_found("""
            def handle(tel, sim, ev):
                s = tel.begin("commit", pid="h", tid="c", t0=sim.now)
                ev.add_callback(lambda _e, sp=s: tel.end(sp, sim.now))
                return ev
        """) == []

    def test_span_stored_on_request_not_flagged(self):
        assert rules_found("""
            def handle(tel, sim, req):
                s = tel.begin("req", pid="c0", tid="w", t0=sim.now)
                req.span = s
                return req
        """) == []


# ----------------------------------------------------------- suppressions
class TestSuppressions:
    HAZARD = """
        import time
        def f():
            return time.time(){comment}
    """

    def test_line_suppression_silences_the_rule(self):
        res = lint(self.HAZARD.format(comment="  # simlint: disable=SIM101"))
        assert res.findings == []
        assert [d.rule for d in res.suppressed] == ["SIM101"]
        assert res.suppressed[0].suppressed

    def test_suppressing_a_different_rule_changes_nothing(self):
        res = lint(self.HAZARD.format(comment="  # simlint: disable=SIM401"))
        assert [d.rule for d in res.findings] == ["SIM101"]

    def test_suppression_is_line_scoped(self):
        res = lint("""
            import time
            def f():
                return time.time()  # simlint: disable=SIM101
            def g():
                return time.time()
        """)
        assert [d.rule for d in res.findings] == ["SIM101"]
        assert len(res.suppressed) == 1

    def test_file_wide_suppression(self):
        res = lint("""
            # simlint: disable-file=SIM101 -- wall-clock harness module
            import time
            def f():
                return time.time()
            def g():
                return time.perf_counter()
        """)
        assert res.findings == []
        assert len(res.suppressed) == 2

    def test_disable_all(self):
        res = lint(self.HAZARD.format(comment="  # simlint: disable=all"))
        assert res.findings == []

    def test_marker_inside_string_is_not_a_suppression(self):
        res = lint("""
            import time
            def f():
                s = "# simlint: disable=SIM101"
                return time.time(), s
        """)
        assert [d.rule for d in res.findings] == ["SIM101"]


# ------------------------------------------------------------------- CLI
class TestCli:
    def test_findings_exit_1_with_file_line_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\ndef f():\n    return time.time()\n")
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:3:" in out
        assert "SIM101" in out

    def test_clean_file_exits_0(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f(sim):\n    return sim.now\n")
        assert lint_main([str(good)]) == 0
        assert "simlint clean" in capsys.readouterr().out

    def test_json_output_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\ndef f():\n    return random.random()\n")
        assert lint_main([str(bad), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["files_checked"] == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "SIM102"
        assert finding["line"] == 3
        assert finding["severity"] == "error"

    def test_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\ndef f():\n    return time.time()\n")
        assert lint_main([str(bad), "--rules", "SIM102"]) == 0
        capsys.readouterr()

    def test_unknown_rule_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main([str(tmp_path), "--rules", "SIM999"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_empty_rule_set_is_a_usage_error(self, tmp_path, capsys):
        # "--rules ," used to lint with zero rules and exit 0
        for spec in (",", "", " , "):
            with pytest.raises(SystemExit) as exc:
                lint_main([str(tmp_path), "--rules", spec])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_json_output_names_version_and_rule_set(self, tmp_path, capsys):
        from repro.simlint import __version__

        good = tmp_path / "good.py"
        good.write_text("def f(sim):\n    return sim.now\n")
        assert lint_main([str(good), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["simlint_version"] == __version__
        assert doc["rules"] == sorted(RULES)
        assert lint_main(
            [str(good), "--format", "json", "--rules", "SIM102,SIM101"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rules"] == ["SIM101", "SIM102"]

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_module_entrypoint_wired(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\ndef f():\n    return time.time()\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(bad)],
            capture_output=True, text=True, env=env, cwd=REPO,
        )
        assert proc.returncode == 1
        assert "SIM101" in proc.stdout


# -------------------------------------------------------------- tree gate
@pytest.fixture(scope="module")
def tree_lint():
    """One full-tree lint shared by the checks that only read different
    fields of the same result."""
    return lint_paths([SRC])


class TestTreeGate:
    def test_src_repro_lints_clean(self, tree_lint):
        res = tree_lint
        assert res.files_checked > 90
        msgs = "\n".join(d.format() for d in res.findings)
        assert res.findings == [], f"unsuppressed findings:\n{msgs}"

    def test_suppressions_are_the_committed_whitelist(self, tree_lint):
        # the zero baseline is honest: every silenced finding is one of
        # the deliberate harness sites (SIM101), not a blanket mute
        res = tree_lint
        by_rule = {}
        for d in res.suppressed:
            by_rule.setdefault(d.rule, set()).add(os.path.basename(d.path))
        assert set(by_rule) == {"SIM101"}
        assert by_rule["SIM101"] == {
            "engine.py", "runner.py", "perfsnap.py", "__main__.py",
        }

    def test_output_is_deterministic(self, tree_lint):
        # files lint independently, and only a file with a disable
        # comment can yield a suppressed finding: re-linting the files
        # named in the first run compares the same lists a full re-lint
        # would
        a = tree_lint
        files = sorted({d.path for d in a.suppressed})
        assert files, "no suppressed finding to compare"
        b = lint_paths(files)
        assert [d.to_dict() for d in a.suppressed] == [
            d.to_dict() for d in b.suppressed
        ]

    def test_docs_catalogue_every_rule(self):
        doc = open(os.path.join(REPO, "docs", "simlint.md")).read()
        for rule in all_rules():
            assert rule.id in doc, f"{rule.id} missing from docs/simlint.md"
            assert rule.name in doc, f"{rule.name} missing from docs/simlint.md"
