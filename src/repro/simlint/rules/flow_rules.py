"""SIM501/SIM502/SIM503 — flow-sensitive (CFG-based) rules.

Unlike the per-node rules, these ask about *paths*: an obligation is
created at one statement (spawn a child process, open a span, launder a
set into an ordered container) and must be discharged on **every** path
to function exit.  The path search runs over the per-function CFG from
:mod:`repro.simlint.flow`; a statement that merely references the
tracked name discharges the obligation (maximally conservative — we
would rather miss a leak than flag a hand-off we cannot follow).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from ..context import (
    FunctionNode,
    analyze_function,
    iter_functions,
    iter_scope,
    scope_body,
)
from ..diagnostics import Diagnostic, Severity
from ..flow import build_cfg, reaches_exit_avoiding
from ..registry import LintContext, Rule, register


def _references(stmt: ast.stmt, name: str) -> bool:
    """Whether ``stmt`` mentions ``name`` at all — including inside
    nested lambdas and defs, which capture it (a closure hand-off keeps
    the object reachable, so it discharges the obligation)."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and node.id == name:
            return True
    return False


def _assigned_name(stmt: ast.stmt) -> Optional[str]:
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return stmt.targets[0].id
    return None


@register
class UnjoinedChildProcessRule(Rule):
    id = "SIM501"
    name = "unjoined-child-process"
    severity = Severity.ERROR
    rationale = (
        "A sim process that spawns a child with sim.process(...) and then "
        "returns on some path without awaiting or handing the child off "
        "leaves it running against torn-down state — the teardown-hang "
        "class. Yield the child (or its completion event), or store the "
        "handle where the owner can."
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Diagnostic]:
        for func in iter_functions(tree):
            info = analyze_function(func)
            if not info.is_sim_process:
                continue
            cfg = None
            for stmt in _statements(func):
                name = _assigned_name(stmt)
                if name is None or not _is_process_spawn(stmt.value):
                    continue
                if cfg is None:
                    cfg = build_cfg(func)
                witness = reaches_exit_avoiding(
                    cfg, stmt, lambda s, n=name: _references(s, n)
                )
                if witness is not None:
                    yield ctx.diagnostic(
                        self, stmt,
                        f"child process '{name}' spawned here is never "
                        f"awaited or handed off on at least one path to "
                        f"return",
                    )


def _statements(func: FunctionNode) -> Iterable[ast.stmt]:
    """Every statement in the function's own scope."""
    for stmt in func.body:
        for node in iter_scope(stmt):
            if isinstance(node, ast.stmt):
                yield node


def _is_process_spawn(node: Optional[ast.expr]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "process"
    )


# --------------------------------------------------------------- SIM502
def _is_set_valued(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_valued(node.left, set_names) or _is_set_valued(
            node.right, set_names
        )
    return False


def _iterates(expr: ast.expr, name: str) -> bool:
    """Whether ``expr`` iterates local ``name`` (directly or via
    ``name.items()/keys()/values()``) without a sorted(...) wrapper."""
    if isinstance(expr, ast.Name):
        return expr.id == name
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("items", "keys", "values")
        and isinstance(expr.func.value, ast.Name)
    ):
        return expr.func.value.id == name
    return False


@register
class SetOrderEmissionRule(Rule):
    id = "SIM502"
    name = "set-order-emission"
    severity = Severity.ERROR
    rationale = (
        "A dict or list populated by iterating a set inherits hash order "
        "— salted per interpreter run — as its insertion order; iterating "
        "it later emits that order into rows, schedules, or digests even "
        "though the second loop looks innocent. Sort at the population "
        "site (or at emission) so the laundered order never escapes."
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Diagnostic]:
        for func in iter_functions(tree):
            set_names: Set[str] = set()
            for stmt in _statements(func):
                name = _assigned_name(stmt)
                if name and _is_set_valued(stmt.value, set_names):
                    set_names.add(name)
            taints = list(self._taint_sites(func, set_names))
            if not taints:
                continue
            cfg = build_cfg(func)
            for taint_stmt, container in taints:
                hit = self._emission_after(cfg, func, taint_stmt, container)
                if hit is not None:
                    yield ctx.diagnostic(
                        self, hit,
                        f"'{container}' was populated in set-iteration "
                        f"order (line {taint_stmt.lineno}) and is iterated "
                        f"here in emission order; wrap one end in "
                        f"sorted(...)",
                    )

    @staticmethod
    def _taint_sites(
        func: FunctionNode, set_names: Set[str]
    ) -> Iterable[Tuple[ast.stmt, str]]:
        """(statement, container-name) pairs where a dict/list's
        insertion order is taken from a set's iteration order."""
        for stmt in _statements(func):
            # d = {k: ... for k in some_set} / d = [f(k) for k in some_set]
            name = _assigned_name(stmt)
            if name and isinstance(stmt.value, (ast.DictComp, ast.ListComp)):
                if any(
                    _is_set_valued(g.iter, set_names)
                    for g in stmt.value.generators
                ):
                    yield stmt, name
            # d = dict.fromkeys(some_set)
            if (
                name
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "fromkeys"
                and stmt.value.args
                and _is_set_valued(stmt.value.args[0], set_names)
            ):
                yield stmt, name
            # for k in some_set: d[k] = ... / d.append(...)
            if isinstance(stmt, ast.For) and _is_set_valued(
                stmt.iter, set_names
            ):
                for filled in _containers_filled(stmt):
                    yield stmt, filled

    @staticmethod
    def _emission_after(
        cfg, func: FunctionNode, taint: ast.stmt, container: str
    ) -> Optional[ast.AST]:
        """First statement reachable from ``taint`` that iterates the
        container unsorted; None if the order never escapes."""
        hit: List[ast.AST] = []

        def kills(stmt: ast.stmt) -> bool:
            if stmt is taint:
                return False
            for node in iter_scope(stmt):
                if isinstance(node, ast.For) and _iterates(node.iter, container):
                    hit.append(node.iter)
                    return True
                if isinstance(
                    node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                ) and any(_iterates(g.iter, container) for g in node.generators):
                    hit.append(node)
                    return True
                # a reassignment resets the container's order
                if (
                    isinstance(node, ast.Name)
                    and node.id == container
                    and isinstance(node.ctx, ast.Store)
                ):
                    return True
            return False

        reaches_exit_avoiding(cfg, taint, kills)
        return hit[0] if hit else None


def _containers_filled(loop: ast.For) -> Iterable[str]:
    """Names of dict/list locals written positionally inside ``loop``."""
    out: Set[str] = set()
    for node in iter_scope(loop):
        # d[k] = v
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if (
                    isinstance(tgt, ast.Subscript)
                    and isinstance(tgt.value, ast.Name)
                    and isinstance(tgt.ctx, ast.Store)
                ):
                    out.add(tgt.value.id)
        # l.append(v) / l.extend(v) / d.setdefault(k, v)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend", "setdefault")
            and isinstance(node.func.value, ast.Name)
        ):
            out.add(node.func.value.id)
    return sorted(out)


# --------------------------------------------------------------- SIM503
@register
class SpanCloseAllPathsRule(Rule):
    id = "SIM503"
    name = "span-close-on-all-paths"
    severity = Severity.ERROR
    rationale = (
        "A telemetry span opened with begin(...) and not closed on every "
        "path to return stays pending forever: latency percentiles lose "
        "the request, and the sanitizer's orphan detector fires at "
        "quiesce. Close it in a finally, use the span() context manager, "
        "or hand the span off to the completion path explicitly."
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Diagnostic]:
        for func in iter_functions(tree):
            cfg = None
            for stmt in _statements(func):
                name = _assigned_name(stmt)
                if name is None or not _is_span_open(stmt.value):
                    continue
                if cfg is None:
                    cfg = build_cfg(func)
                witness = reaches_exit_avoiding(
                    cfg, stmt, lambda s, n=name: _references(s, n)
                )
                if witness is not None:
                    yield ctx.diagnostic(
                        self, stmt,
                        f"span '{name}' opened here is not closed (or "
                        f"handed off) on at least one path to return",
                    )


def _is_span_open(node: Optional[ast.expr]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "begin"
        and not any(isinstance(a, ast.Starred) for a in node.args)
    )
