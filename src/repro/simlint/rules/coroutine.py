"""SIM201/SIM203 — coroutine-protocol conformance.

Simulation processes are generators driven by the kernel
(:class:`repro.simnet.engine.Process`): every ``yield`` must hand the
kernel an :class:`Event`, and a constructed claim must actually be
awaited.  These rules encode
the process contract the engine enforces at runtime (with a crash, much
later) as compile-time findings.

A function is only checked when it *looks like* a sim process — at
least one of its yields is a waitable-constructor call (``sim.timeout``,
``.request()``, ``.get()``, …).  Plain data generators are never
flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from ..context import analyze_function, iter_functions, scope_body
from ..diagnostics import Diagnostic, Severity
from ..registry import LintContext, Rule, register

#: yield operands that can never be kernel events
_NON_EVENT_NODES = (
    ast.Constant,
    ast.List,
    ast.Tuple,
    ast.Dict,
    ast.Set,
    ast.JoinedStr,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
    ast.BinOp,
    ast.UnaryOp,
    ast.Compare,
    ast.BoolOp,
)


@register
class YieldNonEventRule(Rule):
    id = "SIM201"
    name = "yield-non-event"
    severity = Severity.ERROR
    rationale = (
        "The kernel fails a process that yields anything but an Event "
        "('yielded non-event'), but only when that yield is reached at "
        "runtime — possibly deep into a long sweep. A sim process that "
        "yields a literal, a bare yield, or an arithmetic expression is "
        "statically wrong; yield a Timeout/Event or return the value."
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Diagnostic]:
        for func in iter_functions(tree):
            info = analyze_function(func)
            if not info.is_sim_process:
                continue
            for y in info.yields:
                if isinstance(y, ast.YieldFrom):
                    continue  # delegation: the inner generator is checked itself
                v = y.value
                if v is None:
                    yield ctx.diagnostic(
                        self, y,
                        f"bare yield in sim process {func.name!r} hands the "
                        f"kernel None, which fails the process at runtime",
                    )
                elif isinstance(v, _NON_EVENT_NODES):
                    yield ctx.diagnostic(
                        self, y,
                        f"sim process {func.name!r} yields a non-event "
                        f"{type(v).__name__}; the kernel only accepts Events "
                        f"(timeout/request/get/...)",
                    )


@register
class AbandonedClaimRule(Rule):
    id = "SIM203"
    name = "abandoned-claim"
    severity = Severity.WARNING
    rationale = (
        "resource.request() / store.get() enqueue a claim the moment they "
        "are called; a claim that is never yielded or even referenced "
        "again still occupies a slot (or steals an item) forever once "
        "granted, since nothing withdraws a queued claim. Yield it."
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Diagnostic]:
        for func in iter_functions(tree):
            info = analyze_function(func)
            if not info.is_sim_process:
                continue
            for stmt in scope_body(func):
                claim = self._claim_call(stmt)
                if claim is None:
                    continue
                if isinstance(stmt, ast.Expr):
                    yield ctx.diagnostic(
                        self, stmt,
                        f"claim {self._describe(claim)} discarded immediately: "
                        f"it occupies a slot once granted but nothing can "
                        f"ever yield it",
                    )
                elif isinstance(stmt, ast.Assign):
                    names = [
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    ]
                    if names and not self._referenced_after(func, stmt, set(names)):
                        yield ctx.diagnostic(
                            self, stmt,
                            f"claim {self._describe(claim)} assigned to "
                            f"{', '.join(repr(n) for n in names)} but never "
                            f"yielded or referenced again",
                        )

    @staticmethod
    def _claim_call(stmt: ast.AST) -> "ast.Call | None":
        """The call node if ``stmt`` is ``[name =] X.request()`` or a
        zero-argument ``X.get()`` (Store.get; dict.get always takes
        arguments, so it never matches)."""
        if isinstance(stmt, (ast.Expr, ast.Assign)):
            v = stmt.value
            if isinstance(v, ast.Call) and isinstance(v.func, ast.Attribute):
                if v.args or v.keywords:
                    return None
                if v.func.attr in ("request", "get"):
                    return v
        return None

    @staticmethod
    def _describe(call: ast.Call) -> str:
        assert isinstance(call.func, ast.Attribute)
        return f".{call.func.attr}()"

    @staticmethod
    def _referenced_after(
        func: ast.AST, assign: ast.Assign, names: Set[str]
    ) -> bool:
        lineno = assign.lineno
        loads: List[str] = []
        for node in scope_body(func):  # type: ignore[arg-type]
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.lineno > lineno
            ):
                loads.append(node.id)
        return any(n in loads for n in names)
