"""SIM301 — resource claims must survive a failed event.

The PR-2 bug class: a process acquires a Resource slot
(``req = pool.request(); yield req``), then hits another wait before the
``try/finally`` that releases it.  If the event it waits on there fails
(a crashed peer, a rejected request), the error unwinds the generator
and the slot leaks forever — the simulation quiesce check fails hours
later with no pointer back to the acquire site.

The enforced shape is exactly the repo idiom::

    req = pool.request()
    yield req                    # grant
    try:                         # <- immediately: no waits in between
        ...critical section (may wait)...
    finally:
        pool.release(req)

Checked per claim: (a) a release exists (or the claim escapes to
another owner), (b) at least one release sits in a ``finally`` block,
and (c) no yield lies between the grant and that protecting ``try``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

from ..context import FunctionNode, analyze_function, iter_functions, iter_scope, scope_body
from ..diagnostics import Diagnostic, Severity
from ..registry import LintContext, Rule, register


@dataclass
class _Claim:
    name: str
    assign: ast.Assign
    grant: Optional[ast.expr]  # the ``yield name`` expression


@register
class LeakOnInterruptRule(Rule):
    id = "SIM301"
    name = "leak-on-interrupt"
    severity = Severity.ERROR
    rationale = (
        "A granted Resource slot is only returned by an explicit "
        "release(); if an event the process waits on while holding it "
        "fails — any yield outside the try/finally that releases — the "
        "slot leaks and the cluster quiesce check fails far from the cause. "
        "Enter the protecting try immediately after the grant and "
        "release in its finally."
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Diagnostic]:
        for func in iter_functions(tree):
            info = analyze_function(func)
            if not info.is_sim_process:
                continue
            yield from self._check_function(func, ctx)

    # ------------------------------------------------------------------
    def _check_function(
        self, func: FunctionNode, ctx: LintContext
    ) -> Iterable[Diagnostic]:
        nodes = list(scope_body(func))
        claims = self._find_claims(nodes)
        if not claims:
            return
        tries = [n for n in nodes if isinstance(n, ast.Try) and n.finalbody]
        yields = [
            n for n in nodes if isinstance(n, (ast.Yield, ast.YieldFrom))
        ]
        for claim in claims:
            releases = self._find_releases(nodes, claim.name)
            if not releases:
                if self._escapes(nodes, claim):
                    continue  # handed to another owner; their job now
                yield ctx.diagnostic(
                    self, claim.assign,
                    f"claim {claim.name!r} is acquired but never released "
                    f"in this process (and never handed off); the slot "
                    f"leaks on every path",
                )
                continue
            protecting = self._protecting_try(tries, releases)
            if protecting is None:
                yield ctx.diagnostic(
                    self, releases[0],
                    f"release of {claim.name!r} is not in a finally block: "
                    f"an exception (a failed event) in the critical section "
                    f"leaks the slot",
                )
                continue
            if claim.grant is None:
                continue  # granted elsewhere (e.g. via all_of); out of scope
            gap = [
                y
                for y in yields
                if claim.grant.lineno < y.lineno < protecting.body[0].lineno
            ]
            if gap:
                yield ctx.diagnostic(
                    self, gap[0],
                    f"wait between the grant of {claim.name!r} "
                    f"(line {claim.grant.lineno}) and the protecting try "
                    f"(line {protecting.lineno}): a failed event here leaks "
                    f"the slot — enter the try first",
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _find_claims(nodes: List[ast.AST]) -> List[_Claim]:
        claims: List[_Claim] = []
        for n in nodes:
            if not isinstance(n, ast.Assign):
                continue
            v = n.value
            if not (
                isinstance(v, ast.Call)
                and isinstance(v.func, ast.Attribute)
                and v.func.attr == "request"
                and not v.args
                and not v.keywords
            ):
                continue
            for tgt in n.targets:
                if isinstance(tgt, ast.Name):
                    claims.append(_Claim(name=tgt.id, assign=n, grant=None))
        # attach the grant (first ``yield name`` at or after the assign)
        for claim in claims:
            for y in nodes:
                if (
                    isinstance(y, ast.Yield)
                    and isinstance(y.value, ast.Name)
                    and y.value.id == claim.name
                    and y.lineno >= claim.assign.lineno
                ):
                    claim.grant = y
                    break
        return claims

    @staticmethod
    def _find_releases(nodes: List[ast.AST], name: str) -> List[ast.Call]:
        out: List[ast.Call] = []
        for n in nodes:
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)):
                continue
            # pool.release(req): a Request has no release method of its own
            if n.func.attr == "release" and any(
                isinstance(a, ast.Name) and a.id == name for a in n.args
            ):
                out.append(n)
        return out

    @staticmethod
    def _protecting_try(
        tries: List[ast.Try], releases: List[ast.Call]
    ) -> Optional[ast.Try]:
        """The Try whose finalbody subtree contains a release."""
        for t in tries:
            final_nodes: Set[int] = set()
            for stmt in t.finalbody:
                final_nodes.update(id(x) for x in iter_scope(stmt))
            for rel in releases:
                if id(rel) in final_nodes:
                    return t
        return None

    @staticmethod
    def _escapes(nodes: List[ast.AST], claim: _Claim) -> bool:
        """Whether the claim is handed to another owner: passed as a call
        argument, returned, or stored into an attribute/subscript."""
        for n in nodes:
            if isinstance(n, ast.Call):
                for a in list(n.args) + [kw.value for kw in n.keywords]:
                    for sub in ast.walk(a):
                        if isinstance(sub, ast.Name) and sub.id == claim.name:
                            return True
            elif isinstance(n, ast.Return) and n.value is not None:
                for sub in ast.walk(n.value):
                    if isinstance(sub, ast.Name) and sub.id == claim.name:
                        return True
            elif isinstance(n, ast.Assign):
                for tgt in n.targets:
                    if isinstance(tgt, (ast.Attribute, ast.Subscript)):
                        for sub in ast.walk(n.value):
                            if isinstance(sub, ast.Name) and sub.id == claim.name:
                                return True
        return False
