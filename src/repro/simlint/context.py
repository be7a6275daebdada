"""Shared AST analysis helpers for simlint rules.

The rules share a small vocabulary:

* a **scope** is a function body traversed without descending into
  nested ``def``/``lambda`` (their yields and locals belong to the inner
  function, not to the process being checked);
* a **waitable constructor** is a call that produces a kernel
  :class:`~repro.simnet.engine.Event` — ``sim.timeout(...)``,
  ``resource.request()``, ``store.get()``, ``pcie.dma(...)``, …;
* a **sim process** is a generator function at least one of whose own
  yields is (or was assigned from) a waitable constructor.  Plain data
  generators (row iterators, token streams) never match, so coroutine
  rules stay quiet on them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: method names whose call results are kernel events a process waits on
WAITABLE_METHODS = frozenset(
    {
        "timeout",
        "timeout_at",
        "event",
        "request",
        "process",
        "all_of",
        "any_of",
        "dma",
        "get",
        "put",
        "send",
        "transfer",
    }
)

def iter_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Yield ``node`` and descendants, not descending into nested
    functions or lambdas (their bodies are separate scopes)."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield from iter_scope(child)


def scope_body(func: FunctionNode) -> Iterator[ast.AST]:
    """All nodes in ``func``'s own body (the function node excluded)."""
    for stmt in func.body:
        yield from iter_scope(stmt)


def iter_functions(tree: ast.AST) -> Iterator[FunctionNode]:
    """Every function definition in the module, including nested ones."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_method(node: ast.AST) -> Optional[str]:
    """The attribute name of a method call (``x.y.request()`` -> ``request``)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def is_waitable_call(node: ast.AST) -> bool:
    """Whether ``node`` is a call that plausibly constructs a kernel event."""
    return call_method(node) in WAITABLE_METHODS


@dataclass
class FunctionInfo:
    """Per-function facts shared by the coroutine/resource rules."""

    node: FunctionNode
    yields: List[ast.expr] = field(default_factory=list)  # Yield / YieldFrom
    #: local names assigned from waitable-constructor calls
    waitable_names: Set[str] = field(default_factory=set)
    is_sim_process: bool = False

    @property
    def is_generator(self) -> bool:
        return bool(self.yields)


def analyze_function(func: FunctionNode) -> FunctionInfo:
    info = FunctionInfo(node=func)
    for node in scope_body(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            info.yields.append(node)
        elif isinstance(node, ast.Assign) and is_waitable_call(node.value):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    info.waitable_names.add(tgt.id)
    for y in info.yields:
        v = y.value
        if v is None:
            continue
        if is_waitable_call(v):
            info.is_sim_process = True
            break
        if isinstance(v, ast.Name) and v.id in info.waitable_names:
            info.is_sim_process = True
            break
    return info

