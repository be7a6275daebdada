"""Finding/report types for the runtime sanitizer.

A :class:`Finding` is one detected violation — a leaked resource claim,
a schedule-order hazard, an orphaned request span.  Findings carry the
simulated time of detection and, for acquisition-tracked kinds, the
Python backtrace of the acquiring call site, so a leak report points at
the code that took the claim rather than at the quiesce sweep that
noticed it.

Kinds are stable strings (tests and CI match on them):

=====================  =====================================================
``schedule-race``      pop order vs a same-fire-time entry from a different
                       coroutine was decided by insertion order alone
``clock-rewind``       an entry was scheduled (or popped) behind the clock
``leak-resource``      Resource slot still held / waiter still queued at
                       quiesce
``leak-store``         handler egress putter (a PsPIN handler blocked on
                       the accelerator's full egress queue) still blocked
                       at quiesce
``leak-container``     Container units never returned at quiesce
``leak-greq``          an RDMA logical request still pending at quiesce
``leak-accel``         accelerator messages still in flight at quiesce
``leak-deferred``      a deferred entry (a posted DMA write, a deferred
                       switch hop) still pending at quiesce
``orphan-span``        request span opened but not closed within budget
=====================  =====================================================
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

__all__ = ["Finding", "Report"]


@dataclasses.dataclass
class Finding:
    """One sanitizer violation."""

    kind: str
    t: float  # simulated time (ns) at detection
    message: str
    where: str = ""  # acquisition backtrace / origin labels, if tracked

    def format(self) -> str:
        lines = [f"[{self.kind}] t={self.t:.1f}ns {self.message}"]
        if self.where:
            lines += ["    " + ln for ln in self.where.splitlines()]
        return "\n".join(lines)


@dataclasses.dataclass
class Report:
    """All findings of one sanitized run plus detector statistics."""

    findings: list[Finding] = dataclasses.field(default_factory=list)
    stats: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def kinds(self) -> set[str]:
        return {f.kind for f in self.findings}

    def summary(self, max_findings: Optional[int] = 20) -> str:
        if self.ok:
            extra = ", ".join(
                f"{k}={v}" for k, v in sorted(self.stats.items())
                if isinstance(v, (int, float))
            )
            return f"simsan clean: 0 findings ({extra})" if extra else "simsan clean: 0 findings"
        shown = self.findings if max_findings is None else self.findings[:max_findings]
        lines = [
            f"simsan: {len(self.findings)} finding(s) "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.counts().items()))})"
        ]
        lines += [f.format() for f in shown]
        if len(self.findings) > len(shown):
            lines.append(f"... and {len(self.findings) - len(shown)} more")
        return "\n".join(lines)
