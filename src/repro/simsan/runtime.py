"""The runtime sanitizer: a per-pop kernel hook + claim tracking.

Attached to a kernel via ``Simulator(sanitize=True)``, which installs
:meth:`Sanitizer._step` as the kernel's per-pop hook.  The kernel's one
dispatch loop keeps the clock, the bounds, the exception contract and
the self-profile counters either way; with the hook installed it hands
each popped entry to ``_step``, which observes it and dispatches it
with push attribution.  When the sanitizer is off the hook is ``None``
and the loop dispatches inline.

Detectors (see :mod:`repro.simsan.findings` for the kind strings):

* **schedule races** — every push is attributed to the dispatch context
  that made it (the coroutine being resumed, the event being fired, or
  "driver" for pushes from outside the loop).  A pop whose fire time
  ties the next heap entry, where the two entries come from *different
  coroutines* that scheduled them at *different* simulated times, is
  order-dependent: the tie-break (insertion order) is the only thing
  keeping the schedule stable, and refactoring either coroutine flips
  it.  Fan-out ties pushed in the same instant (broadcast wake-ups,
  synchronized bursts) share a common cause and are not flagged unless
  ``strict_ties`` is set.
* **clock rewinds** — an entry scheduled behind its own push time, or
  popped behind ``now`` (recorded before the kernel's "time went
  backwards" error propagates).
* **resource leaks** — Resource/Store/Container register themselves at
  construction and record acquisition backtraces per claim; ports, NICs
  and accelerators adopt in with their in-flight state.  At
  :meth:`check_quiesce` anything still held is reported with the
  backtrace of the call site that took it.
* **orphaned completions** — request spans opened in telemetry but not
  closed within ``span_budget_ns`` of simulated time.

The sanitizer only observes: it never creates events, never touches
``_seq``, and therefore never perturbs the schedule — a sanitized run
produces byte-identical schedules/digests to an unsanitized one.
"""

from __future__ import annotations

import hashlib
import traceback
from typing import Any, Optional

from ..simnet.engine import _DISPATCHED, Event, Process, Simulator, Timeout
from .findings import Finding, Report

__all__ = ["Sanitizer"]

_DRIVER = ("driver", None)


def _item_label(item: Any) -> str:
    """Deterministic label for a heap item (no ids, no addresses)."""
    if isinstance(item, Process):
        return f"proc:{item.name}"
    if isinstance(item, Timeout):
        return "timeout"
    if isinstance(item, Event):
        return f"event:{item.name or '?'}"
    owner = getattr(item, "__self__", None)
    qn = getattr(item, "__qualname__", None) or type(item).__name__
    if owner is not None:
        oname = getattr(owner, "name", None)
        if isinstance(oname, str) and oname:
            return f"fn:{qn}@{oname}"
    return f"fn:{qn}"


def _callback_label(cb: Any, fallback: str) -> str:
    """Attribute pushes made by a callback to the coroutine it resumes."""
    owner = getattr(cb, "__self__", None)
    if isinstance(owner, Process):
        return f"proc:{owner.name}"
    return fallback


class Sanitizer:
    """Per-simulator runtime sanitizer (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        window_ns: float = 100_000.0,
        span_budget_ns: float = 5_000_000.0,
        strict_ties: bool = False,
        max_findings: int = 1000,
    ) -> None:
        self.sim = sim
        self.window_ns = window_ns
        self.span_budget_ns = span_budget_ns
        self.strict_ties = strict_ties
        self.max_findings = max_findings
        self.findings: list[Finding] = []
        #: per-window sha256 digests of the heap-pop order:
        #: list of (window_index, hexdigest)
        self.pop_digests: list[tuple[int, str]] = []
        # push attribution: seq -> (origin label, push sim-time)
        self._origins: dict[int, tuple[str, Optional[float]]] = {}
        # claim backtraces: (kind, key) -> (label, t_acquired, backtrace)
        self._claims: dict[tuple[str, Any], tuple[str, float, str]] = {}
        # FIFO grant ledgers for Containers (puts are unkeyed):
        # id(container) -> list of [amount, t, backtrace]
        self._cont_grants: dict[int, list[list[Any]]] = {}
        # components swept at quiesce: (kind, obj)
        self._adopted: list[tuple[str, Any]] = []
        # origin labels whose same-time coincidence is *designed* (pacing
        # pipelines replaying shared precomputed timestamp arrays)
        self._coincident: set[str] = set()
        self._cur_window = -1
        self._h = hashlib.sha256()
        self._win_pops = 0
        # detector statistics (cheap counters, exposed via report())
        self.pops = 0
        self.ties_seen = 0
        self.ties_cross_origin = 0

    # ------------------------------------------------------------ findings
    def _find(self, kind: str, message: str, where: str = "") -> None:
        if len(self.findings) < self.max_findings:
            self.findings.append(Finding(kind, self.sim.now, message, where))

    def report(self) -> Report:
        self._flush_window()
        return Report(
            findings=list(self.findings),
            stats={
                "pops": self.pops,
                "ties_seen": self.ties_seen,
                "ties_cross_origin": self.ties_cross_origin,
                "windows": len(self.pop_digests),
                "claims_open": len(self._claims),
            },
        )

    # ----------------------------------------------------- claim tracking
    @staticmethod
    def _backtrace(skip: int = 3, depth: int = 6) -> str:
        # skip the sanitizer + hook frames; keep the acquiring call chain
        frames = traceback.extract_stack()[:-skip][-depth:]
        return "\n".join(
            f"{f.filename}:{f.lineno} in {f.name}" for f in frames
        )

    def claim(self, kind: str, key: Any, label: str) -> None:
        """Record an acquisition (backtrace included) under (kind, key)."""
        self._claims[(kind, key)] = (label, self.sim.now, self._backtrace())

    def retire(self, kind: str, key: Any) -> None:
        self._claims.pop((kind, key), None)

    def claim_info(self, kind: str, key: Any) -> tuple[str, float, str]:
        return self._claims.get((kind, key), ("?", -1.0, ""))

    def adopt(self, kind: str, obj: Any) -> None:
        """Register a component whose in-flight state is swept at quiesce."""
        self._adopted.append((kind, obj))

    def declare_coincident(self, *labels: str) -> None:
        """Exempt origin labels from the tie detector.

        For machinery that *derives* its timestamps from one shared
        precomputed array (packet-train replay, paced handler commits):
        same-instant events from these origins coincide by construction,
        and their relative order is pinned by the differential tests, so
        a tie is not insertion-order luck.  Declare at the site that
        engineers the coincidence."""
        self._coincident.update(labels)

    # Container puts carry no key, so grants retire FIFO per container —
    # the report is approximate attribution, exact accounting.
    def container_grant(self, cont: Any, amount: float) -> None:
        self._cont_grants.setdefault(id(cont), []).append(
            [amount, self.sim.now, self._backtrace()]
        )

    def container_put(self, cont: Any, amount: float) -> None:
        grants = self._cont_grants.get(id(cont))
        if not grants:
            return
        left = amount
        while grants and left > 0:
            if grants[0][0] <= left + 1e-9:
                left -= grants[0][0]
                grants.pop(0)
            else:
                grants[0][0] -= left
                left = 0.0

    # ------------------------------------------------------ per-pop hook
    def _pushed_into_past(self, t: float, origin: tuple, item: Any) -> None:
        olabel, opush_t = origin
        if opush_t is not None and t < opush_t - 1e-9:
            self._find(
                "clock-rewind",
                f"entry {_item_label(item)} fires at t={t} but was pushed "
                f"by {olabel} at now={opush_t} (scheduled into the past)",
            )

    def record_rewind(self, entry: tuple) -> None:
        """Called by the kernel, before it raises "time went backwards",
        for an entry popped behind the clock."""
        t, item = entry[0], entry[2]
        self._pushed_into_past(t, self._origins.pop(entry[1], _DRIVER), item)
        self._find(
            "clock-rewind",
            f"pop {_item_label(item)} at t={t} behind clock now={self.sim.now}",
        )

    def _step(self, entry: tuple) -> None:
        """Observe and dispatch one popped entry.  The kernel has already
        advanced the clock, counted the dispatch and updated the heap
        high-water mark."""
        sim = self.sim
        heap = sim._heap
        t = entry[0]
        item = entry[2]
        origin = self._origins.pop(entry[1], _DRIVER)
        olabel, opush_t = origin
        self.pops += 1

        # -- schedule-race detector -----------------------------------
        self._pushed_into_past(t, origin, item)
        if heap and heap[0][0] == t:
            self.ties_seen += 1
            nxt = self._origins.get(heap[0][1], _DRIVER)
            if nxt[0] != olabel:
                self.ties_cross_origin += 1
                both_procs = olabel.startswith("proc:") and nxt[0].startswith("proc:")
                # order-dependent = two coroutines *each scheduled ahead
                # of time* (a zero-delay push made at the fire instant is
                # causally ordered after everything already queued there)
                # at different instants, landing on the same fire time.
                independent = (
                    opush_t is not None and opush_t < t - 1e-12
                    and nxt[1] is not None and nxt[1] < t - 1e-12
                    and opush_t != nxt[1]
                    and olabel not in self._coincident
                    and nxt[0] not in self._coincident
                )
                if (both_procs and independent) or self.strict_ties:
                    self._find(
                        "schedule-race",
                        f"pop order at t={t} decided by insertion order: "
                        f"{olabel} (pushed at {opush_t}) vs {nxt[0]} "
                        f"(pushed at {nxt[1]}) scheduled the same fire time "
                        f"independently",
                    )

        # -- per-window pop-order digest ------------------------------
        w = int(t // self.window_ns)
        if w != self._cur_window:
            self._flush_window()
            self._cur_window = w
        self._h.update(f"{t!r}|{olabel}|{_item_label(item)};".encode())
        self._win_pops += 1

        # -- dispatch, attributing each callback's pushes -------------
        dlabel = _item_label(item)
        if isinstance(item, Event):
            callbacks = item.callbacks
            item.callbacks = _DISPATCHED
            if callbacks:
                for cb in callbacks:
                    s0 = sim._seq
                    cb(item)
                    s1 = sim._seq
                    if s1 != s0:
                        org = (_callback_label(cb, dlabel), sim.now)
                        for s in range(s0 + 1, s1 + 1):
                            self._origins[s] = org
            elif item._exc is not None:
                if not isinstance(item, Process) or not item._observed:
                    raise item._exc
        else:
            s0 = sim._seq
            if len(entry) == 3:
                item()
            else:
                item(entry[3])
            s1 = sim._seq
            if s1 != s0:
                org = (_callback_label(item, dlabel), sim.now)
                for s in range(s0 + 1, s1 + 1):
                    self._origins[s] = org

    def _flush_window(self) -> None:
        if self._win_pops:
            self.pop_digests.append((self._cur_window, self._h.hexdigest()))
            self._h = hashlib.sha256()
            self._win_pops = 0

    # --------------------------------------------------------- quiesce
    def check_quiesce(self) -> list[Finding]:
        """Sweep adopted components for anything still held; also runs the
        orphaned-span scan.  Returns the findings this sweep added."""
        before = len(self.findings)
        for kind, obj in self._adopted:
            sweep = getattr(self, f"_sweep_{kind}", None)
            if sweep is not None:
                sweep(obj)
        self.check_orphans()
        return self.findings[before:]

    def check_orphans(self) -> None:
        """Flag request spans opened but never closed within budget."""
        tele = self.sim.telemetry
        if tele is None:
            return
        for span in tele.spans:
            if span.t1 is None and span.cat == "request":
                if self.sim.now - span.t0 > self.span_budget_ns:
                    self._find(
                        "orphan-span",
                        f"request span {span.name!r} opened at t={span.t0} "
                        f"never closed (budget {self.span_budget_ns}ns, "
                        f"now={self.sim.now})",
                    )

    # individual sweeps (dispatched by adopt() kind)
    def _sweep_resource(self, res: Any) -> None:
        for req in res.users:
            label, t, bt = self.claim_info("resource-slot", id(req))
            self._find(
                "leak-resource",
                f"slot on {res.name!r} still held at quiesce "
                f"(acquired t={t})",
                bt,
            )
        for req in res.queue:
            label, t, bt = self.claim_info("resource-wait", id(req))
            self._find(
                "leak-resource",
                f"waiter on {res.name!r} still queued at quiesce "
                f"(queued t={t})",
                bt,
            )

    def _sweep_store(self, store: Any) -> None:
        # blocked getters are the steady state of a quiesced service (an
        # RPC server or egress pump parked on an empty work queue), so
        # only producers that could never hand their item off are leaks
        for ev, _item in store._putters:
            label, t, bt = self.claim_info("store-wait", id(ev))
            self._find(
                "leak-store",
                f"putter on {store.name!r} still blocked at quiesce "
                f"(queued t={t})",
                bt,
            )

    def _sweep_container(self, cont: Any) -> None:
        outstanding = cont.capacity - cont.level
        if outstanding > 1e-9 and not getattr(cont, "sanitize_arena", False):
            grants = self._cont_grants.get(id(cont), [])
            holders = "\n".join(
                f"{amt} unit(s) taken at t={t}:\n{bt}" for amt, t, bt in grants[:5]
            )
            self._find(
                "leak-container",
                f"{outstanding} unit(s) of {cont.name!r} never returned "
                f"at quiesce (level {cont.level}/{cont.capacity})",
                holders,
            )
        for ev, amount in cont._getters:
            label, t, bt = self.claim_info("container-wait", id(ev))
            self._find(
                "leak-container",
                f"getter for {amount} unit(s) of {cont.name!r} still "
                f"blocked at quiesce (queued t={t})",
                bt,
            )

    def _sweep_port(self, port: Any) -> None:
        train = port._train
        if train is not None:
            self._find(
                "leak-packet-train",
                f"port {port.owner_name!r} still has a coalesced "
                f"train of {len(getattr(train, 'pkts', []))} packet(s) in "
                f"flight at quiesce",
            )

    def _sweep_nic(self, nic: Any) -> None:
        for gid in sorted(nic._pending):
            label, t, bt = self.claim_info("greq", (nic.name, gid))
            self._find(
                "leak-greq",
                f"greq {gid} ({label}) on {nic.name!r} still pending at "
                f"quiesce (posted t={t})",
                bt,
            )

    def _sweep_accel(self, accel: Any) -> None:
        inflight = accel.in_flight_messages
        if inflight:
            self._find(
                "leak-accel",
                f"accelerator on {accel.node_name!r} still has "
                f"{inflight} message(s) in flight at quiesce",
            )
        if accel._train is not None:
            self._find(
                "leak-packet-train",
                f"accelerator on {accel.node_name!r} still has a "
                f"paced ingest train at quiesce",
            )
