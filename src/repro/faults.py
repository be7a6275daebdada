"""Deterministic, seedable fault injection for the simulated fabric.

The paper's NACK-and-retry machinery (§III-B2) and cleanup handlers
(§VII) exist because real fabrics lose packets and real clients die.
This module supplies the missing adversary: per-link packet loss and
corruption probabilities plus scheduled link-down / node-down windows,
all driven by **named per-link random streams** so a run is reproducible
from a single integer seed regardless of how many links exist or in
which order they were created.

Wiring (all optional — a default :class:`SimParams` injects nothing):

* :class:`~repro.simnet.link.Port` consults ``sim.faults`` after
  serializing each packet and before scheduling delivery — the natural
  place for *wire* faults; an intact packet then takes the peer's fused
  ``arrive`` entry, a corrupted one its ``receive``;
* :class:`~repro.rdma.nic.RdmaNic` consults it for node-down windows at
  the arrival instant, in ``receive`` and in the fused dispatch
  (``_dispatch_arrived``), and ``receive`` drops corrupted packets (the
  CRC check of a real NIC);
* the client-side reliability layer in :mod:`repro.rdma.nic` (per-op
  retransmission timers with capped exponential backoff) is enabled by
  ``FaultParams.retransmit`` and is what lets every write protocol
  complete under loss instead of deadlocking in ``run_until_event``.

Determinism contract: one uniform draw per (link, packet) in delivery
order, from ``random.Random(f"{seed}:{link_name}")``.  String seeding
hashes via SHA-512 (stable across processes and Python versions), so two
runs with the same seed produce identical drop decisions and therefore
identical traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .simnet.engine import Simulator
    from .simnet.packet import Packet

__all__ = ["DownWindow", "FaultParams", "FaultInjector", "check_probability",
           "install_faults"]


def check_probability(name: str, p: float) -> None:
    """Reject a fault probability outside ``[0, 1]``, naming the field.
    1.0 is legal: total loss is how a link that never delivers is
    modelled (the give-up path of the reliability layer)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p!r}")


@dataclass(frozen=True)
class DownWindow:
    """A scheduled outage of a link or node during ``[t0_ns, t1_ns)``.

    ``target`` is matched as a substring against the link owner name
    (links are named ``"<src>-><dst>"``, e.g. ``"switch->sn0"`` for the
    switch egress towards storage node 0) or against the node name.
    """

    target: str
    t0_ns: float
    t1_ns: float

    def covers(self, name: str, now_ns: float) -> bool:
        return self.target in name and self.t0_ns <= now_ns < self.t1_ns


@dataclass(frozen=True)
class FaultParams:
    """Knobs for the fault injector and the NIC reliability layer."""

    #: master seed for every per-link random stream
    seed: int = 0
    #: per-packet, per-link probability the packet vanishes on the wire
    loss_prob: float = 0.0
    #: per-packet, per-link probability the packet arrives corrupted
    #: (dropped by the receiving NIC's CRC check — a *receiver-visible*
    #: loss, unlike ``loss_prob``)
    corrupt_prob: float = 0.0
    #: scheduled link outages (matched against link owner names)
    link_down: Tuple[DownWindow, ...] = ()
    #: scheduled node outages (matched against endpoint names)
    node_down: Tuple[DownWindow, ...] = ()
    #: enable the initiator-side retransmission layer in RdmaNic
    retransmit: bool = False
    #: initial per-op retransmission timeout
    rto_ns: float = 100_000.0
    #: multiplicative backoff applied after every retransmission
    rto_backoff: float = 2.0
    #: cap for the backed-off RTO
    rto_max_ns: float = 1_600_000.0
    #: retransmission budget before the op fails with a "timeout" nack
    max_retransmits: int = 8

    def __post_init__(self) -> None:
        check_probability("loss_prob", self.loss_prob)
        check_probability("corrupt_prob", self.corrupt_prob)

    @property
    def active(self) -> bool:
        """True when any wire/endpoint fault can actually occur."""
        return (
            self.loss_prob > 0.0
            or self.corrupt_prob > 0.0
            or bool(self.link_down)
            or bool(self.node_down)
        )


class FaultInjector:
    """Per-simulation fault oracle, installed as ``sim.faults``."""

    def __init__(self, sim: "Simulator", params: FaultParams):
        self.sim = sim
        self.params = params
        self._rngs: Dict[str, random.Random] = {}
        # counters (mirrored into the telemetry registry when enabled)
        self.drops = 0
        self.corrupted = 0
        self.node_drops = 0
        self.drops_by_link: Dict[str, int] = {}

    # ------------------------------------------------------------ streams
    def _rng(self, link_name: str) -> random.Random:
        rng = self._rngs.get(link_name)
        if rng is None:
            # one named stream per link: decisions on one link do not
            # perturb another link's stream, so traces stay reproducible
            # under topology or scheduling changes elsewhere
            rng = self._rngs[link_name] = random.Random(
                f"{self.params.seed}:{link_name}"
            )
        return rng

    # ------------------------------------------------------------ verdicts
    def egress_verdict(self, link_name: str, pkt: "Packet") -> Optional[str]:
        """Fate of ``pkt`` leaving ``link_name`` now: ``"drop"``,
        ``"corrupt"``, or ``None`` (deliver intact)."""
        now = self.sim.now
        for w in self.params.link_down:
            if w.covers(link_name, now):
                self._count_drop(link_name)
                return "drop"
        p_loss = self.params.loss_prob
        p_corr = self.params.corrupt_prob
        if p_loss <= 0.0 and p_corr <= 0.0:
            return None
        u = self._rng(link_name).random()
        if u < p_loss:
            self._count_drop(link_name)
            return "drop"
        if u < p_loss + p_corr:
            self.corrupted += 1
            tel = self.sim.telemetry
            if tel.enabled:
                tel.metrics.counter("faults.corrupted").inc()
            return "corrupt"
        return None

    def node_is_down(self, name: str, now_ns: Optional[float] = None) -> bool:
        now = self.sim.now if now_ns is None else now_ns
        return any(w.covers(name, now) for w in self.params.node_down)

    def count_node_drop(self, name: str) -> None:
        self.node_drops += 1
        tel = self.sim.telemetry
        if tel.enabled:
            tel.metrics.counter("faults.node_drops").inc()
            tel.metrics.counter(f"faults.node_drops.{name}").inc()

    # ------------------------------------------------------------ internals
    def _count_drop(self, link_name: str) -> None:
        self.drops += 1
        self.drops_by_link[link_name] = self.drops_by_link.get(link_name, 0) + 1
        tel = self.sim.telemetry
        if tel.enabled:
            tel.metrics.counter("faults.drops").inc()
            tel.metrics.counter(f"faults.drops.{link_name}").inc()


def install_faults(sim: "Simulator", params: Optional[FaultParams]) -> Optional[FaultInjector]:
    """Attach a :class:`FaultInjector` to ``sim`` (as ``sim.faults``)
    when ``params`` can actually inject something; otherwise leave the
    zero-overhead default (``sim.faults is None``)."""
    if params is None or not params.active:
        sim.faults = None
        return None
    injector = FaultInjector(sim, params)
    sim.faults = injector
    return injector
