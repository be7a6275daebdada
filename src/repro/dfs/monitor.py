"""Heartbeat-driven liveness monitoring (HDFS-style, Shvachko 2010).

Every storage node runs a small *datanode agent* process that sends a
fire-and-forget heartbeat RPC to the metadata node over the simulated
network — heartbeats share the wire, switch, and the metadata node's
RPC queue with everything else, so a congested control plane really
does detect failures later.  The metadata node sweeps the last-seen
table once per interval and declares a node dead after
``miss_threshold`` consecutive missed beats; the verdict feeds
:meth:`~repro.dfs.metadata.MetadataService.mark_dead` (placement stops
targeting the node), the management service's failure list, and any
registered ``on_death`` callbacks (the re-replicator subscribes here).

Everything is deterministic: beats are staggered by node index, the
sweep scans nodes in registration order, and no wall-clock or unseeded
randomness is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .cluster import Testbed
from .control_rpc import MetadataNode, install_control_plane
from .nodes import RpcCall, StorageNode

__all__ = ["HEARTBEAT_RPC", "MonitorConfig", "HeartbeatMonitor", "install_monitor"]

#: RPC name datanode agents send to the metadata node
HEARTBEAT_RPC = "md_heartbeat"

#: CPU cost of processing one heartbeat on the metadata node
HEARTBEAT_HANDLE_NS = 120.0


@dataclass(frozen=True)
class MonitorConfig:
    """Liveness parameters (HDFS: 3 s beat, 10 min limit — scaled to
    simulator time where RPCs take microseconds, not milliseconds)."""

    #: heartbeat period per datanode
    interval_ns: float = 50_000.0
    #: consecutive missed beats before a node is declared dead
    miss_threshold: int = 3
    #: per-node start offset (node index × stagger) so 64 agents do not
    #: issue in lock-step
    stagger_ns: float = 1_000.0


class HeartbeatMonitor:
    """Datanode heartbeat agents + the metadata node's failure detector."""

    def __init__(
        self,
        testbed: Testbed,
        mds: Optional[MetadataNode] = None,
        config: Optional[MonitorConfig] = None,
    ):
        self.testbed = testbed
        self.config = config or MonitorConfig()
        self.mds = mds if mds is not None else install_control_plane(testbed)
        self.mds.register_rpc(HEARTBEAT_RPC, _heartbeat_rpc)
        self.mds.monitor = self  # type: ignore[attr-defined]
        #: last heartbeat arrival per node (nodes start trusted: a node
        #: only becomes suspect after it actually misses beats)
        self.last_seen: Dict[str, float] = {
            n: self.mds.sim.now for n in testbed.storage
        }
        #: declared-dead nodes -> detection time
        self.dead: Dict[str, float] = {}
        #: death declarations in detection order: (node, t_detect)
        self.deaths: List[tuple] = []
        self.beats_received = 0
        #: callbacks fired on each death declaration: f(node_name)
        self.on_death: List[Callable[[str], None]] = []
        for i, node in enumerate(testbed.storage.values()):
            node.sim.process(
                self._beat(node, i * self.config.stagger_ns),
                name=f"{node.name}.heartbeat",
            )
        self.mds.sim.process(self._sweep(), name=f"{self.mds.name}.livesweep")

    # ------------------------------------------------------------ agents
    def _beat(self, node: StorageNode, offset_ns: float):
        """Datanode agent: one fire-and-forget heartbeat per interval.

        A crashed node (``node.failed``) stops beating — exactly the
        signal the detector is built to notice."""
        if offset_ns > 0.0:
            yield node.sim.timeout(offset_ns)
        while not node.failed:
            node.nic.send_control(
                self.mds.name, "rpc", {"rpc": HEARTBEAT_RPC, "node": node.name}
            )
            yield node.sim.timeout(self.config.interval_ns)

    def note_beat(self, node: str) -> None:
        """Record a heartbeat arrival (called by the RPC handler)."""
        if node in self.dead:
            # no zombie resurrection: re-admission would need an
            # explicit operator action (out of scope here)
            return
        if node in self.last_seen:
            self.last_seen[node] = self.mds.sim.now
            self.beats_received += 1

    # ---------------------------------------------------------- detector
    def _sweep(self):
        cfg = self.config
        deadline = cfg.miss_threshold * cfg.interval_ns
        while True:
            yield self.mds.sim.timeout(cfg.interval_ns)
            now = self.mds.sim.now
            for name in self.testbed.storage:  # registration order
                if name in self.dead:
                    continue
                if now - self.last_seen[name] > deadline:
                    self.declare_dead(name)

    def declare_dead(self, node: str) -> None:
        """Record the verdict and fan it out to placement, management,
        and the death subscribers (re-replicator)."""
        if node in self.dead:
            return
        now = self.mds.sim.now
        self.dead[node] = now
        self.deaths.append((node, now))
        self.testbed.metadata.mark_dead(node)
        self.testbed.mgmt.report_failed(node)
        for cb in self.on_death:
            cb(node)

    def is_dead(self, node: str) -> bool:
        return node in self.dead


def _heartbeat_rpc(call: RpcCall) -> None:
    call.cpu(HEARTBEAT_HANDLE_NS, _heartbeat_noted)


def _heartbeat_noted(call: RpcCall) -> None:
    call.node.monitor.note_beat(call.headers["node"])  # type: ignore[attr-defined]


def install_monitor(
    testbed: Testbed,
    mds: Optional[MetadataNode] = None,
    config: Optional[MonitorConfig] = None,
) -> HeartbeatMonitor:
    """Attach heartbeat agents + failure detector to a testbed."""
    return HeartbeatMonitor(testbed, mds=mds, config=config)
