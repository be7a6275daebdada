"""Re-replication engine: restore redundancy after node deaths.

When the heartbeat monitor (:mod:`repro.dfs.monitor`) declares a
storage node dead, the re-replicator walks the namespace in creation
order and enqueues one repair task per lost extent.  A bounded pool of
worker processes (``max_inflight``) drains the queue — so recovery
traffic competes with foreground load at a controlled intensity instead
of an unthrottled storm (the HDFS ``replication streams`` knob).

Repairs are *real* data-plane traffic, commanded over the control
plane, so the replicator needs the monitor: it takes the death events
from it, and the monitor's metadata node posts one ``md_repair`` RPC
per lost extent to a surviving replica's node.  That node's handler
reads the replica over local PCIe and posts a DFS write (service
capability shipped in the RPC headers, same validation path as client
writes) to a policy-picked replacement node.
Recovery therefore shares wire, switch, and target resources with the
foreground workload and shows up honestly in its tail latency.
Erasure-coded objects delegate to the timed rebuild
coordinator (:func:`repro.protocols.recovery.rebuild_object`).

Every step is deterministic: tasks are enqueued in namespace order,
workers drain FIFO, and the repair schedule (a list of
:class:`RepairRecord`) is byte-identical across runs at a fixed seed —
the recovery-storm experiment digests it to prove that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.request import DfsHeader, WriteRequestHeader, request_header_bytes
from ..rdma.nic import fresh_greq_id
from ..simnet.resources import Store
from .capability import Rights
from .cluster import Testbed
from .layout import FileLayout
from .metadata import MetadataError
from .monitor import HeartbeatMonitor
from .nodes import RpcCall

__all__ = ["REPAIR_RPC", "ReplicatorConfig", "RepairTask", "RepairRecord",
           "ReReplicator"]

#: RPC the metadata node sends to a surviving replica's node to command
#: one extent repair (handler: read replica -> DMA -> DFS write to dst)
REPAIR_RPC = "md_repair"


@dataclass(frozen=True)
class ReplicatorConfig:
    """Recovery intensity knobs."""

    #: concurrent repair operations (bounds recovery's share of the
    #: network; HDFS calls this the replication-stream limit)
    max_inflight: int = 4


@dataclass(frozen=True)
class RepairTask:
    """One lost extent (or one EC object rebuild) to repair."""

    path: str
    #: index into extents + parity_extents; -1 for a whole-object EC rebuild
    slot: int
    #: the dead node the extent lived on ("" for EC rebuilds)
    node: str
    kind: str  # "copy" | "ec"
    t_queued: float


@dataclass(frozen=True)
class RepairRecord:
    """One completed repair (the deterministic schedule entry)."""

    path: str
    slot: int
    src: str
    dst: str
    nbytes: int
    t_queued: float
    t_start: float
    t_done: float


def _repair_rpc(call: RpcCall) -> None:
    """``md_repair`` handler, running on the surviving replica's node:
    read the replica over local PCIe, push it to the replacement as a
    real DFS write (capability shipped in the command), report back."""
    node = call.node
    headers = call.headers
    call.state = node.memory.read(headers["src_addr"], headers["src_len"])
    call.wait(node.pcie.dma(headers["src_len"]), _repair_read)


def _repair_read(call: RpcCall, _) -> None:
    node = call.node
    headers = call.headers
    greq = fresh_greq_id()
    dfs = DfsHeader(
        greq_id=greq, op="write", client_id=0,
        capability=headers["cap"], reply_to=node.name,
    )
    wrh = WriteRequestHeader(addr=headers["dst_addr"])
    call.wait(node.nic.post_write(
        headers["dst"],
        call.state,
        headers={"dfs": dfs, "wrh": wrh, "write_len": headers["dst_len"]},
        header_bytes=request_header_bytes(dfs, wrh),
        greq_id=greq,
    ), _repair_written)


def _repair_written(call: RpcCall, res) -> None:
    ok = bool(getattr(res, "ok", False))
    call.node.respond(
        call.src,
        call.headers["greq_id"],
        {"ok": ok, "nacks": getattr(res, "nacks", None)},
        error=not ok,
    )


class ReReplicator:
    """Bounded-concurrency repair worker pool fed by death events."""

    def __init__(
        self,
        testbed: Testbed,
        config: Optional[ReplicatorConfig] = None,
        *,
        monitor: HeartbeatMonitor,
    ):
        self.testbed = testbed
        self.config = config or ReplicatorConfig()
        self._queue: Store = Store(testbed.sim, name="replicator.q")
        self.schedule: List[RepairRecord] = []
        self.failed_repairs: List[tuple] = []
        self.extents_repaired = 0
        self.bytes_repaired = 0
        self.last_done_t = 0.0
        self.outstanding = 0
        self.peak_inflight = 0
        #: the control-plane node commanding repairs
        self.commander = monitor.mds
        for node in testbed.storage.values():
            node.register_rpc(REPAIR_RPC, _repair_rpc)
        for w in range(self.config.max_inflight):
            testbed.sim.process(self._worker(), name=f"replicator.w{w}")
        monitor.on_death.append(self.on_node_death)

    # ----------------------------------------------------------- intake
    def on_node_death(self, node: str) -> None:
        """Scan the namespace and enqueue a task per lost extent."""
        md = self.testbed.metadata
        now = self.testbed.sim.now
        for path, layout in md.objects():
            if not isinstance(layout, FileLayout):
                continue
            all_ext = list(layout.extents) + list(layout.parity_extents)
            if layout.resiliency == "ec":
                # one rebuild covers every chunk the object lost
                if any(e.node == node for e in all_ext):
                    self._queue.put(
                        RepairTask(path=path, slot=-1, node="", kind="ec",
                                   t_queued=now)
                    )
                continue
            for slot, ext in enumerate(all_ext):
                if ext.node == node:
                    self._queue.put(
                        RepairTask(path=path, slot=slot, node=node,
                                   kind="copy", t_queued=now)
                    )

    def pending(self) -> int:
        """Tasks queued or in flight (0 == recovery quiesced)."""
        return len(self._queue.items) + self.outstanding

    # ---------------------------------------------------------- workers
    def _worker(self):
        while True:
            task = yield self._queue.get()
            self.outstanding += 1
            self.peak_inflight = max(self.peak_inflight, self.outstanding)
            try:
                yield from self._repair(task)
            finally:
                self.outstanding -= 1

    def _repair(self, task: RepairTask):
        md = self.testbed.metadata
        if not md.exists(task.path):
            return  # deleted while queued
        layout = md.lookup(task.path)
        if not isinstance(layout, FileLayout):
            return
        if task.kind == "ec":
            yield from self._repair_ec(task, layout)
            return
        all_ext = list(layout.extents) + list(layout.parity_extents)
        if task.slot >= len(all_ext):
            return
        ext = all_ext[task.slot]
        # re-validate: an earlier repair (or a client rewrite) may have
        # already moved this slot off the dead node
        if ext.node != task.node or md.is_alive(ext.node):
            return
        src_ext = next(
            (
                e
                for i, e in enumerate(all_ext)
                if i != task.slot and md.is_alive(e.node)
            ),
            None,
        )
        if src_ext is None:
            self.failed_repairs.append((task.path, task.slot, "no live replica"))
            return
        exclude = [e.node for e in all_ext]
        try:
            new_ext = md.allocate_auto(ext.length, exclude=exclude)
        except MetadataError as e:
            self.failed_repairs.append((task.path, task.slot, str(e)))
            return
        t_start = self.testbed.sim.now
        service_cap = self.testbed.authority.issue(
            client_id=0,
            object_id=layout.object_id,
            addr=0,
            length=self.testbed.params.storage_capacity_bytes,
            rights=Rights.WRITE,
        )
        # command the surviving replica's node over the control
        # plane; its handler moves the bytes
        res = yield self.commander.nic.post_rpc(
            src_ext.node,
            {
                "rpc": REPAIR_RPC,
                "src_addr": src_ext.addr,
                "src_len": src_ext.length,
                "dst": new_ext.node,
                "dst_addr": new_ext.addr,
                "dst_len": new_ext.length,
                "object_id": layout.object_id,
                "cap": service_cap,
            },
            header_bytes=64,
        )
        reply = getattr(res, "data", None) or {}
        if not (getattr(res, "ok", False) and reply.get("ok", False)):
            md.free_extent(new_ext)
            self.failed_repairs.append(
                (task.path, task.slot,
                 f"write rejected: {reply.get('nacks')}")
            )
            return
        # commit: swap the slot in the *fresh* layout (other slots may
        # have been repaired concurrently); update_layout frees the
        # dead extent
        fresh = md.lookup(task.path)
        if not isinstance(fresh, FileLayout):
            md.free_extent(new_ext)
            return
        data_exts = list(fresh.extents)
        parity_exts = list(fresh.parity_extents)
        combined = data_exts + parity_exts
        if task.slot >= len(combined) or combined[task.slot] != ext:
            md.free_extent(new_ext)  # someone else repaired it first
            return
        if task.slot < len(data_exts):
            data_exts[task.slot] = new_ext
        else:
            parity_exts[task.slot - len(data_exts)] = new_ext
        md.update_layout(
            task.path,
            FileLayout(
                object_id=fresh.object_id,
                size=fresh.size,
                extents=tuple(data_exts),
                resiliency=fresh.resiliency,
                replication=fresh.replication,
                ec=fresh.ec,
                parity_extents=tuple(parity_exts),
            ),
        )
        now = self.testbed.sim.now
        self.schedule.append(
            RepairRecord(
                path=task.path,
                slot=task.slot,
                src=src_ext.node,
                dst=new_ext.node,
                nbytes=new_ext.length,
                t_queued=task.t_queued,
                t_start=t_start,
                t_done=now,
            )
        )
        self.extents_repaired += 1
        self.bytes_repaired += new_ext.length
        self.last_done_t = now

    def _repair_ec(self, task: RepairTask, layout: FileLayout):
        md = self.testbed.metadata
        dead = md.dead_nodes()
        all_ext = list(layout.extents) + list(layout.parity_extents)
        lost = [e for e in all_ext if not md.is_alive(e.node)]
        if not lost:
            return  # an earlier rebuild already covered this object
        # imported here: protocols -> dfs would otherwise be a cycle
        from ..ec.reed_solomon import DecodeError
        from ..protocols.recovery import rebuild_object

        t_start = self.testbed.sim.now
        try:
            ev = rebuild_object(self.testbed, task.path, failed=dead)
        except DecodeError as e:
            self.failed_repairs.append((task.path, -1, str(e)))
            return
        report = yield ev
        now = self.testbed.sim.now
        for new_ext in report.rebuilt_extents:
            self.schedule.append(
                RepairRecord(
                    path=task.path,
                    slot=-1,
                    src="ec-rebuild",
                    dst=new_ext.node,
                    nbytes=new_ext.length,
                    t_queued=task.t_queued,
                    t_start=t_start,
                    t_done=now,
                )
            )
            self.extents_repaired += 1
            self.bytes_repaired += new_ext.length
        self.last_done_t = now
