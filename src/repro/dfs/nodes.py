"""Simulated hosts: storage nodes and client nodes.

A :class:`Host` bundles the hardware models (NIC, PCIe, CPU cores,
memory target) and registers itself on the network.  A
:class:`StorageNode` adds the DFS server personality: an RPC command
queue drained by CPU cores (the Fig. 1b architecture) and, optionally, a
PsPIN accelerator with installed DFS execution contexts (Fig. 1d).
Client nodes are plain hosts — their "DFS endpoint" logic lives in
:class:`~repro.dfs.client.DfsClient`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..core.handlers import DfsPolicy, build_dfs_context
from ..core.state import DfsState
from ..hostsim import CoreHold, Cpu, MemoryTarget, Pcie
from ..params import SimParams
from ..pspin.accelerator import PsPinAccelerator
from ..pspin.memory import NicMemory
from ..rdma.nic import RdmaNic
from ..simnet.engine import Event, Simulator
from ..simnet.network import Network
from ..simnet.resources import Store
from .capability import CapabilityAuthority

__all__ = ["Host", "StorageNode", "ClientNode", "RpcCall", "RpcHandler"]


class RpcCall:
    """One served RPC: the state of its handler's callback chain.

    A handler is a plain function ``handler(call)`` that runs the RPC's
    first step; the server starts it one heap entry after paying the
    dispatch cost.  It never blocks: :meth:`cpu` occupies a core and
    :meth:`wait` waits on an event, each naming the function ``then``
    that continues the chain.  Per-RPC scratch state goes in
    ``state``.  ``strand`` (``<node>.rpc.<name>``) names the chain for
    simsan.
    """

    __slots__ = ("node", "headers", "payload", "src", "trace", "strand", "state",
                 "_then")

    def __init__(self, node: "StorageNode", headers: dict, payload: np.ndarray,
                 src: str, strand: str) -> None:
        self.node = node
        self.headers = headers
        self.payload = payload
        self.src = src
        self.trace = headers.get("trace")
        self.strand = strand
        self.state = None
        self._then: Optional[Callable[["RpcCall", object], None]] = None

    def start(self, handler: "RpcHandler") -> None:
        handler(self)

    def cpu(self, duration_ns: float, then: Callable[["RpcCall"], None]) -> None:
        """Occupy one of the node's cores for ``duration_ns`` (charged to
        the request's trace), then call ``then(call)``."""
        CoreHold(self.node.cpu, duration_ns, then, self, self.trace, self.strand)

    def wait(self, ev: Event, then: Callable[["RpcCall", object], None]) -> None:
        """Call ``then(call, value)`` when ``ev`` fires, at the heap
        position a process waiting on ``ev`` would resume; a failed
        ``ev`` raises its exception there."""
        self._then = then
        ev.add_callback(self._resume)

    def _resume(self, ev: Event) -> None:
        if ev._exc is not None:
            raise ev._exc
        self._then(self, ev._value)


#: RPC handler signature: ``handler(call)``, the first step of a callback
#: chain (see :class:`RpcCall`).
RpcHandler = Callable[[RpcCall], None]


class _RpcServer:
    """The node's RPC polling thread as heap callbacks.

    It takes one command off the queue, pays the pickup/dispatch cost
    serially on a core (this is what makes very small pipelining chunks
    expensive), starts the handler's chain one push later and takes the
    next command, so other cores serve concurrently.  ``strand`` is
    ``<node>.rpcsrv``.
    """

    __slots__ = ("node", "strand")

    def __init__(self, node: "StorageNode") -> None:
        self.node = node
        self.strand = f"{node.name}.rpcsrv"
        node.sim._call_soon1(self.take, None)

    def take(self, _) -> None:
        self.node.rpc_queue.get().add_callback(self.picked)

    def picked(self, ev: Event) -> None:
        node = self.node
        item = ev._value
        CoreHold(node.cpu, node.params.host.rpc_dispatch_ns, self.dispatched, item,
                 item[0].get("trace"), self.strand)

    def dispatched(self, item: tuple) -> None:
        node = self.node
        headers, payload, src = item
        name = headers.get("rpc")
        handler = node.rpc_handlers.get(name)
        if handler is None:
            node.respond(src, headers["greq_id"], None, error=True)
        else:
            node.rpcs_served += 1
            call = RpcCall(node, headers, payload, src, f"{node.name}.rpc.{name}")
            node.sim._call_soon1(call.start, handler)
        self.take(None)


class Host:
    """A network endpoint with NIC, PCIe, CPU, and a storage target.

    ``storage_backend`` selects the medium (§III): ``"nvmm"`` — a flat
    byte-addressable memory target (in-memory/NVMM DFS); ``"nvme"`` — an
    NVMe JBOF model where durability waits for flash program latency.
    """

    def __init__(self, sim: Simulator, net: Network, name: str, params: SimParams,
                 storage_backend: str = "nvmm"):
        self.sim = sim
        self.name = name
        self.params = params
        if storage_backend == "nvme":
            from ..hostsim.nvme import NvmeTarget

            self.memory = NvmeTarget(sim, params.storage_capacity_bytes, name=f"{name}.nvme")
        elif storage_backend == "nvmm":
            self.memory = MemoryTarget(params.storage_capacity_bytes)
        else:
            raise ValueError(f"unknown storage backend {storage_backend!r}")
        self.storage_backend = storage_backend
        self.pcie = Pcie(sim, params.host, name=f"{name}.pcie")
        self.cpu = Cpu(sim, params.host, name=f"{name}.cpu")
        self.nic = RdmaNic(sim, params, host=self, name=name)
        port = net.register(self.nic)
        self.nic.attach_port(port)
        self.failed = False

    # NIC delegates unknown-op RPC delivery here; plain hosts ignore it.
    def on_rpc(self, headers: dict, payload: np.ndarray, src: str) -> None:
        raise NotImplementedError(f"{self.name} does not serve RPCs")

    def fail(self) -> None:
        """Crash the node: it stops reacting to traffic (§VII)."""
        self.failed = True
        self.nic.crash()

    def host_exec(self, duration_ns: float) -> Event:
        """Run ``duration_ns`` of work on a CPU core; returns a Process
        event (used by the accelerator's CPU-fallback path)."""
        return self.sim.process(self.cpu.run(duration_ns), name=f"{self.name}.hostexec")


class StorageNode(Host):
    """A storage server (Fig. 1b-d depending on configuration)."""

    def __init__(self, sim: Simulator, net: Network, name: str, params: SimParams,
                 storage_backend: str = "nvmm"):
        super().__init__(sim, net, name, params, storage_backend=storage_backend)
        self.rpc_queue: Store = Store(sim, name=f"{name}.rpcq")
        self.rpc_handlers: Dict[str, RpcHandler] = {}
        self.accelerator: Optional[PsPinAccelerator] = None
        self.dfs_state: Optional[DfsState] = None
        self.nicmem: Optional[NicMemory] = None
        self.rpcs_served = 0
        _RpcServer(self)

    # ------------------------------------------------------------- PsPIN
    def install_pspin(
        self,
        policy: DfsPolicy,
        authority: Optional[CapabilityAuthority],
        n_accumulators: int = 0,
        accumulator_bytes: int = 2048,
        match_ops: tuple[str, ...] = ("write",),
        hpu_quota: Optional[int] = None,
    ) -> PsPinAccelerator:
        """Attach a PsPIN accelerator and install a DFS execution
        context built around ``policy`` (§III-C)."""
        accel = PsPinAccelerator(
            self.sim,
            self.params.pspin,
            node_name=self.name,
            send_fn=self.nic.send_raw,
            dma_fn=self._accel_dma,
            host_exec_fn=self.host_exec,
            host_write_fn=self.memory.write,
            host_read_fn=self.memory.read,
        )
        self.nicmem = NicMemory(self.sim, self.params.pspin, name=f"{self.name}.nicmem")
        self.dfs_state = DfsState(
            self.nicmem,
            self.params.pspin,
            authority=authority,
            n_accumulators=n_accumulators,
            accumulator_bytes=accumulator_bytes,
        )
        ctx = build_dfs_context(
            policy.name, policy, self.dfs_state, match_ops=match_ops,
            hpu_quota=hpu_quota,
        )
        accel.install(ctx)
        # NVMM DMA completes with a timeless memory write, so payload
        # handlers post straight to the host channel; NVMe completions
        # run a flash program that reads the clock and go through
        # ``_accel_dma``.
        if self.storage_backend != "nvme":
            accel.dma_channel = self.pcie
            accel.dma_target = self.memory
        self.accelerator = accel
        self.nic.attach_accelerator(accel)
        return accel

    def add_pspin_context(
        self,
        policy: DfsPolicy,
        match_ops: tuple[str, ...],
        hpu_quota: Optional[int] = None,
    ):
        """Install an additional execution context on an already-attached
        accelerator (contexts match disjoint packet classes, §III-C;
        ``hpu_quota`` caps the context's concurrent HPUs, §VII QoS)."""
        if self.accelerator is None or self.dfs_state is None:
            raise RuntimeError(f"{self.name}: no accelerator installed")
        ctx = build_dfs_context(
            policy.name, policy, self.dfs_state, match_ops=match_ops,
            hpu_quota=hpu_quota,
        )
        self.accelerator.install(ctx)
        return ctx

    def _accel_dma(self, addr: Optional[int], payload) -> Event:
        """DMA bridge for the accelerator: PCIe timing (``addr`` None)
        and NVMe payload writes, whose event fires after the flash
        program (handlers "directly issue NVMe writes via the system
        interconnect", §III).  NVMM payload writes post straight to the
        channel (``accel.dma_channel``)."""
        if addr is None:
            return self.pcie.dma(int(payload))
        data = payload
        done = self.sim.event(name=f"{self.name}.nvme-flush")

        def submit():
            cmd = self.memory.submit_write(addr, data)
            cmd.add_callback(
                lambda ev: done.fail(ev.exception)
                if ev.exception is not None
                else done.succeed(None)
            )

        self.pcie.dma(data.nbytes, on_complete=submit)
        return done

    # --------------------------------------------------------------- RPC
    def register_rpc(self, name: str, handler: RpcHandler) -> None:
        """Serve RPC ``name`` with ``handler(call)``, the first step of a
        callback chain on an :class:`RpcCall`."""
        self.rpc_handlers[name] = handler

    def on_rpc(self, headers: dict, payload: np.ndarray, src: str) -> None:
        self.rpc_queue.put((headers, payload, src))  # unbounded: always taken

    def respond(self, dst: str, greq_id: int, result, error: bool = False) -> Event:
        return self.nic.send_control(
            dst, "rpc_resp", {"ack_for": greq_id, "result": result, "error": error}
        )

    def ack(self, dst: str, greq_id: int, dedup=None) -> Event:
        headers = {"ack_for": greq_id, "node": self.name}
        if dedup is not None:
            headers["dedup"] = dedup
        return self.nic.send_control(dst, "ack", headers)


class ClientNode(Host):
    """A DFS client host (library endpoint, Fig. 1a)."""

    def on_rpc(self, headers: dict, payload: np.ndarray, src: str) -> None:
        # Clients do not serve RPCs; silently drop (e.g. late traffic).
        pass
