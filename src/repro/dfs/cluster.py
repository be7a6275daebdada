"""Testbed builder: one simulator, one network, services, nodes.

``build_testbed`` is the entry point every experiment and example uses:
it wires the star network (§III-D parameters), the control-plane
services, ``n_storage`` storage nodes and ``n_clients`` client hosts.
Storage-node *personalities* (PsPIN contexts, RPC handlers, HyperLoop
WQE hooks, INEC accelerators) are installed afterwards by the protocol
modules in :mod:`repro.protocols`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults import install_faults
from ..params import SimParams
from ..simnet.engine import Event, Simulator
from ..simnet.network import Network
from ..simnet.packet import reset_id_state
from .capability import CapabilityAuthority
from .management import ManagementService
from .metadata import MetadataService
from .nodes import ClientNode, StorageNode

__all__ = ["Testbed", "build_testbed"]

#: ``Testbed.drain``: the fixed tail that lets trailing acks, DMAs and
#: parity traffic land, the step between idle checks after it, and the
#: simulated-time budget for those steps (under loss a server-side
#: chain can need several retransmit-timeout backoffs)
DRAIN_TAIL_NS = 200_000
DRAIN_STEP_NS = 1_000_000
DRAIN_BUDGET_NS = 200_000_000


class _LeafPlacementShim:
    """Adapter giving a LeafSpineNetwork the Network.register interface:
    clients land on leaf 0, storage-role hosts (storage nodes and the
    metadata node, which reuses the StorageNode machinery) on leaf 1.

    Placement is derived from the endpoint's host *role*, not its name —
    keying on the ``"sn"`` prefix silently dropped any differently-named
    storage node onto the client leaf."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.cfg = fabric.cfg

    def register(self, endpoint):
        host = getattr(endpoint, "host", None)
        leaf = 1 if isinstance(host, StorageNode) else 0
        return self.fabric.register(endpoint, leaf=leaf)

    @property
    def switch(self):
        return self.fabric.switch


class Testbed:
    """A wired cluster ready for protocol configuration."""

    def __init__(self, params: SimParams, n_storage: int, n_clients: int,
                 storage_backend: str = "nvmm", topology: str = "star",
                 uplink_gbps: Optional[float] = None, telemetry: bool = False,
                 placement: str = "roundrobin",
                 failure_domains: Optional[Dict[str, int]] = None,
                 sanitize: bool = False):
        # Restart packet/message/greq id allocation: the counters and the
        # derived-id memo are module-level, so without this a long sweep
        # (or a pool worker reusing its interpreter) leaks entries across
        # testbeds and produces history-dependent ids.
        reset_id_state()
        self.params = params
        self.sim = Simulator(sanitize=sanitize)
        # span/metric collection is off by default (zero overhead); flip
        # ``sim.telemetry.enabled`` at any time to start recording
        self.sim.telemetry.enabled = telemetry
        self.telemetry = self.sim.telemetry
        if topology == "star":
            self.faults = install_faults(self.sim, params.faults)
            self.net = Network(self.sim, params.net)
        elif topology == "leafspine":
            self.faults = install_faults(self.sim, params.faults)
            # clients on leaf 0, storage on leaf 1: every data-plane
            # byte crosses the (possibly oversubscribed) spine uplinks
            from ..simnet.topology import LeafSpineNetwork

            fabric = LeafSpineNetwork(
                self.sim, params.net, n_leaves=2, n_spines=1, uplink_gbps=uplink_gbps
            )
            self.net = _LeafPlacementShim(fabric)
        else:
            raise ValueError(f"unknown topology {topology!r}")
        self.authority = CapabilityAuthority(key=b"repro-shared-service-key")
        self.mgmt = ManagementService(self.authority)
        self.storage: Dict[str, StorageNode] = {}
        for i in range(n_storage):
            name = f"sn{i}"
            self.storage[name] = StorageNode(
                self.sim, self.net, name, params,
                storage_backend=storage_backend
            )
        self.metadata = MetadataService(
            storage_nodes=list(self.storage),
            node_capacity=params.storage_capacity_bytes,
            authority=self.authority,
            placement=placement,
            failure_domains=failure_domains,
        )
        self.clients: List[ClientNode] = [
            ClientNode(self.sim, self.net, f"client{i}", params)
            for i in range(n_clients)
        ]

    # ------------------------------------------------------------ helpers
    @property
    def storage_nodes(self) -> List[StorageNode]:
        return list(self.storage.values())

    def node(self, name: str) -> StorageNode:
        return self.storage[name]

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def run_until(self, event: Event, timeout_ns: Optional[float] = None):
        """Drive the simulation until ``event`` fires; return its value."""
        return self.sim.run_until_event(event, limit=timeout_ns)

    def idle(self) -> bool:
        """Whether the testbed is done: no op pending on any host's NIC,
        no accelerator message run open and no HPU held.  An RDMA write
        is acked before its PCIe flush lands, and a failed write's
        handler state waits for the cleanup sweeper, so a completed
        request does not imply an idle testbed."""
        if any(h.nic.pending_count() for h in [*self.clients, *self.storage_nodes]):
            return False
        for node in self.storage_nodes:
            acc = node.accelerator
            if acc is not None and (
                acc.in_flight_messages or any(cl.hpus.users for cl in acc.clusters)
            ):
                return False
        return True

    def drain(self) -> bool:
        """Run until :meth:`idle`: a 200 µs tail, then 1 ms steps until
        idle or 200 ms of simulated time have passed.  Returns
        :meth:`idle`."""
        self.run(until=self.sim.now + DRAIN_TAIL_NS)
        deadline = self.sim.now + DRAIN_BUDGET_NS
        while not self.idle() and self.sim.now < deadline:
            self.run(until=self.sim.now + DRAIN_STEP_NS)
        return self.idle()

    # ------------------------------------------------------- sanitizer
    @property
    def sanitizer(self):
        """The kernel's sanitizer; None unless sanitize=True."""
        return self.sim.sanitizer

    def sanitize_report(self, quiesce: bool = True):
        """Run the quiesce sweep and return the kernel's
        :class:`repro.simsan.Report` (requires sanitize=True)."""
        san = self.sanitizer
        if san is None:
            raise ValueError("testbed was not built with sanitize=True")
        if quiesce:
            san.check_quiesce()
        else:
            # never quiesced: leak sweeps would misfire on work still
            # legitimately in flight, but orphan budgets still apply
            san.check_orphans()
        return san.report()


def build_testbed(
    n_storage: int = 8,
    n_clients: int = 1,
    params: Optional[SimParams] = None,
    storage_backend: str = "nvmm",
    topology: str = "star",
    uplink_gbps: Optional[float] = None,
    telemetry: bool = False,
    placement: str = "roundrobin",
    failure_domains: Optional[Dict[str, int]] = None,
    sanitize: bool = False,
) -> Testbed:
    """Construct a testbed.  Defaults to the paper's flat network
    (§III-D); ``topology="leafspine"`` puts clients and storage on
    separate leaves with configurable uplink bandwidth.
    ``telemetry=True`` turns on span/metric collection (see
    :mod:`repro.telemetry`).  ``placement`` selects the metadata
    service's block-placement policy (``roundrobin`` / ``capacity`` /
    ``domain``; see :mod:`repro.dfs.placement`), and
    ``failure_domains`` assigns storage nodes to racks for the
    domain-aware policy.  ``sanitize=True`` attaches the runtime
    sanitizer to the kernel (see :mod:`repro.simsan`; the schedule is
    unchanged)."""
    return Testbed(
        params or SimParams(),
        n_storage=n_storage,
        n_clients=n_clients,
        storage_backend=storage_backend,
        topology=topology,
        uplink_gbps=uplink_gbps,
        telemetry=telemetry,
        placement=placement,
        failure_domains=failure_domains,
        sanitize=sanitize,
    )
