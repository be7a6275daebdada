"""Central calibration parameters.

All timing constants live here, split by subsystem.  Values marked
*(paper)* come straight from the text (§III-D, Fig. 7, Tables I/II);
the rest are conventional hardware numbers (PCIe latency per Kalia et
al. [25] as cited by the paper; single-core memcpy bandwidth; RDMA NIC
pipeline costs) chosen so the baseline protocols land in realistic
ranges.  Experiments should construct :class:`SimParams` once and pass
it everywhere, so sweeps and ablations are pure parameter changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .faults import FaultParams
from .simnet.network import NetConfig

__all__ = ["HostParams", "PsPinParams", "SimParams", "KiB", "MiB"]

KiB = 1024
MiB = 1024 * 1024


@dataclass(frozen=True)
class HostParams:
    """Storage-node host: CPU, PCIe, memory."""

    #: One-way PCIe posted-write latency; the paper cites a PCIe round
    #: trip of "up to 400 ns" [25], so ~200 ns each way. (paper)
    pcie_latency_ns: float = 200.0
    #: PCIe Gen4 x16-ish payload bandwidth.
    pcie_bandwidth_gbps: float = 512.0
    #: Single-core buffered memcpy: ~20 GB/s (what the RPC path pays to
    #: buffer a write while validating it, §IV-A).
    memcpy_gbps: float = 160.0
    cpu_freq_ghz: float = 3.0
    cpu_cores: int = 8
    #: Polling RPC pickup + dispatch on the storage-node CPU.
    rpc_dispatch_ns: float = 250.0
    #: Request validation is the same 200-instruction capability check
    #: the NIC runs (Fig. 7), but on a 3 GHz core.
    rpc_validate_cycles: int = 200
    #: Completion/ack generation on the CPU path.
    cpu_completion_ns: float = 100.0


@dataclass(frozen=True)
class PsPinParams:
    """The PsPIN accelerator (ISCA'21 [23]); defaults are the paper's
    configuration (§II-B1, §III-B2, Fig. 7)."""

    n_clusters: int = 4                       # (paper)
    hpus_per_cluster: int = 8                 # (paper) 32 HPUs total
    freq_ghz: float = 1.0                     # (paper)
    l1_bytes_per_cluster: int = 1 * MiB       # (paper)
    l2_bytes: int = 4 * MiB                   # (paper)
    #: Fig. 7: 32 cycles to copy a 2 KiB packet into the packet buffer.
    pkt_buffer_bytes_per_cycle: int = 64      # (paper)
    #: Fig. 7: 1-2 cycle hardware scheduler; we charge 2.
    sched_cycles: int = 2                     # (paper)
    #: Fig. 7: 43 cycles to copy a 2 KiB packet into cluster L1.
    l1_copy_bytes_per_cycle: int = 48         # (paper: 2048/43 ≈ 47.6)
    #: Fig. 7: scheduling onto an idle HPU takes 1 ns.
    hpu_dispatch_ns: float = 1.0              # (paper)
    #: §III-B2: each write descriptor takes 77 bytes.
    request_descriptor_bytes: int = 77        # (paper)
    #: §III-B2: 2 MiB of the 8 MiB NIC memory hold DFS-wide state (e.g.
    #: the 64 KiB GF(2^8) table), leaving 6 MiB for request state.
    dfs_wide_state_bytes: int = 2 * MiB       # (paper)
    #: NIC egress credits available to handlers before sends block
    #: (per-cluster share of the egress queue).
    egress_credits: int = 8
    #: L1 contention: fractional CPI penalty per additional concurrently
    #: active HPU in the same cluster, applied to memory-intensive
    #: handlers (drives the ~12 % EC throughput drop, §VI-C(b)).
    l1_contention_per_hpu: float = 0.02
    #: Inactive-message timeout after which the cleanup handler fires
    #: (§VII, "What happens if a client fails?").
    cleanup_timeout_ns: float = 1_000_000.0
    #: Max packets queued into the accelerator before new *messages* are
    #: steered to the host instead (§III-C full-system consideration).
    ingress_queue_packets: int = 1024

    @property
    def n_hpus(self) -> int:
        return self.n_clusters * self.hpus_per_cluster

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class InecParams:
    """INEC-TriEC baseline model (Shi & Lu [37]): a firmware EC engine on
    a conventional RDMA NIC, operating per *chunk* out of host memory."""

    #: Fixed per-block engine invocation (descriptor fetch, doorbell,
    #: firmware dispatch).  Dominates small blocks — the memory-copy /
    #: setup overhead the paper says penalises INEC at 1 KiB (§VI-C(b)).
    block_overhead_ns: float = 2500.0
    #: Throughput of the vendor EC engine while streaming a chunk.
    engine_gbps: float = 200.0


@dataclass(frozen=True)
class SimParams:
    """Everything an experiment needs, bundled."""

    net: NetConfig = field(default_factory=NetConfig)
    host: HostParams = field(default_factory=HostParams)
    pspin: PsPinParams = field(default_factory=PsPinParams)
    inec: InecParams = field(default_factory=InecParams)
    #: RDMA NIC fixed pipeline latencies (rx parse / tx build).  These
    #: are *latency* stages, not throughput limits: NICs process packets
    #: at line rate through a fixed-depth pipeline.
    nic_rx_ns: float = 150.0
    nic_tx_ns: float = 150.0
    #: Client software overhead to post an operation (WQE build +
    #: doorbell over PCIe) and to reap its completion (CQ poll).
    client_post_ns: float = 500.0
    client_completion_ns: float = 150.0
    #: Storage-node memory target capacity (functional store).
    storage_capacity_bytes: int = 64 * MiB
    #: Fault injection + client reliability layer (defaults to none).
    faults: FaultParams = field(default_factory=FaultParams)

    def scaled_network(self, bandwidth_gbps: float) -> "SimParams":
        """Same testbed at a different line rate (the paper drops to
        100 Gbit/s for the INEC comparison, §VI-C(a))."""
        return replace(self, net=replace(self.net, bandwidth_gbps=bandwidth_gbps))

    def with_pspin(self, **kw) -> "SimParams":
        return replace(self, pspin=replace(self.pspin, **kw))

    def with_net(self, **kw) -> "SimParams":
        return replace(self, net=replace(self.net, **kw))

    def with_host(self, **kw) -> "SimParams":
        return replace(self, host=replace(self.host, **kw))

    def with_faults(self, **kw) -> "SimParams":
        return replace(self, faults=replace(self.faults, **kw))

