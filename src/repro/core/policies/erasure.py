"""Data-processing policy: streaming erasure coding, sPIN-TriEC (§VI).

The client splits a block into k chunks and writes chunk j to data node
j with packets *interleaved* across the k nodes (§VI-B1).  Roles come
from the write request header (§VI-B):

* **data node** (:class:`EcDataPolicy`): stores its chunk and, for every
  packet, multiplies the payload by the per-stream GF(2^8) coefficient
  (a row of the 256x256 on-NIC table, §VI-B2) and forwards one
  intermediate-parity packet per parity node — encoding happens *on the
  fly*, before data touches host memory;
* **parity node** (:class:`EcParityPolicy`): the header handler of each
  incoming intermediate stream joins a per-block aggregation; payload
  handlers claim a pooled accumulator per *aggregation sequence* (packet
  index i, Fig. 14) and XOR the contribution in with (modelled) atomic
  memory ops.  When all k contributions for sequence i arrived, the
  final parity bytes are DMA'd to the storage target and the accumulator
  returns to the pool.  If the pool is empty, that sequence falls back
  to CPU aggregation (§VI-B3).

The parity node acks the client once all k streams completed and every
final-parity DMA flushed; together with the k data-node acks the client
observes k+m acks per encoded block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from ...ec.gf256 import gf_mul_scalar_vec
from ...ec.reed_solomon import RSCode
from ...pspin.isa import (
    HandlerCost,
    ec_completion_cost,
    ec_data_payload_cost,
    ec_parity_payload_cost,
)
from ...simnet.packet import Packet, derived_msg_id
from ..handlers import DfsPolicy
from ..request import EcParams, WriteRequestHeader
from ..state import DfsState, RequestEntry

if TYPE_CHECKING:  # pragma: no cover
    from ...pspin.accelerator import HandlerApi
    from ..context import Task

__all__ = ["EcDataPolicy", "EcParityPolicy", "rs_for"]

_rs_cache: Dict[tuple, RSCode] = {}


def rs_for(k: int, m: int) -> RSCode:
    """RS codec cache — the encoding matrix is DFS-wide state installed
    once at initialization time, not rebuilt per request."""
    key = (k, m)
    if key not in _rs_cache:
        _rs_cache[key] = RSCode(k, m)
    return _rs_cache[key]


class EcDataPolicy(DfsPolicy):
    """Role ``data``: store the chunk, emit intermediate parities."""

    name = "ec-data"

    def payload_cost(self, task, entry: RequestEntry, pkt: Packet) -> HandlerCost:
        ec: EcParams = entry.scratch["ec"]
        return ec_data_payload_cost(ec.m, pkt.payload_bytes)

    def completion_cost(self, task, entry, pkt) -> HandlerCost:
        return ec_completion_cost()

    def on_header(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet) -> None:
        super().on_header(api, task, entry, pkt)
        wrh: WriteRequestHeader = pkt.headers["wrh"]
        ec = wrh.ec
        assert ec is not None and ec.role == "data"
        rs = rs_for(ec.k, ec.m)
        streams = []
        for i, coord in enumerate(ec.parity_coords):
            streams.append(
                {
                    "coord": coord,
                    # stable per (parent msg, parity index) so retransmits
                    # re-forward the same stream ids (duplicate-suppressible)
                    "msg_id": derived_msg_id(pkt.msg_id, ("ec", i)),
                    "coef": rs.parity_coefficient(i, ec.index),
                    "wrh": WriteRequestHeader(
                        addr=coord.addr,
                        resiliency="ec",
                        ec=EcParams(
                            k=ec.k,
                            m=ec.m,
                            role="parity",
                            index=i,
                            block_id=ec.block_id,
                            chunk_bytes=ec.chunk_bytes,
                        ),
                    ),
                }
            )
        entry.scratch["ec"] = ec
        entry.scratch["streams"] = streams
        entry.scratch["dfs"] = pkt.headers["dfs"]
        entry.scratch["write_len"] = pkt.headers.get("write_len", 0)

    def process_pkt(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet):
        # Store the systematic data chunk locally.
        if pkt.payload is not None:
            api.dma_write(entry.scratch["addr"] + pkt.payload_offset, pkt.payload)
        # Encode and forward one intermediate parity per parity node.
        sends = []
        for stream in entry.scratch["streams"]:
            encoded = (
                gf_mul_scalar_vec(stream["coef"], pkt.payload)
                if pkt.payload is not None
                else None
            )
            if pkt.is_header:
                headers = {
                    "dfs": entry.scratch["dfs"],
                    "wrh": stream["wrh"],
                    "write_len": entry.scratch["write_len"],
                }
                header_bytes = pkt.header_bytes
            else:
                headers = {}
                header_bytes = 0
            fwd = pkt.child(
                src=api._accel.node_name,
                dst=stream["coord"].node,
                msg_id=stream["msg_id"],
                payload=encoded,
                headers=headers,
                header_bytes=header_bytes,
            )
            sends.append(api.send(fwd))
        for ev in sends:
            yield ev


class _BlockAgg:
    """Per (block, parity-index) aggregation state on a parity node."""

    __slots__ = ("k", "addr", "contrib", "fini_streams", "dma_events", "host_acc", "seen")

    def __init__(self, k: int, addr: int):
        self.k = k
        self.addr = addr
        self.contrib: Dict[int, int] = {}
        #: flow ids whose completion handler already ran (set, not a
        #: counter: a retransmitted completion must not double-count)
        self.fini_streams: set = set()
        self.dma_events: list = []
        #: host-side fallback accumulators (pool exhausted, §VI-B3)
        self.host_acc: Dict[int, np.ndarray] = {}
        #: (msg_id, seq) pairs already XOR'd in — a re-run stream (full
        #: end-to-end retransmit) must not contribute twice
        self.seen: set = set()


class EcParityPolicy(DfsPolicy):
    """Role ``parity``: aggregate k intermediate streams per block."""

    name = "ec-parity"

    def __init__(self):
        self.blocks: Dict[tuple, _BlockAgg] = {}
        self.cpu_fallback_packets = 0

    def payload_cost(self, task, entry: RequestEntry, pkt: Packet) -> HandlerCost:
        return ec_parity_payload_cost(pkt.payload_bytes)

    def completion_cost(self, task, entry, pkt) -> HandlerCost:
        return ec_completion_cost()

    def on_header(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet) -> None:
        super().on_header(api, task, entry, pkt)
        wrh: WriteRequestHeader = pkt.headers["wrh"]
        ec = wrh.ec
        assert ec is not None and ec.role == "parity"
        key = (ec.block_id, ec.index)
        blk = self.blocks.get(key)
        if blk is None:
            blk = self.blocks[key] = _BlockAgg(ec.k, wrh.addr)
        entry.scratch["blk_key"] = key
        entry.scratch["ec"] = ec

    # ------------------------------------------------------------ payload
    def process_pkt(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet):
        if pkt.payload is None:
            return
        state: DfsState = task.mem
        blk = self.blocks.get(entry.scratch["blk_key"])
        if blk is None:
            return  # block already completed (late duplicate packet)
        pk = (pkt.msg_id, pkt.seq)
        if pk in blk.seen:
            return  # re-run stream: contribution already aggregated
        blk.seen.add(pk)
        seq_key = entry.scratch["blk_key"] + (pkt.seq,)
        n = pkt.payload_bytes
        acc = state.accumulators.lookup(seq_key)
        if acc is None and pkt.seq not in blk.host_acc:
            acc = state.accumulators.acquire(seq_key)
        if acc is not None:
            # atomic XOR into the pooled on-NIC accumulator (§VI-B3)
            np.bitwise_xor(acc[:n], pkt.payload, out=acc[:n])
        else:
            # Pool exhausted: CPU-based aggregation fallback (§VI-B3).
            # The contribution crosses PCIe and a host core does the XOR.
            self.cpu_fallback_packets += 1
            host = blk.host_acc.get(pkt.seq)
            if host is None:
                host = blk.host_acc[pkt.seq] = np.zeros(n, dtype=np.uint8)
            np.bitwise_xor(host[:n], pkt.payload, out=host[:n])
            api.dma_timing(n)
            yield api.host_exec(n * 0.05)  # ~20 GB/s single-core XOR
        count = blk.contrib.get(pkt.seq, 0) + 1
        blk.contrib[pkt.seq] = count
        if count == blk.k:
            offset = pkt.payload_offset
            if acc is not None:
                blk.dma_events.append(api.dma_write(blk.addr + offset, acc[:n].copy()))
                state.accumulators.release(seq_key)
            else:
                # final parity already sits in host memory; place it
                api.host_write(blk.addr + offset, blk.host_acc.pop(pkt.seq))

    # --------------------------------------------------------- completion
    def request_fini(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet):
        key = entry.scratch["blk_key"]
        dedup = (api._accel.node_name, "ecp") + key
        blk = self.blocks.get(key)
        if blk is None:
            # block already aggregated + acked; the retransmit means the
            # client never saw the ack — re-ack, don't re-aggregate
            yield api.send_control(
                entry.scratch["reply_to"],
                "ack",
                {"ack_for": entry.greq_id, "node": api._accel.node_name, "dedup": dedup},
            )
            return
        blk.fini_streams.add(task.flow_id)
        if len(blk.fini_streams) < blk.k:
            return  # ack only when the whole block's parity is durable
        pending = api.pending_flushes(blk.dma_events)
        if pending:
            yield api.sim.all_of(pending)
        self.blocks.pop(key, None)
        yield api.send_control(
            entry.scratch["reply_to"],
            "ack",
            {"ack_for": entry.greq_id, "node": api._accel.node_name, "dedup": dedup},
        )
