"""Replication baselines (§V, Fig. 8).

* **CPU-Ring / CPU-PBT** — the storage-node CPUs broadcast the data
  along a ring / pipelined binary tree: every hop pays NIC→host DMA, a
  host staging copy, and CPU re-injection.  The client pipelines the
  write as a train of chunks ("we report data from pipelined executions
  with optimal chunk size", §V-B); every node acks every chunk, so the
  client completes after k × n_chunks acks.

* **RDMA-Flat** — the client replicates itself with k independent RDMA
  writes (Fig. 8): no storage CPU involvement, no request validation
  (clients are fully trusted, §V-B), but the client's injection
  bandwidth is paid k times — the linear-in-k cost of Fig. 10.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..core.request import ReplicationParams, request_header_bytes
from ..dfs.capability import Rights
from ..dfs.cluster import Testbed
from ..dfs.layout import FileLayout
from ..dfs.nodes import RpcCall
from ..simnet.engine import Event
from .base import WriteContext, as_uint8, begin_request, replication_params_for, wrap_result

__all__ = [
    "install_cpu_replication_targets",
    "cpu_replicated_write",
    "rdma_flat_write",
    "DEFAULT_CHUNK_BYTES",
]

#: Default pipelining chunk; benchmarks sweep around it for the optimum.
DEFAULT_CHUNK_BYTES = 64 * 1024


def install_cpu_replication_targets(testbed: Testbed) -> None:
    for node in testbed.storage_nodes:
        node.register_rpc("repl_write", _repl_write_handler)


def _repl_write_handler(call: RpcCall) -> None:
    """One pipelined chunk: validate, stage, store, forward, ack."""
    # validation (per request: only the first chunk pays the full check)
    if call.headers["chunk_idx"] == 0:
        p = call.node.params.host
        call.cpu(p.rpc_validate_cycles / p.cpu_freq_ghz, _repl_validated)
    else:
        _repl_stage(call)


def _repl_validated(call: RpcCall) -> None:
    headers = call.headers
    authority = headers.get("authority")
    dfs = headers.get("dfs")
    if authority is not None and (
        dfs is None
        or dfs.capability is None
        or not authority.verify(
            dfs.capability, Rights.WRITE, headers["addr"], call.payload.nbytes, 0.0
        )
    ):
        call.node.respond(headers["reply_to_client"], headers["greq_id"], "auth",
                          error=True)
        return
    _repl_stage(call)


def _repl_stage(call: RpcCall) -> None:
    # staging copy out of the RPC buffer into the storage target
    call.cpu(call.node.cpu.memcpy_ns(int(call.payload.nbytes)), _repl_stored)


def _repl_stored(call: RpcCall) -> None:
    headers = call.headers
    call.node.memory.write(headers["addr"] + headers["chunk_off"], call.payload)
    rp: ReplicationParams = headers["rp"]
    call.state = (rp.children_of(rp.virtual_rank), 0)
    _repl_forward(call)


def _repl_forward(call: RpcCall) -> None:
    """Forward the chunk to the next child (the CPU posts the send; the
    data must come back out of host memory across PCIe), or ack it once
    every child has it."""
    node = call.node
    headers = call.headers
    children, i = call.state
    if i == len(children):
        # one ack per (node, chunk): unique within the transaction so the
        # client can discard retransmit-induced duplicates
        node.ack(headers["reply_to_client"], headers["greq_id"],
                 dedup=(node.name, "cpu", headers["chunk_idx"]))
        return
    call.state = (children, i + 1)
    # the NIC reads the data back
    call.wait(node.pcie.dma(int(call.payload.nbytes), trace=call.trace), _repl_send)


def _repl_send(call: RpcCall, _) -> None:
    node = call.node
    headers = call.headers
    children, i = call.state
    child_rank = children[i - 1]
    rp: ReplicationParams = headers["rp"]
    coord = rp.coord_for_rank(child_rank)
    fwd_headers = dict(headers)
    fwd_headers["rp"] = replace(rp, virtual_rank=child_rank)
    fwd_headers["addr"] = coord.addr
    node.nic.send_message(
        dst=coord.node,
        op="rpc",
        headers=fwd_headers,
        data=call.payload,
        header_bytes=64,
        post_overhead=False,  # CPU posting charged below
    )
    call.cpu(node.params.host.rpc_dispatch_ns / 2, _repl_forward)


def cpu_replicated_write(
    ctx: WriteContext,
    layout: FileLayout,
    data,
    testbed: Testbed,
    chunk_bytes: Optional[int] = None,
) -> Event:
    """CPU-Ring / CPU-PBT driver (strategy taken from the layout)."""
    data = as_uint8(data)
    assert layout.replication is not None
    k = layout.replication.k
    chunk_bytes = chunk_bytes or DEFAULT_CHUNK_BYTES
    chunks = [data[i : i + chunk_bytes] for i in range(0, max(data.nbytes, 1), chunk_bytes)]
    rp = replication_params_for(layout, virtual_rank=0)
    greq, done = ctx.client.nic.open_transaction(expected_acks=k * len(chunks))
    dfs = ctx.dfs_header(greq)
    name = f"cpu-{layout.replication.strategy}"
    span, tctx = begin_request(ctx, name, "write", data.nbytes)
    off = 0
    for idx, chunk in enumerate(chunks):
        ctx.client.nic.send_message(
            dst=layout.primary.node,
            op="rpc",
            headers={
                "rpc": "repl_write",
                "greq_id": greq,
                "dfs": dfs,
                "rp": rp,
                "addr": layout.primary.addr,
                "chunk_off": off,
                "chunk_idx": idx,
                "reply_to_client": ctx.client.name,
                "authority": testbed.authority,
                "trace": tctx,
            },
            data=chunk,
            header_bytes=64,
            post_overhead=(idx == 0),
        )
        off += chunk.nbytes
    return wrap_result(ctx.client.sim, done, data.nbytes, name, span=span)


def rdma_flat_write(ctx: WriteContext, layout: FileLayout, data) -> Event:
    """RDMA-Flat: k independent raw writes from the client (Fig. 8)."""
    data = as_uint8(data)
    assert layout.replication is not None
    sim = ctx.client.sim
    greq, done = ctx.client.nic.open_transaction(expected_acks=len(layout.extents))
    span, tctx = begin_request(ctx, "rdma-flat", "write", data.nbytes)
    for ext in layout.extents:
        ctx.client.nic.post_write(
            dst=ext.node,
            data=data,
            headers={"addr": ext.addr, "reply_to": ctx.client.name, "trace": tctx},
            header_bytes=8,
            greq_id=greq,
            expected_acks=0,  # the shared transaction counts the acks
        )
    return wrap_result(sim, done, data.nbytes, "rdma-flat", span=span)
