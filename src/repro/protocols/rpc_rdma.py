"""RPC+RDMA write protocol (Fig. 5 left, §IV).

The client first sends a small RPC with the write request; the storage
node CPU validates it and then issues an RDMA **read towards the client**
to pull the data directly into the storage target (zero copy).  The
price is an extra network round trip before the data moves — the exact
overhead the sPIN on-the-fly validation eliminates (Fig. 5 right).
"""

from __future__ import annotations

from ..core.request import WriteRequestHeader, request_header_bytes
from ..dfs.cluster import Testbed
from ..dfs.layout import FileLayout
from ..dfs.nodes import RpcCall
from ..rdma.nic import fresh_greq_id
from ..simnet.engine import Event
from .base import WriteContext, as_uint8, begin_request, wrap_result
from .rpc import _respond_ok, _validate_on_cpu

__all__ = ["install_rpc_rdma_targets", "rpc_rdma_write"]

#: Client-side staging region for the server-initiated RDMA read.
CLIENT_STAGING_ADDR = 0


def install_rpc_rdma_targets(testbed: Testbed) -> None:
    for node in testbed.storage_nodes:
        node.register_rpc("write_rdma", _rpc_rdma_handler)


def _rpc_rdma_handler(call: RpcCall) -> None:
    p = call.node.params.host
    call.cpu(p.rpc_validate_cycles / p.cpu_freq_ghz, _rpc_rdma_validated)


def _rpc_rdma_validated(call: RpcCall) -> None:
    node = call.node
    headers = call.headers
    if not _validate_on_cpu(node, headers):
        node.respond(call.src, headers["greq_id"], "auth", error=True)
        return
    # CPU posts an RDMA read towards the client to fetch the data.
    call.wait(node.nic.post_read(call.src, headers["src_addr"], headers["write_len"]),
              _rpc_rdma_fetched)


def _rpc_rdma_fetched(call: RpcCall, res) -> None:
    # Data streamed into the NIC; place it in the storage target (one
    # PCIe crossing — zero extra host copies).
    call.state = res.data
    call.wait(call.node.pcie.dma(call.headers["write_len"], trace=call.trace),
              _rpc_rdma_placed)


def _rpc_rdma_placed(call: RpcCall, _) -> None:
    node = call.node
    wrh: WriteRequestHeader = call.headers["wrh"]
    node.memory.write(wrh.addr, call.state)
    call.cpu(node.params.host.cpu_completion_ns, _respond_ok)


def rpc_rdma_write(ctx: WriteContext, layout: FileLayout, data, testbed: Testbed) -> Event:
    """Client driver: stage the data locally, send the request RPC."""
    data = as_uint8(data)
    # The client exposes the data in registered memory for the server's
    # one-sided read (functional staging; no simulated cost: the buffer
    # already exists application-side).
    ctx.client.memory.write(CLIENT_STAGING_ADDR, data)
    greq = fresh_greq_id()
    dfs = ctx.dfs_header(greq)
    wrh = WriteRequestHeader(addr=layout.primary.addr)
    span, tctx = begin_request(ctx, "rpc+rdma", "write", data.nbytes)
    done = ctx.client.nic.post_rpc(
        dst=layout.primary.node,
        headers={
            "rpc": "write_rdma",
            "greq_id": greq,
            "dfs": dfs,
            "wrh": wrh,
            "write_len": data.nbytes,
            "src_addr": CLIENT_STAGING_ADDR,
            "authority": testbed.authority,
            "trace": tctx,
        },
        header_bytes=request_header_bytes(dfs, wrh) + 16,
    )
    return wrap_result(ctx.client.sim, done, data.nbytes, "rpc+rdma", span=span)
