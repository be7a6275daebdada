"""RPC write protocol (Fig. 1b, §IV).

The client sends the write request *and the data* to the storage node in
one RPC.  The storage node buffers the data in host memory, validates
the request on a CPU core, copies the buffered data into the storage
target, and responds.  The extra buffering copy is what penalises this
protocol for large writes (Fig. 6): validation happens *after* the data
landed, so zero-copy placement is impossible.
"""

from __future__ import annotations

from ..core.request import WriteRequestHeader, request_header_bytes
from ..dfs.capability import CapabilityAuthority, Rights
from ..dfs.cluster import Testbed
from ..dfs.layout import FileLayout
from ..dfs.nodes import RpcCall, StorageNode
from ..rdma.nic import fresh_greq_id
from ..simnet.engine import Event
from .base import WriteContext, as_uint8, begin_request, wrap_result

__all__ = ["install_rpc_targets", "rpc_write"]


def install_rpc_targets(testbed: Testbed) -> None:
    """Register the CPU-side write handler on every storage node."""
    for node in testbed.storage_nodes:
        node.register_rpc("write", _rpc_write_handler)


def _validate_on_cpu(node: StorageNode, headers: dict) -> bool:
    """The same capability check the sPIN header handler runs, but on a
    3 GHz host core."""
    dfs = headers.get("dfs")
    wrh = headers.get("wrh")
    if dfs is None or wrh is None or dfs.capability is None:
        return False
    return _verify(node, dfs, wrh, headers)


def _verify(node: StorageNode, dfs, wrh, headers) -> bool:
    authority: CapabilityAuthority = headers.get("authority")
    if authority is None:
        return True
    return authority.verify(
        dfs.capability, Rights.WRITE, wrh.addr, headers.get("write_len", 0), 0.0
    )


def _rpc_write_handler(call: RpcCall) -> None:
    """Storage-node CPU: validate -> staging copy -> place -> respond."""
    p = call.node.params.host
    # request validation on the CPU
    call.cpu(p.rpc_validate_cycles / p.cpu_freq_ghz, _rpc_write_validated)


def _rpc_write_validated(call: RpcCall) -> None:
    node = call.node
    if not _validate_on_cpu(node, call.headers):
        node.respond(call.src, call.headers["greq_id"], "auth", error=True)
        return
    # the buffered write must be copied from the staging buffer into the
    # storage target (the memcpy penalty of §IV-A)
    call.cpu(node.cpu.memcpy_ns(int(call.payload.nbytes)), _rpc_write_copied)


def _rpc_write_copied(call: RpcCall) -> None:
    node = call.node
    wrh: WriteRequestHeader = call.headers["wrh"]
    node.memory.write(wrh.addr, call.payload)
    call.cpu(node.params.host.cpu_completion_ns, _respond_ok)


def _respond_ok(call: RpcCall) -> None:
    call.node.respond(call.src, call.headers["greq_id"], "ok")


def rpc_write(ctx: WriteContext, layout: FileLayout, data, testbed: Testbed) -> Event:
    """Client driver: one RPC carrying headers + inline data."""
    data = as_uint8(data)
    greq = fresh_greq_id()
    dfs = ctx.dfs_header(greq)
    wrh = WriteRequestHeader(addr=layout.primary.addr)
    span, tctx = begin_request(ctx, "rpc", "write", data.nbytes)
    done = ctx.client.nic.post_rpc(
        dst=layout.primary.node,
        headers={
            "rpc": "write",
            "greq_id": greq,
            "dfs": dfs,
            "wrh": wrh,
            "write_len": data.nbytes,
            "authority": testbed.authority,
            "trace": tctx,
        },
        data=data,
        header_bytes=request_header_bytes(dfs, wrh) + 8,
    )
    return wrap_result(ctx.client.sim, done, data.nbytes, "rpc", span=span)
