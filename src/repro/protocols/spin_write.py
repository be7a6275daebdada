"""sPIN-offloaded writes (Figs. 1d, 2): the paper's contribution.

One driver covers all three offloaded policies, selected by the layout's
resiliency:

* ``none``        — authenticated plain write (§IV, Fig. 6 "sPIN");
* ``replication`` — sPIN-Ring / sPIN-PBT (§V): a single write to the
  primary; the request header source-routes the broadcast, the NICs
  forward per packet, every replica acks the client (k acks);
* ``ec``          — sPIN-TriEC (§VI): the block is split into k chunks
  written to the data nodes with packets interleaved across nodes
  (§VI-B1); data-node handlers stream intermediate parities to the
  parity nodes, which ack once final parities are durable (k+m acks).

The storage nodes must have a PsPIN context installed — see
:func:`install_spin_targets`.
"""

from __future__ import annotations

import numpy as np

from ..core.policies.dispatch import DispatchPolicy
from ..core.request import EcParams, ReplicaCoord, WriteRequestHeader, request_header_bytes
from ..dfs.cluster import Testbed
from ..dfs.layout import FileLayout
from ..ec.reed_solomon import pad_to_chunks
from ..rdma.nic import fresh_greq_id
from ..simnet.engine import Event
from .base import WriteContext, as_uint8, begin_request, replication_params_for, wrap_result

__all__ = ["install_spin_targets", "spin_write", "spin_read"]


def install_spin_targets(testbed: Testbed, n_accumulators: int = 256) -> None:
    """Install the DFS execution context on every storage node's NIC:
    capability-checked writes (the paper's untrusted-client model) and
    up to ``n_accumulators`` MTU-sized EC accumulators."""
    acc_bytes = testbed.params.net.mtu
    # The pool lives in the DFS-wide NIC memory region next to the GF
    # table; clamp it so it always fits (§VI-B2/B3).
    from ..ec.gf256 import MUL_TABLE_BYTES

    wide_free = testbed.params.pspin.dfs_wide_state_bytes - MUL_TABLE_BYTES - 8192
    n_accumulators = max(1, min(n_accumulators, wide_free // acc_bytes))
    for node in testbed.storage_nodes:
        node.install_pspin(
            DispatchPolicy(mtu=testbed.params.net.mtu),
            authority=testbed.authority,
            n_accumulators=n_accumulators,
            accumulator_bytes=acc_bytes,
            match_ops=("write", "read"),
        )


def spin_write(
    ctx: WriteContext,
    layout: FileLayout,
    data,
    interleave: bool = True,
) -> Event:
    """Issue a write through the sPIN data path; event -> WriteOutcome."""
    data = as_uint8(data)
    sim = ctx.client.sim
    nic = ctx.client.nic

    if layout.resiliency == "replication":
        k = layout.replication.k
        rp = replication_params_for(layout, virtual_rank=0)
        wrh = WriteRequestHeader(
            addr=layout.primary.addr, resiliency="replication", replication=rp
        )
        greq = fresh_greq_id()
        dfs = ctx.dfs_header(greq)
        span, tctx = begin_request(ctx, f"spin-{rp.strategy}", "write", data.nbytes)
        done = nic.post_write(
            dst=layout.primary.node,
            data=data,
            headers={"dfs": dfs, "wrh": wrh, "write_len": data.nbytes, "trace": tctx},
            header_bytes=request_header_bytes(dfs, wrh),
            greq_id=greq,
            expected_acks=k,
        )
        return wrap_result(sim, done, data.nbytes, f"spin-{rp.strategy}", span=span)

    if layout.resiliency == "ec":
        ec_spec = layout.ec
        k, m = ec_spec.k, ec_spec.m
        chunks = pad_to_chunks(data, k)
        parity_coords = tuple(
            ReplicaCoord(e.node, e.addr) for e in layout.parity_extents
        )
        greq, done = nic.open_transaction(expected_acks=k + m)
        dfs = ctx.dfs_header(greq)
        span, tctx = begin_request(ctx, f"spin-triec-rs({k},{m})", "write", data.nbytes)
        for j, (chunk, ext) in enumerate(zip(chunks, layout.extents)):
            wrh = WriteRequestHeader(
                addr=ext.addr,
                resiliency="ec",
                ec=EcParams(
                    k=k,
                    m=m,
                    role="data",
                    index=j,
                    block_id=layout.object_id * 1_000_003 + greq,
                    parity_coords=parity_coords,
                    chunk_bytes=chunk.nbytes,
                ),
            )
            hb = request_header_bytes(dfs, wrh)
            if interleave:
                # Concurrent message transmissions interleave packets at
                # the client egress port (§VI-B1).
                nic.send_message(
                    dst=ext.node,
                    op="write",
                    headers={"dfs": dfs, "wrh": wrh, "write_len": chunk.nbytes, "trace": tctx},
                    data=chunk,
                    header_bytes=hb,
                )
            else:
                # Ablation: chunks injected back to back.
                sim.process(
                    _sequential_send(ctx, ext.node, dfs, wrh, chunk, hb, j, tctx),
                    name="seq-send",
                )
        return wrap_result(sim, done, data.nbytes, f"spin-triec-rs({k},{m})", span=span)

    # plain authenticated write
    wrh = WriteRequestHeader(addr=layout.primary.addr)
    greq = fresh_greq_id()
    dfs = ctx.dfs_header(greq)
    span, tctx = begin_request(ctx, "spin", "write", data.nbytes)
    done = nic.post_write(
        dst=layout.primary.node,
        data=data,
        headers={"dfs": dfs, "wrh": wrh, "write_len": data.nbytes, "trace": tctx},
        header_bytes=request_header_bytes(dfs, wrh),
        greq_id=greq,
        expected_acks=1,
    )
    return wrap_result(sim, done, data.nbytes, "spin", span=span)


def spin_read(
    ctx: WriteContext, layout: FileLayout, addr: int, length: int, replica: int = 0
) -> Event:
    """Authenticated read through the sPIN datapath (Fig. 3 read format).

    A single request packet carries the DFS header + RRH; the storage
    NIC validates READ rights and streams the data back.  ``replica``
    selects which copy serves the read (any replica holds identical
    bytes, so reads fail over or load-balance freely).  The returned
    event's value is an OpResult whose ``data`` holds the bytes.
    """
    from ..core.request import ReadRequestHeader

    nic = ctx.client.nic
    ext = layout.extents[replica]
    if addr + length > ext.length:
        raise ValueError("read range exceeds extent")
    greq, done = nic.open_transaction(expected_acks=1)
    nic._pending[greq].data = np.zeros(length, dtype=np.uint8)
    dfs = ctx.dfs_header(greq, op="read")
    rrh = ReadRequestHeader(addr=ext.addr + addr, length=length)
    nic.send_message(
        dst=ext.node,
        op="read",
        headers={"dfs": dfs, "rrh": rrh, "greq_id": greq},
        header_bytes=request_header_bytes(dfs, rrh=rrh),
    )
    return done


def _sequential_send(ctx: WriteContext, dst, dfs, wrh, chunk, header_bytes, index, tctx=None):
    """Non-interleaved EC transmission: delay chunk j by the full
    serialization time of chunks 0..j-1 (§VI-B1 ablation)."""
    sim = ctx.client.sim
    bw = ctx.client.params.net.bandwidth_gbps
    yield sim.timeout(index * chunk.nbytes * 8.0 / bw)
    ctx.client.nic.send_message(
        dst=dst,
        op="write",
        headers={"dfs": dfs, "wrh": wrh, "write_len": chunk.nbytes, "trace": tctx},
        data=chunk,
        header_bytes=header_bytes,
    )
