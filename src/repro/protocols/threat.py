"""Write drivers for the §IV threat-model spectrum.

``install_threat_targets(testbed, mode)`` installs a
:class:`~repro.core.policies.threat_models.ThreatModelPolicy` on every
storage node; ``threat_write`` issues the matching request:

* ``trusted``    — plain-text ticket in the request header;
* ``capability`` — the default HMAC capability (same wire format as
  :func:`~repro.protocols.spin_write.spin_write`);
* ``packet-mac`` — every packet is individually signed; the MAC rides
  in each packet's headers (+8 B wire overhead per packet) and payload
  handlers verify it before storing.
"""

from __future__ import annotations

from ..core.policies.threat_models import ThreatModelPolicy, sign_packet
from ..core.request import WriteRequestHeader, request_header_bytes
from ..dfs.cluster import Testbed
from ..dfs.layout import FileLayout
from ..rdma.nic import fresh_greq_id
from ..simnet.engine import Event
from ..simnet.packet import Message, segment_message
from .base import WriteContext, as_uint8, wrap_result

__all__ = ["install_threat_targets", "threat_write", "SHARED_SECRET"]

SHARED_SECRET = b"plain-text-ticket"


def install_threat_targets(testbed: Testbed, mode: str) -> None:
    authority = None if mode == "trusted" else testbed.authority
    for node in testbed.storage_nodes:
        node.install_pspin(
            ThreatModelPolicy(mode=mode, shared_secret=SHARED_SECRET),
            authority=authority,
        )


def threat_write(
    ctx: WriteContext,
    layout: FileLayout,
    data,
    mode: str,
    tamper_packet: int | None = None,
) -> Event:
    """Issue a write under the given threat model.

    ``tamper_packet`` (packet-mac mode): corrupt that packet's payload
    in flight to demonstrate per-packet integrity enforcement.
    """
    data = as_uint8(data)
    nic = ctx.client.nic
    sim = ctx.client.sim
    ext = layout.primary
    greq = fresh_greq_id()
    dfs = ctx.dfs_header(greq)
    wrh = WriteRequestHeader(addr=ext.addr)
    base_headers = {
        "dfs": dfs,
        "wrh": wrh,
        "write_len": data.nbytes,
        "greq_id": greq,
    }
    if mode == "trusted":
        base_headers["ticket"] = SHARED_SECRET

    if mode != "packet-mac":
        done = nic.post_write(
            dst=ext.node,
            data=data,
            headers=base_headers,
            header_bytes=request_header_bytes(dfs, wrh),
            greq_id=greq,
            expected_acks=1,
        )
        return wrap_result(sim, done, data.nbytes, f"threat-{mode}")

    # packet-mac: sign every packet individually
    _, done = nic.open_transaction(expected_acks=1, greq_id=greq)
    msg = Message(
        src=nic.name,
        dst=ext.node,
        op="write",
        data=data,
        headers=base_headers,
        header_bytes=request_header_bytes(dfs, wrh) + 8,
    )
    pkts = segment_message(msg, ctx.client.params.net.mtu)

    def sender():
        yield sim.timeout(ctx.client.params.client_post_ns)
        yield sim.timeout(ctx.client.params.nic_tx_ns)
        for i, pkt in enumerate(pkts):
            # the client signs the genuine payload ...
            payload = pkt.payload
            mac = sign_packet(SHARED_SECRET, payload)
            if i == tamper_packet and payload is not None:
                # ... an in-network attacker then flips bits but cannot
                # recompute the MAC without the service key
                payload = payload.copy()
                payload[0] ^= 0xFF
            wire = pkt.child(
                payload=payload,
                headers={**pkt.headers, "mac": mac},
                header_bytes=max(pkt.header_bytes, 8),  # MAC on the wire
            )
            yield nic.port.send(wire)

    sim.process(sender(), name="threat-mac-tx")
    return wrap_result(sim, done, data.nbytes, "threat-packet-mac")
