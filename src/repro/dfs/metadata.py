"""Metadata service: indexes objects and allocates storage extents.

Control-plane component (Fig. 1a): clients query it for file layouts
(step 1/2) before touching storage nodes (step 3).  Storage is managed
by a per-node free-list allocator (:mod:`repro.dfs.allocator`) —
``delete()`` and recovery-driven ``update_layout()`` return extents to
the pool, so churny workloads never leak space — and placement is
delegated to a pluggable :class:`~repro.dfs.placement.PlacementPolicy`
over capacity- and liveness-filtered candidates.  ``create()`` is
transactional: a failure mid-layout rolls back every extent already
allocated and the policy's rotation cursor.

Liveness is fed by the heartbeat monitor (:mod:`repro.dfs.monitor`):
nodes marked dead stop receiving placements until marked alive again.

Consistency coordination (who may write what, capability revocation) is
control-plane and out of the paper's scope (§VII); we expose a simple
exclusive-writer check to make the examples honest.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .allocator import AllocError, ExtentAllocator
from .capability import Capability, CapabilityAuthority, Rights
from .layout import EcSpec, Extent, FileLayout, ReplicationSpec, StripedLayout
from .placement import NodeView, PlacementPolicy, make_policy

__all__ = ["MetadataService", "MetadataError"]


class MetadataError(RuntimeError):
    pass


class MetadataService:
    """Object index + extent allocator + ticket issuing front end."""

    def __init__(
        self,
        storage_nodes: Sequence[str],
        node_capacity: int,
        authority: CapabilityAuthority,
        placement: Union[str, PlacementPolicy] = "roundrobin",
        failure_domains: Optional[Dict[str, int]] = None,
    ):
        if not storage_nodes:
            raise MetadataError("need at least one storage node")
        self.nodes = list(storage_nodes)
        self.node_capacity = node_capacity
        self.authority = authority
        self.allocator = ExtentAllocator(node_capacity, self.nodes)
        self._free_lists = [self.allocator.free_list(n) for n in self.nodes]
        #: the last placement view built per node, reused while its free
        #: bytes and domain still match (see :meth:`_views`)
        self._node_views: List[Optional[NodeView]] = [None] * len(self.nodes)
        self.policy = make_policy(placement)
        #: failure domain per node; defaults to one domain per node, so
        #: the domain policy degenerates to plain spreading
        self.domains: Dict[str, int] = (
            dict(failure_domains)
            if failure_domains is not None
            else {n: i for i, n in enumerate(self.nodes)}
        )
        self._dead: Dict[str, bool] = {}
        self._objects: Dict[str, object] = {}
        self._object_ids = itertools.count(1)
        self._writers: Dict[str, int] = {}

    # ---------------------------------------------------------- liveness
    def mark_dead(self, node: str) -> None:
        """Exclude ``node`` from placement (heartbeat monitor verdict)."""
        self._dead[node] = True

    def mark_alive(self, node: str) -> None:
        self._dead.pop(node, None)

    def is_alive(self, node: str) -> bool:
        return node not in self._dead

    def dead_nodes(self) -> List[str]:
        return [n for n in self.nodes if n in self._dead]

    # ------------------------------------------------------------ alloc
    def _alloc_on(self, node: str, length: int) -> Extent:
        try:
            off = self.allocator.alloc(node, length)
        except AllocError as e:
            raise MetadataError(f"storage node {node} full: {e}") from None
        return Extent(node=node, addr=off, length=length)

    def allocate_extent(self, node: str, length: int) -> Extent:
        """Allocate a replacement extent on a specific node (used by the
        recovery coordinator when rebuilding lost chunks)."""
        if not self.is_alive(node):
            raise MetadataError(f"storage node {node} is dead")
        return self._alloc_on(node, length)

    def allocate_auto(self, length: int, exclude: Sequence[str] = ()) -> Extent:
        """Allocate one extent on a policy-picked healthy node (used by
        the re-replicator to place repaired copies)."""
        (node,) = self._pick_nodes(1, length, exclude=exclude)
        return self._alloc_on(node, length)

    def free_extent(self, extent: Extent) -> None:
        """Return one extent to the pool."""
        try:
            self.allocator.free(extent.node, extent.addr, extent.length)
        except AllocError as e:
            raise MetadataError(f"bad free on {extent.node}: {e}") from None

    def _free_layout(self, layout: object) -> None:
        """Free every extent a layout pins.  Striped layouts are
        aliases — their regions are registered (and freed) under their
        own ``path#rN`` entries."""
        if isinstance(layout, FileLayout):
            for e in list(layout.extents) + list(layout.parity_extents):
                self.free_extent(e)

    def update_layout(self, path: str, layout: FileLayout) -> None:
        """Swap in a rebuilt placement after recovery.

        Extents of the old layout that the new one no longer references
        are returned to the allocator — the seed leaked them forever.
        """
        old = self._objects.get(path)
        if old is None:
            raise MetadataError(f"no such object {path!r}")
        keep = {
            (e.node, e.addr, e.length)
            for e in list(layout.extents) + list(layout.parity_extents)
        }
        if isinstance(old, FileLayout):
            for e in list(old.extents) + list(old.parity_extents):
                if (e.node, e.addr, e.length) not in keep:
                    self.free_extent(e)
        self._objects[path] = layout

    # -------------------------------------------------------- accounting
    def allocated_bytes(self) -> int:
        """Bytes currently held by the allocator across all nodes."""
        return self.allocator.allocated_bytes()

    def live_layout_bytes(self) -> int:
        """Bytes pinned by live (non-alias) layouts.  With no external
        ``allocate_extent`` holdings in flight this equals
        :meth:`allocated_bytes` — the leak-freedom invariant."""
        total = 0
        for lay in self._objects.values():
            if isinstance(lay, FileLayout):
                total += sum(
                    e.length for e in list(lay.extents) + list(lay.parity_extents)
                )
        return total

    def paths(self) -> List[str]:
        """All registered paths, in creation order (deterministic)."""
        return list(self._objects)

    # --------------------------------------------------------- placement
    def _views(self, length: int, exclude: Sequence[str]) -> List[NodeView]:
        """Candidate views: alive, not excluded, room for the extent.

        A create changes the free bytes of only the nodes it placed on,
        so each node keeps its last view and a new one is built only
        when the node's free bytes or domain differ from it.  Liveness
        is not part of a view: dead nodes are filtered out here.
        """
        out = []
        for i, n in enumerate(self.nodes):
            if n in self._dead or n in exclude:
                continue
            fl = self._free_lists[i]
            if not fl.can_fit(length):
                continue
            free = fl.free_bytes
            domain = self.domains.get(n, i)
            view = self._node_views[i]
            if view is None or view.free_bytes != free or view.domain != domain:
                view = NodeView(name=n, index=i, free_bytes=free, domain=domain)
                self._node_views[i] = view
            out.append(view)
        return out

    def _pick_nodes(
        self, n: int, length: int, exclude: Sequence[str] = ()
    ) -> List[str]:
        views = self._views(length, exclude)
        if len(views) < n:
            alive = sum(1 for x in self.nodes if x not in self._dead)
            raise MetadataError(
                f"need {n} distinct storage nodes with {length} B free, "
                f"have {len(views)} eligible ({alive} alive of "
                f"{len(self.nodes)})"
            )
        return self.policy.pick(views, n)

    def _resolve_pins(self, pin_nodes: Sequence[str], n: int) -> List[str]:
        """Validate an explicit placement request (workload hot-spot
        scenarios pin popular objects onto chosen nodes)."""
        pins = list(pin_nodes)
        if len(pins) != n:
            raise MetadataError(
                f"pin_nodes names {len(pins)} nodes, layout needs {n}"
            )
        if len(set(pins)) != len(pins):
            raise MetadataError("pin_nodes must name distinct nodes")
        for node in pins:
            if node not in self.allocator:
                raise MetadataError(f"pin_nodes: unknown storage node {node!r}")
            if node in self._dead:
                raise MetadataError(f"pin_nodes: node {node!r} is dead")
        return pins

    # ------------------------------------------------------------ create
    def create(
        self,
        path: str,
        size: int,
        replication: Optional[ReplicationSpec] = None,
        ec: Optional[EcSpec] = None,
        pin_nodes: Optional[Sequence[str]] = None,
    ) -> FileLayout:
        """Create an object and pin its placement — transactionally.

        Replication and EC are mutually exclusive (§VI-B).  If anything
        fails mid-layout, every extent already allocated is freed and
        the placement cursor is restored, so a failed create leaves no
        trace (the seed leaked both).  ``pin_nodes`` bypasses the
        placement policy with an explicit node list (length must match
        the layout's extent count); the policy cursor is untouched so
        interleaved pinned/policy creates stay deterministic.
        """
        if path in self._objects:
            raise MetadataError(f"object {path!r} already exists")
        if replication is not None and ec is not None:
            raise MetadataError("replication and EC are mutually exclusive (§VI-B)")
        if size <= 0:
            raise MetadataError("object size must be positive")

        allocated: List[Extent] = []
        token = self.policy.snapshot()

        def alloc(node: str, length: int) -> Extent:
            ext = self._alloc_on(node, length)
            allocated.append(ext)
            return ext

        extents: tuple
        parity: tuple = ()
        resiliency = "none"
        try:
            if replication is not None and replication.k > 1:
                if pin_nodes is not None:
                    nodes = self._resolve_pins(pin_nodes, replication.k)
                else:
                    nodes = self._pick_nodes(replication.k, size)
                extents = tuple(alloc(n, size) for n in nodes)
                resiliency = "replication"
            elif ec is not None:
                chunk = -(-size // ec.k)
                if pin_nodes is not None:
                    nodes = self._resolve_pins(pin_nodes, ec.k + ec.m)
                else:
                    nodes = self._pick_nodes(ec.k + ec.m, chunk)
                extents = tuple(alloc(n, chunk) for n in nodes[: ec.k])
                parity = tuple(alloc(n, chunk) for n in nodes[ec.k :])
                resiliency = "ec"
            else:
                if pin_nodes is not None:
                    (node,) = self._resolve_pins(pin_nodes, 1)
                else:
                    (node,) = self._pick_nodes(1, size)
                extents = (alloc(node, size),)
        except MetadataError:
            for e in allocated:
                self.free_extent(e)
            self.policy.restore(token)
            raise
        # the object id is burned only once the allocation committed
        layout = FileLayout(
            object_id=next(self._object_ids),
            size=size,
            extents=extents,
            resiliency=resiliency,
            replication=replication if resiliency == "replication" else None,
            ec=ec,
            parity_extents=parity,
        )
        self._objects[path] = layout
        return layout

    # ------------------------------------------------------------ query
    def lookup(self, path: str):
        try:
            return self._objects[path]
        except KeyError:
            raise MetadataError(f"no such object {path!r}") from None

    def exists(self, path: str) -> bool:
        return path in self._objects

    def objects(self) -> Iterable[tuple]:
        """(path, layout) pairs in creation order."""
        return list(self._objects.items())

    def delete(self, path: str) -> None:
        if path not in self._objects:
            raise MetadataError(f"no such object {path!r}")
        layout = self._objects.pop(path)
        self._free_layout(layout)
        self._writers.pop(path, None)

    # ------------------------------------------------- write coordination
    def grant_write(self, path: str, client_id: int) -> bool:
        """Exclusive-writer capability granting (Ceph-style, §VII)."""
        holder = self._writers.get(path)
        if holder is not None and holder != client_id:
            return False
        self._writers[path] = client_id
        return True

    def revoke_write(self, path: str, client_id: int) -> None:
        if self._writers.get(path) == client_id:
            del self._writers[path]

    # ------------------------------------------------------------ tickets
    def issue_ticket(
        self, client_id: int, path: str, rights: Rights, expiry_ns: int = 2**63 - 1
    ) -> Capability:
        """Hand the client a capability for the whole object (including
        its redundancy extents, which forwarded requests re-validate)."""
        return self.ticket_for(client_id, self.lookup(path), rights, expiry_ns)

    def ticket_for(
        self,
        client_id: int,
        layout: Union[FileLayout, StripedLayout],
        rights: Rights,
        expiry_ns: int = 2**63 - 1,
    ) -> Capability:
        """:meth:`issue_ticket` for a layout the caller already looked up."""
        return self.authority.issue(
            client_id=client_id,
            object_id=layout.object_id,
            addr=0,
            length=self.node_capacity,
            rights=rights,
            expiry_ns=expiry_ns,
        )
