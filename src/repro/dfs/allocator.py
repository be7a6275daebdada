"""Free-list extent allocation for the metadata service.

The seed's bump allocator could only ever move its cursor forward, so
every ``delete()``/``update_layout()`` leaked the old extents and churny
workloads spuriously exhausted nodes.  This module replaces it with a
classic address-ordered free list per storage node: ``alloc`` is
first-fit, ``free`` reinserts the hole and merges it with both
neighbours, and the bookkeeping is exact — ``used_bytes + sum(holes) ==
capacity`` at all times, which the control-plane tests assert after
create/delete/recover churn.

Everything is deterministic: no randomness, no hashing — holes are kept
sorted by address and nodes are dict-ordered.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Sequence, Tuple

__all__ = ["AllocError", "FreeList", "ExtentAllocator"]


class AllocError(RuntimeError):
    """Allocation failure (no hole large enough) or free-list corruption
    (double free / overlapping free)."""


class FreeList:
    """Address-ordered free list over one node's ``[0, capacity)`` space."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise AllocError("capacity must be positive")
        self.capacity = capacity
        self.used = 0
        #: sorted, disjoint, non-adjacent (addr, length) holes
        self._holes: List[Tuple[int, int]] = [(0, capacity)]
        #: the same holes' lengths in ascending order, so the largest
        #: hole (and so ``can_fit``) is read off the end without a scan
        self._lengths: List[int] = [capacity]

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    def largest_hole(self) -> int:
        return self._lengths[-1] if self._lengths else 0

    def can_fit(self, length: int) -> bool:
        return bool(self._lengths) and self._lengths[-1] >= length

    def _drop_length(self, ln: int) -> None:
        del self._lengths[bisect_left(self._lengths, ln)]

    # ------------------------------------------------------------- alloc
    def alloc(self, length: int) -> int:
        """First-fit allocation; returns the extent's start address."""
        if length <= 0:
            raise AllocError("extent length must be positive")
        for i, (addr, ln) in enumerate(self._holes):
            if ln >= length:
                self._drop_length(ln)
                if ln == length:
                    del self._holes[i]
                else:
                    self._holes[i] = (addr + length, ln - length)
                    insort(self._lengths, ln - length)
                self.used += length
                return addr
        raise AllocError(
            f"no hole of {length} B ({self.free_bytes} B free, "
            f"largest hole {self.largest_hole()} B)"
        )

    # -------------------------------------------------------------- free
    def free(self, addr: int, length: int) -> None:
        """Return ``[addr, addr+length)``; merges with both neighbours.

        Raises :class:`AllocError` on double frees or frees overlapping
        an existing hole — corruption is an error here, not at the next
        unlucky ``alloc``.
        """
        if length <= 0 or addr < 0 or addr + length > self.capacity:
            raise AllocError(f"bad free range [{addr}, {addr + length})")
        i = bisect_right(self._holes, (addr, length))
        prev_i, next_i = i - 1, i
        if prev_i >= 0:
            p_addr, p_len = self._holes[prev_i]
            if p_addr + p_len > addr:
                raise AllocError(
                    f"free of [{addr}, {addr + length}) overlaps hole "
                    f"[{p_addr}, {p_addr + p_len}) — double free?"
                )
        if next_i < len(self._holes):
            n_addr, _ = self._holes[next_i]
            if addr + length > n_addr:
                raise AllocError(
                    f"free of [{addr}, {addr + length}) overlaps hole "
                    f"at {n_addr} — double free?"
                )
        # merge: absorb the previous and/or next hole when adjacent
        start, end = addr, addr + length
        if prev_i >= 0:
            p_addr, p_len = self._holes[prev_i]
            if p_addr + p_len == start:
                start = p_addr
                del self._holes[prev_i]
                self._drop_length(p_len)
                next_i -= 1
        if next_i < len(self._holes):
            n_addr, n_len = self._holes[next_i]
            if end == n_addr:
                end = n_addr + n_len
                del self._holes[next_i]
                self._drop_length(n_len)
        insort(self._holes, (start, end - start))
        insort(self._lengths, end - start)
        self.used -= length

    # ------------------------------------------------------------- audit
    def check(self) -> None:
        """Assert the structural invariants (tests call this)."""
        total = 0
        prev_end = -1
        for addr, ln in self._holes:
            assert ln > 0, "empty hole"
            assert addr > prev_end, "unsorted/overlapping/adjacent holes"
            prev_end = addr + ln
            total += ln
        assert prev_end <= self.capacity, "hole past capacity"
        assert self._lengths == sorted(ln for _, ln in self._holes), (
            "hole-length index out of step with the holes"
        )
        assert total + self.used == self.capacity, (
            f"accounting defect: {total} free + {self.used} used "
            f"!= {self.capacity}"
        )


class ExtentAllocator:
    """Per-node free lists, keyed in registration order."""

    def __init__(self, node_capacity: int, nodes: Sequence[str] = ()):
        self.node_capacity = node_capacity
        self._lists: Dict[str, FreeList] = {}
        for n in nodes:
            self.add_node(n)

    def add_node(self, node: str) -> None:
        if node in self._lists:
            raise AllocError(f"node {node!r} already registered")
        self._lists[node] = FreeList(self.node_capacity)

    def __contains__(self, node: str) -> bool:
        return node in self._lists

    def _list(self, node: str) -> FreeList:
        try:
            return self._lists[node]
        except KeyError:
            raise AllocError(f"unknown storage node {node!r}") from None

    def alloc(self, node: str, length: int) -> int:
        return self._list(node).alloc(length)

    def free(self, node: str, addr: int, length: int) -> None:
        self._list(node).free(addr, length)

    def free_list(self, node: str) -> FreeList:
        """The free list of ``node`` (callers that poll one node on
        every placement keep the handle)."""
        return self._list(node)

    def free_bytes(self, node: str) -> int:
        return self._list(node).free_bytes

    def used_bytes(self, node: str) -> int:
        return self._list(node).used

    def allocated_bytes(self) -> int:
        """Total bytes currently allocated across all nodes."""
        return sum(fl.used for fl in self._lists.values())

    def check(self) -> None:
        for fl in self._lists.values():
            fl.check()
