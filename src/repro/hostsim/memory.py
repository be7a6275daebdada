"""Host memory target: the functional byte store behind a storage node.

The paper deliberately abstracts the storage medium (§III: "we assume
that the storage medium can digest data at network bandwidth or
higher"), targeting NVMM / in-memory file systems.  We model the target
as a flat byte-addressable buffer: writes land at explicit offsets, and
the benchmark assertions later check byte-for-byte contents (e.g. all
replicas identical after a replicated write).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..simnet.engine import Deferrer

__all__ = ["MemoryTarget", "AddressError"]


class AddressError(ValueError):
    """Out-of-range access to a memory target."""


class MemoryTarget(Deferrer):
    """A flat, byte-addressable storage target.

    Visibility rule (§III-B1): a DMA's bytes land at its durable
    instant.  A PCIe write posted with telemetry off
    (:meth:`~repro.hostsim.pcie.Pcie.post_write`) is a deferred entry
    on this target (:class:`~repro.simnet.engine.Deferrer`): it is
    applied, in rank order, by the next ``read``/``view``/``write`` or
    counter read at or after that instant, or by its own dispatch when
    a waiter arms it.  A read before the durable instant, or at it from
    an entry ranked earlier, sees the old bytes.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.buf = np.zeros(capacity, dtype=np.uint8)
        self._bytes_written = 0
        self._write_ops = 0
        #: posted writes not yet applied:
        #: [durable, seq, armed, addr, data, channel, self]
        self._dq: deque = deque()

    @property
    def bytes_written(self) -> int:
        if self._dq:
            self._settle()
        return self._bytes_written

    @property
    def write_ops(self) -> int:
        if self._dq:
            self._settle()
        return self._write_ops

    def check_range(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.capacity:
            raise AddressError(
                f"range [{addr}, {addr + length}) outside target of {self.capacity} B"
            )

    def write(self, addr: int, data: np.ndarray) -> None:
        if self._dq:
            self._settle()
        self._write(addr, data)

    def _write(self, addr: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        self.check_range(addr, data.nbytes)
        self.buf[addr : addr + data.nbytes] = data
        self._bytes_written += data.nbytes
        self._write_ops += 1

    def _apply(self, rec: list) -> None:
        self._write(rec[3], rec[4])

    def read(self, addr: int, length: int) -> np.ndarray:
        if self._dq:
            self._settle()
        self.check_range(addr, length)
        # A read returns a copy: callers may mutate it freely.
        return self.buf[addr : addr + length].copy()

    def view(self, addr: int, length: int) -> np.ndarray:
        """Zero-copy view for assertions in tests/benchmarks."""
        if self._dq:
            self._settle()
        self.check_range(addr, length)
        return self.buf[addr : addr + length]
