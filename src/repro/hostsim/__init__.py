"""Host-side models: CPU cores, the PCIe interconnect, and the
byte-addressable storage target."""

from .cpu import CoreHold, Cpu
from .memory import AddressError, MemoryTarget
from .nvme import NvmeParams, NvmeTarget
from .pcie import Pcie

__all__ = ["AddressError", "CoreHold", "Cpu", "MemoryTarget", "NvmeParams", "NvmeTarget", "Pcie"]
