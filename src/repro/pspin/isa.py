"""Handler instruction-cost model, calibrated to the paper.

PsPIN handlers are compiled RISC-V (riscv32, -O3 -flto, §III-D); we
reproduce their *cost structure* from the published measurements:

Table I (replication handlers, per-handler instruction counts):

======================  ====  ====  ====
type                     HH    PH    CH
======================  ====  ====  ====
k=1 (plain write)        120    55    66
k=4 ring                 120   105    65
k=4 pbt                  120   130    82
======================  ====  ====  ====

Table II (EC payload handlers): RS(3,2) 11 672 instructions per 2 KiB
packet (≈5 instr/byte, §VI-C(c)), RS(6,3) 16 028 (≈7 instr/byte), both
at IPC ≈ 0.7; completion handlers 35 instructions.

Durations in the tables are *measured under load*: compute time
(instructions × CPI) plus stalls waiting on the egress port (which is
what collapses the k=4 PBT payload-handler IPC to 0.06).  Here we only
encode the compute part — CPI for control-dominated handlers ≈ 1.72
(IPC ≈ 0.58) and for the dense GF loop ≈ 1.43 (IPC = 0.7) — and let the
simulator produce the stall component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "HandlerCost",
    "CPI_CONTROL",
    "CPI_LOOP",
    "AUTH_HANDLER_CYCLES",
    "header_handler_cost",
    "payload_handler_cost",
    "completion_handler_cost",
    "forward_payload_cost",
    "ec_data_payload_cost",
    "ec_parity_payload_cost",
    "ec_completion_cost",
    "cleanup_handler_cost",
    "ec_instructions_per_byte",
    "ec_fixed_instructions",
]

#: CPI of control-dominated handlers (branches, header parsing).
#: Table I: HH 120 instr / 211 ns @1 GHz -> 1.758; PH(k=1) 55/92 -> 1.67;
#: CH 66/107 -> 1.62.  We keep the per-class values.
CPI_HH = 1.758
CPI_PH = 1.672
CPI_CH = 1.621
CPI_CONTROL = 1.72  # generic fallback
#: CPI of the byte-wise GF(2^8) encode loop (Table II, IPC 0.7).
CPI_LOOP = 1.429

#: Fig. 7: "The DFS handler that validates client requests takes 200
#: cycles."  The 120-instruction HH of Table I spends most of them here.
AUTH_HANDLER_CYCLES = 200


@dataclass(frozen=True)
class HandlerCost:
    """Compute cost of one handler invocation."""

    instructions: int
    cpi: float
    #: memory-intensive handlers suffer L1-contention CPI penalties
    mem_intensive: bool = False

    def compute_cycles(self) -> float:
        return self.instructions * self.cpi

    def compute_ns(self, freq_ghz: float, contention_factor: float = 1.0) -> float:
        scale = contention_factor if self.mem_intensive else 1.0
        return self.instructions * self.cpi * scale / freq_ghz


# ----------------------------------------------------------- replication/auth
# Handlers run several times per request: the cost functions hand out
# shared (frozen) instances instead of building one per run.
_HH_COST = HandlerCost(instructions=120, cpi=CPI_HH)
_PH_COST = HandlerCost(instructions=55, cpi=CPI_PH)


def header_handler_cost() -> HandlerCost:
    """HH: request validation (capability check) + req_table setup.

    120 instructions at CPI 1.758 = 211 cycles — consistent with Fig. 7's
    200-cycle validation plus bookkeeping.
    """
    return _HH_COST


def payload_handler_cost() -> HandlerCost:
    """PH for a plain (k=1) write: DMA descriptor to host, accounting."""
    return _PH_COST


@lru_cache(maxsize=None)
def forward_payload_cost(n_children: int) -> HandlerCost:
    """PH that also forwards to ``n_children`` replicas (Table I:
    105 instr for ring = +50 over plain; pbt 130 = +25 per extra child)."""
    if n_children <= 0:
        return payload_handler_cost()
    return HandlerCost(instructions=55 + 25 * (n_children + 1), cpi=CPI_PH)


@lru_cache(maxsize=None)
def completion_handler_cost(n_children: int = 0) -> HandlerCost:
    """CH: finalize request, send the client/upstream ack.

    Table I: 66 instr plain, 65 ring, 82 pbt — constant-ish; pbt tracks
    two children's completion.
    """
    instr = 66 if n_children <= 1 else 66 + 8 * n_children
    return HandlerCost(instructions=instr, cpi=CPI_CH)


# ----------------------------------------------------------------- erasure
#: Instructions per payload byte of the GF encode loop: one table-row
#: gather + XOR-accumulate + load/store per parity stream: 2m + 1.
def ec_instructions_per_byte(m: int) -> int:
    return 2 * m + 1


#: Loop prologue/bookkeeping, calibrated to Table II's totals:
#: RS(3,2): 11 672 - 5*2048 = 1432;  RS(6,3): 16 028 - 7*2048 = 1692.
_EC_FIXED = {2: 1432, 3: 1692}


def ec_fixed_instructions(m: int) -> int:
    return _EC_FIXED.get(m, 560 * m + 312)


def ec_data_payload_cost(m: int, payload_bytes: int) -> HandlerCost:
    """PH on a data node: encode the payload into m intermediate parity
    packets (scanning every byte, §VI-B2)."""
    instr = ec_instructions_per_byte(m) * payload_bytes + ec_fixed_instructions(m)
    return HandlerCost(instructions=instr, cpi=CPI_LOOP, mem_intensive=True)


def ec_parity_payload_cost(payload_bytes: int) -> HandlerCost:
    """PH on a parity node: XOR the packet into its accumulator
    (1 load + 1 xor + 1 store per 4-byte word ≈ 0.75 instr/byte)."""
    instr = (3 * payload_bytes) // 4 + 160
    return HandlerCost(instructions=instr, cpi=CPI_LOOP, mem_intensive=True)


def ec_completion_cost() -> HandlerCost:
    """CH for EC streams (Table II: 35 instructions)."""
    return HandlerCost(instructions=35, cpi=3.0)


def cleanup_handler_cost() -> HandlerCost:
    """Cleanup handler for abandoned requests (§VII)."""
    return HandlerCost(instructions=90, cpi=CPI_CONTROL)
