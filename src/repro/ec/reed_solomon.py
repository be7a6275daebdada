"""Systematic Reed-Solomon RS(k, m) encode / decode / repair.

This is the data-processing substrate behind the paper's erasure-coding
policy (§VI): data is split into ``k`` chunks and stored with ``m``
parity chunks; any ``m`` chunk losses are recoverable (RS is maximum
distance separable).  The codec also exposes the *incremental* parity
path used by sPIN-TriEC: a data node with chunk ``j`` computes its
intermediate parity contribution ``enc[k+i, j] * chunk_j`` per parity
stream ``i``, and the parity node XOR-accumulates the ``k``
contributions (§VI-B2/B3, Fig. 14).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .gf256 import gf_mul_scalar_vec, gf_mulvec_accumulate
from .matrix import SingularMatrixError, gf_mat_inv, gf_matmul, systematic_encoding_matrix

__all__ = ["RSCode", "pad_to_chunks", "DecodeError"]


class DecodeError(ValueError):
    """Raised when too many chunks are missing to decode."""


class RSCode:
    """A systematic RS(k, m) code over GF(2^8).

    >>> rs = RSCode(3, 2)
    >>> chunks = rs.split(np.arange(30, dtype=np.uint8))
    >>> encoded = rs.encode(chunks)           # 5 chunks: 3 data + 2 parity
    >>> rs.decode({0: encoded[0], 3: encoded[3], 4: encoded[4]})[1][:3]
    array([10, 11, 12], dtype=uint8)
    """

    def __init__(self, k: int, m: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        if m < 0:
            raise ValueError("m must be >= 0")
        self.k = k
        self.m = m
        self.n = k + m
        self.encoding_matrix = systematic_encoding_matrix(k, m)
        # Parity rows only — what data-node handlers carry (m x k).
        self.parity_matrix = self.encoding_matrix[k:, :]

    # ------------------------------------------------------------- split
    def split(self, data: np.ndarray) -> list[np.ndarray]:
        """Split a buffer into k equal chunks (zero-padding the tail)."""
        return pad_to_chunks(data, self.k)

    # ------------------------------------------------------------ encode
    def encode(self, chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Full encode: k data chunks -> k data + m parity chunks."""
        chunks = self._check_chunks(chunks)
        stacked = np.stack(chunks)  # (k, L)
        parity = gf_matmul(self.parity_matrix, stacked)
        return list(stacked) + [parity[i] for i in range(self.m)]

    def parity_coefficient(self, parity_idx: int, data_idx: int) -> int:
        """enc[k + parity_idx, data_idx] — the per-byte multiplier a data
        node applies when producing an intermediate parity packet."""
        return int(self.parity_matrix[parity_idx, data_idx])

    def intermediate_parity(self, parity_idx: int, data_idx: int, chunk: np.ndarray) -> np.ndarray:
        """Intermediate parity contribution of one data chunk for one
        parity stream (what a sPIN-TriEC data node sends on the wire)."""
        return gf_mul_scalar_vec(self.parity_coefficient(parity_idx, data_idx), chunk)

    @staticmethod
    def accumulate(acc: np.ndarray, contribution: np.ndarray) -> None:
        """XOR a contribution into a parity accumulator (parity-node op)."""
        np.bitwise_xor(acc, contribution, out=acc)

    def parity_from_intermediates(
        self, parity_idx: int, chunks: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Reference final parity computed the TriEC way: per-data-node
        intermediate contributions XOR-folded together (Fig. 14)."""
        chunks = self._check_chunks(chunks)
        acc = np.zeros_like(chunks[0])
        for j, c in enumerate(chunks):
            gf_mulvec_accumulate(acc, self.parity_coefficient(parity_idx, j), c)
        return acc

    # ------------------------------------------------------------ decode
    def decode(self, available: dict[int, np.ndarray]) -> list[np.ndarray]:
        """Recover the k data chunks from any k available encoded chunks.

        ``available`` maps encoded-chunk index (0..k+m-1) to its bytes.
        """
        if len(available) < self.k:
            raise DecodeError(
                f"need at least k={self.k} chunks, got {len(available)}"
            )
        for idx in available:
            if not 0 <= idx < self.n:
                raise DecodeError(f"chunk index {idx} out of range 0..{self.n - 1}")
        lengths = {v.nbytes for v in available.values()}
        if len(lengths) != 1:
            raise DecodeError(f"chunk length mismatch: {sorted(lengths)}")

        # Fast path: all data chunks survived.
        if all(i in available for i in range(self.k)):
            return [np.asarray(available[i], dtype=np.uint8) for i in range(self.k)]

        use = sorted(available)[: self.k]
        sub = self.encoding_matrix[use, :]  # (k, k)
        try:
            inv = gf_mat_inv(sub)
        except SingularMatrixError as e:  # cannot happen for Vandermonde RS
            raise DecodeError(f"singular decode matrix: {e}") from e
        stacked = np.stack([np.asarray(available[i], dtype=np.uint8) for i in use])
        data = gf_matmul(inv, stacked)
        return [data[i] for i in range(self.k)]

    def repair(
        self, available: dict[int, np.ndarray], missing: Sequence[int]
    ) -> dict[int, np.ndarray]:
        """Recompute specific missing encoded chunks (data or parity)."""
        data = self.decode(available)
        full = self.encode(data)
        return {i: full[i] for i in missing}

    def join(self, data_chunks: Sequence[np.ndarray], length: Optional[int] = None) -> np.ndarray:
        """Concatenate data chunks, trimming padding to ``length`` bytes."""
        out = np.concatenate([np.asarray(c, dtype=np.uint8) for c in data_chunks])
        return out if length is None else out[:length]

    # ------------------------------------------------------------- misc
    def _check_chunks(self, chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        if len(chunks) != self.k:
            raise ValueError(f"expected {self.k} chunks, got {len(chunks)}")
        arrs = [np.asarray(c, dtype=np.uint8) for c in chunks]
        if len({a.nbytes for a in arrs}) != 1:
            raise ValueError("all chunks must have equal length")
        return arrs

    @property
    def storage_overhead(self) -> float:
        """Extra storage fraction: m/k (vs k-1 for k-way replication)."""
        return self.m / self.k

    def __repr__(self) -> str:  # pragma: no cover
        return f"RSCode(k={self.k}, m={self.m})"


def pad_to_chunks(data: np.ndarray, k: int) -> list[np.ndarray]:
    """Split ``data`` into k equal uint8 chunks, zero-padding the tail."""
    data = np.asarray(data, dtype=np.uint8).ravel()
    chunk_len = -(-max(data.nbytes, 1) // k)
    padded = np.zeros(chunk_len * k, dtype=np.uint8)
    padded[: data.nbytes] = data
    return [padded[i * chunk_len : (i + 1) * chunk_len] for i in range(k)]
