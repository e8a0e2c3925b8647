"""Simulated CSR SpMV kernel (vector variant: one warp per row).

Included as a baseline substrate: each warp strides its row's entries
32-at-a-time (coalesced within the row, but each row's first transaction is
generally unaligned), then reduces lane partials with a warp tree. Short
rows under-utilize the warp — the classic CSR-vector weakness the ELL
family avoids.

:func:`csr_counters` is shared with the prepared-plan planner so replay
counters are equal by construction.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..formats.base import SparseFormat
from ..formats.csr import CSRMatrix
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec
from ..gpu.launch import LaunchConfig
from ..gpu.memory import contiguous_transactions
from ..gpu.texcache import TextureCacheModel
from ..gpu.warp import warp_reduce_flops
from ..utils.bits import ceil_div
from .base import SpMVKernel, SpMVResult, register_kernel

__all__ = [
    "CSRVectorKernel",
    "csr_column_schedule",
    "csr_counters",
    "csr_spmv_columns",
]

#: schedule = [(rows_with_len>j, their j-th entry positions), ...]
CsrSchedule = List[Tuple[np.ndarray, np.ndarray]]


def csr_column_schedule(indptr: np.ndarray) -> CsrSchedule:
    """Precompute the per-position gather schedule for a CSR container."""
    lengths = np.diff(indptr)
    schedule: CsrSchedule = []
    max_len = int(lengths.max()) if lengths.size else 0
    for j in range(max_len):
        rows_j = np.flatnonzero(lengths > j)
        schedule.append((rows_j, indptr[rows_j] + j))
    return schedule


def csr_spmv_columns(
    indices: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    schedule: CsrSchedule,
    m: int,
) -> np.ndarray:
    """Row-sequential CSR SpMV, vectorized across rows per position.

    Iterating over row *positions* (all rows' entry 0, then entry 1, ...)
    keeps every row's sum sequential and zero-initialised — the order the
    prepared plan's jagged replay adds in; ``np.add.reduceat`` (used by
    ``CSRMatrix.spmv``) does not, its pairwise blocking reassociates.
    """
    y = np.zeros(m, dtype=vals.dtype)
    for rows_j, pos_j in schedule:
        y[rows_j] += vals[pos_j] * x[indices[pos_j]]
    return y


def csr_counters(matrix: CSRMatrix, device: DeviceSpec) -> KernelCounters:
    """Traffic/flop accounting of the CSR-vector kernel (shared with plans)."""
    m, _ = matrix.shape
    ws = device.warp_size
    tb = device.transaction_bytes
    lengths = matrix.row_lengths()
    # Unaligned row starts: each non-empty row pays ceil(len*b/128) + 1
    # transactions in the worst case; model the +1 misalignment on rows
    # that do not start on a transaction boundary.
    starts = matrix.indptr[:-1]
    misaligned_idx = ((starts * 4) % tb != 0) & (lengths > 0)
    misaligned_val = ((starts * 8) % tb != 0) & (lengths > 0)
    idx_tx = int(np.ceil(lengths * 4 / tb).sum() + misaligned_idx.sum())
    val_tx = int(np.ceil(lengths * 8 / tb).sum() + misaligned_val.sum())

    # x reads: each warp walks its own row; arrange the row's columns
    # as a (ws, iters) lane grid for the cache model.
    tex = TextureCacheModel(device)
    x_bytes = 0
    for r in range(m):
        lo, hi = int(matrix.indptr[r]), int(matrix.indptr[r + 1])
        if lo == hi:
            continue
        L = ceil_div(hi - lo, ws)
        block = np.zeros(L * ws, dtype=np.int64)
        block[: hi - lo] = matrix.indices[lo:hi]
        valid = np.zeros(L * ws, dtype=bool)
        valid[: hi - lo] = True
        x_bytes += (
            tex.warp_sequence_fetches(
                block.reshape(L, ws).T, valid.reshape(L, ws).T
            )
            * device.tex_line_bytes
        )

    return KernelCounters(
        index_bytes=idx_tx * tb,
        value_bytes=val_tx * tb,
        x_bytes=x_bytes,
        y_bytes=contiguous_transactions(m, 8, ws, tb) * tb,
        aux_bytes=contiguous_transactions(m + 1, 4, ws, tb) * tb,
        useful_flops=2 * matrix.nnz,
        issued_flops=2 * matrix.nnz + warp_reduce_flops(ws) * m,
        launches=1,
        threads=LaunchConfig.for_warps(m, ws).total_threads,
    )


@register_kernel
class CSRVectorKernel(SpMVKernel):
    """CSR-vector kernel (one warp per row, warp-tree reduction)."""

    format_name = "csr"

    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        self._check(matrix, CSRMatrix)
        assert isinstance(matrix, CSRMatrix)
        x = matrix.check_x(x)
        m, _ = matrix.shape
        # Row-sequential accumulation (matches the prepared-plan replay
        # bit-for-bit; matrix.spmv's reduceat would reassociate long rows).
        y = csr_spmv_columns(
            matrix.indices, matrix.vals, x,
            csr_column_schedule(matrix.indptr), m,
        )
        return SpMVResult(
            y=y, counters=csr_counters(matrix, device), device=device
        )
