"""Simulated COO SpMV kernel (CUSP-style segmented reduction).

One warp per interval of the sorted entry list. Per iteration the warp
streams 32 row indices, 32 column indices and 32 values (all coalesced),
multiplies, and runs an intra-warp segmented scan; per-row partial sums are
committed with atomics, and a small second kernel reduces the per-warp
carries (paper Section 2.1.1 / [5]).

:func:`coo_counters` is shared with the prepared-plan planner, and the
segmented-reduction terms (:func:`coo_interval_counters`,
:func:`segmented_counters`) with BRO-COO, so kernel, plan and per-interval
trace accounting are equal by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.bro_coo import adaptive_interval_size
from ..formats.base import SparseFormat
from ..formats.coo import COOMatrix
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec
from ..gpu.memory import contiguous_transactions
from ..gpu.texcache import TextureCacheModel
from ..gpu.warp import warp_reduce_flops
from ..telemetry.tracer import span as _span
from ..types import VALUE_DTYPE
from ..utils.bits import ceil_div
from .base import SpMVKernel, SpMVResult, register_kernel

__all__ = [
    "COOKernel",
    "coo_counters",
    "coo_interval_counters",
    "segmented_counters",
]


def coo_interval_counters(
    rows: np.ndarray, cols: np.ndarray, lo: int, device: DeviceSpec
) -> KernelCounters:
    """Counters of one warp's interval: padded entries ``[lo, lo + len(rows))``.

    The interval's share of the coalesced value stream (a transaction is
    charged to the interval that ends in it, so the shares add up to the
    stream's total), its ``x`` reads — the warp walks its entries ``ws``
    at a time, lane ``t % ws`` at iteration ``t // ws``, through the
    texture cache — and its ``y`` commits: one atomic read-modify-write
    (16 B) per distinct row, plus the 12 B carry launch #2 reduces.
    """
    ws = device.warp_size
    tb = device.transaction_bytes
    count = rows.shape[0]
    L = ceil_div(count, ws)
    block = np.zeros(L * ws, dtype=np.int64)
    block[:count] = cols
    valid = np.zeros(L * ws, dtype=bool)
    valid[:count] = True
    fetches = TextureCacheModel(device).warp_sequence_fetches(
        block.reshape(L, ws).T, valid.reshape(L, ws).T
    )
    return KernelCounters(
        value_bytes=(
            contiguous_transactions(lo + count, 8, ws, tb)
            - contiguous_transactions(lo, 8, ws, tb)
        ) * tb,
        x_bytes=fetches * device.tex_line_bytes,
        y_bytes=16 * int(np.unique(rows).shape[0]) + 12,
        launches=0,
    )


def segmented_counters(
    intervals: Sequence[KernelCounters], n: int, nnz: int, device: DeviceSpec
) -> KernelCounters:
    """Whole-launch counters of the segmented reduction over ``n`` padded
    entries (``nnz`` real), one warp per interval.

    Adds to the per-interval terms (:func:`coo_interval_counters`, plus
    whatever the caller charged per interval) the coalesced int32 column
    stream and the intra-warp scan flops. The *row-index* stream is the
    caller's: 4 B/entry for plain COO, the packed stream for BRO-COO.
    """
    ws = device.warp_size
    tb = device.transaction_bytes
    total = KernelCounters.sum(intervals)
    total.index_bytes += contiguous_transactions(n, 4, ws, tb) * tb
    total.useful_flops = 2 * nnz
    total.issued_flops = 2 * n + warp_reduce_flops(ws) * ceil_div(n, ws)
    total.launches = 2  # main kernel + carry reduction
    total.threads = max(ws, len(intervals) * ws)
    return total


def coo_counters(matrix: COOMatrix, device: DeviceSpec) -> KernelCounters:
    """Traffic/flop accounting of the COO kernel (shared with plans).

    Entries are padded to whole warps with phantoms that repeat the last
    row, and split into CUSP's adaptive intervals (work divided over
    enough warps to fill the device, so a small COO part — e.g. the tail
    of a HYB split — does not starve the occupancy model).
    """
    ws = device.warp_size
    tb = device.transaction_bytes
    nnz = matrix.nnz
    n = ceil_div(nnz, ws) * ws
    rows = np.zeros(n, dtype=np.int64)
    cols = np.zeros(n, dtype=np.int64)
    rows[:nnz] = matrix.row_idx
    cols[:nnz] = matrix.col_idx
    if nnz:
        rows[nnz:] = int(matrix.row_idx[-1])
    size = adaptive_interval_size(n, ws)
    counters = segmented_counters(
        [
            coo_interval_counters(rows[lo : lo + size], cols[lo : lo + size], lo, device)
            for lo in range(0, n, size)
        ],
        n, nnz, device,
    )
    # Row indices: one coalesced int32 stream (what BRO-COO compresses).
    counters.index_bytes += contiguous_transactions(n, 4, ws, tb) * tb
    return counters


@register_kernel
class COOKernel(SpMVKernel):
    """CUSP-style COO kernel with warp-level segmented reduction."""

    format_name = "coo"

    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        self._check(matrix, COOMatrix)
        assert isinstance(matrix, COOMatrix)
        x = matrix.check_x(x)
        y = np.zeros(matrix.shape[0], dtype=VALUE_DTYPE)
        with _span("reduce.segmented", "kernel"):
            np.add.at(y, matrix.row_idx, matrix.vals * x[matrix.col_idx])
        return SpMVResult(
            y=y, counters=coo_counters(matrix, device), device=device
        )
