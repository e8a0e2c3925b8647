"""Simulated BRO-COO SpMV kernel (paper Section 3.2).

Identical to the COO kernel except that the row indices are decoded
on-the-fly from the packed per-interval stream: each lane keeps a running
row index accumulated from its decoded deltas, with the same shared-control
decode loop as BRO-ELL (a single bit width per interval, so all lanes stay
in lockstep).

:func:`bro_coo_interval_counters` is the one per-interval traffic model:
the kernel feeds it its stepwise decode, the prepared-plan planner and the
per-interval tracer the vectorized one, and :func:`bro_coo_counters` sums
the intervals into the launch.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..core.bro_coo import BROCOOMatrix
from ..formats.base import SparseFormat
from ..gpu.counters import KernelCounters
from ..gpu.device import DECODE_OPS_PER_ITER, DECODE_OPS_PER_LOAD, DeviceSpec
from ..gpu.memory import contiguous_transactions
from ..telemetry.tracer import span as _span
from ..types import VALUE_DTYPE
from ..utils.bits import ceil_div
from .base import SpMVKernel, SpMVResult, register_kernel
from .spmv_bro_ell import walk_slice
from .spmv_coo import coo_interval_counters, segmented_counters

__all__ = [
    "BROCOOKernel",
    "bro_coo_counters",
    "bro_coo_interval_counters",
    "unpack_interval",
]


def unpack_interval(matrix: BROCOOMatrix, i: int) -> Tuple[np.ndarray, int]:
    """Vectorized decode of interval ``i``: its ``(w, L)`` row indices and
    the symbol loads a fully consumed stream costs — one lane's ``L``
    widths of ``bit_alloc[i]`` bits, in whole symbols (planner, tracer)."""
    rows_2d = matrix.decode_interval_rows(i)
    bits = rows_2d.shape[1] * int(matrix.bit_alloc[i])
    return rows_2d, ceil_div(bits, matrix.stream.sym_len)


def bro_coo_interval_counters(
    matrix: BROCOOMatrix,
    i: int,
    rows_2d: np.ndarray,
    symbol_loads: int,
    device: DeviceSpec,
) -> KernelCounters:
    """Counters of interval ``i`` (one warp) from its decoded ``(w, L)``
    row indices and the symbol loads that decoded them.

    The packed row stream (``symbol_loads`` coalesced ``w``-wide loads) and
    the decode loop, on top of the segmented reduction's per-interval
    terms (:func:`~repro.kernels.spmv_coo.coo_interval_counters`).
    """
    lo, hi = matrix.interval_entry_bounds(i)
    w, L = rows_2d.shape
    tb = device.transaction_bytes
    counters = coo_interval_counters(
        rows_2d.T.reshape(-1)[: hi - lo], matrix.col_idx[lo:hi], lo, device
    )
    counters.index_bytes = symbol_loads * contiguous_transactions(
        w, matrix.stream.sym_len // 8, device.warp_size, tb
    ) * tb
    counters.decode_ops = (
        DECODE_OPS_PER_ITER * w * L + DECODE_OPS_PER_LOAD * symbol_loads * w
    )
    return counters


def bro_coo_counters(
    matrix: BROCOOMatrix, intervals: Sequence[KernelCounters], device: DeviceSpec
) -> KernelCounters:
    """Launch counters of the BRO-COO kernel from its per-interval terms."""
    counters = segmented_counters(
        intervals, matrix.padded_nnz, matrix.nnz, device
    )
    counters.aux_bytes += matrix.num_intervals  # 1-byte widths (const mem)
    return counters


@register_kernel
class BROCOOKernel(SpMVKernel):
    """BRO-COO kernel: decode row deltas, then segmented reduction."""

    format_name = "bro_coo"

    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        self._check(matrix, BROCOOMatrix)
        assert isinstance(matrix, BROCOOMatrix)
        x = matrix.check_x(x)

        # ---- functional execution: decode each interval, then scatter ----
        rows = np.zeros(matrix.padded_nnz, dtype=np.int64)
        intervals = []
        for i, lo, hi, stream_view in matrix.iter_intervals():
            widths = np.full(matrix.interval_lanes(i), int(matrix.bit_alloc[i]))
            deltas, loads = walk_slice(
                stream_view, widths, matrix.warp_size, matrix.stream.sym_len
            )
            rows_2d = np.cumsum(deltas, axis=1) - 1  # 1-based accumulate
            rows[lo:hi] = rows_2d.T.reshape(-1)[: hi - lo]
            intervals.append(
                bro_coo_interval_counters(matrix, i, rows_2d, loads, device)
            )
        y = np.zeros(matrix.shape[0], dtype=VALUE_DTYPE)
        products = matrix.vals * x[matrix.col_idx]
        with _span("reduce.segmented", "kernel"):
            np.add.at(y, rows, products)  # phantom padding carries value 0.0
        return SpMVResult(
            y=y, counters=bro_coo_counters(matrix, intervals, device),
            device=device,
        )
