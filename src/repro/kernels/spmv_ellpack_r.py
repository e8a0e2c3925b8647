"""Simulated ELLPACK-R SpMV kernel (Vázquez et al.).

Identical layout to ELLPACK, but each thread stops after its own
``row_length`` iterations; a warp therefore runs only as long as its
longest row, and padded slots beyond that warp maximum cost neither loads
nor flops (paper Section 2.1.4).

:func:`ellpack_r_counters` is shared with the prepared-plan planner so
replay counters are equal by construction.
"""

from __future__ import annotations

import numpy as np

from ..formats.base import SparseFormat
from ..formats.ellpack_r import ELLPACKRMatrix
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec
from ..gpu.launch import ROW_BLOCK_THREADS, LaunchConfig
from ..gpu.memory import contiguous_transactions
from ..gpu.texcache import TextureCacheModel
from ..types import VALUE_DTYPE
from ..utils.bits import ceil_div
from .base import SpMVKernel, SpMVResult, register_kernel

__all__ = ["ELLPACKRKernel", "ellpack_r_counters"]


def ellpack_r_counters(
    matrix: ELLPACKRMatrix, device: DeviceSpec
) -> KernelCounters:
    """Traffic/flop accounting of the ELLPACK-R kernel.

    A warp issues loads for ``warp_iterations`` columns only; each
    iteration is one 32x4B and one 32x8B coalesced access (lanes past
    their own row length are predicated off but the line is fetched).
    """
    m, _ = matrix.shape
    launch = LaunchConfig.for_rows(m)
    tb = device.transaction_bytes
    ws = device.warp_size

    mask = matrix.valid_mask()
    warp_iters = matrix.warp_iterations(ws)  # per-warp max row length
    idx_per_iter = ceil_div(ws * 4, tb)
    val_per_iter = ceil_div(ws * 8, tb)
    total_warp_iters = int(warp_iters.sum())
    idx_tx = total_warp_iters * idx_per_iter
    val_tx = total_warp_iters * val_per_iter
    y_tx = contiguous_transactions(m, 8, ws, tb)
    # row_length array: one coalesced int32 read per thread.
    aux_tx = contiguous_transactions(m, 4, ws, tb)

    tex = TextureCacheModel(device)
    x_bytes = 0
    for r0 in range(0, m, ROW_BLOCK_THREADS):
        r1 = r0 + ROW_BLOCK_THREADS
        x_bytes += tex.block_x_bytes(matrix.col_idx[r0:r1], mask[r0:r1])

    return KernelCounters(
        index_bytes=idx_tx * tb,
        value_bytes=val_tx * tb,
        x_bytes=x_bytes,
        y_bytes=y_tx * tb,
        aux_bytes=aux_tx * tb,
        useful_flops=2 * matrix.nnz,
        issued_flops=2 * matrix.nnz,
        launches=1,
        threads=launch.total_threads,
    )


@register_kernel
class ELLPACKRKernel(SpMVKernel):
    """ELLPACK-R kernel with per-warp early exit."""

    format_name = "ellpack_r"

    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        self._check(matrix, ELLPACKRMatrix)
        assert isinstance(matrix, ELLPACKRMatrix)
        x = matrix.check_x(x)
        m, _ = matrix.shape

        # Masked column-sequential accumulation — each thread walks its
        # row left to right, skipping slots past its row length; matches
        # the prepared plan's replay order bit-for-bit.
        y = np.zeros(m, dtype=VALUE_DTYPE)
        if matrix.k:
            mask = matrix.valid_mask()
            cols = matrix.col_idx
            vals = matrix.vals
            for c in range(matrix.k):
                y += np.where(mask[:, c], vals[:, c] * x[cols[:, c]], 0.0)

        return SpMVResult(
            y=y, counters=ellpack_r_counters(matrix, device), device=device
        )
