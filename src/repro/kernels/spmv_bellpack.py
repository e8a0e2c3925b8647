"""Simulated BELLPACK SpMV kernel (one thread per block row, r-wide MADs).

Per iteration a thread reads one block-column index (4 B) and an ``r x c``
dense block (coalesced across the block-row's threads in the transposed
device layout Choi et al. use), gathers ``c`` consecutive x values through
the texture cache — blocked formats's x accesses are naturally vectorized
— and accumulates ``r`` partial sums in registers.

:func:`bellpack_counters` is shared with the prepared-plan planner so
replay counters are equal by construction.
"""

from __future__ import annotations

import numpy as np

from ..formats.base import SparseFormat
from ..formats.bellpack import BELLPACKMatrix
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec
from ..gpu.launch import ROW_BLOCK_THREADS, LaunchConfig
from ..gpu.memory import contiguous_transactions
from ..gpu.texcache import TextureCacheModel
from .base import SpMVKernel, SpMVResult, register_kernel

__all__ = ["BELLPACKKernel", "bellpack_counters"]


def bellpack_counters(matrix: BELLPACKMatrix, device: DeviceSpec) -> KernelCounters:
    """Traffic/flop accounting of the BELLPACK kernel."""
    r, c = matrix.block_shape
    mb, K = matrix.block_col_idx.shape
    # One thread per *matrix* row (Choi et al.): the r threads of a
    # block row share its block-column indices and each computes one
    # of the block's rows.
    launch = LaunchConfig.for_rows(matrix.shape[0])
    tb = device.transaction_bytes
    ws = device.warp_size

    # Per iteration the grid streams one int32 block index and r*c
    # float64 per block row, both coalesced.
    idx_tx = K * contiguous_transactions(mb, 4, ws, tb)
    val_tx = K * contiguous_transactions(mb, 8 * r * c, ws, tb)
    y_tx = contiguous_transactions(matrix.shape[0], 8, ws, tb)

    # x reads: block columns expand to c consecutive elements; model
    # them through the texture cache at the first element of each
    # block (the remaining c-1 share the line or the next one).
    tex = TextureCacheModel(device)
    x_bytes = 0
    mask = np.arange(K)[np.newaxis, :] < matrix.block_row_lengths[:, np.newaxis]
    cols0 = matrix.block_col_idx.astype(np.int64) * c
    for b0 in range(0, mb, ROW_BLOCK_THREADS):
        block = cols0[b0 : b0 + ROW_BLOCK_THREADS]
        valid = mask[b0 : b0 + ROW_BLOCK_THREADS]
        # Each block touches ceil(c*8/line) lines starting at cols0;
        # approximate by charging the first line through the cache
        # model and the spill lines unconditionally.
        x_bytes += tex.block_x_bytes(block, valid)
    spill_lines_per_block = max(
        0, -(-c * 8 // device.tex_line_bytes) - 1
    )
    x_bytes += (
        int(mask.sum()) * spill_lines_per_block * device.tex_line_bytes
    )

    return KernelCounters(
        index_bytes=idx_tx * tb,
        value_bytes=val_tx * tb,
        x_bytes=x_bytes,
        y_bytes=y_tx * tb,
        aux_bytes=4 * mb,
        useful_flops=2 * matrix.nnz,
        issued_flops=2 * mb * K * r * c,
        launches=1,
        threads=launch.total_threads,
    )


@register_kernel
class BELLPACKKernel(SpMVKernel):
    """Blocked-ELLPACK kernel."""

    format_name = "bellpack"

    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        self._check(matrix, BELLPACKMatrix)
        assert isinstance(matrix, BELLPACKMatrix)
        x = matrix.check_x(x)
        y = matrix.spmv(x)
        return SpMVResult(
            y=y, counters=bellpack_counters(matrix, device), device=device
        )
