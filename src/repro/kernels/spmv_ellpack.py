"""Simulated ELLPACK SpMV kernel (one thread per row, column-major data).

The CUSP-style kernel maps thread ``i`` to row ``i``; in iteration ``c``
the whole grid reads column ``c`` of the column-major ``col_idx`` and
``vals`` arrays — perfectly coalesced — multiplies, and accumulates.
Every thread runs the full ``k`` iterations: padded slots are read,
multiplied (by 0.0) and accumulated just like real entries, which is
exactly the inefficiency ELLPACK-R and the BRO formats attack.

:func:`ellpack_counters` is shared with the prepared-plan planner so
replay counters are equal by construction.
"""

from __future__ import annotations

import numpy as np

from ..formats.base import SparseFormat
from ..formats.ellpack import ELLPACKMatrix
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec
from ..gpu.launch import ROW_BLOCK_THREADS, LaunchConfig
from ..gpu.memory import contiguous_transactions
from ..gpu.texcache import TextureCacheModel
from ..types import VALUE_DTYPE
from .base import SpMVKernel, SpMVResult, register_kernel

__all__ = ["ELLPACKKernel", "ellpack_counters"]


def ellpack_counters(matrix: ELLPACKMatrix, device: DeviceSpec) -> KernelCounters:
    """Traffic/flop accounting of the ELLPACK kernel (shared with plans)."""
    m, _ = matrix.shape
    k = matrix.k
    tb = device.transaction_bytes
    ws = device.warp_size

    # Column-major reads: every iteration the grid streams one int32
    # and one float64 column of length m, fully coalesced.
    idx_tx = k * contiguous_transactions(m, 4, ws, tb)
    val_tx = k * contiguous_transactions(m, 8, ws, tb)

    # x reads go through the texture cache, one block at a time.
    # Padding lanes read x[0] (their stored index) just like the real
    # kernel, so they participate in the access pattern.
    tex = TextureCacheModel(device)
    x_bytes = 0
    for r0 in range(0, m, ROW_BLOCK_THREADS):
        block_cols = matrix.col_idx[r0 : r0 + ROW_BLOCK_THREADS]
        x_bytes += tex.block_x_bytes(
            block_cols, np.ones(block_cols.shape, dtype=bool)
        )

    return KernelCounters(
        index_bytes=idx_tx * tb,
        value_bytes=val_tx * tb,
        x_bytes=x_bytes,
        y_bytes=contiguous_transactions(m, 8, ws, tb) * tb,
        useful_flops=2 * matrix.nnz,
        issued_flops=2 * m * k,
        launches=1,
        threads=LaunchConfig.for_rows(m).total_threads,
    )


@register_kernel
class ELLPACKKernel(SpMVKernel):
    """Bell–Garland ELLPACK kernel."""

    format_name = "ellpack"

    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        self._check(matrix, ELLPACKMatrix)
        assert isinstance(matrix, ELLPACKMatrix)
        x = matrix.check_x(x)
        # Column-sequential accumulation, exactly the kernel's iteration
        # order (and the compiled executor's); an einsum dot would block
        # the sum differently and break cross-backend bit-identity.
        y = np.zeros(matrix.shape[0], VALUE_DTYPE)
        for c in range(matrix.k):
            y += matrix.vals[:, c] * x[matrix.col_idx[:, c]]
        return SpMVResult(
            y=y, counters=ellpack_counters(matrix, device), device=device
        )
