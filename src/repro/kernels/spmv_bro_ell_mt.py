"""Simulated multi-thread-per-row BRO-ELL kernel (paper future work).

Runs the plain Algorithm-1 kernel over the row-split storage, then folds
each group of ``t`` partial sums. On a real GPU the fold is an intra-warp
shuffle tree when ``t`` divides the warp (the layout guarantees the
``t`` sub-rows of a row are adjacent threads), so it costs flops but no
extra DRAM round-trip; the model charges the y-write at logical-row
granularity plus the fold flops.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.multirow import MultiRowBROELL
from ..formats.base import SparseFormat
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec
from ..gpu.memory import contiguous_transactions
from .base import SpMVKernel, SpMVResult, register_kernel
from .spmv_bro_ell import BROELLKernel

__all__ = ["MultiRowBROELLKernel", "bro_ell_mt_counters"]


def bro_ell_mt_counters(
    matrix: MultiRowBROELL, inner: KernelCounters, device: DeviceSpec
) -> KernelCounters:
    """The fold correction on the inner BRO-ELL launch's counters.

    The inner kernel charged a y-write per *sub*-row; replace it with the
    logical-row write and charge the shuffle-tree fold flops.
    """
    m = matrix.shape[0]
    ws = device.warp_size
    tb = device.transaction_bytes
    counters = replace(inner)
    counters.y_bytes = contiguous_transactions(m, 8, ws, tb) * tb
    counters.issued_flops += m * (matrix.threads_per_row - 1)
    return counters


@register_kernel
class MultiRowBROELLKernel(SpMVKernel):
    """Algorithm 1 over split rows + intra-warp fold."""

    format_name = "bro_ell_mt"

    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        self._check(matrix, MultiRowBROELL)
        assert isinstance(matrix, MultiRowBROELL)
        x = matrix.check_x(x)
        inner = BROELLKernel().run(matrix.inner, x, device)
        return SpMVResult(
            y=matrix.fold(inner.y),
            counters=bro_ell_mt_counters(matrix, inner.counters, device),
            device=device,
        )
