"""Simulated HYB and BRO-HYB SpMV kernels: an ELL launch + a COO launch.

HYB (Bell & Garland) pairs an ELLPACK part with a COO tail; BRO-HYB
(paper Section 3.3) pairs BRO-ELL with BRO-COO. Each part runs its own
format's kernel, and the COO part accumulates into the ELL result.

:func:`hybrid_parts` (which parts launch) and :func:`hybrid_counters`
(how their counters compose) are shared with the prepared-plan planner
and the per-part tracer.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .. import registry as _registry
from ..core.bro_hyb import BROHYBMatrix
from ..formats.base import SparseFormat
from ..formats.hyb import HYBMatrix
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec
from ..types import VALUE_DTYPE
from .base import SpMVKernel, SpMVResult, register_kernel

__all__ = [
    "BROHYBKernel",
    "HYBKernel",
    "add_parts",
    "hybrid_counters",
    "hybrid_parts",
]


def hybrid_parts(matrix: HYBMatrix | BROHYBMatrix) -> Tuple[SparseFormat, ...]:
    """The parts a hybrid SpMV launches, ELL part first.

    A part without stored slots launches nothing: a zero-width ELLPACK
    part, a BRO-ELL part without entries, an empty (BRO-)COO tail.
    """
    if isinstance(matrix, BROHYBMatrix):
        live = (matrix.ell.nnz, matrix.coo.padded_nnz)
    else:
        live = (matrix.ell.k, matrix.coo.nnz)
    return tuple(
        part for part, n in zip((matrix.ell, matrix.coo), live) if n
    )


def hybrid_counters(
    parts: Sequence[KernelCounters], device: DeviceSpec
) -> KernelCounters:
    """Counters of the launched parts, added launch by launch.

    With no part launched the record still names one warp, so the
    occupancy model has a grid to look at.
    """
    if not parts:
        return KernelCounters(launches=0, threads=device.warp_size)
    return KernelCounters.sum(parts)


def add_parts(ys: Sequence[np.ndarray], m: int, x: np.ndarray) -> np.ndarray:
    """``ys[0] + ys[1] + ...`` left to right; zeros when nothing launched."""
    if not ys:
        return np.zeros((m,) + x.shape[1:], dtype=VALUE_DTYPE)
    y = ys[0]
    for part in ys[1:]:
        y = y + part
    return y


@register_kernel
class HYBKernel(SpMVKernel):
    """Two-launch HYB kernel; the COO part accumulates into the ELL result."""

    format_name = "hyb"
    container: type = HYBMatrix

    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        self._check(matrix, self.container)
        assert isinstance(matrix, (HYBMatrix, BROHYBMatrix))
        x = matrix.check_x(x)
        results = [
            _registry.kernel_for(part.format_name).run(part, x, device)
            for part in hybrid_parts(matrix)
        ]
        return SpMVResult(
            y=add_parts([r.y for r in results], matrix.shape[0], x),
            counters=hybrid_counters([r.counters for r in results], device),
            device=device,
        )


@register_kernel
class BROHYBKernel(HYBKernel):
    """Two-launch BRO-HYB kernel (paper Section 3.3)."""

    format_name = "bro_hyb"
    container = BROHYBMatrix
