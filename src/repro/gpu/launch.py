"""Kernel launch geometry and the occupancy (latency-hiding) model.

SpMV kernels hide DRAM latency with thread-level parallelism. When a grid
is too small to populate the device — the paper's explanation for the
``e40r5000``/``rim`` results (Section 4.2.3: the matrix "does not have
enough rows to keep the higher number of cores ... busy") — achievable
bandwidth degrades. We model this with a single factor: full speed once
``saturation_warps_per_sm`` warps are resident per SM, proportionally less
below that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import KernelError
from ..utils.bits import ceil_div
from .device import DeviceSpec

__all__ = ["ROW_BLOCK_THREADS", "LaunchConfig", "occupancy_factor"]

#: Block size of the one-thread-per-row kernels (ELLPACK, ELLPACK-R,
#: BELLPACK): the CUSP launch shape, and the block the texture-cache model
#: groups their ``x`` reads by.
ROW_BLOCK_THREADS = 256


@dataclass(frozen=True)
class LaunchConfig:
    """Grid geometry of one simulated kernel launch."""

    threads_per_block: int
    num_blocks: int

    def __post_init__(self) -> None:
        if self.threads_per_block <= 0 or self.num_blocks <= 0:
            raise KernelError(
                f"invalid launch geometry: {self.num_blocks} blocks x "
                f"{self.threads_per_block} threads"
            )

    @property
    def total_threads(self) -> int:
        return self.threads_per_block * self.num_blocks

    @classmethod
    def for_rows(
        cls, m: int, threads_per_block: int = ROW_BLOCK_THREADS
    ) -> "LaunchConfig":
        """One thread per matrix row (ELL-family kernels)."""
        if m <= 0:
            raise KernelError("matrix must have at least one row")
        return cls(threads_per_block, ceil_div(m, threads_per_block))

    @classmethod
    def for_warps(
        cls, n_warps: int, warp_size: int = 32, warps_per_block: int = 8
    ) -> "LaunchConfig":
        """One warp per work interval (COO-family kernels)."""
        if n_warps <= 0:
            raise KernelError("at least one warp is required")
        return cls(warp_size * warps_per_block, ceil_div(n_warps, warps_per_block))


def occupancy_factor(total_threads: int, device: DeviceSpec) -> float:
    """Fraction of achievable bandwidth a grid of this size can sustain.

    Returns 1.0 once the grid supplies ``saturation_warps_per_sm`` resident
    warps to every SM, decaying linearly (floored at 5%) below that.
    """
    if total_threads <= 0:
        raise KernelError("total_threads must be positive")
    return max(0.05, min(1.0, total_threads / device.saturation_threads))
