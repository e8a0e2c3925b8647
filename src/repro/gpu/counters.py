"""Instrumentation counters emitted by the simulated kernels.

A :class:`KernelCounters` record is the *only* interface between the
functional kernels and the timing model: the kernels count what a CUDA
profiler would count (DRAM bytes by source, flops, decode instructions,
launches) and :mod:`repro.gpu.timing` turns the record into predicted time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Union

from ..errors import ValidationError

__all__ = ["KernelCounters"]


@dataclass
class KernelCounters:
    """Counter record of one (or several fused) kernel launches.

    All byte counters are DRAM traffic after coalescing, i.e. whole
    transactions, not requested bytes.
    """

    #: DRAM bytes of index data (column/row indices or packed streams).
    index_bytes: int = 0
    #: DRAM bytes of matrix values (including padded slots actually read).
    value_bytes: int = 0
    #: DRAM bytes of ``x``-vector reads (texture-cache misses x line size).
    x_bytes: int = 0
    #: DRAM bytes written to (and read-modify-written for atomics on) ``y``.
    y_bytes: int = 0
    #: DRAM bytes of auxiliary arrays (row lengths, pointers, bit tables).
    aux_bytes: int = 0
    #: Useful flops: 2 * nnz for SpMV.
    useful_flops: int = 0
    #: Flops actually issued, including padded slots and reduction trees.
    issued_flops: int = 0
    #: Bit-manipulation instructions of the BRO decode loop.
    decode_ops: int = 0
    #: Kernel launches performed.
    launches: int = 1
    #: Threads launched (for the occupancy model).
    threads: int = 0
    #: Device-to-device bytes moved over the interconnect (multi-device
    #: execution only; not DRAM traffic, so excluded from ``dram_bytes``).
    interconnect_bytes: int = 0

    def __post_init__(self) -> None:
        for name in _FIELD_NAMES:
            if getattr(self, name) < 0:
                raise ValidationError(f"counter {name} must be non-negative")

    @property
    def dram_bytes(self) -> int:
        """Total DRAM traffic of the launch."""
        return int(
            self.index_bytes
            + self.value_bytes
            + self.x_bytes
            + self.y_bytes
            + self.aux_bytes
        )

    @property
    def effective_arithmetic_intensity(self) -> float:
        """The paper's EAI (Fig. 5): useful flops per DRAM byte.

        The paper defines EAI as F/B with F in flops/s and B the kernel
        memory throughput in bytes/s; the runtimes cancel, leaving
        flops-per-byte.
        """
        if self.dram_bytes == 0:
            return 0.0
        return self.useful_flops / self.dram_bytes

    def copy(self) -> "KernelCounters":
        """An independent record with the same counts.

        Skips ``__init__``/``__post_init__``: the source was validated
        when it was built, and a copy is taken on every plan replay.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        return new

    def __add__(self, other: "KernelCounters") -> "KernelCounters":
        if not isinstance(other, KernelCounters):
            return NotImplemented
        return KernelCounters(
            index_bytes=self.index_bytes + other.index_bytes,
            value_bytes=self.value_bytes + other.value_bytes,
            x_bytes=self.x_bytes + other.x_bytes,
            y_bytes=self.y_bytes + other.y_bytes,
            aux_bytes=self.aux_bytes + other.aux_bytes,
            useful_flops=self.useful_flops + other.useful_flops,
            issued_flops=self.issued_flops + other.issued_flops,
            decode_ops=self.decode_ops + other.decode_ops,
            launches=self.launches + other.launches,
            # Sequential launches: the occupancy model should see the larger
            # of the two grids, not their sum.
            threads=max(self.threads, other.threads),
            interconnect_bytes=self.interconnect_bytes + other.interconnect_bytes,
        )

    def __radd__(self, other: Union[int, "KernelCounters"]) -> "KernelCounters":
        # `sum(counters_list)` starts from the int 0; absorbing it keeps the
        # total exact (a `KernelCounters()` start value would inject its
        # default launches=1 into the sum).
        if other == 0:
            return self.copy()
        if isinstance(other, KernelCounters):
            return other.__add__(self)
        return NotImplemented

    @classmethod
    def sum(cls, counters: Iterable["KernelCounters"]) -> "KernelCounters":
        """Exact aggregate of a multi-launch trace.

        Unlike ``sum(list, KernelCounters())``, an empty-input total has
        ``launches=0`` and no phantom launch is added by the start value.
        """
        total: Union[int, KernelCounters] = 0
        for c in counters:
            total = c if total == 0 else total + c
        return total.copy() if isinstance(total, KernelCounters) else cls(launches=0)

    def to_dict(self) -> Dict[str, int]:
        """Plain-int view of every counter field plus the derived totals."""
        out = {name: int(getattr(self, name)) for name in _FIELD_NAMES}
        out["dram_bytes"] = self.dram_bytes
        return out


#: Counter field names, resolved once: records are built per slice and
#: per interval, and ``dataclasses.fields`` is slow on that path.
_FIELD_NAMES = tuple(f.name for f in fields(KernelCounters))
