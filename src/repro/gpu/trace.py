"""Per-block execution traces for the BRO kernels.

A :class:`SliceTrace` row per thread block (BRO-ELL), an
:class:`IntervalTrace` row per warp interval (BRO-COO) or a
:class:`PartTrace` row per HYB part answers the questions a CUDA profiler
timeline would: which slices carry the bytes, where the decode overhead
concentrates, which intervals force atomic collisions. Used by the
``python -m repro spmv --trace`` and ``python -m repro profile`` commands
and by performance debugging in the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .. import registry as _registry
from ..core.bro_coo import BROCOOMatrix
from ..core.bro_ell import BROELLMatrix
from ..errors import ValidationError
from .counters import KernelCounters
from .device import DeviceSpec

__all__ = [
    "SliceTrace",
    "IntervalTrace",
    "PartTrace",
    "trace_bro_ell",
    "trace_bro_coo",
    "trace_hyb",
]


@dataclass(frozen=True)
class SliceTrace:
    """Profile of one slice (= one simulated thread block)."""

    slice_id: int
    rows: int
    num_col: int
    nnz: int  #: valid entries in the slice
    mean_bits: float  #: average bit_alloc width
    stream_bytes: int
    value_bytes: int
    x_bytes: int
    decode_ops: int
    padding_fraction: float  #: share of (row, col) iterations that are padding

    def row(self) -> str:
        """One formatted trace line."""
        return (
            f"{self.slice_id:>6d} {self.rows:>5d} {self.num_col:>5d} "
            f"{self.nnz:>8d} {self.mean_bits:>6.2f} "
            f"{self.stream_bytes:>9d} {self.value_bytes:>10d} "
            f"{self.x_bytes:>8d} {100 * self.padding_fraction:>6.1f}%"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'slice':>6s} {'rows':>5s} {'cols':>5s} {'nnz':>8s} "
            f"{'bits':>6s} {'idx B':>9s} {'val B':>10s} {'x B':>8s} "
            f"{'pad':>7s}"
        )


def trace_bro_ell(matrix: BROELLMatrix, device: DeviceSpec) -> List[SliceTrace]:
    """Profile every slice of a BRO-ELL (or BRO-ELL-VC) matrix on a device.

    Each row carries the slice's terms of the kernel's traffic model
    (:func:`~repro.kernels.spmv_bro_ell.bro_slice_counters`), so the rows
    sum to the kernel's index, value, ``x`` and decode counters.
    """
    # Imported here: repro.kernels imports this package at module scope.
    from ..kernels.spmv_bro_ell import (
        bro_ell_blocks,
        bro_slice_counters,
        unpack_block,
    )

    if not isinstance(matrix, BROELLMatrix):
        raise ValidationError("trace_bro_ell needs a BROELLMatrix")
    edges = matrix.slice_edges
    traces = [
        SliceTrace(i, int(edges[i + 1] - edges[i]), 0, 0, 0.0, 0, 0, 0, 0, 0.0)
        for i in range(matrix.num_slices)
    ]
    for i, rows, bit_alloc, view, _, channel in bro_ell_blocks(matrix):
        h_i, L = rows.shape[0], bit_alloc.shape[0]
        cols, valid, loads = unpack_block(view, bit_alloc, h_i, matrix.sym_len)
        c = bro_slice_counters(cols, valid, loads, matrix.sym_len, device, channel)
        nnz = int(valid.sum())
        traces[i] = SliceTrace(
            slice_id=i,
            rows=h_i,
            num_col=L,
            nnz=nnz,
            mean_bits=float(bit_alloc.mean()),
            stream_bytes=c.index_bytes,
            value_bytes=c.value_bytes,
            x_bytes=c.x_bytes,
            decode_ops=c.decode_ops,
            padding_fraction=1.0 - nnz / (h_i * L),
        )
    return traces


# ---------------------------------------------------------------------------
# BRO-COO: one warp per interval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalTrace:
    """Profile of one BRO-COO interval (= one simulated warp)."""

    interval_id: int
    entries: int  #: padded entries covered by the interval
    nnz: int  #: real (non-phantom) entries
    lanes: int  #: iterations per lane (``L``)
    bits: int  #: the interval's single delta bit width
    segments: int  #: distinct output rows touched
    atomics: int  #: atomic flushes (per-lane row changes + final flush)
    stream_bytes: int
    value_bytes: int
    x_bytes: int
    decode_ops: int

    def row(self) -> str:
        """One formatted trace line."""
        return (
            f"{self.interval_id:>6d} {self.entries:>8d} {self.nnz:>8d} "
            f"{self.lanes:>5d} {self.bits:>4d} {self.segments:>7d} "
            f"{self.atomics:>7d} {self.stream_bytes:>9d} "
            f"{self.value_bytes:>10d} {self.x_bytes:>8d}"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'intvl':>6s} {'entries':>8s} {'nnz':>8s} {'iters':>5s} "
            f"{'bits':>4s} {'segs':>7s} {'atomic':>7s} {'idx B':>9s} "
            f"{'val B':>10s} {'x B':>8s}"
        )


def trace_bro_coo(matrix: BROCOOMatrix, device: DeviceSpec) -> List[IntervalTrace]:
    """Profile every interval of a BRO-COO matrix on a device.

    Each row carries the interval's terms of the kernel's traffic model
    (:func:`~repro.kernels.spmv_bro_coo.bro_coo_interval_counters`), so the
    rows sum to the kernel's counters, plus the interval's atomic pressure.
    """
    from ..kernels.spmv_bro_coo import bro_coo_interval_counters, unpack_interval

    if not isinstance(matrix, BROCOOMatrix):
        raise ValidationError("trace_bro_coo needs a BROCOOMatrix")
    w = matrix.warp_size
    traces: List[IntervalTrace] = []
    for i, lo, hi, _ in matrix.iter_intervals():
        rows_2d, loads = unpack_interval(matrix, i)  # (w, L)
        L = rows_2d.shape[1]
        c = bro_coo_interval_counters(matrix, i, rows_2d, loads, device)
        flat_rows = rows_2d.T.reshape(-1)[: hi - lo]
        # One atomic per row change down each lane, plus the final flush.
        atomics = int((rows_2d[:, 1:] != rows_2d[:, :-1]).sum()) + w if L else 0
        traces.append(
            IntervalTrace(
                interval_id=i,
                entries=hi - lo,
                nnz=max(0, min(hi, matrix.nnz) - lo),
                lanes=L,
                bits=int(matrix.bit_alloc[i]),
                segments=int(np.unique(flat_rows).shape[0]) if L else 0,
                atomics=atomics,
                stream_bytes=c.index_bytes,
                value_bytes=c.value_bytes,
                x_bytes=c.x_bytes,
                decode_ops=c.decode_ops,
            )
        )
    return traces


# ---------------------------------------------------------------------------
# HYB / BRO-HYB: one row per part
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartTrace:
    """Profile of one part (ELL or COO) of a hybrid matrix."""

    part: str  #: "ell" or "coo"
    format_name: str  #: storage format of the part
    nnz: int
    frac_nnz: float  #: share of the hybrid's non-zeros
    index_bytes: int
    value_bytes: int
    x_bytes: int
    dram_bytes: int
    decode_ops: int
    t_us: float  #: predicted part time (roofline model)

    def row(self) -> str:
        """One formatted trace line."""
        return (
            f"{self.part:>5s} {self.format_name:>10s} {self.nnz:>10d} "
            f"{100 * self.frac_nnz:>6.1f}% {self.index_bytes:>11d} "
            f"{self.value_bytes:>11d} {self.x_bytes:>10d} "
            f"{self.decode_ops:>10d} {self.t_us:>9.2f}"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'part':>5s} {'format':>10s} {'nnz':>10s} {'nnz %':>7s} "
            f"{'idx B':>11s} {'val B':>11s} {'x B':>10s} {'decode':>10s} "
            f"{'t us':>9s}"
        )


def trace_hyb(matrix, device: DeviceSpec) -> List[PartTrace]:
    """Profile the ELL and COO parts of a HYB or BRO-HYB matrix.

    Runs each part the hybrid kernel launches (:func:`hybrid_parts`;
    counters only, the product is discarded) and attributes traffic and
    predicted time per part — the split-quality view behind Table 4. A
    part the kernel does not launch keeps its row, with zero traffic, so
    the rows always sum to the kernel's counters.
    """
    # Imported here: repro.kernels imports this package at module scope.
    from ..core.bro_hyb import BROHYBMatrix
    from ..formats.hyb import HYBMatrix
    from ..kernels.spmv_hyb import hybrid_parts
    from ..registry import kernel_for
    from .timing import predict

    if not isinstance(matrix, (HYBMatrix, BROHYBMatrix)):
        raise ValidationError("trace_hyb needs a HYBMatrix or BROHYBMatrix")
    total = max(1, matrix.nnz)
    x = np.ones(matrix.shape[1], dtype=np.float64)
    launched = hybrid_parts(matrix)
    traces: List[PartTrace] = []
    for part_name, part in (("ell", matrix.ell), ("coo", matrix.coo)):
        if any(part is p for p in launched):
            c = kernel_for(part.format_name).run(part, x, device).counters
            t_us = predict(c, device).time * 1e6
        else:
            c, t_us = KernelCounters(launches=0), 0.0
        traces.append(
            PartTrace(
                part=part_name,
                format_name=part.format_name,
                nnz=part.nnz,
                frac_nnz=part.nnz / total,
                index_bytes=c.index_bytes,
                value_bytes=c.value_bytes,
                x_bytes=c.x_bytes,
                dram_bytes=c.dram_bytes,
                decode_ops=c.decode_ops,
                t_us=t_us,
            )
        )
    return traces


# ---------------------------------------------------------------------------
# Capability-registry bindings: one BlockTracer record per traceable format
# (the value-compressed BRO-ELL variant shares the slice tracer, which
# charges its value channel as the kernel does).
# ---------------------------------------------------------------------------
_registry.bind_tracer(
    "bro_ell",
    _registry.BlockTracer("per-slice profile", SliceTrace.header, trace_bro_ell),
)
_registry.bind_tracer(
    "bro_ell_vc",
    _registry.BlockTracer("per-slice profile", SliceTrace.header, trace_bro_ell),
)
_registry.bind_tracer(
    "bro_coo",
    _registry.BlockTracer("per-interval profile", IntervalTrace.header, trace_bro_coo),
)
_registry.bind_tracer(
    "hyb",
    _registry.BlockTracer("per-part profile", PartTrace.header, trace_hyb),
)
_registry.bind_tracer(
    "bro_hyb",
    _registry.BlockTracer("per-part profile", PartTrace.header, trace_hyb),
)
