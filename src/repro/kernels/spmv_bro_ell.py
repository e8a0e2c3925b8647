"""Simulated BRO-ELL-family SpMV kernels — Algorithm 1 of the paper.

One thread block per slice, one thread per row. Each loop iteration reads
the next column width from the (constant-memory) ``bit_alloc`` table,
decodes one delta per thread from the per-thread symbol buffer — loading
the next multiplexed symbol coalescedly when the buffer runs dry — and,
when the decoded delta is valid (non-zero), accumulates the running column
index and performs the multiply-add.

Three formats run this loop:

* **BRO-ELL** — the paper's kernel over the slices of a sliced ELLPACK;
* **BRO-SELL** — the same loop over SELL-C-σ chunks: each thread finally
  scatters its row sum through the ``row_ids`` permutation table, and the
  4-byte permutation entry per row joins the auxiliary traffic. The sort
  pays for those bytes by shrinking the packed stream;
* **BRO-ELL-VC** — values read through a dictionary-compressed channel:
  the packed code stream plus a one-time dictionary load per slice (staged
  in shared memory, so gathers from it cost no DRAM traffic) replace the
  value reads, at one extra decode op per iteration.

The simulation walks each slice with
:class:`repro.bitstream.reader.SliceDecoder` (:func:`walk_slice`), whose
scalar control state (remaining-bit count, symbol counter) is shared by all
threads of the slice exactly as the real kernel's is — the property that
makes the scheme divergence-free and lets us vectorize across threads.

:func:`bro_slice_counters` is the one per-slice traffic model: the kernels
feed it their stepwise decode, the prepared-plan planner and the per-slice
tracer the vectorized one (:func:`unpack_block`), and
:func:`bro_ell_counters` sums the slices into the launch.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..bitstream.packing import row_stream_symbols, unpack_slice
from ..bitstream.reader import SliceDecoder
from ..core.bro_ell import BROELLMatrix
from ..core.bro_sell import BROSELLMatrix
from ..core.value_compression import BROELLVCMatrix, CompressedValueSlice
from ..errors import DecompressionError
from ..formats.base import SparseFormat
from ..gpu.counters import KernelCounters
from ..gpu.device import DECODE_OPS_PER_ITER, DECODE_OPS_PER_LOAD, DeviceSpec
from ..gpu.launch import LaunchConfig
from ..gpu.memory import contiguous_transactions
from ..gpu.texcache import TextureCacheModel
from ..types import VALUE_DTYPE
from ..utils.bits import ceil_div
from .base import SpMVKernel, SpMVResult, register_kernel

__all__ = [
    "BROELLKernel",
    "BROELLVCKernel",
    "BROSELLKernel",
    "bro_ell_blocks",
    "bro_ell_counters",
    "bro_slice_counters",
    "unpack_block",
    "walk_slice",
]

BROELLFamily = Union[BROELLMatrix, BROSELLMatrix]

#: One non-empty slice: ``(index, rows, bit_alloc, stream_view, val_block,
#: channel)`` — ``rows`` the output row of each slice row, ``channel`` the
#: BRO-ELL-VC value channel the values were decoded from (else ``None``).
BROBlock = Tuple[
    int, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    Optional[CompressedValueSlice],
]


def bro_ell_blocks(matrix: BROELLFamily) -> Iterator[BROBlock]:
    """The non-empty slices (BRO-SELL: chunks) of a BRO-ELL-family matrix,
    in launch order — the one walk the kernels, the planner and the tracer
    share."""
    if isinstance(matrix, BROSELLMatrix):
        for i, (r0, r1, bit_alloc, view, vals) in enumerate(matrix.iter_chunks()):
            if vals.shape[1]:
                yield i, matrix.row_ids[r0:r1], bit_alloc, view, vals, None
        return
    for i, (r0, r1, bit_alloc, view, vals) in enumerate(matrix.iter_slices()):
        if not vals.shape[1]:
            continue
        if isinstance(matrix, BROELLVCMatrix):
            yield (i, np.arange(r0, r1), bit_alloc, view,
                   matrix.decoded_val_block(i), matrix.value_slices[i])
        else:
            yield i, np.arange(r0, r1), bit_alloc, view, vals, None


def walk_slice(
    stream_view: np.ndarray, widths: np.ndarray, h: int, sym_len: int
) -> Tuple[np.ndarray, int]:
    """Algorithm 1's stepwise decode of one slice (lines 5-16).

    Returns the ``(h, L)`` decoded deltas, column by column, and the
    decoder's symbol-load count. Raises :class:`DecompressionError` when
    the stream runs dry or holds symbols the walk never loaded.
    """
    dec = SliceDecoder(stream_view, h=h, sym_len=sym_len)
    deltas = np.empty((h, widths.shape[0]), dtype=np.int64)
    for c, b in enumerate(widths.tolist()):
        deltas[:, c] = dec.decode(b)
    if dec.remaining_symbols:
        raise DecompressionError("stream not fully consumed")
    return deltas, dec.symbol_loads


def unpack_block(
    stream_view: np.ndarray, bit_alloc: np.ndarray, h: int, sym_len: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Vectorized decode of one slice: ``(cols, valid, symbol_loads)``.

    ``cols`` is the running column index (``col_idx - 1`` of Algorithm 1)
    and ``valid`` the non-zero-delta mask, exactly as :func:`walk_slice`
    yields them; a fully consumed stream costs ``row_stream_symbols``
    loads, because the decoder loads lazily and the packer emits no spare
    symbols. Used where no stepwise walk is wanted (plans, tracer).
    """
    deltas = unpack_slice(stream_view, bit_alloc, h, sym_len)
    return (
        np.cumsum(deltas, axis=1) - 1,
        deltas != 0,
        row_stream_symbols(bit_alloc, sym_len),
    )


def bro_slice_counters(
    cols: np.ndarray,
    valid: np.ndarray,
    symbol_loads: int,
    sym_len: int,
    device: DeviceSpec,
    channel: Optional[CompressedValueSlice] = None,
) -> KernelCounters:
    """Counters of one slice (one thread block) from its decoded ``(h, L)``
    columns and validity and the symbol loads that decoded them.

    * index: ``symbol_loads`` coalesced ``h``-wide symbol loads;
    * values: a warp reads ``vals[:, c]`` only if one of its lanes is valid
      at column ``c`` (the multiply-add sits inside the branch) — unless
      ``channel`` is a dictionary-coded BRO-ELL-VC channel: then its packed
      code stream plus one dictionary stream-in, and one more decode op
      per iteration for the code extraction;
    * ``x``: the texture-cache model over the valid lanes;
    * decode: per iteration, plus per loaded symbol and row.
    """
    h, L = valid.shape
    ws = device.warp_size
    tb = device.transaction_bytes
    decode_ops = DECODE_OPS_PER_ITER * h * L + DECODE_OPS_PER_LOAD * symbol_loads * h
    if channel is None or channel.raw is not None:
        warps = ceil_div(h, ws)
        lanes = np.zeros((warps * ws, L), dtype=bool)
        lanes[:h] = valid
        warp_cols = int(lanes.reshape(warps, ws, L).any(axis=1).sum())
        value_bytes = warp_cols * ceil_div(ws * 8, tb) * tb
    else:
        assert channel.codes is not None and channel.dictionary is not None
        value_bytes = int(channel.codes.nbytes) + int(channel.dictionary.nbytes)
        decode_ops += DECODE_OPS_PER_ITER * h * L
    return KernelCounters(
        index_bytes=symbol_loads
        * contiguous_transactions(h, sym_len // 8, ws, tb) * tb,
        value_bytes=value_bytes,
        x_bytes=TextureCacheModel(device).block_x_bytes(cols, valid),
        decode_ops=decode_ops,
        launches=0,
    )


def bro_ell_counters(
    matrix: BROELLFamily, slices: Sequence[KernelCounters], device: DeviceSpec
) -> KernelCounters:
    """Launch counters of a BRO-ELL-family kernel from its per-slice terms.

    One block per slice (chunk), one ``y`` write per row, two flops per
    non-zero. ``bit_alloc`` lives in constant memory; each block streams
    its table once (1 B per width) plus its int32 ``num_col`` entry, and
    BRO-SELL also streams its int32 ``row_ids`` permutation table.
    """
    m = matrix.shape[0]
    ws = device.warp_size
    tb = device.transaction_bytes
    blocks = matrix.num_col.shape[0]
    counters = KernelCounters.sum(slices)
    counters.y_bytes = contiguous_transactions(m, 8, ws, tb) * tb
    counters.aux_bytes = int(matrix.num_col.sum()) + 4 * blocks
    if isinstance(matrix, BROSELLMatrix):
        counters.aux_bytes += contiguous_transactions(m, 4, ws, tb) * tb
        height = matrix.c
    else:
        height = matrix.h
    counters.useful_flops = counters.issued_flops = 2 * matrix.nnz
    counters.launches = 1
    counters.threads = LaunchConfig(height, max(1, blocks)).total_threads
    return counters


@register_kernel
class BROELLKernel(SpMVKernel):
    """Algorithm-1 decompress-and-multiply kernel."""

    format_name = "bro_ell"
    container: type = BROELLMatrix

    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        self._check(matrix, self.container)
        assert isinstance(matrix, (BROELLMatrix, BROSELLMatrix))
        x = matrix.check_x(x)
        y = np.zeros(matrix.shape[0], dtype=VALUE_DTYPE)
        slices = []
        for _, rows, bit_alloc, view, vals, channel in bro_ell_blocks(matrix):
            deltas, loads = walk_slice(view, bit_alloc, rows.shape[0], matrix.sym_len)
            valid = deltas != 0  # line 17 (0 = invalid marker)
            cols = np.cumsum(deltas, axis=1) - 1  # line 18, 1-based -> 0-based
            acc = np.zeros(rows.shape[0], dtype=VALUE_DTYPE)
            for c in range(valid.shape[1]):  # line 19
                gather = x[np.where(valid[:, c], cols[:, c], 0)]
                acc += np.where(valid[:, c], vals[:, c] * gather, 0.0)
            y[rows] = acc
            slices.append(bro_slice_counters(
                cols, valid, loads, matrix.sym_len, device, channel
            ))
        return SpMVResult(
            y=y, counters=bro_ell_counters(matrix, slices, device),
            device=device,
        )


@register_kernel
class BROELLVCKernel(BROELLKernel):
    """BRO-ELL + value-compression kernel (paper future work)."""

    format_name = "bro_ell_vc"
    container = BROELLVCMatrix


@register_kernel
class BROSELLKernel(BROELLKernel):
    """Algorithm-1 decompress-and-multiply over sorted SELL chunks."""

    format_name = "bro_sell"
    container = BROSELLMatrix
