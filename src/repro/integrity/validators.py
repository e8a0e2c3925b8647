"""Structural validators for stored sparse containers.

Checksums catch *any* mutation but need the original seal; these validators
need no prior state — they recheck the internal invariants of a container
as it sits in (simulated) device memory, in O(metadata) time for the fast
pass. ``deep=True`` additionally decodes every packed stream and
bounds-checks the decoded indices against the logical shape, which catches
corruptions that keep the container self-consistent but would make the
kernel gather out-of-range ``x`` entries.

All failures raise a typed :class:`~repro.errors.IntegrityError` (or
propagate :class:`~repro.errors.DecompressionError` from the decoders),
never a bare ``ValueError`` — the graceful-degradation path in
:func:`repro.kernels.dispatch.run_spmv` keys off :class:`ReproError`.
"""

from __future__ import annotations

import numpy as np

from .. import registry as _registry
from ..bitstream.packing import row_stream_symbols
from ..core.bro_coo import BROCOOMatrix
from ..core.bro_ell import BROELLMatrix
from ..core.bro_hyb import BROHYBMatrix
from ..core.bro_sell import BROSELLMatrix
from ..errors import IntegrityError
from ..formats.base import SparseFormat
from ..formats.cmrs import CMRSMatrix, MAX_STRIP_HEIGHT
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..formats.sell_c_sigma import SELLCSigmaMatrix
from ..formats.sliced_ellpack import slice_bounds
from ..exec.policy import VERIFY_LEVELS
from ..telemetry.tracer import span as _span
from .checksums import is_sealed, verify_integrity

__all__ = [
    "validate_structure",
    "structural_validators",
    "verify_container",
    "verify_rank",
]

def _register(name: str):
    def deco(fn):
        _registry.bind_validator(name, fn)
        return fn

    return deco


def _fail(fmt: str, field: str, why: str) -> None:
    raise IntegrityError(f"{fmt} structure invalid: {field} {why}", fields=(field,))


def structural_validators() -> tuple:
    """Format names that have a dedicated structural validator."""
    return tuple(
        spec.name for spec in _registry.iter_specs() if spec.validator is not None
    )


def validate_structure(matrix: SparseFormat, deep: bool = False) -> None:
    """Validate a container's internal invariants.

    Parameters
    ----------
    matrix:
        Any registered sparse format. Formats without a dedicated validator
        pass the fast check trivially (their constructors re-validate on
        every conversion).
    deep:
        Also decode packed streams and bounds-check decoded indices.
    """
    validator = _registry.validator_for(matrix.format_name)
    if validator is not None:
        with _span("verify.structure", "integrity",
                   format=matrix.format_name, deep=deep):
            validator(matrix, deep)


def verify_rank(level) -> int:
    """Strength of a normalized verify level: ``False`` <
    ``"structure"`` < ``"checksum"`` < ``"full"``."""
    return VERIFY_LEVELS.index(level)


def verify_container(matrix: SparseFormat, level) -> None:
    """The container check of one verify level.

    ``"structure"`` runs the fast structural pass, ``"checksum"`` adds
    the CRC header when the matrix is sealed, and ``"full"`` makes the
    structural pass deep. ``False`` checks nothing.
    """
    if level is False:
        return
    validate_structure(matrix, deep=(level == "full"))
    if level != "structure" and is_sealed(matrix):
        verify_integrity(matrix)


def _first_failure(bad: np.ndarray, check) -> None:
    """Run the scalar ``check(i)`` on the blocks a vectorized pass flagged,
    in order, so the error names the first failing block exactly as a
    block-by-block loop would."""
    for i in np.flatnonzero(bad).tolist():
        check(i)


def _width_blocks(bit_allocs, num_col: np.ndarray, heights: np.ndarray,
                  ptr: np.ndarray, sym_len: int, fmt: str, what: str):
    """Per-block flags of the width checks shared by BRO-ELL and BRO-SELL:
    ``num_col`` agrees with the width array, every width lies in
    ``[1, sym_len]`` and the stream holds exactly the symbols the widths
    need. Returns ``(flags, widths per block)``."""
    n = heights.shape[0]
    if len(bit_allocs) != n:
        _fail(fmt, "bit_alloc", f"has {len(bit_allocs)} arrays for {n} {what}")
    if num_col.shape != (n,):
        _fail(fmt, "num_col", f"has {num_col.shape[0]} entries for {n} {what}")
    sizes = np.fromiter(map(len, bit_allocs), dtype=np.int64, count=n)
    flat = (np.concatenate(bit_allocs).astype(np.int64, copy=False)
            if n else np.zeros(0, dtype=np.int64))
    owner = np.repeat(np.arange(n), sizes)
    out_of_range = np.bincount(
        owner[(flat < 1) | (flat > sym_len)], minlength=n).astype(bool)
    bits = np.bincount(owner, weights=flat, minlength=n).astype(np.int64)
    expected = -(-bits // sym_len) * heights
    bad = (num_col.astype(np.int64) != sizes) | out_of_range
    bad |= np.diff(ptr.astype(np.int64)) != expected
    return bad, sizes


def _block_max(lengths: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Largest entry of ``lengths`` in every non-empty block of ``edges``."""
    if lengths.size == 0 or edges.shape[0] < 2:
        return np.zeros(max(edges.shape[0] - 1, 0), dtype=np.int64)
    return np.maximum.reduceat(lengths, edges[:-1].astype(np.intp))


# ---------------------------------------------------------------------------
# BRO-ELL
# ---------------------------------------------------------------------------


@_register("bro_ell")
def _validate_bro_ell(m: BROELLMatrix, deep: bool) -> None:
    fmt = "bro_ell"
    rows, cols = m.shape
    edges = m.slice_edges
    expected_edges = slice_bounds(rows, min(m.h, rows))
    if not np.array_equal(edges, expected_edges):
        _fail(fmt, "slice_edges", f"do not partition {rows} rows into slices of {m.h}")
    if m.sym_len not in (32, 64):
        _fail(fmt, "sym_len", f"must be 32 or 64, got {m.sym_len}")
    ptr = m.stream.slice_ptr
    if ptr.shape[0] != m.num_slices + 1:
        _fail(fmt, "slice_ptr", f"has {ptr.shape[0]} entries for {m.num_slices} slices")
    if int(ptr[0]) != 0 or int(ptr[-1]) != m.stream.data.shape[0]:
        _fail(fmt, "slice_ptr", "must start at 0 and end at the stream length")
    if np.any(np.diff(ptr) < 0):
        _fail(fmt, "slice_ptr", "must be non-decreasing")
    lengths = m.row_lengths
    if lengths.shape != (rows,):
        _fail(fmt, "row_lengths", f"shape {lengths.shape} != ({rows},)")
    if lengths.size and int(lengths.min()) < 0:
        _fail(fmt, "row_lengths", "holds a negative entry")

    def check_slice(i: int) -> None:
        ba = m.bit_allocs[i]
        h_i = int(edges[i + 1] - edges[i])
        if int(m.num_col[i]) != ba.shape[0]:
            _fail(fmt, f"num_col[{i}]", f"is {int(m.num_col[i])}, bit_alloc has {ba.shape[0]}")
        if ba.size and (int(ba.min()) < 1 or int(ba.max()) > m.sym_len):
            _fail(fmt, f"bit_alloc[{i}]", f"widths must lie in [1, {m.sym_len}]")
        expected = row_stream_symbols(ba, m.sym_len) * h_i
        have = int(ptr[i + 1] - ptr[i])
        if have != expected:
            _fail(fmt, f"stream[{i}]", f"holds {have} symbols, widths require {expected}")
        slice_lens = lengths[int(edges[i]) : int(edges[i + 1])]
        if slice_lens.size and int(slice_lens.max()) > ba.shape[0]:
            _fail(fmt, f"row_lengths[slice {i}]", f"exceed the slice width {ba.shape[0]}")

    bad, widths = _width_blocks(m.bit_allocs, m.num_col, np.diff(edges), ptr,
                                m.sym_len, fmt, "slices")
    bad |= _block_max(lengths, edges) > widths
    _first_failure(bad, check_slice)
    if deep:
        for i in range(m.num_slices):
            cols_blk, valid = m.decode_slice_cols(i)
            real = cols_blk[valid]
            if real.size and (int(real.min()) < 0 or int(real.max()) >= cols):
                _fail(fmt, f"decoded columns[slice {i}]", f"fall outside [0, {cols})")
            both = valid[:, 1:] & valid[:, :-1]
            if np.any(both & (cols_blk[:, 1:] <= cols_blk[:, :-1])):
                _fail(fmt, f"decoded columns[slice {i}]", "must strictly increase per row")


# ---------------------------------------------------------------------------
# BRO-COO
# ---------------------------------------------------------------------------


@_register("bro_coo")
def _validate_bro_coo(m: BROCOOMatrix, deep: bool) -> None:
    fmt = "bro_coo"
    rows, cols = m.shape
    if m.interval_size <= 0 or m.warp_size <= 0 or m.interval_size % m.warp_size:
        _fail(fmt, "interval_size", f"{m.interval_size} is not a multiple of warp {m.warp_size}")
    padded = m.padded_nnz
    if padded % m.warp_size:
        _fail(fmt, "padded entries", f"count {padded} not a multiple of warp {m.warp_size}")
    if not 0 <= m.nnz <= padded:
        _fail(fmt, "nnz", f"{m.nnz} outside [0, {padded}]")
    if m.col_idx.shape != m.vals.shape:
        _fail(fmt, "col_idx/vals", "length mismatch")
    if m.col_idx.size and (int(m.col_idx.min()) < 0 or int(m.col_idx.max()) >= cols):
        _fail(fmt, "col_idx", f"falls outside [0, {cols})")
    ba = m.bit_alloc
    if ba.size and (int(ba.min()) < 1 or int(ba.max()) > m.stream.sym_len):
        _fail(fmt, "bit_alloc", f"widths must lie in [1, {m.stream.sym_len}]")
    ptr = m.stream.slice_ptr
    if ptr.shape[0] != m.num_intervals + 1:
        _fail(fmt, "slice_ptr", f"has {ptr.shape[0]} entries for {m.num_intervals} intervals")
    if int(ptr[0]) != 0 or int(ptr[-1]) != m.stream.data.shape[0]:
        _fail(fmt, "slice_ptr", "must start at 0 and end at the stream length")

    def check_interval(i: int) -> None:
        L = m.interval_lanes(i)
        widths = np.full(L, int(ba[i]), dtype=np.int64)
        expected = row_stream_symbols(widths, m.stream.sym_len) * m.warp_size
        have = int(ptr[i + 1] - ptr[i])
        if have != expected:
            _fail(fmt, f"stream[{i}]", f"holds {have} symbols, width requires {expected}")

    lo = np.arange(m.num_intervals, dtype=np.int64) * m.interval_size
    lanes = -(-(np.minimum(lo + m.interval_size, padded) - lo) // m.warp_size)
    expected = -(-(lanes * ba.astype(np.int64)) // m.stream.sym_len) * m.warp_size
    _first_failure(np.diff(ptr.astype(np.int64)) != expected, check_interval)
    if deep:
        prev_last = None
        for i in range(m.num_intervals):
            rows_2d = m.decode_interval_rows(i)
            lo, hi = m.interval_entry_bounds(i)
            flat = rows_2d.T.reshape(-1)[: hi - lo]
            if flat.size and (int(flat.min()) < 0 or int(flat.max()) >= rows):
                _fail(fmt, f"decoded rows[interval {i}]", f"fall outside [0, {rows})")
            if np.any(np.diff(flat) < 0):
                _fail(fmt, f"decoded rows[interval {i}]", "must be non-decreasing")
            if prev_last is not None and flat.size and int(flat[0]) < prev_last:
                _fail(fmt, f"decoded rows[interval {i}]", "regress across the interval boundary")
            if flat.size:
                prev_last = int(flat[-1])


# ---------------------------------------------------------------------------
# BRO-SELL
# ---------------------------------------------------------------------------


@_register("bro_sell")
def _validate_bro_sell(m: BROSELLMatrix, deep: bool) -> None:
    fmt = "bro_sell"
    rows, cols = m.shape
    edges = m.chunk_edges
    expected_edges = slice_bounds(rows, min(m.c, rows)) if rows else np.zeros(1, np.int64)
    if not np.array_equal(edges, expected_edges):
        _fail(fmt, "chunk_edges", f"do not partition {rows} rows into chunks of {m.c}")
    if m.sym_len not in (32, 64):
        _fail(fmt, "sym_len", f"must be 32 or 64, got {m.sym_len}")
    ids = m.row_ids
    if ids.shape != (rows,) or not np.array_equal(np.sort(ids), np.arange(rows)):
        _fail(fmt, "row_ids", f"is not a permutation of [0, {rows})")
    lengths = m.row_lengths
    if lengths.shape != (rows,):
        _fail(fmt, "row_lengths", f"shape {lengths.shape} != ({rows},)")
    if lengths.size and int(lengths.min()) < 0:
        _fail(fmt, "row_lengths", "holds a negative entry")
    ptr = m.stream.slice_ptr
    if ptr.shape[0] != m.num_chunks + 1:
        _fail(fmt, "slice_ptr", f"has {ptr.shape[0]} entries for {m.num_chunks} chunks")
    if int(ptr[0]) != 0 or int(ptr[-1]) != m.stream.data.shape[0]:
        _fail(fmt, "slice_ptr", "must start at 0 and end at the stream length")
    perm_lengths = lengths[ids]

    def check_chunk(i: int) -> None:
        ba = m.bit_allocs[i]
        h_i = int(edges[i + 1] - edges[i])
        if int(m.num_col[i]) != ba.shape[0]:
            _fail(fmt, f"num_col[{i}]", f"is {int(m.num_col[i])}, bit_alloc has {ba.shape[0]}")
        if ba.size and (int(ba.min()) < 1 or int(ba.max()) > m.sym_len):
            _fail(fmt, f"bit_alloc[{i}]", f"widths must lie in [1, {m.sym_len}]")
        expected = row_stream_symbols(ba, m.sym_len) * h_i
        have = int(ptr[i + 1] - ptr[i])
        if have != expected:
            _fail(fmt, f"stream[{i}]", f"holds {have} symbols, widths require {expected}")
        chunk_lens = perm_lengths[int(edges[i]) : int(edges[i + 1])]
        if chunk_lens.size and int(chunk_lens.max()) > ba.shape[0]:
            _fail(fmt, f"row_lengths[chunk {i}]", f"exceed the chunk width {ba.shape[0]}")

    bad, widths = _width_blocks(m.bit_allocs, m.num_col, np.diff(edges), ptr,
                                m.sym_len, fmt, "chunks")
    bad |= _block_max(perm_lengths, edges) > widths
    _first_failure(bad, check_chunk)
    if deep:
        for i in range(m.num_chunks):
            cols_blk, valid = m.decode_chunk_cols(i)
            real = cols_blk[valid]
            if real.size and (int(real.min()) < 0 or int(real.max()) >= cols):
                _fail(fmt, f"decoded columns[chunk {i}]", f"fall outside [0, {cols})")
            both = valid[:, 1:] & valid[:, :-1]
            if np.any(both & (cols_blk[:, 1:] <= cols_blk[:, :-1])):
                _fail(fmt, f"decoded columns[chunk {i}]", "must strictly increase per row")


# ---------------------------------------------------------------------------
# SELL-C-sigma / CMRS
# ---------------------------------------------------------------------------


@_register("sell_c_sigma")
def _validate_sell(m: SELLCSigmaMatrix, deep: bool) -> None:
    fmt = "sell_c_sigma"
    rows, cols = m.shape
    edges = m.chunk_edges
    expected_edges = slice_bounds(rows, min(m.c, rows)) if rows else np.zeros(1, np.int64)
    if not np.array_equal(edges, expected_edges):
        _fail(fmt, "chunk_edges", f"do not partition {rows} rows into chunks of {m.c}")
    ids = m.row_ids
    if ids.shape != (rows,) or not np.array_equal(np.sort(ids), np.arange(rows)):
        _fail(fmt, "row_ids", f"is not a permutation of [0, {rows})")
    lengths = m.row_lengths
    if lengths.shape != (rows,):
        _fail(fmt, "row_lengths", f"shape {lengths.shape} != ({rows},)")
    if lengths.size and int(lengths.min()) < 0:
        _fail(fmt, "row_lengths", "holds a negative entry")
    if m.num_col.shape[0] != m.num_chunks:
        _fail(fmt, "num_col", f"has {m.num_col.shape[0]} entries for {m.num_chunks} chunks")
    perm_lengths = lengths[ids]
    padded = 0
    for i in range(m.num_chunks):
        h_i = int(edges[i + 1] - edges[i])
        l_i = int(m.num_col[i])
        chunk_lens = perm_lengths[int(edges[i]) : int(edges[i + 1])]
        expected_l = int(chunk_lens.max()) if chunk_lens.size else 0
        if l_i != expected_l:
            _fail(fmt, f"num_col[{i}]", f"is {l_i}, chunk row lengths require {expected_l}")
        padded += h_i * l_i
    if m._col_idx.shape[0] != padded or m._vals.shape[0] != padded:
        _fail(fmt, "col_idx/vals", f"flat buffers do not hold {padded} padded entries")
    if deep:
        if m._col_idx.size and (int(m._col_idx.min()) < 0 or int(m._col_idx.max()) >= cols):
            _fail(fmt, "col_idx", f"falls outside [0, {cols})")
        if m._vals.size and not np.all(np.isfinite(m._vals)):
            _fail(fmt, "vals", "hold non-finite entries")


@_register("cmrs")
def _validate_cmrs(m: CMRSMatrix, deep: bool) -> None:
    fmt = "cmrs"
    rows, cols = m.shape
    if not 1 <= m.height <= MAX_STRIP_HEIGHT:
        _fail(fmt, "height", f"must lie in [1, {MAX_STRIP_HEIGHT}], got {m.height}")
    n_strips = -(-rows // m.height) if rows else 0
    ptr = m.strip_ptr
    if ptr.shape[0] != n_strips + 1:
        _fail(fmt, "strip_ptr", f"has {ptr.shape[0]} entries for {n_strips} strips")
    if int(ptr[0]) != 0 or int(ptr[-1]) != m.col_idx.shape[0]:
        _fail(fmt, "strip_ptr", "must start at 0 and end at nnz")
    if np.any(np.diff(ptr) < 0):
        _fail(fmt, "strip_ptr", "must be non-decreasing")
    if not (m.col_idx.shape == m.row_in_strip.shape == m.vals.shape):
        _fail(fmt, "col_idx/row_in_strip/vals", "length mismatch")
    if m.col_idx.size and (int(m.col_idx.min()) < 0 or int(m.col_idx.max()) >= cols):
        _fail(fmt, "col_idx", f"falls outside [0, {cols})")
    if m.row_in_strip.size and int(m.row_in_strip.max()) >= m.height:
        _fail(fmt, "row_in_strip", f"holds offsets >= strip height {m.height}")
    entry_rows = m.entry_rows()
    if entry_rows.size and int(entry_rows.max()) >= rows:
        _fail(fmt, "row_in_strip", f"reconstructs rows outside [0, {rows})")
    if deep:
        if entry_rows.size and np.any(np.diff(entry_rows) < 0):
            _fail(fmt, "row_in_strip", "reconstructed rows must be non-decreasing")
        if m.vals.size and not np.all(np.isfinite(m.vals)):
            _fail(fmt, "vals", "hold non-finite entries")


# ---------------------------------------------------------------------------
# BRO-HYB / baselines
# ---------------------------------------------------------------------------


@_register("bro_hyb")
def _validate_bro_hyb(m: BROHYBMatrix, deep: bool) -> None:
    if m.ell.shape != m.shape or m.coo.shape != m.shape:
        _fail("bro_hyb", "parts", "do not share the logical shape")
    _validate_bro_ell(m.ell, deep)
    _validate_bro_coo(m.coo, deep)


@_register("csr")
def _validate_csr(m: CSRMatrix, deep: bool) -> None:
    fmt = "csr"
    rows, cols = m.shape
    if m.indptr.shape[0] != rows + 1:
        _fail(fmt, "indptr", f"must have length {rows + 1}")
    if int(m.indptr[0]) != 0 or int(m.indptr[-1]) != m.indices.shape[0]:
        _fail(fmt, "indptr", "must start at 0 and end at nnz")
    if np.any(np.diff(m.indptr) < 0):
        _fail(fmt, "indptr", "must be non-decreasing")
    if m.indices.shape != m.vals.shape:
        _fail(fmt, "indices/vals", "length mismatch")
    if m.indices.size and (int(m.indices.min()) < 0 or int(m.indices.max()) >= cols):
        _fail(fmt, "indices", f"fall outside [0, {cols})")
    if deep and m.vals.size and not np.all(np.isfinite(m.vals)):
        _fail(fmt, "vals", "hold non-finite entries")


@_register("coo")
def _validate_coo(m: COOMatrix, deep: bool) -> None:
    fmt = "coo"
    rows, cols = m.shape
    if not (m.row_idx.shape == m.col_idx.shape == m.vals.shape):
        _fail(fmt, "row_idx/col_idx/vals", "length mismatch")
    if m.row_idx.size:
        if int(m.row_idx.min()) < 0 or int(m.row_idx.max()) >= rows:
            _fail(fmt, "row_idx", f"falls outside [0, {rows})")
        if int(m.col_idx.min()) < 0 or int(m.col_idx.max()) >= cols:
            _fail(fmt, "col_idx", f"falls outside [0, {cols})")
    if deep and m.vals.size and not np.all(np.isfinite(m.vals)):
        _fail(fmt, "vals", "hold non-finite entries")
