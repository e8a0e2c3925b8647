"""Deterministic fault injection into stored BRO containers.

Every injector deep-copies the victim first (the pristine matrix — and its
integrity header, which the copy inherits — is never touched) and then
corrupts the copy the way a real memory or storage fault would: flipping a
bit inside the packed symbol stream, truncating the stream, corrupting a
``bit_alloc`` width, slice metadata, a stored value, or bytes of an
on-disk ``.npz`` archive. Injection is fully driven by a seeded
:class:`numpy.random.Generator`, so a campaign is reproducible from its
seed alone.

Faults that a container constructor already rejects surface as
``build_error`` on the returned :class:`InjectedFault` — construction-time
rejection is a *detection*, and the campaign runner counts it as one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..bitstream.multiplex import MultiplexedStream
from ..core.bro_coo import BROCOOMatrix
from ..core.bro_ell import BROELLMatrix
from ..core.bro_hyb import BROHYBMatrix
from ..errors import ReproError, ValidationError
from ..formats.base import SparseFormat

__all__ = [
    "FaultSpec",
    "InjectedFault",
    "fault_kinds",
    "inject_fault",
    "corrupt_archive",
    "flip_plan_bit",
    "ARCHIVE_FAULT_KINDS",
    "PLAN_FAULT_KIND",
]


@dataclass(frozen=True)
class FaultSpec:
    """What was injected and where."""

    kind: str  #: injector name, e.g. ``"stream_bit_flip"``
    target: str  #: human-readable fault location


@dataclass
class InjectedFault:
    """One injected fault: the corrupted copy, or the construction error."""

    spec: FaultSpec
    matrix: Optional[SparseFormat]  #: ``None`` when construction rejected the fault
    build_error: Optional[ReproError]

    @property
    def detected_on_build(self) -> bool:
        return self.build_error is not None


@dataclass(frozen=True)
class _FaultKind:
    name: str
    applies: Callable[[SparseFormat], bool]
    inject: Callable[[SparseFormat, np.random.Generator], str]  # returns target


# ---------------------------------------------------------------------------
# In-place corruption helpers (operate on the deep copy)
# ---------------------------------------------------------------------------


def _stream_of(m: SparseFormat) -> MultiplexedStream:
    return m.stream  # type: ignore[attr-defined]


def _flip_stream_bit(m, rng: np.random.Generator) -> str:
    data = _stream_of(m).data
    i = int(rng.integers(data.shape[0]))
    bit = int(rng.integers(data.dtype.itemsize * 8))
    data[i] ^= data.dtype.type(1) << data.dtype.type(bit)
    return f"stream.data[{i}] bit {bit}"


def _truncate_stream(m, rng: np.random.Generator) -> str:
    stream = _stream_of(m)
    k = int(rng.integers(1, min(4, stream.data.shape[0]) + 1))
    data = stream.data[: stream.data.shape[0] - k].copy()
    ptr = stream.slice_ptr.copy()
    np.minimum(ptr, data.shape[0], out=ptr)
    m._stream = MultiplexedStream(data, ptr, stream.sym_len)
    return f"stream truncated by {k} symbols"


def _flip_value_bit(m, rng: np.random.Generator) -> str:
    vals = m._vals if isinstance(m, BROELLMatrix) else m.vals
    i = int(rng.integers(vals.shape[0]))
    # Flip a mantissa/exponent bit through the raw representation; skip the
    # sign bit of 0.0 padding (that flip is numerically invisible).
    bits = vals.view(np.uint64)
    bit = int(rng.integers(52, 63))
    bits[i] ^= np.uint64(1) << np.uint64(bit)
    return f"vals[{i}] bit {bit}"


def _poison_value(m, rng: np.random.Generator) -> str:
    vals = m._vals if isinstance(m, BROELLMatrix) else m.vals
    i = int(rng.integers(vals.shape[0]))
    vals[i] = np.nan
    return f"vals[{i}] <- NaN"


# --- BRO-ELL specific -------------------------------------------------------


def _ell_slices_with_columns(m: BROELLMatrix) -> List[int]:
    return [i for i in range(m.num_slices) if m.bit_allocs[i].shape[0]]


def _ell_corrupt_width(m: BROELLMatrix, rng: np.random.Generator) -> str:
    i = int(rng.choice(_ell_slices_with_columns(m)))
    ba = m._bit_allocs[i]
    j = int(rng.integers(ba.shape[0]))
    old = int(ba[j])
    new = old
    while new == old:
        new = int(rng.integers(1, m.sym_len + 1))
    ba[j] = new
    return f"bit_alloc[{i}][{j}] {old} -> {new}"


def _ell_width_out_of_range(m: BROELLMatrix, rng: np.random.Generator) -> str:
    i = int(rng.choice(_ell_slices_with_columns(m)))
    ba = m._bit_allocs[i]
    j = int(rng.integers(ba.shape[0]))
    new = 0 if rng.integers(2) else m.sym_len + 1 + int(rng.integers(8))
    ba[j] = new
    return f"bit_alloc[{i}][{j}] -> {new} (out of range)"


def _ell_corrupt_metadata(m: BROELLMatrix, rng: np.random.Generator) -> str:
    which = int(rng.integers(3))
    if which == 0 and m.row_lengths.size:
        i = int(rng.integers(m.row_lengths.shape[0]))
        m._row_lengths[i] += int(rng.integers(1, 5))
        return f"row_lengths[{i}] inflated"
    if which == 1 and m.num_col.size:
        i = int(rng.integers(m.num_col.shape[0]))
        m._num_col[i] += int(rng.integers(1, 5))
        return f"num_col[{i}] inflated"
    ptr = m.stream.slice_ptr
    if ptr.shape[0] > 2:
        i = int(rng.integers(1, ptr.shape[0] - 1))
        ptr[i] += int(rng.integers(1, 3))
        return f"slice_ptr[{i}] shifted"
    m._row_lengths[0] += 1
    return "row_lengths[0] inflated"


# --- BRO-COO specific -------------------------------------------------------


def _coo_corrupt_width(m: BROCOOMatrix, rng: np.random.Generator) -> str:
    i = int(rng.integers(m.num_intervals))
    old = int(m._bit_alloc[i])
    new = old
    while new == old:
        new = int(rng.integers(1, m.stream.sym_len + 1))
    m._bit_alloc[i] = new
    return f"bit_alloc[{i}] {old} -> {new}"


def _coo_col_out_of_range(m: BROCOOMatrix, rng: np.random.Generator) -> str:
    i = int(rng.integers(m.col_idx.shape[0]))
    m._col_idx[i] = m.shape[1] + int(rng.integers(1, 100))
    return f"col_idx[{i}] out of range"


def _coo_corrupt_metadata(m: BROCOOMatrix, rng: np.random.Generator) -> str:
    if rng.integers(2):
        m._nnz = m._nnz + int(rng.integers(1, m.padded_nnz - m.nnz + 2))
        return "nnz inflated"
    ptr = m.stream.slice_ptr
    if ptr.shape[0] > 2:
        i = int(rng.integers(1, ptr.shape[0] - 1))
        ptr[i] += int(rng.integers(1, 3))
        return f"slice_ptr[{i}] shifted"
    m._nnz = max(0, m._nnz - 1)
    return "nnz deflated"


# ---------------------------------------------------------------------------
# Kind registries
# ---------------------------------------------------------------------------


def _has_stream(m) -> bool:
    return _stream_of(m).data.shape[0] > 0


def _has_vals(m) -> bool:
    vals = m._vals if isinstance(m, BROELLMatrix) else m.vals
    return vals.shape[0] > 0


_ELL_KINDS = [
    _FaultKind("stream_bit_flip", _has_stream, _flip_stream_bit),
    _FaultKind("stream_truncate", _has_stream, _truncate_stream),
    _FaultKind("width_corrupt", lambda m: bool(_ell_slices_with_columns(m)), _ell_corrupt_width),
    _FaultKind(
        "width_out_of_range", lambda m: bool(_ell_slices_with_columns(m)), _ell_width_out_of_range
    ),
    _FaultKind("metadata_corrupt", lambda m: True, _ell_corrupt_metadata),
    _FaultKind("value_bit_flip", _has_vals, _flip_value_bit),
    _FaultKind("value_nan", _has_vals, _poison_value),
]

_COO_KINDS = [
    _FaultKind("stream_bit_flip", _has_stream, _flip_stream_bit),
    _FaultKind("stream_truncate", _has_stream, _truncate_stream),
    _FaultKind("width_corrupt", lambda m: m.num_intervals > 0, _coo_corrupt_width),
    _FaultKind("col_out_of_range", lambda m: m.col_idx.shape[0] > 0, _coo_col_out_of_range),
    _FaultKind("metadata_corrupt", lambda m: m.num_intervals > 0, _coo_corrupt_metadata),
    _FaultKind("value_bit_flip", _has_vals, _flip_value_bit),
    _FaultKind("value_nan", _has_vals, _poison_value),
]


def _hyb_kind(name: str) -> _FaultKind:
    def applies(m: BROHYBMatrix) -> bool:
        return any(
            k.name == name and k.applies(part)
            for part, kinds in ((m.ell, _ELL_KINDS), (m.coo, _COO_KINDS))
            for k in kinds
        )

    def inject(m: BROHYBMatrix, rng: np.random.Generator) -> str:
        candidates = [
            (label, part, k)
            for label, part, kinds in (("ell", m.ell, _ELL_KINDS), ("coo", m.coo, _COO_KINDS))
            for k in kinds
            if k.name == name and k.applies(part)
        ]
        label, part, kind = candidates[int(rng.integers(len(candidates)))]
        return f"{label}: {kind.inject(part, rng)}"

    return _FaultKind(name, applies, inject)


_HYB_KINDS = [
    _hyb_kind(name)
    for name in (
        "stream_bit_flip",
        "stream_truncate",
        "width_corrupt",
        "metadata_corrupt",
        "value_bit_flip",
        "value_nan",
    )
]

_KINDS: Dict[str, List[_FaultKind]] = {
    "bro_ell": _ELL_KINDS,
    "bro_coo": _COO_KINDS,
    "bro_hyb": _HYB_KINDS,
}


def fault_kinds(format_name: str) -> tuple:
    """Names of the fault kinds injectable into a format."""
    return tuple(k.name for k in _KINDS.get(format_name, ()))


def inject_fault(
    matrix: SparseFormat,
    rng: np.random.Generator,
    kind: Optional[str] = None,
) -> InjectedFault:
    """Corrupt a deep copy of ``matrix`` with one randomly chosen fault.

    Parameters
    ----------
    matrix:
        A BRO container (``bro_ell``, ``bro_coo`` or ``bro_hyb``). The
        original — including its integrity header, if sealed — is never
        modified.
    rng:
        Seeded generator driving every random choice.
    kind:
        Restrict injection to one named fault kind (default: any
        applicable kind, chosen uniformly).
    """
    kinds = _KINDS.get(matrix.format_name)
    if not kinds:
        raise ValidationError(
            f"no fault injectors registered for format {matrix.format_name!r}"
        )
    victim = copy.deepcopy(matrix)
    applicable = [k for k in kinds if (kind is None or k.name == kind) and k.applies(victim)]
    if not applicable:
        raise ValidationError(
            f"no applicable fault kind {kind!r} for this {matrix.format_name} instance"
        )
    chosen = applicable[int(rng.integers(len(applicable)))]
    try:
        target = chosen.inject(victim, rng)
    except ReproError as exc:
        return InjectedFault(FaultSpec(chosen.name, "rejected at construction"), None, exc)
    return InjectedFault(FaultSpec(chosen.name, target), victim, None)


# ---------------------------------------------------------------------------
# Prepared-plan corruption
# ---------------------------------------------------------------------------

#: The fault kind that flips one bit of a prepared plan's replay arrays.
PLAN_FAULT_KIND = "plan_bit_flip"


def flip_plan_bit(plan, rng: np.random.Generator) -> str:
    """Flip one bit of one replay array of ``plan`` in place.

    The array (any of :meth:`~repro.kernels.plan.SpMVPlan.replay_arrays`,
    parts included) and the bit are chosen uniformly. Unlike the
    container injectors this corrupts the live plan, not a copy: it
    models a fault in the memory a warm replay reads. Returns the target.
    """
    arrays = [(name, arr) for name, arr in plan.replay_arrays().items()
              if arr.size]
    name, arr = arrays[int(rng.integers(len(arrays)))]
    raw = arr.reshape(-1).view(np.uint8)
    byte = int(rng.integers(raw.shape[0]))
    bit = int(rng.integers(8))
    raw[byte] ^= np.uint8(1 << bit)
    return f"plan {name} byte {byte} bit {bit}"


# ---------------------------------------------------------------------------
# On-disk archive corruption
# ---------------------------------------------------------------------------

ARCHIVE_FAULT_KINDS = ("byte_flip", "truncate", "garbage_header")


def corrupt_archive(
    path: Union[str, Path],
    rng: np.random.Generator,
    kind: Optional[str] = None,
) -> FaultSpec:
    """Corrupt an on-disk ``.npz`` cache archive in place.

    ``byte_flip`` flips one random byte, ``truncate`` drops the file tail,
    and ``garbage_header`` overwrites the leading bytes (destroying the zip
    magic). Returns the spec of what was done.
    """
    path = Path(path)
    raw = bytearray(path.read_bytes())
    if not raw:
        raise ValidationError(f"{path} is empty; nothing to corrupt")
    if kind is None:
        kind = ARCHIVE_FAULT_KINDS[int(rng.integers(len(ARCHIVE_FAULT_KINDS)))]
    if kind == "byte_flip":
        i = int(rng.integers(len(raw)))
        raw[i] ^= 1 << int(rng.integers(8))
        target = f"byte {i}"
    elif kind == "truncate":
        keep = int(rng.integers(len(raw)))
        raw = raw[:keep]
        target = f"truncated to {keep} bytes"
    elif kind == "garbage_header":
        n = min(len(raw), 16)
        raw[:n] = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        target = f"first {n} bytes overwritten"
    else:
        raise ValidationError(f"unknown archive fault kind {kind!r}")
    path.write_bytes(bytes(raw))
    return FaultSpec(kind, target)
