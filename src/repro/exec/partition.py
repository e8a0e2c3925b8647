"""Row partitioning of sparse matrices across simulated devices.

The sharded engine follows the standard distributed-SpMV decomposition
(Kreutzer et al., arXiv:1112.5588): the matrix is split into *contiguous
row blocks*, one per device, each re-encoded in the original storage
format. Contiguity is what keeps the result bit-identical to the
single-device kernel — every kernel in this library accumulates each row
in ascending-column order, so concatenating per-shard ``y`` blocks
reproduces the exact floating-point sequence of the unsharded run.

Three balancers choose the block boundaries:

* ``"contiguous"`` — equal row counts (the naive split);
* ``"greedy-nnz"`` — boundaries placed on the nnz prefix sum so every
  device receives ~``nnz/N`` non-zeros (work balance for SpMV);
* ``"slice-aligned"`` — greedy-nnz with boundaries snapped to multiples
  of the BRO-ELL slice height ``h``, so shard bitstreams re-encode
  without splitting a slice across devices.

:func:`partition` returns a :class:`ShardedMatrix` — itself a registered
format (``"sharded"``), so sealing, ``.brx`` serialization and the
capability matrix all apply to sharded matrices with no special cases.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import registry as _registry
from ..errors import FormatError, ValidationError
from ..formats.base import SparseFormat, register_format
from ..formats.coo import COOMatrix
from ..registry import TunerProfile

__all__ = [
    "PARTITIONERS",
    "ShardedMatrix",
    "partition",
    "partition_bounds",
    "recover_conversion_kwargs",
]

#: Default BRO-ELL slice height used by ``"slice-aligned"`` when the
#: matrix does not expose one.
_DEFAULT_SLICE_H = 256


# ---------------------------------------------------------------------------
# Boundary computation
# ---------------------------------------------------------------------------


def _bounds_contiguous(m: int, nnz_per_row: np.ndarray, devices: int) -> np.ndarray:
    return np.linspace(0, m, devices + 1).round().astype(np.int64)


def _bounds_greedy_nnz(m: int, nnz_per_row: np.ndarray, devices: int) -> np.ndarray:
    """Boundaries on the nnz prefix sum: shard ``d`` ends where the
    cumulative nnz first reaches ``(d+1)/N`` of the total."""
    prefix = np.concatenate(([0], np.cumsum(nnz_per_row, dtype=np.int64)))
    total = int(prefix[-1])
    if total == 0:
        return _bounds_contiguous(m, nnz_per_row, devices)
    targets = np.arange(1, devices, dtype=np.float64) * total / devices
    inner = np.searchsorted(prefix, targets, side="left").astype(np.int64)
    return np.concatenate(([0], inner, [m]))


def _snap_to_slices(bounds: np.ndarray, m: int, h: int) -> np.ndarray:
    """Round inner boundaries to the nearest slice edge (multiple of ``h``)."""
    inner = (np.asarray(bounds[1:-1], dtype=np.float64) / h).round() * h
    snapped = np.clip(inner, 0, m).astype(np.int64)
    return np.concatenate(([0], snapped, [m]))


def _dedupe_bounds(bounds: np.ndarray, m: int) -> np.ndarray:
    """Force strict monotonicity so no shard ends up with zero rows."""
    out = list(np.asarray(bounds, dtype=np.int64))
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] + 1
    # A forward sweep can push the tail past m; walk back from the end.
    out[-1] = m
    for i in range(len(out) - 2, 0, -1):
        if out[i] >= out[i + 1]:
            out[i] = out[i + 1] - 1
    return np.asarray(out, dtype=np.int64)


#: Registered partitioner names (kept in sync with ExecutionPolicy).
PARTITIONERS = ("contiguous", "greedy-nnz", "slice-aligned")


def partition_bounds(
    matrix: SparseFormat,
    devices: int,
    partitioner: str = "greedy-nnz",
) -> np.ndarray:
    """Row boundaries of every shard: ``devices + 1`` strictly increasing
    values from ``0`` to ``m`` — shard ``d`` owns rows
    ``[bounds[d], bounds[d+1])`` and every shard has at least one row."""
    _check_request(matrix, devices, partitioner)
    return _bounds(matrix, matrix.to_coo().row_lengths(), devices, partitioner)


def _check_request(matrix: SparseFormat, devices: int, partitioner: str) -> None:
    """Reject a bad request before anything is decoded."""
    if partitioner not in PARTITIONERS:
        raise ValidationError(
            f"partitioner must be one of {PARTITIONERS}, got {partitioner!r}"
        )
    if not isinstance(devices, int) or devices < 1:
        raise ValidationError(f"devices must be a positive integer, got {devices!r}")
    m = matrix.shape[0]
    if devices > m:
        raise ValidationError(
            f"cannot split {m} rows across {devices} devices "
            f"(every shard needs at least one row)"
        )


def _bounds(
    matrix: SparseFormat,
    nnz_per_row: np.ndarray,
    devices: int,
    partitioner: str,
) -> np.ndarray:
    """:func:`partition_bounds` over row lengths the caller has decoded."""
    m = matrix.shape[0]
    if partitioner == "contiguous":
        bounds = _bounds_contiguous(m, nnz_per_row, devices)
    else:
        bounds = _bounds_greedy_nnz(m, nnz_per_row, devices)
        if partitioner == "slice-aligned":
            h = int(getattr(matrix, "h", None)
                    or getattr(getattr(matrix, "ell", None), "h", None)
                    or _DEFAULT_SLICE_H)
            bounds = _snap_to_slices(bounds, m, h)
    return _dedupe_bounds(bounds, m)


# ---------------------------------------------------------------------------
# Conversion-kwarg recovery
# ---------------------------------------------------------------------------


def recover_conversion_kwargs(matrix: SparseFormat) -> Dict[str, Any]:
    """Reconstruct the ``from_coo`` keywords that (re-)encode shards
    identically to the source container.

    The generic path reads each registry-declared keyword straight off
    the container (``h``, ``sym_len``, ...). Two formats need care:

    * ``bro_coo`` keeps ``sym_len`` on its packed stream;
    * ``bro_hyb`` must *pin* the ELL/COO split column ``k`` globally —
      re-running the Bell–Garland heuristic per shard would split rows
      differently and break bit-identity. The ELL part's maximum row
      length recovers an equivalent ``k``: any row the split truncated
      has exactly ``k`` ELL entries, and when no row was truncated the
      maximum itself reproduces the same partition.
    """
    spec = _registry.get_spec(matrix.format_name)
    kwargs: Dict[str, Any] = {}
    for key, default in spec.default_kwargs.items():
        kwargs[key] = getattr(matrix, key, default)
    if matrix.format_name == "bro_coo":
        kwargs["sym_len"] = matrix.stream.sym_len  # type: ignore[attr-defined]
    elif matrix.format_name == "bro_hyb":
        ell, coo = matrix.ell, matrix.coo  # type: ignore[attr-defined]
        lengths = ell.row_lengths
        kwargs.update(
            k=int(lengths.max()) if lengths.size else 0,
            h=ell.h,
            sym_len=ell.sym_len,
            warp_size=coo.warp_size,
            interval_size=coo.interval_size if coo.nnz else None,
        )
    return kwargs


# ---------------------------------------------------------------------------
# The sharded container
# ---------------------------------------------------------------------------


@register_format(tuner=TunerProfile(candidate=False))
class ShardedMatrix(SparseFormat):
    """A matrix split into contiguous row blocks, one per device.

    Each shard is a complete container of the *inner* format covering
    rows ``[row_starts[d], row_starts[d+1])`` with shard-local row
    numbering and the full column width, so any registered kernel runs a
    shard unmodified. The container is itself a registered format:
    sealing works through the generic COO-projection extractor, and
    ``.brx`` serialization nests the shard states under ``shard<d>.``
    array prefixes (see :meth:`to_state`).
    """

    format_name = "sharded"

    def __init__(
        self,
        shards: Tuple[SparseFormat, ...],
        bounds: np.ndarray,
        shape: Tuple[int, int],
        *,
        partitioner: str = "greedy-nnz",
    ) -> None:
        shards = tuple(shards)
        if not shards:
            raise ValidationError("ShardedMatrix needs at least one shard")
        bounds = np.asarray(bounds, dtype=np.int64)
        m, n = int(shape[0]), int(shape[1])
        if bounds.shape != (len(shards) + 1,):
            raise ValidationError(
                f"bounds must have {len(shards) + 1} entries, got {bounds.shape}"
            )
        if bounds[0] != 0 or bounds[-1] != m or np.any(np.diff(bounds) <= 0):
            raise ValidationError(
                "bounds must increase strictly from 0 to the row count"
            )
        inner = {s.format_name for s in shards}
        if len(inner) != 1:
            raise ValidationError(f"shards mix formats: {sorted(inner)}")
        for d, shard in enumerate(shards):
            rows = int(bounds[d + 1] - bounds[d])
            if shard.shape != (rows, n):
                raise ValidationError(
                    f"shard {d} has shape {shard.shape}, expected ({rows}, {n})"
                )
        self._shards = shards
        self._bounds = bounds
        self._shape = (m, n)
        self._partitioner = str(partitioner)
        #: Per-shard distinct columns; :func:`partition` records them.
        self._columns: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------------
    @property
    def shards(self) -> Tuple[SparseFormat, ...]:
        """The per-device containers, in row order."""
        return self._shards

    @property
    def bounds(self) -> np.ndarray:
        """Row boundaries; shard ``d`` owns rows ``[bounds[d], bounds[d+1])``."""
        return self._bounds

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def inner_format(self) -> str:
        """Format name of the per-device containers."""
        return self._shards[0].format_name

    @property
    def partitioner(self) -> str:
        """Balancer that chose the boundaries (manifest metadata)."""
        return self._partitioner

    def shard_columns(self) -> Tuple[np.ndarray, ...]:
        """The distinct columns each shard reads, ascending (``int64``).

        :func:`partition` records them as it slices the shards; a
        container built any other way (a ``.brx`` load) decodes each
        shard once, on first use.
        """
        if self._columns is None:
            n = self._shape[1]
            self._columns = tuple(
                _distinct(shard.to_coo().col_idx, n) for shard in self._shards
            )
        return self._columns

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(sum(s.nnz for s in self._shards))

    # ------------------------------------------------------------------
    def manifest(self) -> Dict[str, Any]:
        """JSON-able shard manifest (also stored in ``.brx`` headers)."""
        return {
            "inner_format": self.inner_format,
            "partitioner": self._partitioner,
            "devices": self.n_shards,
            "shape": list(self._shape),
            "nnz": self.nnz,
            "shards": [
                {
                    "index": d,
                    "row_start": int(self._bounds[d]),
                    "row_end": int(self._bounds[d + 1]),
                    "rows": int(self._bounds[d + 1] - self._bounds[d]),
                    "nnz": int(shard.nnz),
                }
                for d, shard in enumerate(self._shards)
            ],
        }

    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        for d, shard in enumerate(self._shards):
            c = shard.to_coo()
            rows.append(c.row_idx.astype(np.int64) + int(self._bounds[d]))
            cols.append(c.col_idx)
            vals.append(c.vals)
        return COOMatrix(
            np.concatenate(rows) if rows else np.zeros(0, np.int64),
            np.concatenate(cols) if cols else np.zeros(0, np.int64),
            np.concatenate(vals) if vals else np.zeros(0),
            self._shape,
        )

    @classmethod
    def from_coo(cls, coo: COOMatrix, **kwargs) -> "ShardedMatrix":
        raise FormatError(
            "sharded matrices are built with repro.exec.partition(), "
            "not from_coo()"
        )

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = self.check_x(x)
        return np.concatenate([s.spmv(x) for s in self._shards])

    def device_bytes(self) -> Dict[str, int]:
        total: Dict[str, int] = {"index": 0, "values": 0}
        for shard in self._shards:
            for key, nbytes in shard.device_bytes().items():
                total[key] = total.get(key, 0) + int(nbytes)
        # The manifest itself (bounds) lives on every device.
        total["aux"] = total.get("aux", 0) + int(self._bounds.nbytes)
        return total

    # -- container serialization (.brx) --------------------------------
    def to_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        shard_meta: List[Dict[str, Any]] = []
        arrays: Dict[str, np.ndarray] = {}
        for d, shard in enumerate(self._shards):
            meta_d, arrays_d = shard.to_state()
            shard_meta.append(meta_d)
            for name, arr in arrays_d.items():
                arrays[f"shard{d}.{name}"] = arr
        meta = {
            "shape": list(self._shape),
            "bounds": [int(b) for b in self._bounds],
            "inner_format": self.inner_format,
            "partitioner": self._partitioner,
            "shard_meta": shard_meta,
            "manifest": self.manifest(),
        }
        return meta, arrays

    @classmethod
    def from_state(
        cls, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> "ShardedMatrix":
        inner = _registry.get_spec(meta["inner_format"]).container
        shards: List[SparseFormat] = []
        for d, meta_d in enumerate(meta["shard_meta"]):
            prefix = f"shard{d}."
            arrays_d = {
                name[len(prefix):]: arr
                for name, arr in arrays.items()
                if name.startswith(prefix)
            }
            shards.append(inner.from_state(meta_d, arrays_d))
        return cls(
            tuple(shards),
            np.asarray(meta["bounds"], dtype=np.int64),
            tuple(meta["shape"]),
            partitioner=meta.get("partitioner", "greedy-nnz"),
        )


# ---------------------------------------------------------------------------
# The partitioner entry point
# ---------------------------------------------------------------------------


def _distinct(cols: np.ndarray, n: int) -> np.ndarray:
    """The distinct values of ``cols`` (all in ``[0, n)``), ascending."""
    seen = np.zeros(n, dtype=bool)
    seen[cols] = True
    return np.flatnonzero(seen)


def _sub_coo(coo: COOMatrix, start: int, end: int) -> COOMatrix:
    """Rows ``[start, end)`` of a sorted COO with shard-local numbering."""
    lo = int(np.searchsorted(coo.row_idx, start, side="left"))
    hi = int(np.searchsorted(coo.row_idx, end, side="left"))
    return COOMatrix(
        coo.row_idx[lo:hi].astype(np.int64) - start,
        coo.col_idx[lo:hi],
        coo.vals[lo:hi],
        (end - start, coo.shape[1]),
    )


def partition(
    matrix: SparseFormat,
    devices: int,
    partitioner: str = "greedy-nnz",
    *,
    conversion_kwargs: Optional[Dict[str, Any]] = None,
) -> ShardedMatrix:
    """Split ``matrix`` into ``devices`` contiguous row shards.

    Every shard is re-encoded in the matrix's own format with the
    conversion parameters recovered from the source container
    (:func:`recover_conversion_kwargs`), so the per-shard kernels decode
    exactly the same bit layout and the concatenated result is
    bit-identical to the single-device run. ``conversion_kwargs``
    overrides the recovered parameters.

    A ``devices == 1`` partition is valid (one shard, whole matrix) and
    useful for testing; passing a :class:`ShardedMatrix` re-partitions
    its gathered COO in the *inner* format.
    """
    if isinstance(matrix, ShardedMatrix):
        inner = _registry.get_spec(matrix.inner_format).container
        source = matrix.to_coo()
        kwargs = conversion_kwargs or {}
        matrix = inner.from_coo(source, **kwargs) if kwargs else inner.from_coo(source)
        return partition(matrix, devices, partitioner,
                         conversion_kwargs=conversion_kwargs)

    _check_request(matrix, devices, partitioner)
    coo = matrix.to_coo()
    bounds = _bounds(matrix, coo.row_lengths(), devices, partitioner)
    kwargs = recover_conversion_kwargs(matrix)
    if conversion_kwargs:
        kwargs.update(conversion_kwargs)
    container = type(matrix)
    subs = [_sub_coo(coo, int(bounds[d]), int(bounds[d + 1]))
            for d in range(devices)]
    sharded = ShardedMatrix(
        tuple(container.from_coo(sub, **kwargs) for sub in subs),
        bounds, matrix.shape, partitioner=partitioner,
    )
    sharded._columns = tuple(_distinct(sub.col_idx, coo.shape[1]) for sub in subs)
    return sharded
