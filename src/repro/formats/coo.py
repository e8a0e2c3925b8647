"""Coordinate (COO) format — the canonical interchange representation.

Entries are kept sorted by ``(row, col)`` with duplicates summed, so every
other format can convert through COO deterministically. The order is that
of one ``int64`` key per entry, ``row * n + col``; input already in key
order is kept as it is, without a sort. Index arrays are
``int32`` (as in CUSP) and values ``float64``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from ..errors import FormatError, ValidationError
from ..registry import TunerProfile
from ..types import INDEX_DTYPE, VALUE_DTYPE
from ..utils.validation import check_1d
from .base import SparseFormat, register_format

__all__ = ["COOMatrix"]


@register_format(tuner=TunerProfile())
class COOMatrix(SparseFormat):
    """Sorted, deduplicated coordinate-format sparse matrix.

    Parameters
    ----------
    row_idx, col_idx:
        Entry coordinates (0-based). Any integer dtype; stored as ``int32``.
    vals:
        Entry values; stored as ``float64``.
    shape:
        Logical matrix shape ``(m, n)``.
    sum_duplicates:
        When ``True`` (default) repeated coordinates are summed, as SciPy
        does; when ``False`` duplicates raise :class:`FormatError`.

    Entries are ordered by the key ``row * n + col``, which sorts by row,
    then column. Input whose keys never decrease is not sorted at all;
    otherwise a stable argsort of the keys orders it, so repeated
    coordinates stay in input order and are summed in that order.
    """

    format_name = "coo"

    def __init__(
        self,
        row_idx: np.ndarray,
        col_idx: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
        *,
        sum_duplicates: bool = True,
    ) -> None:
        row_idx = check_1d(row_idx, "row_idx").astype(np.int64, copy=False)
        col_idx = check_1d(col_idx, "col_idx").astype(np.int64, copy=False)
        vals = check_1d(vals, "vals").astype(VALUE_DTYPE, copy=True)
        if not (row_idx.shape == col_idx.shape == vals.shape):
            raise ValidationError(
                f"row_idx/col_idx/vals must have equal length, got "
                f"{row_idx.shape}, {col_idx.shape}, {vals.shape}"
            )
        m, n = int(shape[0]), int(shape[1])
        if m <= 0 or n <= 0:
            raise ValidationError(f"shape must be positive, got {shape}")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= m:
                raise ValidationError("row index out of range")
            if col_idx.min() < 0 or col_idx.max() >= n:
                raise ValidationError("column index out of range")

        # One int64 key per entry orders by (row, col); m, n < 2**31 keeps
        # it below 2**62. A stable sort keeps duplicates in input order,
        # so their sums do not depend on how the keys were ordered.
        key = row_idx * n + col_idx
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            key = key[order]
            row_idx, col_idx, vals = row_idx[order], col_idx[order], vals[order]
        dup = key[1:] == key[:-1]
        if np.any(dup):
            if not sum_duplicates:
                raise FormatError("duplicate coordinates present")
            # Segment-sum values over runs of identical coordinates.
            first = np.concatenate(([True], ~dup))
            seg = np.cumsum(first) - 1
            summed = np.zeros(int(seg[-1]) + 1, dtype=VALUE_DTYPE)
            np.add.at(summed, seg, vals)
            keep = np.flatnonzero(first)
            row_idx, col_idx, vals = row_idx[keep], col_idx[keep], summed

        self._row = row_idx.astype(INDEX_DTYPE)
        self._col = col_idx.astype(INDEX_DTYPE)
        self._vals = vals
        self._shape = (m, n)

    # ------------------------------------------------------------------
    @property
    def row_idx(self) -> np.ndarray:
        """Row coordinate of every entry (``int32``, sorted)."""
        return self._row

    @property
    def col_idx(self) -> np.ndarray:
        """Column coordinate of every entry (``int32``)."""
        return self._col

    @property
    def vals(self) -> np.ndarray:
        """Value of every entry (``float64``)."""
        return self._vals

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self._vals.shape[0])

    # ------------------------------------------------------------------
    def row_lengths(self) -> np.ndarray:
        """Number of stored entries in each row (``int64``, length ``m``)."""
        return np.bincount(self._row, minlength=self._shape[0]).astype(np.int64)

    def to_coo(self) -> "COOMatrix":
        return self

    @classmethod
    def from_coo(cls, coo: "COOMatrix", **kwargs) -> "COOMatrix":
        return coo

    # -- container serialization (.brx) --------------------------------
    def to_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        meta: Dict[str, Any] = {"shape": list(self._shape)}
        arrays = {"row_idx": self._row, "col_idx": self._col, "vals": self._vals}
        return meta, arrays

    @classmethod
    def from_state(
        cls, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> "COOMatrix":
        return cls(
            arrays["row_idx"], arrays["col_idx"], arrays["vals"],
            tuple(meta["shape"]),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build from a dense 2-D array, storing exact non-zeros only."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.ndim != 2:
            raise ValidationError(f"dense must be 2-D, got shape {dense.shape}")
        row, col = np.nonzero(dense)
        return cls(row, col, dense[row, col], dense.shape)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self._shape, dtype=VALUE_DTYPE)
        out[self._row, self._col] = self._vals
        return out

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = self.check_x(x)
        y = np.zeros(self._shape[0], dtype=VALUE_DTYPE)
        np.add.at(y, self._row, self._vals * x[self._col])
        return y

    def device_bytes(self) -> Dict[str, int]:
        return {
            "index": int(self._row.nbytes + self._col.nbytes),
            "values": int(self._vals.nbytes),
        }

    # ------------------------------------------------------------------
    def permute_rows(self, perm: np.ndarray) -> "COOMatrix":
        """Return ``P @ A`` where row ``perm[i]`` of ``A`` becomes row ``i``.

        ``perm`` is the *gather* permutation: ``new_A[i, :] = A[perm[i], :]``.
        """
        perm = check_1d(perm, "perm").astype(np.int64)
        m = self._shape[0]
        if perm.shape[0] != m or not np.array_equal(np.sort(perm), np.arange(m)):
            raise ValidationError("perm must be a permutation of range(m)")
        inv = np.empty(m, dtype=np.int64)
        inv[perm] = np.arange(m)
        return COOMatrix(inv[self._row], self._col, self._vals, self._shape)
