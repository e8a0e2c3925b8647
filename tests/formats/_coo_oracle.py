"""Test-only oracle: the body of ``COOMatrix.__init__`` as it stood before
the one-key sort, kept verbatim (it ordered entries with
``np.lexsort((col_idx, row_idx))``) so the tests can pin the new
constructor to its exact output bytes.

Do not optimise this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError, ValidationError
from repro.types import INDEX_DTYPE, VALUE_DTYPE
from repro.utils.validation import check_1d


def coo_arrays(
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    vals: np.ndarray,
    shape: Tuple[int, int],
    *,
    sum_duplicates: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]:
    """``(row, col, vals, shape)`` as the old constructor stored them."""
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

    order = np.lexsort((col_idx, row_idx))
    row_idx, col_idx, vals = row_idx[order], col_idx[order], vals[order]
    if row_idx.size > 1:
        dup = (row_idx[1:] == row_idx[:-1]) & (col_idx[1:] == col_idx[:-1])
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

    return (row_idx.astype(INDEX_DTYPE), col_idx.astype(INDEX_DTYPE), vals,
            (m, n))
