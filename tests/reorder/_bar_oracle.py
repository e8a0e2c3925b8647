"""Test-only oracle: the BAR greedy loop as it stood before the
cluster-major rewrite, kept verbatim so the tests can pin the rewritten
:func:`repro.reorder.bar.bar_reordering` to its exact permutation.

Do not optimise this file: its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReorderingError
from repro.formats.coo import COOMatrix
from repro.reorder.bar import BARReordering
from repro.reorder.base import check_permutation
from repro.reorder.objective import delta_rows_for_bar
from repro.utils.bits import ceil_div

_BITMAP_BITS = 1024
_BITMAP_WORDS = _BITMAP_BITS // 64


def bar_reordering(
    coo: COOMatrix,
    h: int = 256,
    alpha: int = 32,
    w: int = 32,
    cache_weight: float = 1.0,
) -> BARReordering:
    """Like :func:`bar_permutation` but returns diagnostics too."""
    if h <= 0 or alpha <= 0 or w <= 0:
        raise ReorderingError("h, alpha and w must be positive")
    m = coo.shape[0]
    bits, lines, _valid = delta_rows_for_bar(coo)
    K = bits.shape[1]
    v = max(1, ceil_div(m, h))

    # Capacities sum to m, so the greedy necessarily fills every cluster
    # exactly: cluster boundaries coincide with slice boundaries.
    caps = np.full(v, h, dtype=np.int64)
    caps[-1] = m - (v - 1) * h if m > (v - 1) * h else h

    # Line 2: sort rows by row length; seeds are spaced h apart.
    lengths = coo.row_lengths()
    order = np.argsort(-lengths, kind="stable")
    seed_positions = np.arange(v) * h
    seed_positions = seed_positions[seed_positions < m]
    seeds = order[seed_positions]
    is_seed = np.zeros(m, dtype=bool)
    is_seed[seeds] = True
    rest = order[~is_seed[order]]

    # Cluster state.
    D = np.zeros((v, K), dtype=np.int64)  # per-column max bit widths
    Sd = np.zeros(v, dtype=np.int64)  # sum_j d(S, j)
    bitmap = np.zeros((v, K, _BITMAP_WORDS), dtype=np.uint64)
    sizes = np.zeros(v, dtype=np.int64)
    assignment = np.empty(m, dtype=np.int64)

    col_ar = np.arange(K)

    def insert(t: int, r: int) -> None:
        row_bits = bits[r]
        D[t] = np.maximum(D[t], row_bits)
        Sd[t] = int(D[t].sum())
        row_lines = lines[r]
        ok = row_lines >= 0
        pos = (row_lines[ok] % _BITMAP_BITS).astype(np.int64)
        words, bit_pos = pos // 64, pos % 64
        np.bitwise_or.at(
            bitmap[t], (col_ar[ok], words), np.uint64(1) << bit_pos.astype(np.uint64)
        )
        sizes[t] += 1
        assignment[r] = t

    for t, r in enumerate(seeds):  # lines 3-6
        insert(t, int(r))

    for r in rest:  # lines 7-13
        row_bits = bits[r]
        inc = np.maximum(row_bits[np.newaxis, :] - D, 0).sum(axis=1)
        # ceil((Sd + inc) / alpha) - ceil(Sd / alpha)
        stream_cost = (Sd + inc + alpha - 1) // alpha - (Sd + alpha - 1) // alpha

        row_lines = lines[r]
        ok = row_lines >= 0
        if cache_weight > 0.0 and np.any(ok):
            pos = (row_lines[ok] % _BITMAP_BITS).astype(np.int64)
            words, bit_pos = pos // 64, pos % 64
            present = (
                bitmap[:, col_ar[ok], words] >> bit_pos.astype(np.uint64)
            ) & np.uint64(1)
            new_lines = (present == 0).sum(axis=1)
        else:
            new_lines = np.zeros(v, dtype=np.int64)

        cost = stream_cost + cache_weight * new_lines
        cost = np.where(sizes < caps, cost, np.inf)
        insert(int(np.argmin(cost)), int(r))

    # Clusters in index order become consecutive row blocks (slices).
    perm = np.concatenate(
        [np.flatnonzero(assignment == t) for t in range(v)]
    )
    return BARReordering(
        perm=check_permutation(perm, m), cluster_sizes=sizes.copy(), v=v, h=h
    )
