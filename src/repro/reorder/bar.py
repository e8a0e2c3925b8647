"""BRO-aware reordering (BAR) — Algorithm 2 of the paper.

The rows of the delta-encoded index array are greedily clustered into
``v = ceil(m / h)`` equal-size clusters (cluster = future BRO-ELL slice)
minimizing the memory-transaction objective of Eqn. (1): clusters are
seeded with rows spaced ``h`` apart in row-length order, then each
remaining row goes to the cluster whose cost it increases least, subject
to the equi-partition capacity.

Implementation notes
--------------------
The greedy needs the *incremental* cost of adding a row to every open
cluster, so the loop is O(m * v * K) for ``m`` rows, ``v`` clusters and
``K`` ELLPACK columns. The state is cluster-major: every per-column
quantity is a ``(K, v)`` (or ``(K * 128, v)``) array whose column ``j``
is one cluster, so a row with ``s`` stored entries reads ``s`` contiguous
rows of it; its padding (zero width, no line) could never change a cost
and is not read. A cluster that fills is deleted from the state, keeping
ascending cluster-id order: a full cluster can never take a row, and
``argmin`` over the remaining ones picks the same cluster, ties
included, as over all of them with the full ones at infinity.

* Bit-width term: exact. Per-cluster running column maxima (``int8``;
  a Gamma width is at most 64) give each cluster's width increase; the
  stream term ``ceil((Sd + inc) / alpha) - ceil(Sd / alpha)`` is computed
  as ``(fill + inc) // alpha`` from ``fill = (Sd - 1) mod alpha``, which
  is kept per cluster and updated on each insert.
* Cacheline term ``c`` (Eqn. 3): needs per-column *distinct-line* sets;
  storing a real set per (cluster, column) would make the inner loop
  Python-bound, so membership is tracked in a 1024-bit hashed bitmap per
  (cluster, column), stored as 128 bytes — line ``l`` maps to bit
  ``l mod 1024``. Each stored entry's byte index and bit mask are
  computed once before the loop. Collisions can only *undercount* new
  lines (they make BAR slightly over-eager to group far-apart rows); with
  h = 256 rows per cluster the bitmap is at most quarter-full and the
  approximation error is marginal.

The exact objective (:func:`repro.reorder.objective.bar_objective`) is used
in the test-suite to confirm BAR lowers Eqn. (1) versus the identity order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReorderingError
from ..formats.coo import COOMatrix
from ..utils.bits import ceil_div
from .base import check_permutation
from .objective import delta_rows_for_bar

__all__ = ["bar_permutation", "BARReordering"]

_BITMAP_BITS = 1024
_BITMAP_BYTES = _BITMAP_BITS // 8


@dataclass
class BARReordering:
    """Result of a BAR run: the permutation plus diagnostic cluster sizes."""

    perm: np.ndarray
    cluster_sizes: np.ndarray
    v: int
    h: int


def bar_permutation(
    coo: COOMatrix,
    h: int = 256,
    alpha: int = 32,
    w: int = 32,
    cache_weight: float = 1.0,
) -> np.ndarray:
    """Compute the BAR gather permutation for a matrix (Algorithm 2).

    Parameters
    ----------
    coo:
        The matrix to reorder.
    h:
        Slice height (cluster capacity); the paper uses the thread-block
        size, 256.
    alpha:
        Symbol length of the packed stream in bits (Eqn. 1's alpha).
    w:
        Warp size (only scales the objective; kept for fidelity).
    cache_weight:
        Weight of the cacheline term; ``0.0`` ablates Eqn. (3) (used by
        the ablation benchmark), ``1.0`` is the paper's objective.

    Returns
    -------
    numpy.ndarray
        Gather permutation: row ``perm[i]`` of ``coo`` becomes row ``i``.
    """
    return bar_reordering(coo, h=h, alpha=alpha, w=w, cache_weight=cache_weight).perm


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
    bits, lines, valid = delta_rows_for_bar(coo)
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

    # Per-row work, done once: the stored count (``valid`` is a prefix of
    # every row) and each entry's bitmap byte and bit mask, in place of
    # its line. Column c owns bytes c * 128 .. c * 128 + 127; padding
    # entries are never read.
    stored = valid.sum(axis=1)
    lines %= _BITMAP_BITS
    mask = np.bitwise_and(lines, 7, dtype=np.uint8, casting="unsafe")
    np.left_shift(np.uint8(1), mask, out=mask)
    slot = np.right_shift(lines, 3, out=lines)
    slot += np.arange(K) * _BITMAP_BYTES
    widths = bits.astype(np.int8)
    del bits

    # Lines 3-6 seed cluster t with row seeds[t]. The state holds the open
    # clusters only, in ascending id order: column j is cluster ids[j].
    ids = np.arange(v)
    DT = np.ascontiguousarray(widths[seeds].T)  # d(S, j): column maxima
    fill = (DT.sum(axis=0) - 1) % alpha  # (Sd - 1) mod alpha
    bm = np.zeros((K * _BITMAP_BYTES, v), dtype=np.uint8)
    t, c = np.nonzero(valid[seeds])
    bm[slot[seeds[t], c], t] = mask[seeds[t], c]
    left = caps - 1
    assignment = np.empty(m, dtype=np.int64)
    assignment[seeds] = ids

    def close_full() -> None:
        nonlocal ids, DT, fill, bm, left
        keep = left > 0
        ids, DT, fill, bm, left = (
            ids[keep], DT[:, keep], fill[keep], bm[:, keep], left[keep]
        )

    close_full()
    score_lines = cache_weight > 0.0
    for r in rest:  # lines 7-13
        s = stored[r]
        row_bits = widths[r, :s]
        inc = row_bits[:, np.newaxis] - DT[:s]
        total = np.maximum(inc, 0, out=inc).sum(axis=0) + fill
        stream_cost = total // alpha
        row_slot = slot[r, :s]
        row_mask = mask[r, :s]
        if score_lines and s:
            absent = (bm[row_slot] & row_mask[:, np.newaxis]) == 0
            new_lines = absent.sum(axis=0)
        else:
            new_lines = np.zeros(ids.size, dtype=np.int64)
        j = int(np.argmin(stream_cost + cache_weight * new_lines))
        DT[:s, j] = np.maximum(DT[:s, j], row_bits)
        fill[j] = total[j] % alpha
        bm[row_slot, j] |= row_mask
        assignment[r] = ids[j]
        left[j] -= 1
        if not left[j]:
            close_full()

    # Clusters in index order become consecutive row blocks (slices).
    perm = np.argsort(assignment, kind="stable")
    return BARReordering(
        perm=check_permutation(perm, m),
        cluster_sizes=np.bincount(assignment, minlength=v),
        v=v,
        h=h,
    )
