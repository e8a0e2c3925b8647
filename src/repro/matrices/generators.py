"""Structural sparse-matrix generators.

Each generator is deterministic given its ``seed`` and is built from two
orthogonal ingredients:

* a **row-length distribution** (constant, truncated normal, lognormal or
  Zipf — matching Table 2's mu/sigma per matrix), and
* a **column-placement pattern** (exact stencil offsets, randomized band,
  FEM block band with contiguous runs, uniform random, or a hub mixture),
  which controls delta magnitudes and x locality.

All generators are vectorized and chunked over rows so million-row matrices
stay affordable; no Python-level per-entry loops.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from ..formats.coo import COOMatrix
from ..utils.validation import check_positive

__all__ = [
    "stencil",
    "hub_mixture",
    "banded_random",
    "block_band",
    "random_uniform",
    "power_law",
    "dense",
    "dense_rows",
    "row_lengths_normal",
    "row_lengths_lognormal",
    "row_lengths_zipf",
]

_CHUNK = 65536  # rows per vectorized generation chunk
_KEY_ROWS = 256  # rows per block of sampling keys (bounds their memory)


# ----------------------------------------------------------------------
# Row-length distributions
# ----------------------------------------------------------------------
def row_lengths_normal(
    m: int, mu: float, sigma: float, max_len: int, rng: np.random.Generator
) -> np.ndarray:
    """Truncated-normal row lengths with approximate mean ``mu``."""
    lengths = np.rint(rng.normal(mu, sigma, size=m)).astype(np.int64)
    return np.clip(lengths, 1, max_len)


def row_lengths_lognormal(
    m: int, mu: float, sigma: float, max_len: int, rng: np.random.Generator
) -> np.ndarray:
    """Lognormal row lengths: right-skewed (sigma of the same order as mu)."""
    if mu <= 0:
        raise ValidationError("mu must be positive")
    # Match the first two moments of a lognormal to (mu, sigma).
    var = max(sigma, 1e-9) ** 2
    s2 = np.log(1.0 + var / mu**2)
    loc = np.log(mu) - 0.5 * s2
    lengths = np.rint(rng.lognormal(loc, np.sqrt(s2), size=m)).astype(np.int64)
    return np.clip(lengths, 1, max_len)


def row_lengths_zipf(
    m: int, mu: float, max_len: int, rng: np.random.Generator, alpha: float = 2.0
) -> np.ndarray:
    """Power-law row lengths (circuit / web graphs): heavy upper tail."""
    raw = rng.zipf(alpha, size=m).astype(np.float64)
    raw = np.clip(raw, 1, max_len)
    # Rescale multiplicatively toward the target mean (clipping back to
    # [1, max_len] keeps the heavy tail while bounding a row's width).
    factor = mu / max(raw.mean(), 1e-9)
    return np.clip(np.rint(raw * factor), 1, max_len).astype(np.int64)


# ----------------------------------------------------------------------
# Column-placement engine
# ----------------------------------------------------------------------
def _coo_from_rows(
    rows: np.ndarray, cols: np.ndarray, shape, rng: np.random.Generator
) -> COOMatrix:
    vals = rng.standard_normal(rows.shape[0])
    return COOMatrix(rows, cols, vals, shape)


def _window_sample(
    centers: np.ndarray,
    lengths: np.ndarray,
    domain: int,
    window: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``lengths[i]`` distinct positions near ``centers[i]``.

    Positions live in ``[0, domain)`` inside a window of half-width
    ``window`` around each (clipped) center. Without-replacement sampling
    uses the argsort-of-uniforms trick, vectorized over blocks of
    ``_KEY_ROWS`` rows; only the ``lengths.max()`` smallest keys of a row
    are ever taken, so those are partitioned off first and only they are
    sorted.

    Returns ``(sel, positions)`` where ``sel`` indexes the chunk row each
    position belongs to.
    """
    chunk = centers.shape[0]
    if chunk == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    L = int(lengths.max())
    width = max(int(min(2 * window + 1, domain)), L)
    perm = np.empty((chunk, L), dtype=np.int64)
    for r0 in range(0, chunk, _KEY_ROWS):
        # Consecutive draws consume the stream as one (chunk, width) draw.
        keys = rng.random((min(_KEY_ROWS, chunk - r0), width))
        if L == width:
            block = np.argsort(keys, axis=1)
        else:  # L == 0 partitions at kth=-1 and keeps no column
            block = np.argpartition(keys, L - 1, axis=1)[:, :L]
            order = np.argsort(np.take_along_axis(keys, block, axis=1), axis=1)
            block = np.take_along_axis(block, order, axis=1)
        perm[r0:r0 + keys.shape[0]] = block
    take = np.arange(L)[np.newaxis, :] < lengths[:, np.newaxis]
    sel, j = np.nonzero(take)
    offsets = perm[sel, j]
    ctr = np.clip(centers[sel], window, max(domain - 1 - window, 0))
    lo = np.maximum(ctr - window, 0)
    positions = np.minimum(lo + offsets, domain - 1)
    return sel, positions


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def stencil(
    m: int,
    offsets: Sequence[int],
    seed: int = 0,
    n: int | None = None,
) -> COOMatrix:
    """Exact regular stencil: row ``i`` holds columns ``i + offsets`` (clipped).

    Models grid-based PDE matrices (``mc2depi``, ``epb3``, ``qcd5_4``):
    near-constant row lengths and a fixed delta pattern — including the
    large first delta that caps mc2depi's compressibility in Table 3.
    """
    m = check_positive(m, "m")
    n = m if n is None else check_positive(n, "n")
    offs = np.asarray(sorted(set(int(o) for o in offsets)), dtype=np.int64)
    if offs.size == 0:
        raise ValidationError("at least one stencil offset is required")
    rng = np.random.default_rng(seed)
    rows_parts, cols_parts = [], []
    for r0 in range(0, m, _CHUNK):
        r1 = min(r0 + _CHUNK, m)
        ids = np.arange(r0, r1, dtype=np.int64)
        cols = ids[:, np.newaxis] + offs[np.newaxis, :]
        keep = (cols >= 0) & (cols < n)
        r, j = np.nonzero(keep)
        rows_parts.append(ids[r])
        cols_parts.append(cols[r, j])
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    return _coo_from_rows(rows, cols, (m, n), rng)


def banded_random(
    m: int,
    mu: float,
    sigma: float,
    bandwidth: int | None = None,
    seed: int = 0,
    n: int | None = None,
    skewed: bool = False,
) -> COOMatrix:
    """Random distinct columns inside a diagonal band.

    Models unstructured FEM/CFD meshes (``cage12``, ``stomach``, ``torso3``,
    ``xenon2``, ``rma10``, ...): good-but-not-perfect locality, moderate
    delta magnitudes.
    """
    m = check_positive(m, "m")
    n = m if n is None else check_positive(n, "n")
    rng = np.random.default_rng(seed)
    window = bandwidth if bandwidth is not None else max(8, int(4 * mu))
    window = min(window, n)
    max_len = min(n, max(1, int(mu + 6 * max(sigma, 1) + 1)))
    max_len = min(max_len, 2 * window + 1)
    draw = row_lengths_lognormal if skewed else row_lengths_normal
    rows_parts, cols_parts = [], []
    for r0 in range(0, m, _CHUNK):
        r1 = min(r0 + _CHUNK, m)
        ids = np.arange(r0, r1, dtype=np.int64)
        lengths = draw(r1 - r0, mu, sigma, max_len, rng)
        sel, cols = _window_sample(ids, lengths, n, window, rng)
        rows_parts.append(ids[sel])
        cols_parts.append(cols)
    return _coo_from_rows(
        np.concatenate(rows_parts), np.concatenate(cols_parts), (m, n), rng
    )


def block_band(
    m: int,
    mu: float,
    sigma: float,
    run: int = 3,
    bandwidth: int | None = None,
    seed: int = 0,
    aligned: bool = False,
) -> COOMatrix:
    """FEM block band: entries come in contiguous runs of ``run`` columns.

    Models multi-DOF structural matrices (``cant``, ``consph``, ``pdb1HYS``,
    ``shipsec1``, ``pwtk``, ``bcsstk32``): runs of unit deltas make the
    index data extremely compressible (the top of Table 3).

    With ``aligned=True`` groups of ``run`` consecutive rows share the same
    run positions — the dense ``run x run`` blocks a multi-DOF mesh really
    produces, which is what blocked formats (BELLPACK) exploit.
    """
    m = check_positive(m, "m")
    run = check_positive(run, "run")
    rng = np.random.default_rng(seed)
    run_domain = max(m // run, 1)
    window_runs = max(4, int((bandwidth if bandwidth else 6 * mu) // run))
    window_runs = min(window_runs, run_domain)
    max_runs = min(run_domain, 2 * window_runs + 1)
    rows_parts, cols_parts = [], []
    step = run if aligned else 1
    for r0 in range(0, m, _CHUNK):
        r1 = min(r0 + _CHUNK, m)
        if aligned:
            # One run pattern per group of `run` rows, replicated below.
            ids = np.arange(r0, min(r1, m), step, dtype=np.int64)
        else:
            ids = np.arange(r0, r1, dtype=np.int64)
        n_runs = np.clip(
            np.rint(rng.normal(mu / run, max(sigma / run, 0.1), size=ids.shape[0])),
            1,
            max_runs,
        ).astype(np.int64)
        sel, slots = _window_sample(ids // run, n_runs, run_domain, window_runs, rng)
        base_rows = ids[sel]
        cols = (slots[:, np.newaxis] * run + np.arange(run)[np.newaxis, :]).reshape(-1)
        if aligned:
            # For each (group, slot) emit a dense run x run block.
            g = base_rows.shape[0]
            rows = (
                base_rows[:, np.newaxis, np.newaxis]
                + np.arange(run)[np.newaxis, :, np.newaxis]
            )
            rows = np.broadcast_to(rows, (g, run, run)).reshape(-1)
            cols = (
                (slots * run)[:, np.newaxis, np.newaxis]
                + np.arange(run)[np.newaxis, np.newaxis, :]
            )
            cols = np.broadcast_to(cols, (g, run, run)).reshape(-1)
        else:
            rows = np.repeat(base_rows, run)
        keep = (cols < m) & (rows < m)
        rows_parts.append(rows[keep])
        cols_parts.append(cols[keep])
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    return _coo_from_rows(rows, cols, (m, m), rng)


def random_uniform(
    m: int,
    n: int,
    mu: float,
    sigma: float,
    seed: int = 0,
) -> COOMatrix:
    """Distinct columns drawn uniformly over the full row width.

    The worst case for x locality; stresses the texture-cache model.
    """
    return banded_random(m, mu, sigma, bandwidth=n, seed=seed, n=n)


def power_law(
    m: int,
    mu: float,
    seed: int = 0,
    alpha: float = 2.0,
    hub_fraction: float = 0.05,
    locality: float = 0.7,
    n: int | None = None,
) -> COOMatrix:
    """Power-law graph matrix: Zipf row lengths, hub columns, mixed locality.

    Models circuits and web graphs (``rajat30``, ``webbase-1M``,
    ``scircuit``, ``gupta2``, ``twotone``): sigma far above mu, a few
    enormous rows, and a blend of near-diagonal and random placement.
    Duplicate coordinates are merged by :class:`COOMatrix`, mimicking the
    multigraph collapse of real web crawls.
    """
    m = check_positive(m, "m")
    n = m if n is None else check_positive(n, "n")
    rng = np.random.default_rng(seed)
    max_len = min(n, max(64, int(50 * mu)))
    lengths = row_lengths_zipf(m, mu, max_len, rng, alpha)
    rows = np.repeat(np.arange(m, dtype=np.int64), lengths)
    total = rows.shape[0]
    is_local = rng.random(total) < locality
    local_span = max(4, int(3 * mu))
    local_cols = rows + rng.integers(-local_span, local_span + 1, size=total)
    n_hubs = max(1, int(hub_fraction * n))
    hubs = rng.choice(n, size=n_hubs, replace=False)
    random_cols = np.where(
        rng.random(total) < 0.5,
        hubs[rng.integers(0, n_hubs, size=total)],
        rng.integers(0, n, size=total),
    )
    cols = np.where(is_local, local_cols, random_cols)
    cols = np.clip(cols, 0, n - 1)
    return _coo_from_rows(rows, cols, (m, n), rng)


def dense(m: int, n: int, seed: int = 0) -> COOMatrix:
    """Fully dense matrix in COO storage (Bell & Garland's ``dense2``).

    Every row holds all ``n`` columns, so every column delta is exactly 1 —
    the best case for bit-width compression and the canonical control
    workload for the telemetry profiler's roofline attribution.
    """
    m = check_positive(m, "m")
    n = check_positive(n, "n")
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(m, dtype=np.int64), n)
    cols = np.tile(np.arange(n, dtype=np.int64), m)
    return _coo_from_rows(rows, cols, (m, n), rng)


def dense_rows(
    m: int,
    n: int,
    mu: float,
    sigma: float,
    seed: int = 0,
) -> COOMatrix:
    """A short, very wide matrix whose rows hold thousands of entries.

    Models constraint matrices like ``rail4284`` (4.3k x 109k, mean row
    length 2633): almost everything lands in the COO part of HYB.
    """
    m = check_positive(m, "m")
    n = check_positive(n, "n")
    rng = np.random.default_rng(seed)
    # rail4284's length distribution is extremely skewed (sigma = 1.6 mu):
    # most rows are short and a few hold tens of thousands of entries, so
    # the Bell-Garland split sends almost everything to the COO part.
    lengths = row_lengths_zipf(m, mu, n, rng, alpha=1.35)
    rows_parts, cols_parts = [], []
    # Full-width without-replacement sampling, a few hundred rows at a time
    # (the permutation matrix is (chunk, n)).
    for r0 in range(0, m, 256):
        r1 = min(r0 + 256, m)
        ids = np.arange(r0, r1, dtype=np.int64)
        lens = lengths[r0:r1]
        keys = rng.random((r1 - r0, n))
        perm = np.argsort(keys, axis=1)
        take = np.arange(n)[np.newaxis, :] < lens[:, np.newaxis]
        sel, j = np.nonzero(take)
        rows_parts.append(ids[sel])
        cols_parts.append(perm[sel, j])
    return _coo_from_rows(
        np.concatenate(rows_parts), np.concatenate(cols_parts), (m, n), rng
    )

def hub_mixture(
    m: int,
    base_mu: float,
    tail_fraction: float,
    tail_mu: float,
    seed: int = 0,
    n: int | None = None,
    locality: float = 0.7,
    hub_fraction: float = 0.02,
    base_sigma_frac: float = 0.5,
) -> COOMatrix:
    """Bimodal circuit/web matrix: short rows plus a sprinkling of huge ones.

    Most rows draw a truncated-normal length around ``base_mu``; a
    ``tail_fraction`` of rows draw lognormal lengths around ``tail_mu``
    (dense supply rails, web hubs). Columns mix near-diagonal locality
    with hub columns. This bimodality — not a smooth Zipf — is what sets
    the Bell-Garland HYB split of matrices like rajat30 or gupta2: the
    split column k tracks the *base* population while the tail rows
    overflow into the COO part.
    """
    m = check_positive(m, "m")
    n = m if n is None else check_positive(n, "n")
    rng = np.random.default_rng(seed)
    lengths = row_lengths_normal(
        m, base_mu, max(base_sigma_frac * base_mu, 0.5),
        min(n, max(2, int(4 * base_mu + 8))), rng,
    )
    n_tail = max(1, int(round(tail_fraction * m)))
    tail_rows = rng.choice(m, size=n_tail, replace=False)
    lengths[tail_rows] = row_lengths_lognormal(
        n_tail, tail_mu, 1.5 * tail_mu, n, rng
    )

    rows = np.repeat(np.arange(m, dtype=np.int64), lengths)
    total = rows.shape[0]
    is_local = rng.random(total) < locality
    local_span = max(4, int(3 * base_mu))
    local_cols = rows + rng.integers(-local_span, local_span + 1, size=total)
    n_hubs = max(1, int(hub_fraction * n))
    hubs = rng.choice(n, size=n_hubs, replace=False)
    random_cols = np.where(
        rng.random(total) < 0.4,
        hubs[rng.integers(0, n_hubs, size=total)],
        rng.integers(0, n, size=total),
    )
    cols = np.clip(np.where(is_local, local_cols, random_cols), 0, n - 1)
    # Tail rows sample distinct columns (a duplicate-merged 5000-entry row
    # would lose much of its mass); redo them without replacement.
    keep = ~np.isin(rows, tail_rows)
    rows_list = [rows[keep]]
    cols_list = [cols[keep]]
    for r in tail_rows:
        k = int(lengths[r])
        chosen = rng.choice(n, size=min(k, n), replace=False)
        rows_list.append(np.full(chosen.shape[0], r, dtype=np.int64))
        cols_list.append(np.sort(chosen))
    return _coo_from_rows(
        np.concatenate(rows_list), np.concatenate(cols_list), (m, n), rng
    )
