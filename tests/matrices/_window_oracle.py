"""Test-only oracle: the generators' window sampler as it stood before
the partial-sort rewrite, kept verbatim so the tests can pin
:func:`repro.matrices.generators._window_sample` (and every suite matrix
built on it) to its exact output.

Do not optimise this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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
    uses the argsort-of-uniforms trick, vectorized over the chunk.

    Returns ``(sel, positions)`` where ``sel`` indexes the chunk row each
    position belongs to.
    """
    chunk = centers.shape[0]
    if chunk == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    width = int(min(2 * window + 1, domain))
    width = max(width, int(lengths.max()) if lengths.size else 1)
    keys = rng.random((chunk, width))
    perm = np.argsort(keys, axis=1)
    take = np.arange(width)[np.newaxis, :] < lengths[:, np.newaxis]
    sel, j = np.nonzero(take)
    offsets = perm[sel, j]
    ctr = np.clip(centers[sel], window, max(domain - 1 - window, 0))
    lo = np.maximum(ctr - window, 0)
    positions = np.minimum(lo + offsets, domain - 1)
    return sel, positions
