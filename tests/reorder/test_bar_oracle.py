"""BAR's greedy loop pinned to the loop it replaced.

``_bar_oracle`` keeps the previous row-major implementation verbatim. The
cluster-major loop in :mod:`repro.reorder.bar` must produce the same
permutation and cluster sizes, byte for byte, on every suite matrix and
on the shapes where the bookkeeping is easiest to get wrong.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.matrices.suite import TABLE2, generate
from repro.reorder.bar import bar_reordering

from ._bar_oracle import bar_reordering as oracle_reordering

#: Rows kept per suite matrix: the oracle is O(m^2 K / h), so the full
#: suite stays a few seconds.
MAX_ROWS = 640
CACHE_WEIGHTS = (0.0, 0.5, 1.0)


@lru_cache(maxsize=None)
def suite_matrix(name: str) -> COOMatrix:
    coo = generate(name, scale=0.01)
    m = min(coo.shape[0], MAX_ROWS)
    keep = coo.row_idx < m
    return COOMatrix(
        coo.row_idx[keep], coo.col_idx[keep], coo.vals[keep], (m, coo.shape[1])
    )


def assert_same(coo: COOMatrix, **kwargs) -> None:
    got = bar_reordering(coo, **kwargs)
    want = oracle_reordering(coo, **kwargs)
    assert got.perm.dtype == want.perm.dtype
    assert got.perm.tobytes() == want.perm.tobytes()
    assert got.cluster_sizes.tobytes() == want.cluster_sizes.tobytes()
    assert (got.v, got.h) == (want.v, want.h)


@pytest.mark.parametrize("h", [64, 256])
@pytest.mark.parametrize("name", sorted(TABLE2))
def test_suite_matrix_matches_oracle(name, h):
    for cache_weight in CACHE_WEIGHTS:
        assert_same(suite_matrix(name), h=h, cache_weight=cache_weight)


def _coo(rows, cols, shape):
    return COOMatrix(rows, cols, np.ones(len(rows)), shape)


def _random(m, n, nnz, seed):
    rng = np.random.default_rng(seed)
    return _coo(rng.integers(0, m, nnz), rng.integers(0, n, nnz), (m, n))


EDGE_CASES = {
    # Every third row empty, the rest of varied length and spread.
    "empty_rows": lambda: _coo(
        *zip(*[(i, (i * 37 + 11 * k) % 500)
               for i in range(300) if i % 3
               for k in range(1 + i % 9)]),
        (300, 500),
    ),
    # m % h != 0 leaves a ragged last cluster (here of one row).
    "ragged_last_cluster": lambda: _random(257, 257, 3000, seed=1),
    # m < h: one cluster holds every row.
    "fewer_rows_than_h": lambda: _random(40, 40, 200, seed=2),
    "rectangular_wide": lambda: _random(150, 3000, 2500, seed=3),
    "rectangular_tall": lambda: _random(700, 60, 2100, seed=4),
    "no_nonzeros": lambda: _coo([], [], (100, 100)),
}


@pytest.mark.parametrize("h", [1, 4, 64, 256])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_matches_oracle(case, h):
    coo = EDGE_CASES[case]()
    for cache_weight in CACHE_WEIGHTS:
        assert_same(coo, h=h, cache_weight=cache_weight)


def test_alpha_changes_follow_the_oracle():
    # The stream term's symbol length is part of the objective.
    coo = suite_matrix("cop20k_A")
    for alpha in (1, 7, 64):
        assert_same(coo, h=64, alpha=alpha)
