"""Shared fixtures: the paper's running example and random matrix helpers."""

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.kernels import backends as _backends
from repro.kernels.plancache import PLAN_CACHE

#: Marks a test (or class) of the ``"scipy"`` executor: skipped, with the
#: probe's refusal reason, on a host whose SciPy row loops were refused.
requires_scipy_executor = pytest.mark.skipif(
    _backends.scipy_refusal() is not None,
    reason=f"scipy executor refused: {_backends.scipy_refusal()}",
)

#: The 4x5 example matrix of paper Section 2.1 (0-based indices here).
PAPER_A = np.array(
    [
        [3.0, 0.0, 2.0, 0.0, 0.0],
        [2.0, 6.0, 5.0, 4.0, 1.0],
        [0.0, 1.0, 9.0, 0.0, 7.0],
        [0.0, 0.0, 0.0, 8.0, 3.0],
    ]
)


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Start every test with an empty process-wide plan cache.

    Default-policy dispatch builds and reuses plans there, and its
    content index serves a sealed twin's plan to any container carrying
    the same header. Without this, a test's result could depend on which
    plans earlier tests left behind.
    """
    PLAN_CACHE.clear()


@pytest.fixture
def paper_matrix() -> COOMatrix:
    """The example matrix A from Section 2 of the paper."""
    return COOMatrix.from_dense(PAPER_A)


def random_coo(
    m: int,
    n: int,
    density: float = 0.1,
    seed: int = 0,
    dtype=np.float64,
) -> COOMatrix:
    """A random sparse matrix with roughly ``density * m * n`` entries."""
    rng = np.random.default_rng(seed)
    nnz = max(1, int(density * m * n))
    row = rng.integers(0, m, size=nnz)
    col = rng.integers(0, n, size=nnz)
    vals = rng.standard_normal(nnz).astype(dtype)
    # Duplicates are summed by COOMatrix; that is fine for these tests.
    return COOMatrix(row, col, vals, (m, n))


@pytest.fixture
def random_matrix() -> COOMatrix:
    """A deterministic random 60x47 matrix for cross-format checks."""
    return random_coo(60, 47, density=0.08, seed=123)
