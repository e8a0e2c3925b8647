"""The benchmark's inputs: matrices, vectors and reference products.

Matrices are the suite's Table 2 stand-ins at their fixed per-name
generator seeds, so every seed runs the same matrices; the workload
seed draws the vectors, right-hand sides and the request mix. Every
reference product comes from the program's reference engine (the
stepwise kernels that re-decode the packed streams on every call),
computed before timing starts and outside ``setup_s``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import ExecutionPolicy, run_spmm, run_spmv
from repro.formats.coo import COOMatrix

#: Slice height of every BRO container: ``repro serve``'s default.
H = 64

REFERENCE = ExecutionPolicy(engine="reference")


def vectors(rng: np.random.Generator, n: int, count: int) -> List[np.ndarray]:
    return [rng.standard_normal(n) for _ in range(count)]


def reference_y(matrix, xs: List[np.ndarray]) -> List[np.ndarray]:
    return [run_spmv(matrix, x, "k20", policy=REFERENCE).y for x in xs]


def reference_block(matrix, X: np.ndarray) -> np.ndarray:
    return run_spmm(matrix, X, "k20", policy=REFERENCE).y


def spd_from(coo: COOMatrix, dominance: float = 2.0) -> COOMatrix:
    """A symmetric, strictly diagonally dominant (hence SPD) matrix with
    the sparsity of ``coo + coo.T``: off-diagonal values are kept and
    every diagonal entry is ``dominance * max(off-diagonal row sum) + 1``
    (one value, so the condition number is at most
    ``(dominance + 1) / (dominance - 1)``).
    """
    import scipy.sparse as sp

    a = sp.coo_matrix((coo.vals, (coo.row_idx, coo.col_idx)), shape=coo.shape)
    a = (a + a.T).tocsr()
    a.setdiag(0)
    a.eliminate_zeros()
    diag = np.full(a.shape[0], dominance * abs(a).sum(axis=1).max() + 1.0)
    a = (a + sp.diags(diag)).tocoo()
    return COOMatrix(a.row.astype(np.int64), a.col.astype(np.int64),
                     a.data.astype(np.float64), a.shape)


def permute_symmetric(coo: COOMatrix, perm: np.ndarray) -> COOMatrix:
    """``P A P^T`` for the gather permutation ``perm`` (row ``perm[i]``
    becomes row ``i``), so a reordered SPD system stays SPD."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.shape[0])
    return COOMatrix(inverse[coo.row_idx], inverse[coo.col_idx],
                     coo.vals, coo.shape)


def scipy_csr(matrix):
    """The matrix as a SciPy CSR (``None`` when SciPy is missing)."""
    try:
        import scipy.sparse as sp
    except ImportError:
        return None
    coo = matrix.to_coo()
    return sp.csr_matrix((coo.vals, (coo.row_idx, coo.col_idx)),
                         shape=coo.shape)
