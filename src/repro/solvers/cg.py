"""Conjugate Gradient method for symmetric positive-definite systems.

Standard (unpreconditioned or Jacobi-preconditioned) CG after Saad [21,
Alg. 9.1]; the matrix is applied through any callable operator, so the
same solver runs over the reference or the simulated-GPU SpMV path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..errors import ConvergenceError, ValidationError
from ..types import VALUE_DTYPE

__all__ = ["CGResult", "conjugate_gradient"]


@dataclass
class CGResult:
    """Outcome of a CG solve."""

    x: np.ndarray
    iterations: int
    residual: float  #: final relative residual ||b - Ax|| / ||b||
    converged: bool
    residual_history: List[float]


def conjugate_gradient(
    operator: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    jacobi_diagonal: Optional[np.ndarray] = None,
    raise_on_fail: bool = False,
) -> CGResult:
    """Solve ``A x = b`` with (optionally Jacobi-preconditioned) CG.

    Parameters
    ----------
    operator:
        Callable applying the SPD matrix ``A``. The solver updates its
        vectors in place, so the operator must not keep its argument.
    b:
        Right-hand side.
    x0:
        Initial guess. ``None`` starts from zero without applying the
        operator to it: the first residual is ``b`` itself (SciPy's
        convention), so a solve makes one operator call per iteration.
    tol:
        Relative-residual convergence tolerance.
    max_iter:
        Iteration budget.
    jacobi_diagonal:
        Optional matrix diagonal for Jacobi (diagonal) preconditioning.
    raise_on_fail:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.

    Notes
    -----
    For a matrix whose values are all finite, ``A @ 0`` is ``+0.0`` in
    every row, so ``b - A @ 0`` is ``b`` bit for bit and skipping the
    product changes no iterate. A non-finite value in ``A`` no longer
    turns the initial residual into NaN; it first shows at the first
    ``A @ p``. A ``p^T A p`` of NaN then runs out the iteration budget,
    and one of ``-inf`` raises :class:`ConvergenceError` (not positive
    definite) where the solve used to return non-converged.
    """
    b = np.asarray(b, dtype=VALUE_DTYPE)
    if b.ndim != 1:
        raise ValidationError("b must be a vector")
    n = b.shape[0]
    x = np.zeros(n, dtype=VALUE_DTYPE) if x0 is None else np.array(x0, dtype=VALUE_DTYPE)
    if x.shape != (n,):
        raise ValidationError("x0 must match b's length")
    if max_iter <= 0:
        raise ValidationError("max_iter must be positive")

    precond = None
    if jacobi_diagonal is not None:
        diag = np.asarray(jacobi_diagonal, dtype=VALUE_DTYPE)
        if diag.shape != (n,) or np.any(diag == 0):
            raise ValidationError("jacobi_diagonal must be a zero-free vector")
        precond = 1.0 / diag

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CGResult(np.zeros(n), 0, 0.0, True, [0.0])

    r = b.copy() if x0 is None else b - operator(x)
    # ``np.linalg.norm(r)`` is ``sqrt(r.dot(r))``; without a
    # preconditioner ``r @ z`` is that same dot, so it is taken once.
    rr = float(r.dot(r))
    z = r * precond if precond is not None else r
    rz = float(r @ z) if precond is not None else rr
    p = z.copy()
    work = np.empty(n, dtype=VALUE_DTYPE)
    history = [math.sqrt(rr) / b_norm]

    for it in range(1, max_iter + 1):
        ap = operator(p)
        pap = float(p @ ap)
        if pap <= 0:
            raise ConvergenceError(
                "matrix is not positive definite (p^T A p <= 0)", it, history[-1]
            )
        alpha = rz / pap
        x += np.multiply(alpha, p, out=work)
        r -= np.multiply(alpha, ap, out=work)
        rr = float(r.dot(r))
        res = math.sqrt(rr) / b_norm
        history.append(res)
        if res < tol:
            return CGResult(x, it, res, True, history)
        if precond is not None:
            z = np.multiply(r, precond, out=z)
            rz_new = float(r @ z)
        else:
            rz_new = rr
        p *= rz_new / rz
        p += z
        rz = rz_new

    if raise_on_fail:
        raise ConvergenceError(
            f"CG did not converge in {max_iter} iterations", max_iter, history[-1]
        )
    return CGResult(x, max_iter, history[-1], False, history)
