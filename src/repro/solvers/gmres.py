"""Restarted GMRES for general (unsymmetric) systems.

GMRES(restart) after Saad [21, Alg. 6.9]: Arnoldi with modified
Gram-Schmidt, Givens-rotation least squares, restart on budget. The paper
names GMRES alongside CG as the iterative methods whose SpMV bottleneck
BRO accelerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..errors import ConvergenceError, ValidationError
from ..types import VALUE_DTYPE

__all__ = ["GMRESResult", "gmres"]


@dataclass
class GMRESResult:
    """Outcome of a GMRES solve."""

    x: np.ndarray
    iterations: int  #: total inner iterations (SpMV applications - 1 per restart)
    residual: float  #: final relative residual
    converged: bool
    residual_history: List[float]


def gmres(
    operator: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    restart: int = 30,
    max_iter: int = 1000,
    raise_on_fail: bool = False,
) -> GMRESResult:
    """Solve ``A x = b`` with restarted GMRES.

    ``x0=None`` starts from zero without applying the operator to it:
    the first cycle's residual is ``b`` itself (SciPy's convention). For
    a matrix whose values are all finite ``b - A @ 0`` is ``b`` bit for
    bit, so no iterate changes; a non-finite value in ``A`` first shows
    at the first Arnoldi product, not in the initial residual.
    """
    b = np.asarray(b, dtype=VALUE_DTYPE)
    if b.ndim != 1:
        raise ValidationError("b must be a vector")
    n = b.shape[0]
    if restart <= 0 or max_iter <= 0:
        raise ValidationError("restart and max_iter must be positive")
    x = np.zeros(n, dtype=VALUE_DTYPE) if x0 is None else np.array(x0, dtype=VALUE_DTYPE)
    if x.shape != (n,):
        raise ValidationError("x0 must match b's length")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return GMRESResult(np.zeros(n), 0, 0.0, True, [0.0])

    history: List[float] = []
    total_inner = 0
    from_zero = x0 is None

    while total_inner < max_iter:
        r = b.copy() if from_zero else b - operator(x)
        from_zero = False
        beta = float(np.linalg.norm(r))
        res = beta / b_norm
        history.append(res)
        if res < tol:
            return GMRESResult(x, total_inner, res, True, history)

        m = min(restart, max_iter - total_inner)
        V = np.zeros((m + 1, n), dtype=VALUE_DTYPE)
        H = np.zeros((m + 1, m), dtype=VALUE_DTYPE)
        cs = np.zeros(m, dtype=VALUE_DTYPE)
        sn = np.zeros(m, dtype=VALUE_DTYPE)
        g = np.zeros(m + 1, dtype=VALUE_DTYPE)
        V[0] = r / beta
        g[0] = beta

        j_used = 0
        for j in range(m):
            w = operator(V[j])
            total_inner += 1
            # Modified Gram-Schmidt.
            for i in range(j + 1):
                H[i, j] = float(w @ V[i])
                w -= H[i, j] * V[i]
            H[j + 1, j] = float(np.linalg.norm(w))
            happy_breakdown = H[j + 1, j] <= 1e-14
            if not happy_breakdown:
                V[j + 1] = w / H[j + 1, j]
            # Apply previous Givens rotations to the new column.
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            # New rotation annihilating H[j+1, j].
            denom = float(np.hypot(H[j, j], H[j + 1, j]))
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            j_used = j + 1
            res = abs(float(g[j + 1])) / b_norm
            history.append(res)
            if res < tol or happy_breakdown:
                break

        # Solve the triangular system and update x.
        if j_used:
            y = np.linalg.solve(H[:j_used, :j_used], g[:j_used])
            x = x + V[:j_used].T @ y

        if history[-1] < tol:
            r = b - operator(x)
            res = float(np.linalg.norm(r)) / b_norm
            history.append(res)
            if res < tol:
                return GMRESResult(x, total_inner, res, True, history)

    if raise_on_fail:
        raise ConvergenceError(
            f"GMRES did not converge in {max_iter} iterations",
            total_inner,
            history[-1],
        )
    return GMRESResult(x, total_inner, history[-1], False, history)
