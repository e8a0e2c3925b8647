"""BiCGSTAB for unsymmetric systems (van der Vorst; Saad [21, Alg. 7.7]).

Complements CG (SPD only) and GMRES (memory grows with the restart
length): BiCGSTAB needs two SpMV per iteration and constant memory —
which doubles the SpMV pressure per iteration and makes it an even
better showcase for compressed formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..errors import ConvergenceError, ValidationError
from ..types import VALUE_DTYPE

__all__ = ["BiCGSTABResult", "bicgstab"]


@dataclass
class BiCGSTABResult:
    """Outcome of a BiCGSTAB solve."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool
    residual_history: List[float]


def bicgstab(
    operator: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    raise_on_fail: bool = False,
) -> BiCGSTABResult:
    """Solve ``A x = b`` with the stabilized bi-conjugate gradient method.

    ``x0=None`` starts from zero without applying the operator to it:
    the first residual is ``b`` itself (SciPy's convention). For a matrix
    whose values are all finite ``b - A @ 0`` is ``b`` bit for bit, so no
    iterate changes; a non-finite value in ``A`` first shows at the
    first ``A @ p``, not in the initial residual.
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

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return BiCGSTABResult(np.zeros(n), 0, 0.0, True, [0.0])

    r = b.copy() if x0 is None else b - operator(x)
    r_hat = r.copy()  # shadow residual
    rho = alpha = omega = 1.0
    v = np.zeros(n, dtype=VALUE_DTYPE)
    p = np.zeros(n, dtype=VALUE_DTYPE)
    history = [float(np.linalg.norm(r)) / b_norm]

    for it in range(1, max_iter + 1):
        rho_new = float(r_hat @ r)
        if abs(rho_new) < 1e-300:
            raise ConvergenceError(
                "BiCGSTAB breakdown (rho ~ 0)", it, history[-1]
            )
        beta = (rho_new / rho) * (alpha / omega) if it > 1 else 0.0
        p = r + beta * (p - omega * v) if it > 1 else r.copy()
        v = operator(p)
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            raise ConvergenceError(
                "BiCGSTAB breakdown (r_hat . v ~ 0)", it, history[-1]
            )
        alpha = rho_new / denom
        s = r - alpha * v
        s_norm = float(np.linalg.norm(s)) / b_norm
        if s_norm < tol:  # early half-step convergence
            x += alpha * p
            history.append(s_norm)
            return BiCGSTABResult(x, it, s_norm, True, history)
        t = operator(s)
        tt = float(t @ t)
        if tt == 0.0:
            raise ConvergenceError(
                "BiCGSTAB breakdown (t = 0)", it, history[-1]
            )
        omega = float(t @ s) / tt
        x += alpha * p + omega * s
        r = s - omega * t
        rho = rho_new
        res = float(np.linalg.norm(r)) / b_norm
        history.append(res)
        if res < tol:
            return BiCGSTABResult(x, it, res, True, history)
        if abs(omega) < 1e-300:
            raise ConvergenceError(
                "BiCGSTAB breakdown (omega ~ 0)", it, res
            )

    if raise_on_fail:
        raise ConvergenceError(
            f"BiCGSTAB did not converge in {max_iter} iterations",
            max_iter,
            history[-1],
        )
    return BiCGSTABResult(x, max_iter, history[-1], False, history)
