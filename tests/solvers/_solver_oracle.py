"""Test-only oracle: ``conjugate_gradient``, ``bicgstab`` and ``gmres``
as they stood before the solvers skipped the product with the zero
initial guess and CG updated its vectors in place, kept verbatim so the
tests can pin the new solvers to their exact iterates, residual
histories and operator calls.

Do not optimise this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.solvers.bicgstab import BiCGSTABResult
from repro.solvers.cg import CGResult
from repro.solvers.gmres import GMRESResult
from repro.types import VALUE_DTYPE


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
        Callable applying the SPD matrix ``A``.
    b:
        Right-hand side.
    x0:
        Initial guess (zeros by default).
    tol:
        Relative-residual convergence tolerance.
    max_iter:
        Iteration budget.
    jacobi_diagonal:
        Optional matrix diagonal for Jacobi (diagonal) preconditioning.
    raise_on_fail:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.
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

    r = b - operator(x)
    z = r * precond if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    history = [float(np.linalg.norm(r)) / b_norm]

    for it in range(1, max_iter + 1):
        ap = operator(p)
        pap = float(p @ ap)
        if pap <= 0:
            raise ConvergenceError(
                "matrix is not positive definite (p^T A p <= 0)", it, history[-1]
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r)) / b_norm
        history.append(res)
        if res < tol:
            return CGResult(x, it, res, True, history)
        z = r * precond if precond is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    if raise_on_fail:
        raise ConvergenceError(
            f"CG did not converge in {max_iter} iterations", max_iter, history[-1]
        )
    return CGResult(x, max_iter, history[-1], False, history)


def bicgstab(
    operator: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    raise_on_fail: bool = False,
) -> BiCGSTABResult:
    """Solve ``A x = b`` with the stabilized bi-conjugate gradient method."""
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

    r = b - operator(x)
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


def gmres(
    operator: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    restart: int = 30,
    max_iter: int = 1000,
    raise_on_fail: bool = False,
) -> GMRESResult:
    """Solve ``A x = b`` with restarted GMRES."""
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

    while total_inner < max_iter:
        r = b - operator(x)
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
