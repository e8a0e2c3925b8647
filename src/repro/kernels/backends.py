"""Pluggable executor backends for prepared-plan replay.

The prepared-plan engine (:mod:`repro.kernels.plan`) replays cached
gather/value tables with vectorized NumPy — fast, but every hot inner
loop (gather + multiply + row sum) still round-trips through
interpreter-dispatched array ops. This module makes the replay loop
itself pluggable. There is one loop to plug: every plannable format
lowers onto the jagged layout (``jagged_spmv``/``jagged_spmm``), which
stores every row's lanes in one width-sorted, column-major array, so a
single pass over the ELL columns computes ``y``.

Executors
---------
* ``"numpy"`` — the interpreted jagged replay. Always available; the
  reference point every other executor must match bit-for-bit.
* ``"jit"`` — the same jagged loop compiled with Numba when it is
  importable. Numba is **never** a hard dependency: without it the
  functions below stay plain Python (still bit-identical, used by the
  test suite to pin the loop order).
* ``"scipy"`` — SciPy's compiled CSR row loops (``csr_matvec`` /
  ``csr_matvecs``) over the same lanes stored row by row. Only the
  ``scipy/sparse/_sparsetools`` extension is loaded, never the
  ``scipy.sparse`` package (which costs ~22 MiB of RSS); the extension
  is private, so every call goes through :func:`csr_row_sums`, and a
  fixed probe (:func:`scipy_refusal`) vets it once before first use.

Bit-identity contract
---------------------
Every executor performs the *same floating-point operations in the same
order*: each row adds its lanes, in lane order, to a ``+0.0``
accumulator. Since every format's lowering fixes that lane order at
build time (ELL column order, or stored entry order for the formats the
reference kernels scatter), one loop serves every format. The jagged
layout holds a row's lanes column-major; a CSR copy holds them in the
same per-row order, so a row loop that neither reassociates nor
contracts multiply-add into FMA computes the same bits. No ``fastmath``
is ever enabled for the Numba loop, and the SciPy probe refuses a build
whose loop contracts (``scipy-fma``), computes a wrong sum on ``inf`` /
``-0.0`` input (``scipy-mismatch``) or rejects the expected arguments
(``scipy-error``). ``tests/kernels/test_backends.py`` enforces equality
of ``y`` bits and :class:`KernelCounters` across executors.

Selection
---------
Callers request a backend through
:attr:`repro.exec.policy.ExecutionPolicy.compute_backend`: ``"auto"``
or ``"numpy"``. :func:`resolve_backend` maps ``"auto"`` to the fastest
executor this host runs: ``"jit"`` when Numba is importable, else
``"scipy"`` when the probe passes, else ``"numpy"``. Every plannable
format replays through the one jagged loop, so the choice never depends
on the format. :func:`repro.kernels.plan.prepare` also takes an executor
name and raises :class:`~repro.errors.ValidationError` when this host
cannot run it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import ValidationError

__all__ = [
    "COMPUTE_BACKENDS",
    "EXECUTOR_BACKENDS",
    "csr_row_sums",
    "jit_available",
    "numba_version",
    "resolve_backend",
    "scipy_refusal",
]

#: Backends a policy may request.
COMPUTE_BACKENDS = ("auto", "numpy")

#: Concrete backends a plan can execute with (what "auto" resolves to).
EXECUTOR_BACKENDS = ("numpy", "scipy", "jit")

# ----------------------------------------------------------------------
# Numba availability (optional import, probed once)
# ----------------------------------------------------------------------
_NUMBA: Optional[object] = None
_NUMBA_PROBED = False


def _load_numba():
    global _NUMBA, _NUMBA_PROBED
    if not _NUMBA_PROBED:
        _NUMBA_PROBED = True
        try:
            import numba  # type: ignore[import-not-found]

            _NUMBA = numba
        except Exception:  # pragma: no cover - import-time environment
            _NUMBA = None
    return _NUMBA


def jit_available() -> bool:
    """Whether the Numba-compiled executor backend can be used."""
    return _load_numba() is not None


def numba_version() -> Optional[str]:
    """The importable Numba's version string, or ``None``."""
    numba = _load_numba()
    return getattr(numba, "__version__", None) if numba is not None else None


# ----------------------------------------------------------------------
# SciPy's compiled CSR row loops (the extension only, probed once)
# ----------------------------------------------------------------------
#: Where the loops live. Only this extension file is loaded — importing
#: the ``scipy.sparse`` package would cost ~22 MiB of RSS.
_SPARSETOOLS_NAME = "scipy.sparse._sparsetools"

#: ``(module, None)`` once the probe passed, ``(None, reason)`` once it
#: refused; ``None`` until first use.
_SCIPY_STATE: Optional[Tuple[Optional[object], Optional[str]]] = None


def _load_sparsetools():
    """The ``_sparsetools`` extension module, or ``None`` if absent."""
    mod = sys.modules.get(_SPARSETOOLS_NAME)
    if mod is not None:
        return mod
    top, *rest = _SPARSETOOLS_NAME.split(".")
    spec = importlib.util.find_spec(top)  # locates, never imports, scipy
    for base in (spec.submodule_search_locations or ()) if spec else ():
        stem = os.path.join(base, *rest)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            if os.path.isfile(stem + suffix):
                loader = importlib.machinery.ExtensionFileLoader(
                    _SPARSETOOLS_NAME, stem + suffix
                )
                mod = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(_SPARSETOOLS_NAME, loader)
                )
                loader.exec_module(mod)
                return mod
    return None


def csr_row_sums(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
    x: np.ndarray, y: np.ndarray, lib=None,
) -> None:
    """``y[i] += sum(data[jj] * x[indices[jj]])`` over each CSR row ``i``.

    The one entry point into the private extension (``lib``, by default
    the probed module): ``csr_matvec`` for a vector ``x``,
    ``csr_matvecs`` for a C-contiguous ``(n, k)`` block, with ``y`` then
    ``(rows, k)``. Each row's terms are added in storage order, to
    ``y``'s value, one at a time. The extension checks no bounds: every
    index must lie in ``[0, len(x))`` (plans range-check at build), and
    ``indptr`` and ``indices`` must share one integer dtype, or the
    extension copies them on every call.
    """
    if lib is None:
        lib, reason = _scipy_state()
        if lib is None:
            raise ValidationError(f"scipy executor unavailable ({reason})")
    rows = indptr.shape[0] - 1
    if x.ndim == 1:
        lib.csr_matvec(rows, x.shape[0], indptr, indices, data, x, y)
    else:
        lib.csr_matvecs(
            rows, x.shape[0], x.shape[1], indptr, indices, data,
            x.reshape(-1), y.reshape(-1),
        )


def _python_row_sums(indptr, indices, data, x) -> list:
    """The probe's expected sums: CPython floats, one add per term."""
    out = []
    for i in range(len(indptr) - 1):
        acc = 0.0
        for jj in range(indptr[i], indptr[i + 1]):
            acc += data[jj] * x[indices[jj]]
        out.append(acc)
    return out


def _same_bits(got: np.ndarray, want: list) -> bool:
    want_arr = np.array(want, dtype=np.float64)
    nan = np.isnan(want_arr)
    return bool(
        np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan].view(np.uint64),
                           want_arr[~nan].view(np.uint64))
    )


def _probe(lib) -> Optional[str]:
    """Why the loops cannot stand in for the jagged replay, or ``None``.

    1. ``[-1, 1+2**-30] . [1, 1-2**-30]`` must sum to exactly ``+0.0``: a
       loop that contracts multiply-add into FMA gives ``-2**-60``.
    2. A fixed matrix against ``x`` holding ``inf`` and ``-0.0``: an
       all-``-0.0`` row sums to ``+0.0``, ``0 * inf`` is NaN, and the
       ``1e16, -1e16, 1`` row sums to 1 only when added in order.
    3. Both loops take the argument lists :func:`csr_row_sums` passes.
    Both checks run through ``csr_matvec`` and ``csr_matvecs``.
    """
    eps = 2.0**-30
    cases = [
        ([0, 2], [0, 1], [-1.0, 1.0 + eps], [1.0, 1.0 - eps], "scipy-fma"),
        ([0, 1, 3, 4, 4, 7], [0, 1, 2, 1, 2, 3, 3],
         [1.0, 2.0, 1.0, 0.0, 1e16, -1e16, 1.0],
         [-0.0, np.inf, 1.0, 1.0], "scipy-mismatch"),
    ]
    try:
        for indptr, indices, data, x, reason in cases:
            ip = np.array(indptr, dtype=np.int32)
            ix = np.array(indices, dtype=np.int32)
            vals = np.array(data, dtype=np.float64)
            xv = np.array(x, dtype=np.float64)
            want = _python_row_sums(indptr, indices, data, x)
            y = np.zeros(len(indptr) - 1)
            csr_row_sums(ip, ix, vals, xv, y, lib)
            X = np.stack([xv, -xv], axis=1)
            Y = np.zeros((len(indptr) - 1, 2))
            csr_row_sums(ip, ix, vals, X, Y, lib)
            want_neg = _python_row_sums(indptr, indices, data,
                                        [-v for v in x])
            if not (_same_bits(y, want) and _same_bits(Y[:, 0], want)
                    and _same_bits(Y[:, 1], want_neg)):
                return reason
    except Exception:  # any failure of the private extension refuses it
        return "scipy-error"
    return None


def _scipy_state() -> Tuple[Optional[object], Optional[str]]:
    global _SCIPY_STATE
    if _SCIPY_STATE is None:
        try:
            mod = _load_sparsetools()
        except (ImportError, OSError):  # present but not loadable here
            mod = None
        if mod is None:
            _SCIPY_STATE = (None, "scipy-missing")
        else:
            reason = _probe(mod)
            _SCIPY_STATE = (None, reason) if reason else (mod, None)
    return _SCIPY_STATE


def scipy_refusal() -> Optional[str]:
    """Why the ``"scipy"`` executor is refused on this host, or ``None``.

    ``"scipy-missing"`` (no loadable extension), ``"scipy-fma"`` (the
    loop contracts multiply-add), ``"scipy-mismatch"`` (a wrong sum on
    the fixed probe) or ``"scipy-error"`` (a call raised).
    """
    return _scipy_state()[1]


def resolve_backend(requested: str) -> str:
    """Map a policy's ``compute_backend`` request to a concrete executor.

    ``"numpy"`` stays ``"numpy"``; ``"auto"`` resolves to ``"jit"`` when
    Numba is importable, else to ``"scipy"`` when SciPy's loops pass the
    probe, else to ``"numpy"``.
    """
    if requested not in COMPUTE_BACKENDS:
        raise ValidationError(
            f"compute_backend must be one of {COMPUTE_BACKENDS}, "
            f"got {requested!r}"
        )
    if requested == "numpy":
        return "numpy"
    if jit_available():
        return "jit"
    return "scipy" if scipy_refusal() is None else "numpy"


# ----------------------------------------------------------------------
# Inner-loop kernels. Plain Python definitions first — these pin the
# floating-point operation order and are what the local test suite runs —
# then compiled in place with numba.njit when it is importable.
# ----------------------------------------------------------------------
def _jagged_spmv(counts, gather, vals, rows, x, y):
    # Matches JaggedELLPlan._replay_numpy: jagged column c holds the lanes
    # of the counts[c] widest rows, so every row adds its lanes in column
    # order to a +0.0 accumulator; then one scatter through rows.
    acc = np.zeros(rows.shape[0])
    pos = 0
    for c in range(counts.shape[0]):
        for r in range(counts[c]):
            acc[r] += vals[pos + r] * x[gather[pos + r]]
        pos += counts[c]
    for r in range(rows.shape[0]):
        y[rows[r]] = acc[r]


def _jagged_spmm(counts, gather, vals, rows, X, Y):
    K = X.shape[1]
    acc = np.zeros((rows.shape[0], K))
    pos = 0
    for c in range(counts.shape[0]):
        for r in range(counts[c]):
            v = vals[pos + r]
            g = gather[pos + r]
            for j in range(K):
                acc[r, j] += v * X[g, j]
        pos += counts[c]
    for r in range(rows.shape[0]):
        for j in range(K):
            Y[rows[r], j] = acc[r, j]


#: The interpreted (pure-Python) kernel set, kept un-compiled for the
#: bit-identity tests — Numba or not, these define the loop order.
PY_KERNELS: Dict[str, Callable] = {
    "jagged_spmv": _jagged_spmv,
    "jagged_spmm": _jagged_spmm,
}


def _compile(fn: Callable) -> Callable:
    """``numba.njit`` without fastmath (bit-identity), or the plain fn."""
    numba = _load_numba()
    if numba is None:
        return fn
    return numba.njit(cache=False, fastmath=False)(fn)


jagged_spmv = _compile(_jagged_spmv)
jagged_spmm = _compile(_jagged_spmm)
