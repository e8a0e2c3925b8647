"""Pluggable executor backends for prepared-plan replay.

The prepared-plan engine (:mod:`repro.kernels.plan`) replays cached
gather/value tables with vectorized NumPy — fast, but every hot inner
loop (gather + multiply + row sum) still round-trips through
interpreter-dispatched array ops. This module makes the replay loop
itself pluggable. There is one loop to plug: every plannable format
lowers onto the jagged layout (``jagged_spmv``/``jagged_spmm``), which
stores every row's lanes in one width-sorted, column-major array, so a
single pass over the ELL columns computes ``y``.

* ``"numpy"`` — the existing interpreted replay. Always available; the
  reference point every other backend must match bit-for-bit.
* ``"jit"`` — the same loop compiled with Numba when it is importable.
  Numba is **never** a hard dependency: without it the functions below
  stay plain Python (still bit-identical, used by the test suite to pin
  the loop order) and :func:`resolve_backend` falls back to ``"numpy"``.

Bit-identity contract
---------------------
The jagged loop performs the *same floating-point operations in the same
order* as the NumPy jagged replay: each row adds its lanes, in column
order, to a ``+0.0`` accumulator. Since every format's lowering fixes
that lane order at build time (ELL column order, or stored entry order
for the formats the reference kernels scatter), one loop serves every
format. No ``fastmath`` is ever enabled — reassociation would break the
contract. ``tests/kernels/test_backends.py`` enforces equality of ``y``
bits and :class:`KernelCounters` across backends.

Selection
---------
Callers request a backend through
:attr:`repro.exec.policy.ExecutionPolicy.compute_backend`
(``"auto"``/``"numpy"``/``"jit"``); :func:`resolve_backend` maps the
request to a concrete backend per format. An explicit ``"jit"`` request
that cannot be honoured (Numba missing, or the format has no compiled
loops) degrades to ``"numpy"`` and emits an ``exec.backend_fallback``
counter instead of raising.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .. import registry as _registry
from ..errors import ValidationError
from ..telemetry import metrics as _metrics

__all__ = [
    "COMPUTE_BACKENDS",
    "EXECUTOR_BACKENDS",
    "JIT_FORMATS",
    "jit_available",
    "numba_version",
    "resolve_backend",
    "supports_jit",
    "compiled_formats",
]

#: Backends a policy may request.
COMPUTE_BACKENDS = ("auto", "numpy", "jit")

#: Concrete backends a plan can execute with (what "auto" resolves to).
EXECUTOR_BACKENDS = ("numpy", "jit")

#: Formats whose prepared-plan replay has compiled inner loops: every
#: plannable format. The leaf plans all replay through the one jagged
#: loop ``jagged_spmv``/``jagged_spmm``; the composite formats (bro_hyb,
#: bro_ell_mt, hyb) compile through their part plans.
JIT_FORMATS = frozenset(
    {"bro_ell", "bro_ell_mt", "bro_ell_vc", "bro_coo", "bro_hyb", "bro_sell",
     "csr", "ellpack", "ellpack_r", "sliced_ellpack", "sell_c_sigma",
     "coo", "cmrs", "hyb", "bellpack"}
)

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


def supports_jit(format_name: str) -> bool:
    """Whether the format's plan replay has compiled inner loops."""
    return format_name in JIT_FORMATS


def compiled_formats() -> Tuple[str, ...]:
    """Format names with a compiled replay path, sorted."""
    return tuple(sorted(JIT_FORMATS))


def resolve_backend(
    requested: str, format_name: Optional[str] = None
) -> str:
    """Map a policy's ``compute_backend`` request to a concrete backend.

    ``"auto"`` resolves to ``"jit"`` when Numba is importable and the
    format has compiled loops, else ``"numpy"``. An explicit ``"jit"``
    that cannot be honoured falls back to ``"numpy"`` and records an
    ``exec.backend_fallback`` counter — never an exception, so a policy
    written for a Numba-equipped host runs unchanged everywhere.
    """
    if requested not in COMPUTE_BACKENDS:
        raise ValidationError(
            f"compute_backend must be one of {COMPUTE_BACKENDS}, "
            f"got {requested!r}"
        )
    if requested == "numpy":
        return "numpy"
    format_ok = format_name is None or supports_jit(format_name)
    if jit_available() and format_ok:
        return "jit"
    if requested == "jit":
        reason = "numba-missing" if not jit_available() else "format-unsupported"
        _metrics.record_backend_fallback(format_name or "*", reason)
    return "numpy"


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


# Surface the compiled capability on the registry so `repro formats`
# (and its --json consumers) report per-format compiled support.
for _fmt in sorted(JIT_FORMATS):
    _registry.bind_compiled(_fmt)
