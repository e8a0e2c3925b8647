"""Pluggable executor backends for prepared-plan replay.

The prepared-plan engine (:mod:`repro.kernels.plan`) replays cached
gather/value tables with vectorized NumPy — fast, but every hot inner
loop (gather + multiply + segmented reduce) still round-trips through
interpreter-dispatched array ops. This module makes the replay loop
itself pluggable. The sliced-ELL family shares one of them, the jagged
loop (``jagged_spmv``/``jagged_spmm``): its plans store every slice's
lanes in one width-sorted, column-major array, so a single pass over the
ELL columns replaces a loop per slice.

* ``"numpy"`` — the existing interpreted replay. Always available; the
  reference point every other backend must match bit-for-bit.
* ``"jit"`` — the same loops compiled with Numba when it is importable.
  Numba is **never** a hard dependency: without it the functions below
  stay plain Python (still bit-identical, used by the test suite to pin
  the loop order) and :func:`resolve_backend` falls back to ``"numpy"``.

Bit-identity contract
---------------------
Every kernel here performs the *same floating-point operations in the
same order* as the NumPy replay it replaces: sequential per-column
accumulation from a ``+0.0`` accumulator for the ELL family, the
element-ordered ``np.add.at`` scatter for the COO family, zero-initialised
sequential row sums for CSR and column-sequential accumulation for
ELLPACK. No ``fastmath`` is ever enabled — reassociation would break the
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

from typing import Callable, Dict, List, Optional, Tuple

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
    "csr_column_schedule",
    "csr_spmv_columns",
]

#: Backends a policy may request.
COMPUTE_BACKENDS = ("auto", "numpy", "jit")

#: Concrete backends a plan can execute with (what "auto" resolves to).
EXECUTOR_BACKENDS = ("numpy", "jit")

#: Formats whose prepared-plan replay has compiled inner loops. The
#: composite formats (bro_hyb, bro_ell_mt, hyb) compile through their
#: part plans; everything else gets a fused loop below. The ELL-style
#: families share loops: bro_ell, bro_ell_vc, bro_sell, sliced_ellpack
#: and sell_c_sigma replay through the jagged loop ``jagged_spmv``
#: (masked lanes gather a zero slot), ellpack_r through
#: ``ell_slice_spmv``, ellpack through ``ellpack_spmv``, and cmrs and coo
#: through ``coo_scatter_spmv``.
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


def _ell_slice_spmv(vals_t, gather_t, valid_t, x, out):
    # Matches ELLPACKRPlan._replay_numpy: per row, a zero accumulator takes
    # one masked product per column in column order (invalid lanes add a
    # literal +0.0, exactly like the np.where path).
    L, H = vals_t.shape
    for r in range(H):
        acc = 0.0
        for c in range(L):
            if valid_t[c, r]:
                acc += vals_t[c, r] * x[gather_t[c, r]]
            else:
                acc += 0.0
        out[r] = acc


def _ell_slice_spmm(vals_t, gather_t, valid_t, X, out):
    L, H = vals_t.shape
    K = X.shape[1]
    for r in range(H):
        for j in range(K):
            acc = 0.0
            for c in range(L):
                if valid_t[c, r]:
                    acc += vals_t[c, r] * X[gather_t[c, r], j]
                else:
                    acc += 0.0
            out[r, j] = acc


def _coo_scatter_spmv(rows, cols, vals, x, y):
    # Matches np.add.at(y, rows, vals * x[cols]): element-ordered scatter.
    for i in range(rows.shape[0]):
        y[rows[i]] += vals[i] * x[cols[i]]


def _coo_scatter_spmm(rows, cols, vals, X, Y):
    K = X.shape[1]
    for i in range(rows.shape[0]):
        r = rows[i]
        v = vals[i]
        c = cols[i]
        for j in range(K):
            Y[r, j] += v * X[c, j]


def _csr_spmv(indptr, indices, vals, x, y):
    # Matches csr_spmv_columns: zero-initialised sequential row sums.
    m = indptr.shape[0] - 1
    for r in range(m):
        acc = 0.0
        for p in range(indptr[r], indptr[r + 1]):
            acc += vals[p] * x[indices[p]]
        y[r] = acc


def _csr_spmm(indptr, indices, vals, X, Y):
    m = indptr.shape[0] - 1
    K = X.shape[1]
    for r in range(m):
        for j in range(K):
            acc = 0.0
            for p in range(indptr[r], indptr[r + 1]):
                acc += vals[p] * X[indices[p], j]
            Y[r, j] = acc


def _ellpack_spmv(col_idx_t, vals_t, x, y):
    # Matches the CUSP loop: every row accumulates its k column slots in
    # order, padded slots included (0.0 * x[0], like the real kernel).
    k, m = vals_t.shape
    for r in range(m):
        acc = 0.0
        for c in range(k):
            acc += vals_t[c, r] * x[col_idx_t[c, r]]
        y[r] = acc


def _ellpack_spmm(col_idx_t, vals_t, X, Y):
    k, m = vals_t.shape
    K = X.shape[1]
    for r in range(m):
        for j in range(K):
            acc = 0.0
            for c in range(k):
                acc += vals_t[c, r] * X[col_idx_t[c, r], j]
            Y[r, j] = acc


def _bellpack_spmv(bcol, bvals, x_pad, y_blocks):
    # Matches BELLPACKMatrix.spmv: each thread (block row b, local row rr)
    # walks its K block slots left to right, c entry columns each, from a
    # zero accumulator. Padded slots multiply stored 0.0 by x_pad[0..c-1].
    mb, K, r, c = bvals.shape
    for b in range(mb):
        for rr in range(r):
            acc = 0.0
            for k in range(K):
                base = bcol[b, k] * c
                for cc in range(c):
                    acc += bvals[b, k, rr, cc] * x_pad[base + cc]
            y_blocks[b, rr] = acc


def _bellpack_spmm(bcol, bvals, X_pad, Y_blocks):
    mb, K, r, c = bvals.shape
    n_rhs = X_pad.shape[1]
    for b in range(mb):
        for rr in range(r):
            for j in range(n_rhs):
                acc = 0.0
                for k in range(K):
                    base = bcol[b, k] * c
                    for cc in range(c):
                        acc += bvals[b, k, rr, cc] * X_pad[base + cc, j]
                Y_blocks[b, rr, j] = acc


#: The interpreted (pure-Python) kernel set, kept un-compiled for the
#: bit-identity tests — Numba or not, these define the loop order.
PY_KERNELS: Dict[str, Callable] = {
    "jagged_spmv": _jagged_spmv,
    "jagged_spmm": _jagged_spmm,
    "ell_slice_spmv": _ell_slice_spmv,
    "ell_slice_spmm": _ell_slice_spmm,
    "coo_scatter_spmv": _coo_scatter_spmv,
    "coo_scatter_spmm": _coo_scatter_spmm,
    "csr_spmv": _csr_spmv,
    "csr_spmm": _csr_spmm,
    "ellpack_spmv": _ellpack_spmv,
    "ellpack_spmm": _ellpack_spmm,
    "bellpack_spmv": _bellpack_spmv,
    "bellpack_spmm": _bellpack_spmm,
}


def _compile(fn: Callable) -> Callable:
    """``numba.njit`` without fastmath (bit-identity), or the plain fn."""
    numba = _load_numba()
    if numba is None:
        return fn
    return numba.njit(cache=False, fastmath=False)(fn)


jagged_spmv = _compile(_jagged_spmv)
jagged_spmm = _compile(_jagged_spmm)
ell_slice_spmv = _compile(_ell_slice_spmv)
ell_slice_spmm = _compile(_ell_slice_spmm)
coo_scatter_spmv = _compile(_coo_scatter_spmv)
coo_scatter_spmm = _compile(_coo_scatter_spmm)
csr_spmv = _compile(_csr_spmv)
csr_spmm = _compile(_csr_spmm)
ellpack_spmv = _compile(_ellpack_spmv)
ellpack_spmm = _compile(_ellpack_spmm)
bellpack_spmv = _compile(_bellpack_spmv)
bellpack_spmm = _compile(_bellpack_spmm)


# ----------------------------------------------------------------------
# CSR column-stepped NumPy replay — the vectorized twin of ``_csr_spmv``.
# Iterating over row *positions* (all rows' entry 0, then entry 1, ...)
# keeps every row's sum sequential and zero-initialised, so the compiled
# loop above reproduces it bit-for-bit; ``np.add.reduceat`` (used by
# ``CSRMatrix.spmv``) does not — its pairwise blocking reassociates.
# ----------------------------------------------------------------------
#: schedule = [(rows_with_len>j, their j-th entry positions), ...]
CsrSchedule = List[Tuple[np.ndarray, np.ndarray]]


def csr_column_schedule(indptr: np.ndarray) -> CsrSchedule:
    """Precompute the per-position gather schedule for a CSR container."""
    lengths = np.diff(indptr)
    schedule: CsrSchedule = []
    max_len = int(lengths.max()) if lengths.size else 0
    for j in range(max_len):
        rows_j = np.flatnonzero(lengths > j)
        schedule.append((rows_j, indptr[rows_j] + j))
    return schedule


def csr_spmv_columns(
    indices: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    schedule: CsrSchedule,
    m: int,
) -> np.ndarray:
    """Row-sequential CSR SpMV, vectorized across rows per position."""
    y = np.zeros(m, dtype=vals.dtype)
    for rows_j, pos_j in schedule:
        y[rows_j] += vals[pos_j] * x[indices[pos_j]]
    return y


# Surface the compiled capability on the registry so `repro formats`
# (and its --json consumers) report per-format compiled support.
for _fmt in sorted(JIT_FORMATS):
    _registry.bind_compiled(_fmt)
