"""Prepared-plan SpMV execution: decode once, replay for every ``x``.

The simulated kernels re-derive everything on every call — the stepwise
:class:`~repro.bitstream.reader.SliceDecoder` walk, the texture-cache
model, the transaction counting — even though none of it depends on the
input vector. Iterative solvers and the benchmark sweeps call SpMV with
the *same* matrix hundreds of times, so this module separates the two
phases the way SMASH-style schemes separate setup from multiply:

* :func:`prepare` runs the decode exactly once per (matrix, device) using
  the vectorized :func:`~repro.bitstream.packing.unpack_slice` instead of
  the per-column decoder loop, and caches everything that is independent
  of ``x``: every format's lanes lowered into one width-sorted jagged
  layout (:class:`JaggedELLPlan`), and the *entire* traffic accounting
  as a :class:`~repro.gpu.counters.KernelCounters` prototype.
* :meth:`SpMVPlan.execute` replays the plan for one ``x`` — a handful of
  NumPy gathers/FMAs plus a counter copy.
* :meth:`SpMVPlan.execute_many` batches a multi-RHS ``X`` of shape
  ``(n, k)`` through one plan (SpMM), amortizing the single decode across
  ``k`` vectors.

Plan IR
-------
One leaf and two combinators. :class:`JaggedELLPlan` is the only replay:
every row adds its lanes, in a fixed order, to a ``+0.0`` accumulator.
Each format is build-time data for it — ELL-style formats hand over their
slices, entry-list formats (COO, BRO-COO, CMRS, CSR) their rows grouped by
length (:func:`_row_blocks`). :class:`SumPlan` adds part plans (HYB,
BRO-HYB) and :class:`MultiRowBROELLPlan` folds row-split partial sums
(BRO-ELL-MT).

Equivalence contract
--------------------
A plan replay is **bit-identical** to the reference kernel — same ``y``
to the last ulp and an equal :class:`KernelCounters` record — because the
replay performs the same floating-point operations in the same order
(each row's products added one at a time from ``+0.0``, in the order the
reference adds them: ELL column order, or stored entry order where the
reference scatters entry by entry; masked lanes adding ``+0.0``).

The counters prototype is equal by construction: every format has exactly
one traffic model, a ``<fmt>_counters`` function next to its reference
kernel (``csr_counters`` in ``spmv_csr``, ``ellpack_counters`` in
``spmv_ellpack``, ...), and the kernel and the planner both call it. The
structure-only formats pass ``(matrix, device)``. The BRO formats pass
their decoded blocks to one per-block terms function
(``bro_slice_counters``, ``bro_coo_interval_counters``) and sum the
blocks with ``bro_ell_counters``/``bro_coo_counters``. The reference
kernel feeds it its stepwise decode and ``symbol_loads``; the planner
feeds it the vectorized decode and ``row_stream_symbols``, which is equal
for a fully consumed stream. The per-block tracers (``repro.gpu.trace``)
emit the same terms, so their rows sum to the counters. The composites
reuse the parts' counters: ``hybrid_counters`` for HYB/BRO-HYB and
``bro_ell_mt_counters`` for the BRO-ELL-MT fold.
``tests/kernels/test_plan_equivalence.py`` enforces the equivalence for
every suite matrix, every BRO format and both symbol lengths. Because the
two decodes are independent, it still checks the vectorized decode
against the stepwise one. ``tests/kernels/test_counters_golden.py`` pins
every counter field of every plannable format.

Integrity
---------
A plan is built for one executor, in the one lane layout that executor
reads. It records the CRC32 of its replay arrays at build;
:meth:`SpMVPlan.verify_arrays` compares against it (composites check
their parts), and ``run_spmv`` does so before every replay under
``verify="checksum"`` or ``"full"``. Under ``"structure"`` it runs
:meth:`SpMVPlan.verify_bounds` instead, a one-pass range check of the
index arrays the executor reads.

Telemetry
---------
Replays emit the same ``kernel.<format>`` span and per-format
:func:`~repro.telemetry.metrics.record_kernel` metrics as the reference
engine (with an ``engine="fast"`` attribute); plan builds emit a
``spmv.plan`` span and ``plan.builds`` / ``plan.build_seconds`` counters.
Texture-cache and bitstream-decode metrics are emitted once at build time
rather than per call — they are properties of the structure, not the run.
"""

from __future__ import annotations

import time
import zlib
from abc import ABC
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import registry as _registry
from ..core.bro_coo import BROCOOMatrix
from ..core.bro_ell import BROELLMatrix
from ..core.bro_hyb import BROHYBMatrix
from ..core.bro_sell import BROSELLMatrix
from ..core.multirow import MultiRowBROELL
from ..errors import IntegrityError, KernelError, ValidationError
from ..formats.base import SparseFormat
from ..formats.bellpack import BELLPACKMatrix
from ..formats.cmrs import CMRSMatrix
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..formats.ellpack import ELLPACKMatrix
from ..formats.ellpack_r import ELLPACKRMatrix
from ..formats.hyb import HYBMatrix
from ..formats.sell_c_sigma import SELLCSigmaMatrix
from ..formats.sliced_ellpack import SlicedELLPACKMatrix
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec, get_device
from ..gpu.timing import predict
from ..telemetry import metrics as _metrics
from ..telemetry import tracer as _tracer
from ..telemetry.tracer import span as _span
from ..types import VALUE_DTYPE
from ..utils.bits import ceil_div

from . import backends as _backends
from .base import SpMVResult
from .spmv_bellpack import bellpack_counters
from .spmv_bro_coo import (
    bro_coo_counters,
    bro_coo_interval_counters,
    unpack_interval,
)
from .spmv_bro_ell import (
    bro_ell_blocks,
    bro_ell_counters,
    bro_slice_counters,
    unpack_block,
)
from .spmv_bro_ell_mt import bro_ell_mt_counters
from .spmv_cmrs import cmrs_counters
from .spmv_coo import coo_counters
from .spmv_csr import csr_counters
from .spmv_ellpack import ellpack_counters
from .spmv_ellpack_r import ellpack_r_counters
from .spmv_hyb import add_parts, hybrid_counters, hybrid_parts
from .spmv_sell_c_sigma import sell_counters
from .spmv_sliced_ell import sliced_ell_counters

__all__ = [
    "SpMVPlan",
    "prepare",
    "register_planner",
    "has_planner",
    "plannable_formats",
    "check_multi_x",
]


def check_multi_x(matrix: SparseFormat, X: np.ndarray) -> np.ndarray:
    """Validate a multi-RHS block ``X`` of shape ``(n, k)`` for SpMM."""
    X = np.asarray(X, dtype=VALUE_DTYPE)
    if X.ndim != 2 or X.shape[0] != matrix.shape[1] or X.shape[1] < 1:
        raise ValidationError(
            f"X must have shape ({matrix.shape[1]}, k) with k >= 1, "
            f"got shape {X.shape}"
        )
    return X


class SpMVPlan(ABC):
    """A prepared, x-independent execution plan for one (matrix, device).

    Holds a strong reference to its matrix (so a cached plan can never be
    confused with a new object reusing the same ``id``), the device spec,
    a :class:`KernelCounters` prototype every replay copies, and its parts.
    """

    #: format this plan executes (by default ``matrix.format_name``).
    format_name: str = ""

    def __init__(
        self,
        matrix: SparseFormat,
        device: DeviceSpec,
        counters: KernelCounters,
        backend: str,
        parts: Tuple["SpMVPlan", ...] = (),
    ) -> None:
        if backend not in _backends.EXECUTOR_BACKENDS:
            raise ValidationError(
                f"executor backend must be one of "
                f"{_backends.EXECUTOR_BACKENDS}, got {backend!r}"
            )
        if backend == "scipy" and _backends.scipy_refusal() is not None:
            raise ValidationError(
                f"scipy executor unavailable ({_backends.scipy_refusal()})"
            )
        self.format_name = self.format_name or matrix.format_name
        self.matrix = matrix
        self.device = device
        self._counters = counters
        self._parts = parts
        #: scaled counters prototypes and their predicted seconds per k,
        #: derived once instead of on every replay (both are
        #: x-independent, so a warm plan never re-derives them).
        self._counters_memo: Dict[int, KernelCounters] = {}
        self._time_memo: Dict[int, float] = {}
        #: wall-clock seconds the one-time build took (set by prepare()).
        self.build_seconds = 0.0
        #: executor backend replays dispatch to (one of EXECUTOR_BACKENDS),
        #: fixed at build: the plan's arrays are laid out for it.
        self.backend = backend
        #: seconds the JIT warm-compile pass took (0.0 on the numpy path).
        self.jit_compile_seconds = 0.0
        #: CRC32 of every replay array, taken at build.
        self._array_crcs: Dict[str, int] = {}

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    def counters(self, k: int = 1) -> KernelCounters:
        """A fresh counters record for a ``k``-vector replay.

        ``k`` sequential products scale every traffic/flop/launch counter
        linearly; ``threads`` stays the per-launch grid size (the
        occupancy model sees the same grid ``k`` times, not a bigger one).
        The scaled prototype is memoized per ``k``; callers get a copy.
        """
        return self._prototype(k).copy()

    def _predicted_time(self, k: int) -> float:
        """``predict(self.counters(k), self.device).time``, memoized per ``k``."""
        t = self._time_memo.get(k)
        if t is None:
            t = self._time_memo[k] = predict(self._prototype(k), self.device).time
        return t

    def _prototype(self, k: int) -> KernelCounters:
        proto = self._counters_memo.get(k)
        if proto is None:
            c = self._counters
            if k == 1:
                proto = c
            else:
                proto = KernelCounters(
                    index_bytes=c.index_bytes * k,
                    value_bytes=c.value_bytes * k,
                    x_bytes=c.x_bytes * k,
                    y_bytes=c.y_bytes * k,
                    aux_bytes=c.aux_bytes * k,
                    useful_flops=c.useful_flops * k,
                    issued_flops=c.issued_flops * k,
                    decode_ops=c.decode_ops * k,
                    launches=c.launches * k,
                    threads=c.threads,
                )
            self._counters_memo[k] = proto
        return proto

    # -- integrity ------------------------------------------------------
    def _children(self) -> Tuple["SpMVPlan", ...]:
        """Part plans a composite plan delegates to."""
        return self._parts

    def _plans(self, prefix: str = "") -> Iterator[Tuple[str, "SpMVPlan"]]:
        """This plan and every part below it, each with its path prefix."""
        yield prefix, self
        for i, child in enumerate(self._children()):
            yield from child._plans(f"{prefix}parts[{i}].")

    def _own_arrays(self) -> Dict[str, np.ndarray]:
        """The arrays this plan's own replay reads (none for a combinator)."""
        return {}

    def replay_arrays(self) -> Dict[str, np.ndarray]:
        """Every array a replay reads, its parts' included, keyed by
        path (``"_gather"``, ``"parts[1]._vals"``)."""
        return {prefix + name: arr for prefix, plan in self._plans()
                for name, arr in plan._own_arrays().items()}

    def _crcs(self) -> Dict[str, int]:
        return {
            name: zlib.crc32(np.ascontiguousarray(arr))
            for name, arr in self._own_arrays().items()
        }

    def _stale_arrays(self) -> List[str]:
        """Own arrays whose bytes changed since the build."""
        return [name for name, crc in self._crcs().items()
                if self._array_crcs.get(name) != crc]

    def _out_of_bounds(self) -> List[str]:
        """Own index arrays that would send a replay outside its arrays."""
        return []

    def _raise_failing(self, check: str, what: str) -> None:
        """Raise naming every array, parts' included, that fails ``check``."""
        bad = tuple(prefix + name for prefix, plan in self._plans()
                    for name in getattr(plan, check)())
        if bad:
            raise IntegrityError(
                f"{self.format_name} plan failed its {what}; "
                f"corrupted arrays: {', '.join(bad)}",
                fields=bad,
            )

    def verify_arrays(self) -> None:
        """Check every replay array against the CRC taken at build.

        Raises :class:`~repro.errors.IntegrityError` naming (by their
        :meth:`replay_arrays` paths) the arrays whose bytes changed since
        the plan was built. This is the per-call check of
        ``verify="checksum"``: the plan's arrays, not the container's,
        are the bytes a replay reads.
        """
        self._raise_failing("_stale_arrays", "replay-array checksum")

    def verify_bounds(self) -> None:
        """Range-check every index array the executor reads, in one pass
        each, raising as :meth:`verify_arrays` does. The per-call check of
        ``verify="structure"``: the compiled loops check no bounds, and
        below ``"checksum"`` no CRC proves these are the bytes checked at
        build."""
        self._raise_failing("_out_of_bounds", "index bounds check")

    def warm_compile(self) -> float:
        """Trigger JIT compilation of the replay loops on a zeros input.

        Called by :func:`prepare` so compilation cost lands in the build
        phase (recorded as ``plan.jit_compile_seconds``), not the first
        ``execute``. A no-op on the numpy backend.
        """
        if self.backend != "jit":
            return 0.0
        t0 = time.perf_counter()
        zeros = np.zeros(self.matrix.shape[1], dtype=VALUE_DTYPE)
        self._replay(zeros)
        self._replay_many(zeros[:, None])
        self.jit_compile_seconds = time.perf_counter() - t0
        return self.jit_compile_seconds

    # -- execution ------------------------------------------------------
    def execute(self, x: np.ndarray) -> SpMVResult:
        """Replay the plan for one input vector."""
        return self.execute_checked(self.matrix.check_x(x))

    def execute_many(self, X: np.ndarray) -> SpMVResult:
        """Replay the plan for a multi-RHS block ``X`` of shape ``(n, k)``.

        Returns an :class:`SpMVResult` whose ``y`` has shape ``(m, k)``;
        column ``j`` is bit-identical to ``execute(X[:, j]).y``.
        """
        return self.execute_checked(check_multi_x(self.matrix, X))

    def execute_checked(self, x: np.ndarray) -> SpMVResult:
        """:meth:`execute` (1-D ``x``) or :meth:`execute_many` (2-D) for
        an input the caller already validated with ``check_x`` /
        :func:`check_multi_x` — dispatch validates once, not twice."""
        if x.ndim == 1:
            k, replay = 1, self._replay
        else:
            k, replay = x.shape[1], self._replay_many
        tracer = _tracer.get_tracer()
        if tracer is None and not _metrics.collecting():
            return SpMVResult(
                y=replay(x), counters=self.counters(k), device=self.device,
                _time=self._predicted_time(k),
            )
        return self._instrumented(tracer, lambda: replay(x), k)

    def _instrumented(
        self, tracer, fn: Callable[[], np.ndarray], k: int
    ) -> SpMVResult:
        """Replay under the same span/metric protocol as ``SpMVKernel.run``."""
        if tracer is not None:
            attrs = {
                "format": self.format_name,
                "device": self.device.name,
                "engine": "fast",
            }
            if k != 1:
                attrs["k"] = k
            with tracer.start(f"kernel.{self.format_name}", "kernel", attrs) as sp:
                result = SpMVResult(
                    y=fn(), counters=self.counters(k), device=self.device,
                    _time=self._predicted_time(k),
                )
                sp.attach_counters(result.counters)
                try:
                    sp.attach_timing(result.timing)
                except ValidationError:  # pragma: no cover - defensive
                    pass
        else:
            result = SpMVResult(
                y=fn(), counters=self.counters(k), device=self.device,
                _time=self._predicted_time(k),
            )
        _metrics.record_kernel(self.format_name, self.device.name, result.counters)
        return result

    # -- replay (the jagged leaf and the combinators override these) -----
    # The replay entry points dispatch to ``_replay_<backend>`` /
    # ``_replay_many_<backend>``; a plan without its own compiled replay
    # (the combinators: their parts dispatch instead) runs the numpy one.
    # Every implementation is bit-identical by construction (same
    # floating-point operations, same order — see repro.kernels.backends),
    # enforced by tests/kernels/test_backends.py.
    def _replay(self, x: np.ndarray) -> np.ndarray:
        """Compute ``y`` for one validated ``x`` on the active backend."""
        return getattr(self, f"_replay_{self.backend}", self._replay_numpy)(x)

    def _replay_many(self, X: np.ndarray) -> np.ndarray:
        return getattr(
            self, f"_replay_many_{self.backend}", self._replay_many_numpy
        )(X)

    def _replay_numpy(self, x: np.ndarray) -> np.ndarray:
        """The interpreted (NumPy) replay — every plan has one.

        Not an abstractmethod: plan subclasses that predate the backend
        layer (or external plugins) may override ``_replay`` directly and
        opt out of backend dispatch entirely.
        """
        raise NotImplementedError(
            f"{type(self).__name__} defines neither _replay_numpy nor a "
            f"_replay override"
        )

    def _replay_many_numpy(self, X: np.ndarray) -> np.ndarray:
        # Generic fallback: one replay per column, each dispatched on the
        # backend. Formats whose replay vectorizes across columns without
        # changing the per-column floating-point order override this.
        return np.stack(
            [self._replay(X[:, j]) for j in range(X.shape[1])], axis=1
        )


# ----------------------------------------------------------------------
# Planner registration — delegates to the unified capability registry
# ----------------------------------------------------------------------
def register_planner(format_name: str):
    """Decorator binding a plan builder to its format's capability record."""

    def deco(fn: Callable[[SparseFormat, DeviceSpec, str], SpMVPlan]):
        _registry.bind_planner(format_name, fn)
        return fn

    return deco


def has_planner(format_name: str) -> bool:
    """Whether :func:`prepare` supports the format."""
    return _registry.has_planner(format_name)


def plannable_formats() -> Tuple[str, ...]:
    """Format names with a prepared-plan builder."""
    return _registry.plannable_formats()


def prepare(
    matrix: SparseFormat,
    device: DeviceSpec | str = "k20",
    backend: str = "numpy",
) -> SpMVPlan:
    """Build an :class:`SpMVPlan` — the one-time decode + accounting pass.

    ``backend`` selects the executor the plan replays with: a policy
    request (``"numpy"``, the default, or ``"auto"``, resolved by
    :func:`repro.kernels.backends.resolve_backend`) or an executor name
    (``"jit"`` or ``"scipy"``). The format's planner is called as
    ``planner(matrix, device, executor)`` with the resolved name and
    builds only the lane layout that executor reads. Resolution (whose
    first call runs the SciPy probe) counts in ``build_seconds``. A JIT
    plan warm-compiles its loops here so compilation cost is part of the
    build, recorded on the plan as ``jit_compile_seconds``.

    Raises :class:`~repro.errors.ValidationError` for an executor this
    host cannot run (``"jit"`` without Numba, ``"scipy"`` when its probe
    refused), :class:`~repro.errors.KernelError` for formats without a
    plan builder (they stay on the reference engine) and propagates the
    same typed errors a reference run would raise on a corrupted
    container.
    """
    if isinstance(device, str):
        device = get_device(device)
    builder = _registry.planner_for(matrix.format_name)
    if builder is None:
        raise KernelError(
            f"no prepared-plan builder for format {matrix.format_name!r}; "
            f"plannable formats: {plannable_formats()}"
        )
    t0 = time.perf_counter()
    resolved = (
        backend if backend in ("jit", "scipy")
        else _backends.resolve_backend(backend)
    )
    if resolved == "jit" and not _backends.jit_available():
        raise ValidationError("jit executor unavailable (numba-missing)")
    with _span(
        "spmv.plan", "pipeline", format=matrix.format_name, device=device.name
    ):
        plan = builder(matrix, device, resolved)
    plan.build_seconds = time.perf_counter() - t0
    _metrics.record_plan_build(matrix.format_name, device.name, plan.build_seconds)
    if resolved == "jit":
        seconds = plan.warm_compile()
        _metrics.record_jit_compile(matrix.format_name, device.name, seconds)
    return plan


def _check_plan_type(matrix: SparseFormat, *expected: type) -> None:
    if not isinstance(matrix, expected):
        names = " or ".join(t.__name__ for t in expected)
        raise KernelError(
            f"planner needs a {names}, got {type(matrix).__name__}"
        )


#: One lane block handed to :class:`JaggedELLPlan`: ``(rows, gather,
#: vals, valid)`` with ``(h_i, l_i)`` lane blocks, ``rows`` the output row
#: of each block row, and ``valid`` the lane mask of the masked formats
#: (``None`` keeps every lane as stored).
_EllBlock = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]


def _index_dtype(limit: int) -> type:
    """int32 when every index up to ``limit`` fits, else int64."""
    return np.int32 if limit < 2**31 - 1 else np.int64


def _max_unsigned(a: np.ndarray) -> int:
    """The largest index, a negative one read as huge (unsigned)."""
    return int(a.view(f"u{a.itemsize}").max())


def _checked_blocks(
    blocks: List[_EllBlock], m: int, n: int, padded_n: Optional[int] = None
) -> List[_EllBlock]:
    """The non-empty blocks, range-checked.

    A column index outside ``x``, or an output row out of range or
    repeated, raises ``IndexError``. With ``padded_n``, ``x`` reads as
    zero-padded to that length: lanes in ``[n, padded_n)`` gather the
    zero slot ``n`` and keep their stored value (a no-op only when it is
    ``+0.0``).
    """
    limit = n if padded_n is None else padded_n
    checked: List[_EllBlock] = []
    for rows, g, v, valid in blocks:
        if not g.size:
            continue
        live = g if valid is None else np.where(valid, g, 0)
        if _max_unsigned(live) >= limit:
            raise IndexError(f"ELL column index out of range for x of length {limit}")
        g = np.minimum(g, n) if limit > n else g
        checked.append((np.asarray(rows, dtype=np.int64), g, v, valid))
    if checked:
        rows = np.concatenate([b[0] for b in checked])
        if _max_unsigned(rows) >= m or np.bincount(rows, minlength=m).max() > 1:
            raise IndexError(f"output rows out of range or repeated for {m} rows")
    return checked


def _lanes(block: _EllBlock, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """A checked block's gather and value lanes, each masked-out lane a
    no-op lane: gather ``n`` (the zero slot appended to ``x``), ``+0.0``."""
    _, g, v, valid = block
    if valid is None:
        return g, v
    return np.where(valid, g, n), np.where(valid, v, 0.0)


def _jagged_layout(
    blocks: List[_EllBlock], n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten checked blocks into the jagged-diagonal order (pJDS).

    The blocks are stably sorted by decreasing width, so ELL column ``c``
    of every block wide enough to have one covers a prefix of the sorted
    rows: ``counts[c]`` rows. ``gather``/``vals`` hold column 0's lanes,
    then column 1's, ... and ``rows`` maps a sorted row to its output row.
    The fill is one scatter per block, never a loop over (column x block).
    """
    widths = np.array([b[1].shape[1] for b in blocks], dtype=np.int64)
    heights = np.array([b[1].shape[0] for b in blocks], dtype=np.int64)
    order = np.argsort(-widths, kind="stable")
    widths, heights = widths[order], heights[order]
    row_start = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(heights, out=row_start[1:])
    max_width = int(widths[0]) if len(blocks) else 0
    # Blocks wider than column c form a prefix of the sorted order.
    wider = np.searchsorted(-widths, -np.arange(max_width), side="left")
    counts = row_start[wider]
    col_start = np.zeros(max_width + 1, dtype=np.int64)
    np.cumsum(counts, out=col_start[1:])

    gather = np.empty(int(col_start[-1]), dtype=_index_dtype(n))
    vals = np.empty(int(col_start[-1]), dtype=VALUE_DTYPE)
    rows = np.empty(int(row_start[-1]), dtype=np.int64)
    for s, i in enumerate(order):
        g, v = _lanes(blocks[i], n)
        h_i, l_i = g.shape
        r0 = int(row_start[s])
        dest = (col_start[:l_i, None] + np.arange(r0, r0 + h_i)).ravel()
        gather[dest] = g.T.ravel()
        vals[dest] = v.T.ravel()
        rows[r0 : r0 + h_i] = blocks[i][0]
    return counts, gather, vals, rows


def _row_major_layout(
    blocks: List[_EllBlock], m: int, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay checked blocks out row by row: a CSR over the output rows.

    Each row takes its lanes in ELL-column order, one scatter per block
    and no sort. One pass then keeps only the lanes that can change
    ``y``: a no-op lane (gather ``n``, value bits ``+0.0``) is dropped and
    ``indptr`` counts kept lanes. ``indptr`` and ``gather`` share one
    index dtype, wide enough for ``n`` and for every lane before the drop.
    """
    dtype = _index_dtype(max(n, sum(b[1].size for b in blocks)))
    indptr = np.zeros(m + 1, dtype=dtype)
    for rows, g, _, _ in blocks:
        indptr[rows + 1] = g.shape[1]
    np.cumsum(indptr, out=indptr)
    gather = np.empty(int(indptr[-1]), dtype=dtype)
    vals = np.empty(int(indptr[-1]), dtype=VALUE_DTYPE)
    for block in blocks:
        g, v = _lanes(block, n)
        slot = indptr[block[0], None] + np.arange(g.shape[1])
        gather[slot], vals[slot] = g, v
    keep = np.flatnonzero((gather != n) | (vals.view(np.uint64) != 0))
    # A row's kept lanes start after the kept lanes before its first slot.
    indptr = np.searchsorted(keep, indptr).astype(dtype)
    return indptr, gather.take(keep), vals.take(keep)


def _row_blocks(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, m: int
) -> List[_EllBlock]:
    """Lower an entry list onto jagged blocks: one per distinct row length.

    Entries are stably sorted by row, so each row keeps its stored entry
    order — the order the reference kernels' element-ordered scatter adds
    them in, and a CSR row sum's. Rows of equal length ``L`` form one
    ``(h, L)`` block. Entries are kept as stored, padding included
    (``0.0 * x[col]`` stays NaN for an infinite ``x[col]``, as in the
    scatter).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        raise IndexError(f"row index out of range for {m} rows")
    entries = np.argsort(rows, kind="stable")
    lengths = np.bincount(rows, minlength=m)
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    by_length = np.argsort(lengths, kind="stable")
    by_length = by_length[lengths[by_length] > 0]
    groups = np.split(
        by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1
    )
    blocks: List[_EllBlock] = []
    for group in groups:
        if group.size:
            pos = entries[starts[group, None] + np.arange(lengths[group[0]])]
            blocks.append((group, cols[pos], vals[pos], None))
    return blocks


class JaggedELLPlan(SpMVPlan):
    """The one leaf replay: a gather-multiply-prefix-add per ELL column.

    Every plannable format lowers onto it at build time (see the module
    docstring). Every row adds exactly its lanes, in column order, to a
    ``+0.0`` accumulator, as the stepwise kernels do, so ``y`` is
    bit-identical. A masked lane adds ``+0.0 * 0.0`` where the kernel
    adds a literal ``+0.0``; the accumulator can never hold ``-0.0`` (an
    exact zero sum rounds to ``+0.0``), so such an add never changes a bit.

    The plan is built in the one layout its executor reads: column-major
    (jagged: ``_counts``, ``_gather``, ``_vals``, ``_rows``) for numpy
    and jit; row-major for scipy, a CSR over the output rows
    (``_indptr``, ``_gather``, ``_vals``) that keeps each row's lane
    order but drops its no-op lanes (gather ``n``, value ``+0.0``: the
    adds argued away above).
    """

    def __init__(
        self,
        matrix: SparseFormat,
        device: DeviceSpec,
        counters: KernelCounters,
        backend: str,
        blocks: List[_EllBlock],
        padded_n: Optional[int] = None,
    ) -> None:
        super().__init__(matrix, device, counters, backend)
        m, n = matrix.shape
        blocks = _checked_blocks(blocks, m, n, padded_n)
        if backend == "scipy":
            self._indptr, self._gather, self._vals = _row_major_layout(blocks, m, n)
        else:
            self._counts, self._gather, self._vals, self._rows = (
                _jagged_layout(blocks, n)
            )
        #: whether some lane gathers the zero slot ``x[n]``.
        self._zero_slot = bool(np.any(self._gather == n))
        self._array_crcs = self._crcs()

    def _own_arrays(self) -> Dict[str, np.ndarray]:
        names = (("_indptr", "_gather", "_vals") if self.backend == "scipy"
                 else ("_counts", "_gather", "_vals", "_rows"))
        return {name: getattr(self, name) for name in names}

    def _out_of_bounds(self) -> List[str]:
        """``_gather`` inside the ``x`` a replay reads (its zero slot too,
        when used); row-major: ``_indptr`` from 0, never decreasing, to
        the lane count; jagged: ``_rows`` in ``[0, m)``, ``_counts`` never
        increasing, within ``[0, len(_rows)]``, summing to the lanes."""
        m, n = self.matrix.shape
        lanes = self._gather.shape[0]
        bad: Dict[str, object] = {
            "_gather": lanes and _max_unsigned(self._gather) >= n + self._zero_slot}
        if self.backend == "scipy":
            p = self._indptr
            bad["_indptr"] = p[0] != 0 or p[-1] != lanes or np.any(p[1:] < p[:-1])
        else:
            c, rows = self._counts, self._rows
            bad["_rows"] = rows.size and _max_unsigned(rows) >= m
            bad["_counts"] = c.sum() != lanes or c.size and (
                c[-1] < 0 or c[0] > rows.shape[0] or np.any(c[1:] > c[:-1]))
        return [name for name, failed in bad.items() if failed]

    def _extend(self, x: np.ndarray) -> np.ndarray:
        """``x`` (or ``X``) with the zero slot appended when a lane uses it."""
        if not self._zero_slot:
            return x
        n = x.shape[0]
        xe = np.empty((n + 1,) + x.shape[1:], dtype=VALUE_DTYPE)
        xe[:n] = x
        xe[n] = 0.0
        return xe

    def _replay_numpy(self, x: np.ndarray) -> np.ndarray:
        # SpMV and SpMM alike: one row of xt per input vector, so every
        # column-c temporary is a (k, counts[c]) block of contiguous rows,
        # never the whole lane array.
        xe = self._extend(x)
        xt = np.ascontiguousarray(xe.T).reshape(-1, xe.shape[0])
        k = xt.shape[0]
        acc = np.zeros((k, self._rows.shape[0]), dtype=VALUE_DTYPE)
        buf = np.empty(acc.size)  # column 0 covers every row
        lo = 0
        for cnt in self._counts.tolist():
            hi = lo + cnt
            prod = buf[: k * cnt].reshape(k, cnt)
            # Indices were range-checked at build, so "clip" never clips;
            # it only skips the buffered copy "raise" makes.
            np.take(xt, self._gather[lo:hi], axis=1, out=prod, mode="clip")
            np.multiply(self._vals[lo:hi], prod, out=prod)
            head = acc[:, :cnt]
            head += prod
            lo = hi
        y = np.zeros((self.matrix.shape[0],) + x.shape[1:], dtype=VALUE_DTYPE)
        y[self._rows] = acc.T.reshape((-1,) + x.shape[1:])
        return y

    _replay_many_numpy = _replay_numpy

    def _replay_jit(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.matrix.shape[0], dtype=VALUE_DTYPE)
        _backends.jagged_spmv(
            self._counts, self._gather, self._vals, self._rows,
            self._extend(x), y,
        )
        return y

    def _replay_many_jit(self, X: np.ndarray) -> np.ndarray:
        Y = np.zeros((self.matrix.shape[0], X.shape[1]), dtype=VALUE_DTYPE)
        _backends.jagged_spmm(
            self._counts, self._gather, self._vals, self._rows,
            self._extend(X), Y,
        )
        return Y

    def _replay_scipy(self, x: np.ndarray) -> np.ndarray:
        # SpMV and SpMM alike: csr_matvec(s) adds each row's lanes, in
        # order, to y's +0.0 (a (rows, k) block for SpMM).
        y = np.zeros((self.matrix.shape[0],) + x.shape[1:], dtype=VALUE_DTYPE)
        _backends.csr_row_sums(
            self._indptr, self._gather, self._vals,
            np.ascontiguousarray(self._extend(x)), y,
        )
        return y

    _replay_many_scipy = _replay_scipy


def _leaf_planner(*expected: type):
    """The planner of ``expected`` matrices from their lowering, which
    returns the leaf's ``(counters, blocks[, padded_n])``: it builds the
    :class:`JaggedELLPlan` in the layout of the executor it is called with.
    """

    def deco(lower: Callable[..., tuple]):
        def planner(
            matrix: SparseFormat, device: DeviceSpec, executor: str
        ) -> JaggedELLPlan:
            _check_plan_type(matrix, *expected)
            counters, *lanes = lower(matrix, device)
            return JaggedELLPlan(matrix, device, counters, executor, *lanes)

        return planner

    return deco


# ----------------------------------------------------------------------
# BRO-ELL family (BRO-ELL, BRO-ELL-VC, BRO-SELL): decoded, masked slices
# ----------------------------------------------------------------------
@register_planner("bro_ell")
@register_planner("bro_ell_vc")
@register_planner("bro_sell")
@_leaf_planner(BROELLMatrix, BROSELLMatrix)
def _plan_bro_ell(
    matrix: Union[BROELLMatrix, BROSELLMatrix], device: DeviceSpec
) -> tuple:
    slices: List[KernelCounters] = []
    blocks: List[_EllBlock] = []
    for _, rows, bit_alloc, view, vals, channel in bro_ell_blocks(matrix):
        cols, valid, loads = unpack_block(
            view, bit_alloc, rows.shape[0], matrix.sym_len
        )
        slices.append(bro_slice_counters(
            cols, valid, loads, matrix.sym_len, device, channel
        ))
        blocks.append((rows, np.where(valid, cols, 0), vals, valid))
    return bro_ell_counters(matrix, slices, device), blocks


# ----------------------------------------------------------------------
# BRO-ELL multi-thread-per-row: inner plan + fold
# ----------------------------------------------------------------------
class MultiRowBROELLPlan(SpMVPlan):
    """The ``Fold`` combinator: inner BRO-ELL plan over the row-split
    storage, then each row's ``threads_per_row`` partial sums added."""

    def _replay_numpy(self, x: np.ndarray) -> np.ndarray:
        inner = self._parts[0].execute_checked(x)
        return self.matrix.fold(inner.y)

    def _replay_many_numpy(self, X: np.ndarray) -> np.ndarray:
        partial = self._parts[0].execute_checked(X).y
        m = self.matrix.shape[0]
        t = self.matrix.threads_per_row
        return partial.reshape(m, t, X.shape[1]).sum(axis=1)


@register_planner("bro_ell_mt")
def _plan_bro_ell_mt(
    matrix: SparseFormat, device: DeviceSpec, executor: str
) -> MultiRowBROELLPlan:
    _check_plan_type(matrix, MultiRowBROELL)
    assert isinstance(matrix, MultiRowBROELL)
    inner_plan = _plan_bro_ell(matrix.inner, device, executor)
    counters = bro_ell_mt_counters(matrix, inner_plan.counters(), device)
    return MultiRowBROELLPlan(matrix, device, counters, executor, (inner_plan,))


# ----------------------------------------------------------------------
# Entry lists (COO, BRO-COO, CMRS, CSR): rows grouped by length
# ----------------------------------------------------------------------
@register_planner("bro_coo")
@_leaf_planner(BROCOOMatrix)
def _plan_bro_coo(matrix: BROCOOMatrix, device: DeviceSpec) -> tuple:
    rows = np.zeros(matrix.padded_nnz, dtype=np.int64)
    intervals: List[KernelCounters] = []
    for i, lo, hi, _ in matrix.iter_intervals():
        rows_2d, loads = unpack_interval(matrix, i)  # (w, L), cumulative - 1
        rows[lo:hi] = rows_2d.T.reshape(-1)[: hi - lo]
        intervals.append(
            bro_coo_interval_counters(matrix, i, rows_2d, loads, device)
        )
    blocks = _row_blocks(rows, matrix.col_idx, matrix.vals, matrix.shape[0])
    return bro_coo_counters(matrix, intervals, device), blocks


@register_planner("coo")
@_leaf_planner(COOMatrix)
def _plan_coo(matrix: COOMatrix, device: DeviceSpec) -> tuple:
    blocks = _row_blocks(
        matrix.row_idx, matrix.col_idx, matrix.vals, matrix.shape[0]
    )
    return coo_counters(matrix, device), blocks


@register_planner("cmrs")
@_leaf_planner(CMRSMatrix)
def _plan_cmrs(matrix: CMRSMatrix, device: DeviceSpec) -> tuple:
    blocks = _row_blocks(
        matrix.entry_rows(), matrix.col_idx, matrix.vals, matrix.shape[0]
    )
    return cmrs_counters(matrix, device), blocks


@register_planner("csr")
@_leaf_planner(CSRMatrix)
def _plan_csr(matrix: CSRMatrix, device: DeviceSpec) -> tuple:
    m = matrix.shape[0]
    rows = np.repeat(np.arange(m), np.diff(matrix.indptr))
    blocks = _row_blocks(rows, matrix.indices, matrix.vals, m)
    return csr_counters(matrix, device), blocks


# ----------------------------------------------------------------------
# HYB / BRO-HYB: the Sum combinator over the ELL and COO part plans
# ----------------------------------------------------------------------
class SumPlan(SpMVPlan):
    """The ``Sum`` combinator: ``y = parts[0] + parts[1] + ...``.

    Each part runs through its own ``execute``/``execute_many`` — one
    ``kernel.<part>`` span and metric record per part, in part order, as
    the two-launch HYB kernels do — and the part results are added left to
    right, so ``y = ell + coo`` in the reference kernel's order.
    """

    def _replay_numpy(self, x: np.ndarray) -> np.ndarray:
        ys = [p.execute_checked(x).y for p in self._parts]
        return add_parts(ys, self.matrix.shape[0], x)

    def _replay_many_numpy(self, X: np.ndarray) -> np.ndarray:
        ys = [p.execute_checked(X).y for p in self._parts]
        return add_parts(ys, self.matrix.shape[0], X)


@register_planner("hyb")
@register_planner("bro_hyb")
def _plan_hybrid(
    matrix: SparseFormat, device: DeviceSpec, executor: str
) -> SumPlan:
    """``ell + coo`` over the parts that launch (:func:`hybrid_parts`)."""
    _check_plan_type(matrix, HYBMatrix, BROHYBMatrix)
    assert isinstance(matrix, (HYBMatrix, BROHYBMatrix))
    parts: List[SpMVPlan] = []
    for part in hybrid_parts(matrix):
        builder = _registry.planner_for(part.format_name)
        assert builder is not None
        parts.append(builder(part, device, executor))
    counters = hybrid_counters([p.counters() for p in parts], device)
    return SumPlan(matrix, device, counters, executor, tuple(parts))


# ----------------------------------------------------------------------
# ELL-style formats: one block (ELLPACK, ELLPACK-R, BELLPACK) or one per
# slice/chunk. Like every planner here, they take their counters from the
# format's one <fmt>_counters function next to its reference kernel.
# ----------------------------------------------------------------------
@register_planner("ellpack")
@_leaf_planner(ELLPACKMatrix)
def _plan_ellpack(matrix: ELLPACKMatrix, device: DeviceSpec) -> tuple:
    blocks = [(np.arange(matrix.shape[0]), matrix.col_idx, matrix.vals, None)]
    return ellpack_counters(matrix, device), blocks


@register_planner("ellpack_r")
@_leaf_planner(ELLPACKRMatrix)
def _plan_ellpack_r(matrix: ELLPACKRMatrix, device: DeviceSpec) -> tuple:
    blocks = [(np.arange(matrix.shape[0]), matrix.col_idx, matrix.vals,
               matrix.valid_mask())]
    return ellpack_r_counters(matrix, device), blocks


@register_planner("bellpack")
@_leaf_planner(BELLPACKMatrix)
def _plan_bellpack(matrix: BELLPACKMatrix, device: DeviceSpec) -> tuple:
    """One ``(mb*r, K*c)`` block: matrix row ``b*r + rr`` walks its block
    columns left to right, ``c`` entry columns each (the kernel's register
    accumulation order); rows past ``m`` are dropped, and lanes reading
    the zero padding of ``x`` (columns ``[n, n_pad)``) read the zero slot.
    """
    m, n = matrix.shape
    r, c = matrix.block_shape
    mb, K = matrix.block_col_idx.shape
    first = matrix.block_col_idx.astype(np.int64)[:, None, :, None] * c
    gather = np.broadcast_to(first + np.arange(c), (mb, r, K, c))
    vals = matrix.block_vals.transpose(0, 2, 1, 3)
    blocks = [(np.arange(m), gather.reshape(mb * r, K * c)[:m],
               vals.reshape(mb * r, K * c)[:m], None)]
    return bellpack_counters(matrix, device), blocks, ceil_div(n, c) * c


@register_planner("sliced_ellpack")
@_leaf_planner(SlicedELLPACKMatrix)
def _plan_sliced_ell(matrix: SlicedELLPACKMatrix, device: DeviceSpec) -> tuple:
    blocks = [
        (np.arange(r0, r1), col_block, val_block, None)
        for r0, r1, col_block, val_block in matrix.iter_slices()
    ]
    return sliced_ell_counters(matrix, device), blocks


# ----------------------------------------------------------------------
# SELL-C-σ family: chunks scattered through the row permutation
# ----------------------------------------------------------------------
@register_planner("sell_c_sigma")
@_leaf_planner(SELLCSigmaMatrix)
def _plan_sell_c_sigma(matrix: SELLCSigmaMatrix, device: DeviceSpec) -> tuple:
    blocks = [
        (matrix.row_ids[r0:r1], col_block, val_block, None)
        for r0, r1, col_block, val_block in matrix.iter_chunks()
    ]
    return sell_counters(matrix, device), blocks
