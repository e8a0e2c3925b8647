"""The sharded execution engine: N shards, N simulated devices.

:func:`execute_sharded` is where a ``devices > 1``
:class:`~repro.exec.policy.ExecutionPolicy` lands after
:func:`repro.kernels.run_spmv` or :func:`repro.kernels.run_spmm` has
done its verify/fallback work. It takes a vector ``x`` of shape ``(n,)``
or a multi-RHS block of shape ``(n, k)``; a block is one call — one
task per device carrying the whole block — never ``k`` column calls.
The engine

1. partitions the matrix (or accepts a pre-built
   :class:`~repro.exec.partition.ShardedMatrix`), caching the partition
   on the container under its seal so solver loops pay for it once, and
   a re-seal after mutation re-partitions;
2. prepares and runs every shard's kernel — one after another in
   process (``policy.backend="thread"``, default) or concurrently on a
   fault-tolerant ``multiprocessing`` :class:`~repro.exec.workers.WorkerPool`
   (``policy.backend="process"``) where each worker mmaps its own sealed
   ``.brx`` shard container and shard failures fail over to surviving
   workers;
3. assembles the per-shard ``y`` row blocks (bit-identical to the
   single-device result, because shards are contiguous row blocks and
   every kernel accumulates rows in ascending-column order): the thread
   backend concatenates them, and the worker pool copies each shard's
   rows out of its output segment straight into the result;
4. merges the per-shard :class:`~repro.gpu.counters.KernelCounters` and
   adds the modeled interconnect traffic
   (:func:`~repro.exec.comms.model_comms`), so
   ``merged == sum(shard counters)`` in every DRAM field while
   ``interconnect_bytes`` carries the communication volume — ``k``
   times the single-vector volume for an ``(n, k)`` block, so a block's
   counters equal the sum of its ``k`` per-column records.

Both backends run a shard through :func:`~repro.exec.chaos.run_shard`,
so a ``policy.chaos`` fault kind means the same on either, and both
return the call's :class:`~repro.exec.workers.CallStats`. Both honor
``policy.shard_timeout_s``: the thread engine raises a typed
:class:`~repro.errors.ShardTimeoutError` when a shard misses its
deadline, and the process engine treats the miss as a stalled worker —
fence, retry elsewhere, and only raise once ``policy.max_retries`` is
exhausted. Recovery actions surface on the returned
:class:`ShardedSpMVResult` (``worker_deaths``, ``shard_reassignments``,
``retries``) and in the metrics registry (``exec.worker_deaths`` etc.).

The thread backend runs its shards in order because replay holds the
GIL (SciPy's CSR loops and the Numba loops both do), so shard threads
would never overlap and would only add a thread start per shard.
Without a deadline the shards run on the calling thread; a deadline
costs one daemon runner thread per call, which the caller abandons on a
miss. Either way one shard runs at a time, so the tracer's global span
stack sees a deterministic span tree.
"""

from __future__ import annotations

import contextvars
import queue
import threading
import time
import uuid
import weakref
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ShardTimeoutError, ValidationError
from ..formats.base import SparseFormat
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec, get_device
from ..gpu.timing import MultiDeviceBreakdown, predict_sharded
from ..integrity.checksums import get_header
from ..integrity.validators import verify_container, verify_rank
from ..kernels.base import SpMVResult
from ..kernels.plan import check_multi_x
from ..kernels.plancache import PlanCache, cache_for, fingerprint_token
from ..telemetry import metrics as _metrics
from ..telemetry.tracer import get_tracer
from ..telemetry.tracer import span as _span
from .chaos import PROCESS_FAULT_KINDS, ChaosEvent, chaos_state, run_shard
from .comms import CommsReport, model_comms
from .partition import ShardedMatrix, partition
from .policy import ExecutionPolicy
from .workers import CallStats, shutdown_matrix_pools

__all__ = [
    "ShardedSpMVResult",
    "execute_sharded",
    "sharded_view",
    "shutdown_pools",
]


@dataclass
class ShardedSpMVResult(SpMVResult):
    """Result of a multi-device SpMV (or SpMM block).

    ``y``/``counters`` behave exactly like the single-device record
    (``counters`` is the merged view, carrying the modeled
    ``interconnect_bytes``); the extra fields expose the per-shard
    results, the communication accounting, the sharded timing model and
    — on the process backend — the recovery accounting of the call.
    """

    shard_results: Tuple[SpMVResult, ...] = ()
    comms: Optional[CommsReport] = None
    partitioner: str = "greedy-nnz"
    backend: str = "thread"
    worker_deaths: int = 0  #: workers lost (crashed or fenced) this call
    shard_reassignments: int = 0  #: shards moved to a different worker
    retries: int = 0  #: shard re-executions after a failure
    recovery_events: Tuple[Dict[str, object], ...] = ()

    @property
    def timing(self) -> MultiDeviceBreakdown:  # type: ignore[override]
        """Sharded timing: parallel kernel phase + interconnect term."""
        return predict_sharded(
            self.counters,
            tuple(r.counters for r in self.shard_results),
            self.device,
            messages=self.comms.messages if self.comms is not None else 0,
        )

    @property
    def n_devices(self) -> int:
        return len(self.shard_results)


@dataclass
class _View:
    """A cached partition and the seal and verify level it was read under."""

    token: object
    verified: object
    sharded: Optional[ShardedMatrix]  #: None for a pre-built ShardedMatrix
    #: The caches the shards' plans went to, dropped with the view.
    plan_caches: "weakref.WeakSet[PlanCache]" = field(
        default_factory=weakref.WeakSet)


def sharded_view(
    matrix: SparseFormat,
    devices: int,
    partitioner: str = "greedy-nnz",
    verify: object = False,
    plan_cache: Optional[PlanCache] = None,
) -> ShardedMatrix:
    """The matrix partitioned for ``devices``, cached on the container.

    Re-invoking with the same ``(devices, partitioner)`` under the same
    seal returns the cached :class:`ShardedMatrix`, so iterative solvers
    re-encode shards once per operator, not once per multiplication. A
    re-seal (mutate, then :func:`~repro.integrity.seal`) re-partitions
    and shuts down the worker pools of the superseded partition. An
    unsealed container mutated in place keeps its stale partition.

    ``verify`` (an ``ExecutionPolicy.verify`` level) checks the container
    before :func:`partition` reads it; the view records the level, so a
    stronger request checks once more and a re-partition re-checks. A
    pre-built :class:`ShardedMatrix` is its own view: it is checked once
    per seal the same way, and a re-seal shuts down its worker pools.

    ``plan_cache`` names the cache the caller builds the shards' plans
    in; the view records it, and a re-seal invalidates the superseded
    shards' plans there.
    """
    if isinstance(matrix, ShardedMatrix):
        # devices == 1 means "no explicit request": use the container as-is.
        if devices > 1 and matrix.n_shards != devices:
            raise ValidationError(
                f"matrix is already sharded for {matrix.n_shards} devices, "
                f"policy asks for {devices}; re-partition explicitly"
            )
        key: object = None
    else:
        key = (devices, partitioner)
    cache = getattr(matrix, "_repro_shard_cache", None)
    if cache is None:
        cache = {}
        matrix._repro_shard_cache = cache  # type: ignore[attr-defined]
    token = fingerprint_token(get_header(matrix))
    view = cache.get(key)
    if view is not None and view.token != token:
        del cache[key]
        old = view.sharded if view.sharded is not None else matrix
        assert isinstance(old, ShardedMatrix)
        for plans in view.plan_caches:
            for shard in old.shards:
                plans.invalidate(shard)
        shutdown_matrix_pools(old)
        view = None
    if view is None:
        verify_container(matrix, verify)
        # A pre-built view does not hold itself (no reference cycle).
        view = cache[key] = _View(token, verify, None if key is None
                                  else partition(matrix, devices, partitioner))
    elif verify_rank(view.verified) < verify_rank(verify):
        verify_container(matrix, verify)
        view.verified = verify
    if plan_cache is not None:
        view.plan_caches.add(plan_cache)
    sharded = matrix if view.sharded is None else view.sharded
    assert isinstance(sharded, ShardedMatrix)
    return sharded


def shutdown_pools(matrix: SparseFormat) -> int:
    """Close every process-worker pool cached on ``matrix``; returns count."""
    return shutdown_matrix_pools(matrix)


def _merge(
    shard_results: List[SpMVResult], comms: CommsReport, k: int
) -> KernelCounters:
    """Per-shard sum plus ``k`` vectors' worth of modeled x distribution."""
    merged = KernelCounters.sum(r.counters for r in shard_results)
    return replace(
        merged,
        interconnect_bytes=merged.interconnect_bytes + k * comms.total_bytes,
    )


def _plan_thread_chaos(
    sharded: ShardedMatrix, policy: ExecutionPolicy
) -> Optional[ChaosEvent]:
    """The thread backend's chaos event for this call, if any.

    The thread backend shares one address space, so only stalls, plan and
    container-level faults are expressible; process-only kinds are a
    configuration error rather than a silent no-op.
    """
    if policy.chaos is None:
        return None
    event = chaos_state(sharded, policy.chaos).plan_call(sharded.n_shards)
    if event is None:
        return None
    if event.kind in PROCESS_FAULT_KINDS and event.kind != "stall-worker":
        raise ValidationError(
            f"chaos kind {event.kind!r} requires backend='process'"
        )
    return event


def _execute_thread(
    sharded: ShardedMatrix,
    x: np.ndarray,
    device: DeviceSpec,
    policy: ExecutionPolicy,
) -> Tuple[np.ndarray, List[SpMVResult], CallStats]:
    """The in-process backend: the shards run one after another.

    Without a deadline they run on the calling thread, in its context,
    so a shard's dispatch sees that it is nested in the call's guarded
    dispatch; a deadline runs the same loop on one runner thread, in a
    copy of that context. A shard's error ends the call.
    """
    from ..kernels.dispatch import run_spmm, run_spmv  # late: dispatch imports us

    run = run_spmm if x.ndim == 2 else run_spmv

    shard_policy = policy.with_(
        devices=1, fallback=None, plan=None,
        backend="thread", shard_timeout_s=None, chaos=None,
    )
    event = _plan_thread_chaos(sharded, policy)
    timeout = policy.shard_timeout_s

    def run_one(d: int, shard: SparseFormat) -> SpMVResult:
        if not _metrics.collecting():  # keep the disabled path clock-free
            return run_shard(run, shard, x, device, shard_policy, event, d)
        t_begin = time.perf_counter()
        try:
            return run_shard(run, shard, x, device, shard_policy, event, d)
        finally:
            _metrics.record_shard_latency(str(d), time.perf_counter() - t_begin)

    handoff: queue.SimpleQueue[SpMVResult | BaseException] = queue.SimpleQueue()
    abandoned = threading.Event()

    def run_in_order() -> None:
        for d, shard in enumerate(sharded.shards):
            if abandoned.is_set():
                return
            try:
                handoff.put(run_one(d, shard))
            except BaseException as exc:
                handoff.put(exc)
                return

    if timeout is None:
        run_in_order()
    else:
        # A daemon, which no exit hook joins: a shard abandoned at its
        # deadline never holds up interpreter exit.
        threading.Thread(target=contextvars.copy_context().run,
                         args=(run_in_order,), daemon=True).start()
    results = []
    for d in range(sharded.n_shards):
        try:
            item = handoff.get(timeout=timeout)
        except queue.Empty:
            # Raise now; the stalled shard finishes on its own, and no
            # further shard starts.
            abandoned.set()
            raise ShardTimeoutError(
                f"shard {d} missed its {timeout}s deadline on the "
                f"thread backend",
                shard=d, timeout_s=timeout or 0.0,
            ) from None
        if isinstance(item, BaseException):
            raise item
        results.append(item)
    return np.concatenate([r.y for r in results]), results, CallStats()


def _execute_process(
    sharded: ShardedMatrix,
    x: np.ndarray,
    device: DeviceSpec,
    policy: ExecutionPolicy,
) -> Tuple[np.ndarray, List[SpMVResult], CallStats]:
    """The fault-tolerant multiprocessing backend."""
    from .workers import worker_pool

    tracer = get_tracer()
    telem: Optional[Tuple[str, Optional[int]]] = None
    if tracer is not None:
        parent = tracer.current_span()
        telem = (
            tracer.trace_id,
            parent.span_id if parent is not None else None,
        )
    elif _metrics.collecting():
        # Metrics-only mode still wants worker registry snapshots; the
        # worker tracers get a fresh trace id.
        telem = (uuid.uuid4().hex, None)

    pool = worker_pool(sharded, device, policy)
    y, counters, stats = pool.execute(x, telem=telem, verify=policy.verify)
    bounds = sharded.bounds
    results = [
        SpMVResult(y=y[bounds[d]:bounds[d + 1]], counters=c, device=device)
        for d, c in enumerate(counters)
    ]
    if _metrics.collecting():
        # Worker processes record into their own registries (shipped back
        # as worker-labelled series below); fold the shard kernel
        # counters in here unlabelled so both backends meter bit-alike.
        for r in results:
            _metrics.record_kernel(sharded.inner_format, device.name, r.counters)
    if stats.telemetry:
        from ..telemetry import remote as _remote

        batches = sorted(stats.telemetry, key=lambda b: b["worker"])
        if tracer is not None:
            for batch in batches:
                _remote.graft_spans(tracer, batch)
        if _metrics.collecting():
            _remote.merge_batches(
                _metrics.registry(), batches,
                device_names=[device.name] * sharded.n_shards,
            )
            for batch in batches:
                _metrics.record_shard_latency(
                    str(batch["worker"]), batch["elapsed_s"]
                )
    return y, results, stats


def execute_sharded(
    matrix: SparseFormat,
    x: np.ndarray,
    device: DeviceSpec | str,
    policy: ExecutionPolicy,
) -> ShardedSpMVResult:
    """Run ``y = A @ x`` across ``policy.devices`` simulated devices.

    ``x`` is a vector of shape ``(n,)`` or a block of shape ``(n, k)``;
    a block runs as one sharded call whose every shard replays all ``k``
    columns (``run_spmm`` per shard), and comes back as one ``(m, k)``
    result. Fallback is the caller's concern —
    :func:`repro.kernels.run_spmv` / :func:`~repro.kernels.run_spmm`
    wrap this call in their guarded region, so corruption inside any
    shard degrades exactly like a single-device failure. ``policy.verify``
    checks the container when :func:`sharded_view` partitions it, and
    each shard runs with a single-device variant of ``policy`` (same
    verify level, engine selection and plan cache); the backend —
    in-process shards in order or failover-capable worker processes — is
    selected by ``policy.backend``.
    """
    if isinstance(device, str):
        device = get_device(device)
    if not policy.sharded and not isinstance(matrix, ShardedMatrix):
        raise ValidationError("execute_sharded needs policy.devices > 1")

    sharded = sharded_view(
        matrix, policy.devices, policy.partitioner, policy.verify,
        cache_for(policy))
    comms = model_comms(sharded, device, policy.comms)
    x = check_multi_x(sharded, x) if np.ndim(x) == 2 else sharded.check_x(x)
    k = x.shape[1] if x.ndim == 2 else 1

    with _span(
        "exec.sharded",
        "pipeline",
        format=sharded.inner_format,
        devices=sharded.n_shards,
        partitioner=sharded.partitioner,
        comms=comms.strategy,
        backend=policy.backend,
    ):
        backend = _execute_process if policy.backend == "process" else _execute_thread
        y, results, stats = backend(sharded, x, device, policy)

    merged = _merge(results, comms, k)
    _metrics.record_exec(
        sharded.inner_format, device.name, sharded.n_shards, merged, comms
    )
    for name in ("worker_deaths", "shard_reassignments", "retries", "respawns"):
        count = getattr(stats, name)
        if count:
            _metrics.record_worker_event(name, count)
    return ShardedSpMVResult(
        y=y,
        counters=merged,
        device=device,
        shard_results=tuple(results),
        comms=comms,
        partitioner=sharded.partitioner,
        backend=policy.backend,
        worker_deaths=stats.worker_deaths,
        shard_reassignments=stats.shard_reassignments,
        retries=stats.retries,
        recovery_events=tuple(stats.events),
    )
