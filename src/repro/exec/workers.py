"""Process-backed sharded execution: self-healing workers with shard failover.

``ExecutionPolicy(backend="process")`` routes the sharded engine through
a :class:`WorkerPool`: a coordinator that writes every shard to its own
sealed ``.brx`` container and spawns one ``multiprocessing`` worker per
shard. Workers mmap their shard containers (zero-copy via the aligned
array table of :mod:`repro.serialize`).

Blocks never ride the task queues. The pool owns two segment files in
its shard directory, an input segment for ``x`` and an output segment
for ``y``, sized for the widest block so far (a wider block starts a new
generation of files and unlinks the old one). The coordinator copies
``x`` — a vector, or a whole ``(n, k)`` multi-RHS block, which the worker
replays with one ``run_spmm`` (plan ``execute_many``) — into the input
segment once per call, and each task carries only ``(generation, shape,
row range)``. A worker maps both files by path (``x`` read-only), writes
its shard's ``y`` into its own rows of the output segment and reports
the shape, the :class:`~repro.gpu.counters.KernelCounters`, a CRC32 of
its private ``y`` and, on a traced call, its telemetry batch, all in one
result message. The coordinator copies those rows out of the segment and
checks the CRC on its copy, so the transport check stays end to end: a
late, stale or torn write into the segment fails the CRC and the shard
is retried. The batch is kept only with rows that pass.

The robustness core is the coordinator's recovery loop. Every task
carries a ``(call, shard, attempt)`` tag, and three detectors feed one
failover path:

* **death** — the worker process is gone (``is_alive()`` false) or its
  heartbeat went silent;
* **stall** — the shard missed its ``policy.shard_timeout_s`` deadline;
  the wedged worker is fenced (terminated) so a late result can never
  race a retry — stale tags are rejected on arrival;
* **corruption** — the shard's rows fail their transport CRC, or the
  worker reported a typed error (e.g. its shard container failed the
  stored seal, or its cached plan failed its replay-array CRC).

Each task carries the call's ``verify`` level, and workers run their
shard under it: the shard container is checked when a worker's plan
cache first reads it, and at ``"checksum"`` the plan's arrays on every
task. A plan that fails is dropped from the worker's cache, so the
retry rebuilds it from the shard, which was verified when loaded.

Failover re-enqueues the shard on the least-loaded surviving worker with
an exponential deadline backoff, bounded by ``policy.max_retries``, and
a replacement worker is respawned into the vacated slot, so the pool
never shrinks. Exhausting the budget raises a typed
:class:`~repro.errors.ShardTimeoutError` or
:class:`~repro.errors.WorkerFailureError` — the caller never sees wrong
numbers. Every recovery action is counted (worker deaths, shard
reassignments, retries, respawns) for
:func:`repro.telemetry.metrics.record_worker_event` and the
``ShardedSpMVResult`` recovery fields.

Chaos injection (:mod:`repro.exec.chaos`) rides the task channel: the
coordinator plans at most one fault per call and sends the
:class:`~repro.exec.chaos.ChaosEvent` with the targeted shard's first
attempt only, so recovery always has a clean retry to converge to. The
worker runs the shard through :func:`~repro.exec.chaos.run_shard`, the
runner the thread backend uses too.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import queue as _queue
import shutil
import tempfile
import time
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ReproError, ShardTimeoutError, ValidationError, WorkerFailureError
from ..formats.base import SparseFormat
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec
from .chaos import ChaosEvent, ChaosState, run_shard
from .partition import ShardedMatrix
from .policy import ExecutionPolicy

__all__ = ["WorkerPool", "worker_pool", "shutdown_matrix_pools", "shutdown_pools"]

#: Coordinator poll interval while waiting on shard results (seconds).
_POLL_S = 0.02
#: Worker heartbeat write interval (seconds).
_HEARTBEAT_INTERVAL_S = 0.05
#: Heartbeat age past which a live-looking worker is declared lost.
_HEARTBEAT_TIMEOUT_S = 5.0
#: Deadline multiplier applied per retry attempt.
_BACKOFF = 1.5
#: Exit code used by the kill-worker chaos injector.
_CHAOS_EXIT = 117
#: Columns the first segment generation holds: SpMV and blocks up to
#: this wide share it, a wider block starts a new generation.
_SEGMENT_COLUMNS = 8


def _crc(y: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(y))


def _segment_paths(directory: str, generation: int) -> Tuple[str, str]:
    """The input (``x``) and output (``y``) segment files of a generation."""
    return (os.path.join(directory, f"x{generation}.seg"),
            os.path.join(directory, f"y{generation}.seg"))


def _map(path: str, mode: str, size: Optional[int] = None) -> np.ndarray:
    """A flat float64 view of a segment file (``mode="w+"`` creates it)."""
    return np.memmap(path, dtype=np.float64, mode=mode,
                     shape=size).view(np.ndarray)


def _flip_one_bit(y: np.ndarray) -> np.ndarray:
    """A copy of ``y`` with one bit of its first element flipped."""
    y = np.array(y, copy=True)
    y.reshape(-1).view(np.uint64)[0] ^= np.uint64(1) << np.uint64(40)
    return y


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(
    slot: int,
    shard_paths: List[str],
    pool_dir: str,
    coordinator: int,
    device_name: str,
    engine: str,
    compute_backend: str,
    task_queue: Any,
    result_queue: Any,
    heartbeats: Any,
) -> None:
    """Worker loop: mmap shards on demand, run tasks, report results.

    Runs in a child process. A task is ``("spmv", call, shard, attempt,
    (generation, shape, (r0, r1)), event, telem, verify)``: the block of
    ``shape`` is the head of input segment ``generation`` in
    ``pool_dir``, and the shard's ``y`` goes to rows ``[r0, r1)`` of
    the output segment, read as a C-order ``(m,) + shape[1:]`` array. The
    worker maps a generation's files on its first task for it (``x``
    read-only) and drops the previous maps. The result protocol is
    tuples on ``result_queue``: ``("done", call, shard, attempt, slot,
    y_shape, counters, crc, batch)`` once the rows are written, with the
    CRC taken on the private ``y`` before the copy, or ``("error", call,
    shard, attempt, slot, errname, errmsg)``.

    ``event`` is the call's :class:`~repro.exec.chaos.ChaosEvent` on the
    first attempt of the shard it targets, else ``None``.
    :func:`~repro.exec.chaos.run_shard` applies it, as on the thread
    backend; only ``"kill-worker"`` (exit before the run) and
    ``"corrupt-shard-result"`` (flip a bit after the CRC) act here.

    The heartbeat thread also watches the coordinator: when the parent
    pid is no longer ``coordinator`` (it died and the worker was
    reparented), nothing can collect the worker's work or remove the
    pool directory, so the worker removes the directory and exits.

    When a task carries a trace context (``telem = (trace_id,
    parent_span_id)``), the task body runs under a private worker tracer +
    registry (:class:`repro.telemetry.remote.capture`) and the ``done``
    message carries the batch dict; otherwise ``batch`` is ``None`` and
    the worker does no telemetry work. Failed attempts ship no batch, and
    the coordinator keeps a batch only with the rows it accepts.
    """
    import threading

    from ..kernels.dispatch import run_spmm, run_spmv
    from ..serialize import load_container

    def _beat() -> None:
        while os.getppid() == coordinator:
            heartbeats[slot] = time.time()
            time.sleep(_HEARTBEAT_INTERVAL_S)
        # The coordinator died before its cleanup could run.
        shutil.rmtree(pool_dir, ignore_errors=True)
        os._exit(0)

    threading.Thread(target=_beat, daemon=True).start()

    # Each worker resolves the backend request against its *own*
    # environment (Numba may be importable here but not on the
    # coordinator, or vice versa) — the result is bit-identical either
    # way, so mixed fleets stay correct.
    policy = ExecutionPolicy(engine=engine, compute_backend=compute_backend)
    shards: Dict[int, SparseFormat] = {}
    segments: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}  # by generation

    while True:
        task = task_queue.get()
        if task[0] == "stop":
            return
        _, call, shard_idx, attempt, block, event, telem, verify = task
        generation, shape, (r0, r1) = block
        k = shape[1] if len(shape) == 2 else 1
        run = run_spmm if len(shape) == 2 else run_spmv
        task_policy = policy.with_(verify=verify)
        try:
            if generation not in segments:
                segments.clear()  # unmap the previous generation
                x_path, y_path = _segment_paths(pool_dir, generation)
                segments[generation] = (_map(x_path, "r"), _map(y_path, "r+"))
            x_seg, y_seg = segments[generation]
            x = x_seg[:int(np.prod(shape))].reshape(shape)
            matrix = shards.get(shard_idx)
            if matrix is None:
                matrix = load_container(
                    shard_paths[shard_idx], mmap_arrays=True, verify=True
                )
                shards[shard_idx] = matrix
            kind = event.kind if event is not None else None
            if kind == "kill-worker":
                os._exit(_CHAOS_EXIT)
            batch = None
            if telem is None:
                result = run_shard(run, matrix, x, device_name, task_policy,
                                   event, shard_idx)
            else:
                from ..telemetry import remote as _remote

                t_begin = time.perf_counter()
                with _remote.capture(telem[0]) as cap:
                    cap.root.set(shard=shard_idx, attempt=attempt, slot=slot)
                    result = run_shard(run, matrix, x, device_name,
                                       task_policy, event, shard_idx)
                batch = _remote.build_batch(
                    cap,
                    worker=slot,
                    shard=shard_idx,
                    attempt=attempt,
                    parent_span_id=telem[1],
                    elapsed_s=time.perf_counter() - t_begin,
                )
            y = np.ascontiguousarray(result.y)
            crc = _crc(y)
            if kind == "corrupt-shard-result":
                # Transport corruption: flip a bit AFTER the CRC was
                # computed, so the coordinator's end-to-end check fires.
                y = _flip_one_bit(y)
            y_seg[r0 * k:r1 * k] = y.reshape(-1)
            result_queue.put(
                ("done", call, shard_idx, attempt, slot, y.shape,
                 result.counters, crc, batch)
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to coordinator
            result_queue.put(
                ("error", call, shard_idx, attempt, slot,
                 type(exc).__name__, str(exc))
            )


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    """One worker slot: the live process and its private task queue."""

    slot: int
    process: Any
    task_queue: Any
    busy: set = field(default_factory=set)  #: shard indices in flight


@dataclass
class _ShardCall:
    """Per-call recovery state of one shard."""

    shard: int
    attempt: int = 0
    slot: int = -1
    deadline: Optional[float] = None
    failures: List[str] = field(default_factory=list)


@dataclass
class CallStats:
    """Recovery accounting of one :meth:`WorkerPool.execute` call."""

    worker_deaths: int = 0
    shard_reassignments: int = 0
    retries: int = 0
    respawns: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Worker telemetry batches for the accepted attempt of each shard
    #: (see :mod:`repro.telemetry.remote`); empty when telemetry is off
    #: and on the thread backend.
    telemetry: List[Dict[str, Any]] = field(default_factory=list)

    def note(self, event: str, **info: Any) -> None:
        self.events.append({"event": event, **info})


class WorkerPool:
    """A pool of shard workers with failover, bound to one ShardedMatrix.

    The pool owns a temp directory of per-shard ``.brx`` containers and
    the block segment files, and one worker process per shard. It is
    cached on the sharded container (:func:`worker_pool`) so iterative
    solvers pay the spawn and shard serialization cost once;
    :meth:`shutdown` (or garbage collection of the matrix) terminates the
    workers and removes the directory.
    """

    def __init__(
        self,
        sharded: ShardedMatrix,
        device: DeviceSpec,
        policy: ExecutionPolicy,
    ) -> None:
        self.device = device
        self.engine = policy.engine
        self.compute_backend = policy.compute_backend
        self.shard_timeout_s = policy.shard_timeout_s
        self.max_retries = policy.max_retries
        self.n_shards = sharded.n_shards
        self.shape = sharded.shape
        self._bounds = [int(b) for b in sharded.bounds]
        self.chaos_state = (
            ChaosState(policy.chaos) if policy.chaos is not None else None
        )
        # Lifetime recovery totals (across calls).
        self.total = CallStats()

        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._tmpdir = Path(tempfile.mkdtemp(prefix="repro-shards-"))
        self._paths = self._save_shards(sharded)
        self._heartbeats = self._ctx.Array("d", self.n_shards, lock=False)
        self._results = self._ctx.Queue()
        self._call = 0
        self._closed = False
        self._telem_ctx: Optional[Tuple[str, Optional[int]]] = None
        self._verify: object = False
        #: The current call's ``(generation, shape)`` in the input segment.
        self._block: Tuple[int, Tuple[int, ...]] = (0, ())
        self.generation = -1
        self._width = 0
        self._grow(_SEGMENT_COLUMNS)
        self._workers: List[_Worker] = [
            self._spawn(slot) for slot in range(self.n_shards)
        ]
        self._finalizer = weakref.finalize(
            self, WorkerPool._cleanup, self._workers, self._results,
            str(self._tmpdir),
        )
        _LIVE_POOLS.add(self)

    # -- setup ----------------------------------------------------------
    def _save_shards(self, sharded: ShardedMatrix) -> List[str]:
        from ..integrity.checksums import is_sealed, seal
        from ..serialize import save_container

        paths = []
        for d, shard in enumerate(sharded.shards):
            if not is_sealed(shard):
                try:
                    seal(shard)
                except ReproError:
                    pass  # unsupported extractor: save unsealed
            path = self._tmpdir / f"shard{d}.brx"
            save_container(shard, path)
            paths.append(str(path))
        return paths

    def _spawn(self, slot: int) -> _Worker:
        task_queue = self._ctx.Queue()
        self._heartbeats[slot] = time.time()
        process = self._ctx.Process(
            target=_worker_main,
            args=(slot, self._paths, str(self._tmpdir), os.getpid(),
                  self.device.name, self.engine, self.compute_backend,
                  task_queue, self._results, self._heartbeats),
            daemon=True,
            name=f"repro-shard-worker-{slot}",
        )
        process.start()
        return _Worker(slot=slot, process=process, task_queue=task_queue)

    # -- block transport ------------------------------------------------
    def _grow(self, width: int) -> None:
        """Start a segment generation for blocks up to ``width`` columns
        and unlink the previous one (workers still mapping it keep their
        pages; new tasks name the new generation)."""
        old = self.generation
        self.generation += 1
        self._width = width
        m, n = self.shape
        x_path, y_path = _segment_paths(str(self._tmpdir), self.generation)
        self._x_seg = _map(x_path, "w+", n * width)
        self._y_seg = _map(y_path, "w+", m * width)
        if old >= 0:
            for path in _segment_paths(str(self._tmpdir), old):
                os.unlink(path)

    def _stage(self, x: np.ndarray) -> None:
        """Copy this call's ``x`` into the input segment (once, before
        any dispatch), growing the segments for a wider block."""
        width = x.shape[1] if x.ndim == 2 else 1
        if width > self._width:
            self._grow(width)
        self._x_seg[:x.size] = x.reshape(-1)
        self._block = (self.generation, x.shape)

    def _collect(self, shard: int, shape: Tuple[int, ...], crc: int,
                 y: np.ndarray) -> Optional[str]:
        """Copy a shard's rows from the output segment into ``y`` and
        check the worker's CRC on the copy; returns why they were
        rejected, or None."""
        r0, r1 = self._bounds[shard], self._bounds[shard + 1]
        rows = y[r0:r1]
        if tuple(shape) != rows.shape:
            return f"shard result has shape {tuple(shape)}, not {rows.shape}"
        rows[...] = self._y_seg[:y.size].reshape(y.shape)[r0:r1]
        if _crc(rows) != crc:
            return "shard result failed its CRC check"
        return None

    # -- liveness -------------------------------------------------------
    def _alive(self, worker: _Worker) -> bool:
        if not worker.process.is_alive():
            return False
        age = time.time() - self._heartbeats[worker.slot]
        return age <= _HEARTBEAT_TIMEOUT_S

    def live_workers(self) -> List[_Worker]:
        return [w for w in self._workers if self._alive(w)]

    def _fence(self, worker: _Worker, stats: CallStats, reason: str) -> None:
        """Replace a dead or wedged worker with a fresh one in its slot."""
        slot = worker.slot
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        stats.worker_deaths += 1
        self.total.worker_deaths += 1
        stats.note("worker_lost", slot=slot, reason=reason)
        self._workers[slot] = self._spawn(slot)
        stats.respawns += 1
        self.total.respawns += 1
        stats.note("worker_respawned", slot=slot)

    # -- task routing ---------------------------------------------------
    def _pick_slot(self, avoid: int) -> _Worker:
        live = self.live_workers()
        if not live:
            raise WorkerFailureError(
                "no live workers remain to take reassigned shards"
            )
        preferred = [w for w in live if w.slot != avoid] or live
        return min(preferred, key=lambda w: (len(w.busy), w.slot))

    def _dispatch(
        self,
        state: _ShardCall,
        worker: _Worker,
        event: Optional[ChaosEvent],
    ) -> None:
        if event is not None and event.shard != state.shard:
            event = None  # retries are dispatched with no event at all
        state.slot = worker.slot
        if self.shard_timeout_s is not None:
            budget = self.shard_timeout_s * (_BACKOFF ** state.attempt)
            state.deadline = time.monotonic() + budget
        worker.busy.add(state.shard)
        generation, shape = self._block
        rows = (self._bounds[state.shard], self._bounds[state.shard + 1])
        worker.task_queue.put(
            ("spmv", self._call, state.shard, state.attempt,
             (generation, shape, rows), event, self._telem_ctx, self._verify)
        )

    def _fail(
        self,
        state: _ShardCall,
        stats: CallStats,
        reason: str,
        *,
        stalled: bool = False,
    ) -> None:
        """Retry a failed shard on another worker, or exhaust typed."""
        state.failures.append(f"attempt {state.attempt}: {reason}")
        self._workers[state.slot].busy.discard(state.shard)
        previous = state.slot
        state.attempt += 1
        stats.retries += 1
        self.total.retries += 1
        if state.attempt > self.max_retries:
            if stalled:
                raise ShardTimeoutError(
                    f"shard {state.shard} missed its "
                    f"{self.shard_timeout_s}s deadline "
                    f"{state.attempt} time(s): {'; '.join(state.failures)}",
                    shard=state.shard,
                    timeout_s=self.shard_timeout_s or 0.0,
                )
            raise WorkerFailureError(
                f"shard {state.shard} failed after {state.attempt} "
                f"attempt(s): {'; '.join(state.failures)}",
                shard=state.shard,
                attempts=tuple(state.failures),
            )
        target = self._pick_slot(avoid=previous)
        if target.slot != previous:
            stats.shard_reassignments += 1
            self.total.shard_reassignments += 1
            stats.note(
                "shard_reassigned", shard=state.shard,
                from_slot=previous, to_slot=target.slot, reason=reason,
            )
        self._dispatch(state, target, event=None)

    # -- the recovery loop ---------------------------------------------
    def execute(
        self,
        x: np.ndarray,
        telem: Optional[Tuple[str, Optional[int]]] = None,
        verify: object = False,
    ) -> Tuple[np.ndarray, List[KernelCounters], CallStats]:
        """Run one SpMV (1-D ``x``) or one SpMM block (``(n, k)`` ``x``)
        across the pool: one task per shard; returns the assembled ``y``
        (shard ``d`` owns rows ``[bounds[d], bounds[d+1])``), the
        per-shard counters and the call's stats.

        ``telem`` is the trace context ``(trace_id, parent_span_id)`` to
        propagate to the workers; when given, each shard's telemetry
        batch (for its *accepted* attempt only, carried in its result
        message) lands in ``stats.telemetry``. ``None`` (telemetry
        disabled) sends no context, and workers capture nothing. ``verify``
        is the ``ExecutionPolicy.verify`` level every worker runs its
        shard under.

        Raises a typed :class:`~repro.errors.ShardTimeoutError` /
        :class:`~repro.errors.WorkerFailureError` when a shard exhausts
        its retry budget — by construction every shard's rows of ``y``
        passed their transport CRC, so the caller either gets verified
        bytes or a typed error.
        """
        if self._closed:
            raise ValidationError("worker pool is already shut down")
        call = self._call
        event = (
            self.chaos_state.plan_call(self.n_shards)
            if self.chaos_state is not None else None
        )
        x = np.asarray(x)
        stats = CallStats()
        states = [_ShardCall(shard=d) for d in range(self.n_shards)]
        done: Dict[int, KernelCounters] = {}
        y = np.empty(self.shape[:1] + x.shape[1:])
        self._stage(x)
        self._telem_ctx = telem
        self._verify = verify
        try:
            for state in states:
                worker = self._workers[state.shard % len(self._workers)]
                if not self._alive(worker):
                    worker = self._pick_slot(avoid=-1)
                self._dispatch(state, worker, event)

            while len(done) < self.n_shards:
                try:
                    msg = self._results.get(timeout=_POLL_S)
                except _queue.Empty:
                    msg = None
                if msg is not None:
                    self._handle(msg, call, states, done, y, stats)
                self._check_liveness(states, done, stats)
                self._check_deadlines(states, done, stats)
        finally:
            self._telem_ctx = None
            for worker in self._workers:
                worker.busy.clear()
            self._call += 1
        return y, [done[d] for d in range(self.n_shards)], stats

    def heartbeat_ages(self) -> List[float]:
        """Seconds since each worker slot's last heartbeat write."""
        now = time.time()
        return [
            max(0.0, now - self._heartbeats[slot])
            for slot in range(self.n_shards)
        ]

    def _handle(
        self,
        msg: Tuple,
        call: int,
        states: List[_ShardCall],
        done: Dict[int, KernelCounters],
        y: np.ndarray,
        stats: CallStats,
    ) -> None:
        tag, msg_call, shard, attempt = msg[0], msg[1], msg[2], msg[3]
        state = states[shard]
        if msg_call != call or shard in done or attempt != state.attempt:
            stats.note("stale_result_dropped", shard=shard, attempt=attempt)
            return
        if tag == "error":
            errname, errmsg = msg[5], msg[6]
            self._fail(state, stats, f"worker error {errname}: {errmsg}")
            return
        _, _, _, _, slot, shape, counters, crc, batch = msg
        rejected = self._collect(shard, shape, crc, y)
        if rejected is not None:
            stats.note("shard_crc_mismatch", shard=shard, slot=slot)
            self._fail(state, stats, rejected)
            return
        done[shard] = counters
        if batch is not None:
            stats.telemetry.append(batch)
        self._workers[state.slot].busy.discard(shard)

    def _check_liveness(
        self,
        states: List[_ShardCall],
        done: Dict[int, KernelCounters],
        stats: CallStats,
    ) -> None:
        for worker in list(self._workers):
            if self._alive(worker):
                continue
            pending = [s for s in states
                       if s.shard not in done and s.slot == worker.slot]
            if not pending and not worker.busy:
                continue
            self._fence(worker, stats, reason="process died")
            for state in pending:
                self._fail(state, stats, "worker died mid-shard")

    def _check_deadlines(
        self,
        states: List[_ShardCall],
        done: Dict[int, KernelCounters],
        stats: CallStats,
    ) -> None:
        if self.shard_timeout_s is None:
            return
        now = time.monotonic()
        for state in states:
            if state.shard in done or state.deadline is None:
                continue
            if now < state.deadline:
                continue
            # Fence the wedged worker first so its late result can never
            # be confused with the retry (stale tags are dropped anyway).
            self._fence(self._workers[state.slot], stats,
                        reason="missed shard deadline")
            self._fail(
                state, stats,
                f"missed {self.shard_timeout_s}s deadline", stalled=True,
            )

    # -- teardown -------------------------------------------------------
    @staticmethod
    def _cleanup(
        workers: List[_Worker], results: Any, tmpdir: str
    ) -> None:
        for worker in workers:
            try:
                if worker.process.is_alive():
                    worker.task_queue.put(("stop",))
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + 1.0
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        results.close()
        shutil.rmtree(tmpdir, ignore_errors=True)

    def shutdown(self) -> None:
        """Stop every worker and remove the shard directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()


# ---------------------------------------------------------------------------
# Pool caching on the sharded container
# ---------------------------------------------------------------------------


def _pool_key(device: DeviceSpec, policy: ExecutionPolicy) -> Tuple:
    return (
        device.name,
        policy.engine,
        policy.compute_backend,
        policy.shard_timeout_s,
        policy.max_retries,
        id(policy.chaos) if policy.chaos is not None else None,
    )


def worker_pool(
    sharded: ShardedMatrix,
    device: DeviceSpec,
    policy: ExecutionPolicy,
) -> WorkerPool:
    """The :class:`WorkerPool` for this container/device/policy, cached.

    Cached on the :class:`~repro.exec.partition.ShardedMatrix` so a
    solver loop reuses one pool (and its warm per-worker plan caches)
    across iterations. Distinct chaos policies get distinct pools, so a
    chaos campaign's fault sequences never leak between trials.
    """
    pools = getattr(sharded, "_repro_worker_pools", None)
    if pools is None:
        pools = {}
        sharded._repro_worker_pools = pools  # type: ignore[attr-defined]
    key = _pool_key(device, policy)
    pool = pools.get(key)
    if pool is None or pool._closed:
        pool = pools[key] = WorkerPool(sharded, device, policy)
    return pool


def shutdown_matrix_pools(matrix: SparseFormat) -> int:
    """Shut down every worker pool cached on ``matrix`` (or its shards).

    Returns the number of pools closed. Accepts either a
    :class:`ShardedMatrix` or an unsharded container whose cached
    sharded views own pools.
    """
    closed = 0
    views: List[ShardedMatrix] = []
    if isinstance(matrix, ShardedMatrix):
        views.append(matrix)
    views.extend(v.sharded for v in getattr(matrix, "_repro_shard_cache", {}).values()
                 if v.sharded is not None)
    for view in views:
        pools = getattr(view, "_repro_worker_pools", None)
        if not pools:
            continue
        for pool in pools.values():
            if not pool._closed:
                pool.shutdown()
                closed += 1
        pools.clear()
    return closed


#: Weak registry of every live pool in the process. Pools normally die
#: with their matrix (weakref.finalize), but a matrix held alive in a
#: module global or an interactive session would otherwise keep its
#: worker processes running past interpreter shutdown intent.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def shutdown_pools() -> int:
    """Shut down every live :class:`WorkerPool` in the process.

    Returns the number of pools closed. Registered with :mod:`atexit`
    so cached process pools (and their shard temp directories) never
    outlive the interpreter; the serving layer also calls it explicitly
    at the end of a graceful drain. Idempotent — already-closed pools
    are skipped, and pools created later are tracked independently.
    """
    closed = 0
    for pool in list(_LIVE_POOLS):
        if not pool._closed:
            pool.shutdown()
            closed += 1
    return closed


atexit.register(shutdown_pools)
