"""SpMV-as-a-service: the asyncio serving core and its NDJSON front end.

Two layers, deliberately separable:

* :class:`ServerCore` — transport-free serving machinery: admission
  control over a bounded in-flight budget, the
  :class:`~repro.serve.batcher.MicroBatcher`, a thread-pool executor the
  (GIL-releasing) kernel calls run on, the shared
  :class:`~repro.serve.pool.MatrixPool`, and a private
  :class:`~repro.telemetry.metrics.MetricsRegistry` accumulating
  per-tenant counters and latency histograms. ``await core.submit(req)``
  is the whole request path; benchmarks and tests drive it directly.
* :class:`SpMVServer` — a newline-delimited-JSON TCP protocol on top:
  one frame per line, ``op``-keyed (``spmv``, ``ping``, ``list``,
  ``stats``, ``metrics``, ``shutdown``), with every ``spmv`` line
  handled in its own task so a single pipelining connection still
  micro-batches.

The request lifecycle::

    admission ──rejected──────────────► SpMVResponse(status="rejected")
        │ admitted (inflight < max_queue; known matrix, valid policy)
        ▼
    micro-batcher (same matrix+policy coalesce, window/max_batch bound)
        ▼
    executor thread: run_spmv / run_spmm under the ExecutionPolicy
        ▼
    per-request SpMVResponse (y column j, shared batch_size/execute_ms)

Graceful shutdown (:meth:`ServerCore.shutdown`) closes admission
(late requests are *rejected*, never dropped), force-flushes open batch
windows, waits for in-flight work up to ``drain_timeout_s``, then
releases the executor and explicitly calls
:func:`repro.exec.workers.shutdown_pools` so process-backend worker
pools never outlive the service.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from ..errors import AdmissionError, ReproError, ValidationError
from ..exec.policy import ExecutionPolicy
from ..gpu.device import get_device
from ..kernels.base import SpMVResult
from ..kernels.dispatch import run_spmm, run_spmv
from ..telemetry.metrics import LATENCY_BUCKETS, MetricsRegistry
from .api import (
    ServerConfig,
    SpMVRequest,
    SpMVResponse,
    apply_policy_overrides,
)
from .batcher import MicroBatcher
from .pool import MatrixPool

__all__ = ["ServerCore", "SpMVServer", "serve"]

#: Micro-batch occupancy histogram bounds (vectors per kernel call).
OCCUPANCY_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass
class _Waiter:
    """One admitted single-vector request parked in a batch window."""

    request: SpMVRequest
    future: "asyncio.Future[SpMVResponse]"
    admitted_at: float


class ServerCore:
    """Transport-free serving engine: admission → batcher → executor."""

    def __init__(self, pool: MatrixPool, config: Optional[ServerConfig] = None):
        self.pool = pool
        self.config = config if config is not None else ServerConfig()
        self.device = get_device(self.config.device)
        self.metrics = MetricsRegistry()
        base = self.config.resolved_policy()
        if base.plan_cache is None:
            # The pool's cache, not the process-wide one, so that pool
            # invalidation reaches every plan the server replays.
            base = base.with_(plan_cache=pool.plan_cache)
        self._base_policy = base
        self._batcher = MicroBatcher(
            self._flush,
            window_s=self.config.batch_window_ms / 1000.0,
            max_batch=self.config.max_batch,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-serve",
        )
        self._inflight = 0
        self._accepting = True
        self._closed = False
        self._drained: Optional[asyncio.Event] = None
        self.started_at = time.time()

    # -- admission ------------------------------------------------------
    def _admit(
        self, request: SpMVRequest
    ) -> Union[SpMVResponse, ExecutionPolicy]:
        """Admission control: the request's policy if admitted, else a
        rejected or failed response.

        Rejection is always an in-band typed response (the wire analogue
        of HTTP 429), so a client under backpressure sees *why* instead
        of a hung or dropped connection.
        """
        if not self._accepting:
            exc = AdmissionError(
                "server is draining for shutdown; request not admitted",
                queue_depth=self._inflight,
                max_queue=self.config.max_queue,
            )
            return self._reject(request, exc)
        if self._inflight >= self.config.max_queue:
            exc = AdmissionError(
                f"request queue full ({self._inflight}/"
                f"{self.config.max_queue} in flight); retry with backoff",
                queue_depth=self._inflight,
                max_queue=self.config.max_queue,
            )
            return self._reject(request, exc)
        # Validate against the pool and build the policy *before* the
        # request can join (and poison) a shared batch window.
        try:
            matrix = self.pool.get(request.matrix)
            policy = apply_policy_overrides(self._base_policy, request.policy)
        except ReproError as exc:
            return SpMVResponse.failure(request, exc)
        if request.x.shape[0] != matrix.shape[1]:
            return SpMVResponse.failure(
                request,
                ValidationError(
                    f"x has {request.x.shape[0]} rows, matrix "
                    f"{request.matrix!r} needs {matrix.shape[1]}"
                ),
            )
        return policy

    def _reject(self, request: SpMVRequest, exc: AdmissionError) -> SpMVResponse:
        self.metrics.counter(
            "serve.admission_rejections", {"tenant": request.tenant}
        ).inc()
        return self._finish(
            request, SpMVResponse.failure(request, exc, status="rejected"), 0.0
        )

    def _finish(
        self, request: SpMVRequest, response: SpMVResponse, started: float
    ) -> SpMVResponse:
        """Per-tenant accounting applied to every response exactly once."""
        self.metrics.counter(
            "serve.requests",
            {"tenant": request.tenant, "status": response.status},
        ).inc()
        if started:
            self.metrics.histogram(
                "serve.request_latency_seconds",
                {"tenant": request.tenant},
                buckets=LATENCY_BUCKETS,
            ).observe(time.perf_counter() - started)
        return response

    # -- the request path -----------------------------------------------
    async def submit(self, request: SpMVRequest) -> SpMVResponse:
        """Serve one request end to end; never raises for request-shaped
        failures — errors come back as typed responses."""
        started = time.perf_counter()
        policy = self._admit(request)
        if isinstance(policy, SpMVResponse):
            return (
                policy if policy.rejected
                else self._finish(request, policy, started)
            )
        self._inflight += 1
        self.metrics.gauge("serve.queue_depth").set(self._inflight)
        try:
            if request.is_batch:
                response = await self._execute_direct(
                    request, policy, started
                )
            else:
                loop = asyncio.get_running_loop()
                future: "asyncio.Future[SpMVResponse]" = loop.create_future()
                # Equal effective policies share a batch, however spelled.
                key = (request.matrix, policy)
                self._batcher.submit(key, _Waiter(request, future, started))
                response = await future
            return self._finish(request, response, started)
        finally:
            self._inflight -= 1
            self.metrics.gauge("serve.queue_depth").set(self._inflight)
            if self._inflight == 0 and self._drained is not None:
                self._drained.set()

    async def _execute_direct(
        self, request: SpMVRequest, policy: ExecutionPolicy, started: float
    ) -> SpMVResponse:
        """An explicit (n, k) batch: one run_spmm, no coalescing."""
        loop = asyncio.get_running_loop()
        queue_ms = 1e3 * (time.perf_counter() - started)
        t0 = time.perf_counter()
        try:
            matrix = self.pool.get(request.matrix)
            result = await loop.run_in_executor(
                self._executor, self._run_spmm, matrix, request.x, policy
            )
        except Exception as exc:  # noqa: BLE001 - typed into the response
            return SpMVResponse.failure(request, exc, queue_ms=queue_ms)
        execute_ms = 1e3 * (time.perf_counter() - t0)
        self._record_batch(request.n_vectors, coalesced=False)
        return SpMVResponse.success(
            request,
            result.y,
            format=matrix.format_name,
            batch_size=request.n_vectors,
            queue_ms=queue_ms,
            execute_ms=execute_ms,
            meta=self._result_meta(result),
        )

    def _run_spmm(
        self, matrix: Any, X: np.ndarray, policy: ExecutionPolicy
    ) -> SpMVResult:
        return run_spmm(matrix, X, self.device, policy=policy)

    def _run_batch(
        self, matrix: Any, xs: List[np.ndarray], policy: ExecutionPolicy
    ) -> SpMVResult:
        """Executor-thread body of one coalesced batch."""
        if len(xs) == 1:
            return run_spmv(matrix, xs[0], self.device, policy=policy)
        X = np.ascontiguousarray(np.stack(xs, axis=1))
        return run_spmm(matrix, X, self.device, policy=policy)

    async def _flush(self, key: Hashable, waiters: List[Any]) -> None:
        """Batch flush: one kernel call, one response per waiter."""
        matrix_name, policy = key
        loop = asyncio.get_running_loop()
        flushed_at = time.perf_counter()
        queue_ms = {
            w.request.request_id: 1e3 * (flushed_at - w.admitted_at)
            for w in waiters
        }
        try:
            matrix = self.pool.get(matrix_name)
            xs = [w.request.x for w in waiters]
            t0 = time.perf_counter()
            result = await loop.run_in_executor(
                self._executor, self._run_batch, matrix, xs, policy
            )
            execute_ms = 1e3 * (time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 - typed into responses
            for w in waiters:
                if not w.future.done():
                    w.future.set_result(
                        SpMVResponse.failure(
                            w.request, exc,
                            queue_ms=queue_ms[w.request.request_id],
                        )
                    )
            return
        self._record_batch(len(waiters), coalesced=True)
        meta = self._result_meta(result)
        k = len(waiters)
        for j, w in enumerate(waiters):
            if w.future.done():  # client went away mid-batch
                continue
            w.future.set_result(
                SpMVResponse.success(
                    w.request,
                    result.y if k == 1 else result.y[:, j],
                    format=matrix.format_name,
                    batch_size=k,
                    queue_ms=queue_ms[w.request.request_id],
                    execute_ms=execute_ms,
                    meta=meta,
                )
            )

    def _record_batch(self, size: int, *, coalesced: bool) -> None:
        self.metrics.counter("serve.batches").inc()
        self.metrics.counter("serve.batched_vectors").inc(size)
        self.metrics.histogram(
            "serve.batch_occupancy", buckets=OCCUPANCY_BUCKETS
        ).observe(float(size))
        if coalesced and size > 1:
            self.metrics.counter("serve.coalesced_batches").inc()

    @staticmethod
    def _result_meta(result: SpMVResult) -> Dict[str, Any]:
        timing = result.timing
        return {
            "device": result.device.name,
            "model_time_us": timing.time * 1e6,
            "model_gflops": timing.gflops,
            "fallback_used": bool(result.fallback_used),
        }

    # -- introspection --------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._inflight

    @property
    def accepting(self) -> bool:
        return self._accepting

    def batch_occupancy(self) -> float:
        """Lifetime mean vectors per flushed micro-batch."""
        return self._batcher.mean_occupancy

    def stats(self) -> Dict[str, Any]:
        """JSON-able operational snapshot (the ``stats`` op payload)."""
        return {
            "uptime_s": time.time() - self.started_at,
            "accepting": self._accepting,
            "queue_depth": self._inflight,
            "max_queue": self.config.max_queue,
            "batches": self._batcher.batches_flushed,
            "batched_vectors": self._batcher.items_flushed,
            "batch_occupancy": self.batch_occupancy(),
            "pool": self.pool.describe(),
            "plan_cache": self.pool.plan_cache.stats(),
            "config": self.config.describe(),
        }

    def prometheus(self) -> str:
        """The metrics registry in Prometheus exposition format."""
        from ..telemetry.exporters import prometheus_text

        return prometheus_text(self.metrics.snapshot())

    # -- lifecycle ------------------------------------------------------
    async def shutdown(self) -> None:
        """Graceful drain: close admission, flush windows, wait for
        in-flight work, release the executor and the process pools."""
        if self._closed:
            return
        self._accepting = False
        self._drained = asyncio.Event()
        if self._inflight == 0:
            self._drained.set()
        self._batcher.flush_all()
        try:
            await asyncio.wait_for(
                self._drained.wait(), timeout=self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:
            self.metrics.counter("serve.drain_timeouts").inc()
        await self._batcher.join()
        self._closed = True
        self._executor.shutdown(wait=True)
        # The atexit hook would catch these eventually; a graceful stop
        # must not leave worker processes running until then.
        from ..exec.workers import shutdown_pools

        shutdown_pools()


# ---------------------------------------------------------------------------
# NDJSON TCP front end
# ---------------------------------------------------------------------------


class SpMVServer:
    """Newline-delimited JSON protocol over TCP around a ServerCore.

    One frame per line; every frame carries an ``op``:

    ========== =====================================================
    ``spmv``    an :class:`SpMVRequest` wire frame → SpMVResponse frame
    ``ping``    liveness → ``{"ok": true, "op": "ping"}``
    ``list``    pooled matrices → ``{"matrices": [...]}``
    ``stats``   operational snapshot → ``{"stats": {...}}``
    ``metrics`` Prometheus text → ``{"prometheus": "..."}``
    ``shutdown`` graceful drain + server stop (ack first)
    ========== =====================================================

    ``spmv`` frames are handled each in their own task, so a single
    connection pipelining N requests gets the same micro-batching as N
    concurrent connections; responses carry the request ``id`` and may
    arrive out of order.
    """

    def __init__(self, pool: MatrixPool, config: Optional[ServerConfig] = None):
        self.config = config if config is not None else ServerConfig()
        self.core = ServerCore(pool, self.config)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        #: Open connections: each handler task and its writer.
        self._connections: "dict[asyncio.Task, asyncio.StreamWriter]" = {}

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None or not self._server.sockets:
            raise ValidationError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def running(self) -> bool:
        return self._server is not None

    async def start(self) -> "SpMVServer":
        if self._server is not None:
            raise ValidationError("server is already started")
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes,
        )
        return self

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` frame) fires, then
        drain gracefully."""
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        await self._stopping.wait()
        await self._shutdown()

    def stop(self) -> None:
        """Request a graceful stop (safe from any task on the loop)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        await self.core.shutdown()
        for task in list(self._conn_tasks):
            task.cancel()
        # A handler parked in readline on an idle connection would be
        # cancelled by the loop's teardown; closing its transport hands
        # it EOF instead, so it returns normally.
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            await asyncio.wait(
                list(self._connections), timeout=self.config.drain_timeout_s
            )
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # -- protocol -------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        spmv_tasks: "set[asyncio.Task]" = set()
        me = asyncio.current_task()
        assert me is not None  # start_server runs each handler as a task
        self._connections[me] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer, write_lock,
                        self._error_frame(
                            None,
                            f"frame exceeds max_line_bytes="
                            f"{self.config.max_line_bytes}",
                        ),
                    )
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    frame = json.loads(text)
                except json.JSONDecodeError as exc:
                    await self._send(
                        writer, write_lock,
                        self._error_frame(None, f"malformed JSON: {exc}"),
                    )
                    continue
                stop_reading = await self._dispatch(
                    frame, writer, write_lock, spmv_tasks
                )
                if stop_reading:
                    break
            if spmv_tasks:
                await asyncio.gather(*spmv_tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished; in-flight batches resolve without it
        finally:
            for t in spmv_tasks:
                if not t.done():
                    t.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            finally:
                self._connections.pop(me, None)

    async def _dispatch(
        self,
        frame: Any,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        spmv_tasks: "set[asyncio.Task]",
    ) -> bool:
        """Handle one frame; returns True when the reader should stop."""
        op = frame.get("op") if isinstance(frame, dict) else None
        if op == "spmv":
            task = asyncio.get_running_loop().create_task(
                self._handle_spmv(frame, writer, write_lock)
            )
            spmv_tasks.add(task)
            task.add_done_callback(spmv_tasks.discard)
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
            return False
        if op == "ping":
            await self._send(writer, write_lock, {
                "op": "ping", "ok": True, "accepting": self.core.accepting,
            })
            return False
        if op == "list":
            await self._send(writer, write_lock, {
                "op": "list", "ok": True, "matrices": self.core.pool.describe(),
            })
            return False
        if op == "stats":
            await self._send(writer, write_lock, {
                "op": "stats", "ok": True, "stats": self.core.stats(),
            })
            return False
        if op == "metrics":
            await self._send(writer, write_lock, {
                "op": "metrics", "ok": True,
                "prometheus": self.core.prometheus(),
            })
            return False
        if op == "shutdown":
            await self._send(writer, write_lock, {
                "op": "shutdown", "ok": True, "draining": True,
            })
            self.stop()
            return True
        await self._send(
            writer, write_lock,
            self._error_frame(
                frame.get("id") if isinstance(frame, dict) else None,
                f"unknown op {op!r}",
            ),
        )
        return False

    async def _handle_spmv(
        self,
        frame: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            request = SpMVRequest.from_wire(frame)
        except ReproError as exc:
            await self._send(
                writer, write_lock, self._error_frame(frame.get("id"), str(exc))
            )
            return
        response = await self.core.submit(request)
        await self._send(writer, write_lock, response.to_wire())

    @staticmethod
    def _error_frame(request_id: Any, message: str) -> Dict[str, Any]:
        return {
            "op": "spmv" if request_id is not None else "error",
            "id": request_id,
            "status": "error",
            "ok": False,
            "error": message,
            "error_type": "ValidationError",
        }

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame: Dict[str, Any],
    ) -> None:
        data = (json.dumps(frame) + "\n").encode("utf-8")
        async with write_lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # response undeliverable; the request itself completed


def serve(pool: MatrixPool, config: Optional[ServerConfig] = None) -> None:
    """Run a server until interrupted (the ``repro serve`` entry point)."""

    async def _main() -> None:
        server = SpMVServer(pool, config)
        await server.start()
        sock = server.port
        print(f"repro serve: listening on {server.config.host}:{sock} "
              f"({len(pool)} matrices pooled)", flush=True)
        try:
            await server.serve_until_stopped()
        except asyncio.CancelledError:
            await server._shutdown()
            raise

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shut down", flush=True)
