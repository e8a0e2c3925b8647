"""The typed request/result schema of the serving layer — one source of
truth for wire frames, in-process calls and CLI output.

Three frozen dataclasses define the entire public contract:

* :class:`SpMVRequest` — what a tenant asks for: a pooled matrix by
  name, an ``x`` vector (or a ``(n, k)`` batch), the tenant identity and
  optional per-request :class:`~repro.exec.policy.ExecutionPolicy`
  overrides.
* :class:`SpMVResponse` — what every execution path returns: the product
  (bit-identical to a direct :func:`~repro.kernels.dispatch.run_spmv`),
  a three-valued ``status`` (``ok`` / ``rejected`` / ``error``), the
  micro-batch it rode in and server-side timing attribution.
* :class:`ServerConfig` — the server's knobs: bind address, admission
  bound, micro-batch window/size, executor width and default policy.

The same objects serialize to the newline-delimited JSON wire protocol
(:meth:`SpMVRequest.to_wire` / :meth:`SpMVResponse.from_wire`), drive
the in-process :meth:`~repro.serve.server.ServerCore.submit` fast path,
and back ``repro spmv --json`` CLI output — so a payload captured from
any of the three is parseable by the same ``from_wire``.

JSON float round-tripping is exact in Python (``repr`` shortest
round-trip), so a vector surviving the wire is bit-identical to the
array that entered it; the serve test suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..errors import ValidationError
from ..exec.policy import ExecutionPolicy

__all__ = [
    "SpMVRequest",
    "SpMVResponse",
    "ServerConfig",
    "POLICY_OVERRIDE_FIELDS",
    "policy_key",
    "apply_policy_overrides",
]

#: Wire schema version; bumped on incompatible frame changes.
WIRE_VERSION = 1

#: ExecutionPolicy fields a request may override per call. Deliberately
#: the JSON-scalar subset: object-valued fields (fallback containers,
#: explicit plans, chaos policies) cannot cross the wire.
POLICY_OVERRIDE_FIELDS = (
    "engine",
    "verify",
    "devices",
    "partitioner",
    "comms",
    "backend",
    "compute_backend",
)


def policy_key(overrides: Optional[Mapping[str, Any]]) -> Tuple:
    """Canonical identity of a request's policy overrides.

    Two spellings of the same overrides map to one key. Unknown fields
    raise a typed error at admission rather than being silently dropped
    into a shared batch; the values are checked when the server builds
    the request's policy (:func:`apply_policy_overrides`).
    """
    if not overrides:
        return ()
    bad = sorted(set(overrides) - set(POLICY_OVERRIDE_FIELDS))
    if bad:
        raise ValidationError(
            f"unknown policy override(s) {bad}; allowed: "
            f"{', '.join(POLICY_OVERRIDE_FIELDS)}"
        )
    return tuple(sorted((k, overrides[k]) for k in overrides))


def apply_policy_overrides(
    policy: ExecutionPolicy, overrides: Optional[Mapping[str, Any]]
) -> ExecutionPolicy:
    """The server's default policy with a request's overrides applied
    (full :class:`ExecutionPolicy` validation re-runs)."""
    if not overrides:
        return policy
    policy_key(overrides)  # reject unknown fields with the typed error
    return policy.with_(**overrides)


def _as_x(value: Any) -> np.ndarray:
    x = np.asarray(value, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValidationError(
            f"request x must be a 1-D vector or a (n, k) batch, "
            f"got ndim={x.ndim}"
        )
    if x.size == 0:
        raise ValidationError("request x is empty")
    return x


@dataclass(frozen=True)
class SpMVRequest:
    """One tenant request: ``y = A @ x`` against a pooled matrix.

    ``x`` with ``ndim == 1`` is a single-vector request eligible for
    micro-batching with concurrent requests for the same
    ``(matrix, policy)``; ``ndim == 2`` is an explicit ``(n, k)``
    multi-RHS batch executed as one ``run_spmm`` without coalescing.
    """

    request_id: str
    matrix: str
    x: np.ndarray = field(compare=False)
    tenant: str = "default"
    #: scalar ExecutionPolicy overrides (see POLICY_OVERRIDE_FIELDS).
    policy: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ValidationError("request_id must be non-empty")
        if not self.matrix:
            raise ValidationError("request names no matrix")
        object.__setattr__(self, "x", _as_x(self.x))
        policy_key(self.policy)  # validate override names eagerly

    @property
    def is_batch(self) -> bool:
        return self.x.ndim == 2

    @property
    def n_vectors(self) -> int:
        return 1 if self.x.ndim == 1 else int(self.x.shape[1])

    def to_wire(self) -> Dict[str, Any]:
        """The request as a JSON-able wire frame (``op: "spmv"``)."""
        frame: Dict[str, Any] = {
            "v": WIRE_VERSION,
            "op": "spmv",
            "id": self.request_id,
            "matrix": self.matrix,
            "tenant": self.tenant,
            "x": self.x.tolist(),
        }
        if self.policy:
            frame["policy"] = dict(self.policy)
        return frame

    @classmethod
    def from_wire(cls, frame: Mapping[str, Any]) -> "SpMVRequest":
        """Parse a wire frame; raises :class:`ValidationError` on any
        missing/ill-typed field (never a bare ``KeyError``)."""
        if not isinstance(frame, Mapping):
            raise ValidationError(
                f"request frame must be a JSON object, got "
                f"{type(frame).__name__}"
            )
        missing = [k for k in ("id", "matrix", "x") if k not in frame]
        if missing:
            raise ValidationError(f"request frame missing field(s) {missing}")
        policy = frame.get("policy")
        if policy is not None and not isinstance(policy, Mapping):
            raise ValidationError("request policy must be a JSON object")
        try:
            x = _as_x(frame["x"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"request x is not numeric: {exc}") from exc
        return cls(
            request_id=str(frame["id"]),
            matrix=str(frame["matrix"]),
            x=x,
            tenant=str(frame.get("tenant", "default")),
            policy=dict(policy) if policy else None,
        )


@dataclass(frozen=True)
class SpMVResponse:
    """The one result record of the serving layer.

    ``status`` is three-valued: ``"ok"`` (y bit-identical to a direct
    ``run_spmv``/``run_spmm`` of the same inputs), ``"rejected"``
    (admission control refused the request before execution — the
    HTTP-429 analogue, carrying no ``y``) and ``"error"`` (execution
    raised; ``error_type``/``error`` carry the typed failure).

    Every execution path attaches ``y`` to ok responses; a *summary*
    frame (``to_wire(include_y=False)``, e.g. ``repro spmv --json``)
    elides it, so an ok response parsed from such a frame has
    ``y is None``.
    """

    request_id: str
    status: str
    matrix: str = ""
    format: str = ""
    tenant: str = "default"
    y: Optional[np.ndarray] = field(default=None, compare=False)
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: how many single-vector requests shared this request's run_spmm call
    batch_size: int = 1
    #: admission-to-execution-start wait, milliseconds
    queue_ms: float = 0.0
    #: execution wallclock of the (possibly shared) kernel call, ms
    execute_ms: float = 0.0
    #: free-form extras (timing breakdowns, counters, server identity)
    meta: Dict[str, Any] = field(default_factory=dict, compare=False)

    _STATUSES = ("ok", "rejected", "error")

    def __post_init__(self) -> None:
        if self.status not in self._STATUSES:
            raise ValidationError(
                f"response status must be one of {self._STATUSES}, "
                f"got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    # -- constructors ---------------------------------------------------
    @classmethod
    def success(
        cls,
        request: SpMVRequest,
        y: np.ndarray,
        *,
        format: str = "",
        batch_size: int = 1,
        queue_ms: float = 0.0,
        execute_ms: float = 0.0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> "SpMVResponse":
        return cls(
            request_id=request.request_id,
            status="ok",
            matrix=request.matrix,
            format=format,
            tenant=request.tenant,
            y=np.asarray(y),
            batch_size=batch_size,
            queue_ms=queue_ms,
            execute_ms=execute_ms,
            meta=dict(meta) if meta else {},
        )

    @classmethod
    def failure(
        cls,
        request: SpMVRequest,
        exc: BaseException,
        *,
        status: str = "error",
        queue_ms: float = 0.0,
    ) -> "SpMVResponse":
        return cls(
            request_id=request.request_id,
            status=status,
            matrix=request.matrix,
            tenant=request.tenant,
            error=str(exc),
            error_type=type(exc).__name__,
            queue_ms=queue_ms,
        )

    # -- wire -----------------------------------------------------------
    def to_wire(self, include_y: bool = True) -> Dict[str, Any]:
        """The response as a JSON-able frame.

        ``include_y=False`` elides the product vector (CLI summaries,
        logs); everything else round-trips through :meth:`from_wire`.
        """
        frame: Dict[str, Any] = {
            "v": WIRE_VERSION,
            "op": "spmv",
            "id": self.request_id,
            "status": self.status,
            "ok": self.ok,
            "matrix": self.matrix,
            "format": self.format,
            "tenant": self.tenant,
            "batch_size": self.batch_size,
            "queue_ms": self.queue_ms,
            "execute_ms": self.execute_ms,
        }
        if self.y is not None and include_y:
            frame["y"] = self.y.tolist()
        if self.error is not None:
            frame["error"] = self.error
            frame["error_type"] = self.error_type
        if self.meta:
            frame["meta"] = self.meta
        return frame

    @classmethod
    def from_wire(cls, frame: Mapping[str, Any]) -> "SpMVResponse":
        if not isinstance(frame, Mapping) or "status" not in frame:
            raise ValidationError("response frame missing 'status'")
        y = frame.get("y")
        return cls(
            request_id=str(frame.get("id", "")),
            status=str(frame["status"]),
            matrix=str(frame.get("matrix", "")),
            format=str(frame.get("format", "")),
            tenant=str(frame.get("tenant", "default")),
            y=np.asarray(y, dtype=np.float64) if y is not None else None,
            error=frame.get("error"),
            error_type=frame.get("error_type"),
            batch_size=int(frame.get("batch_size", 1)),
            queue_ms=float(frame.get("queue_ms", 0.0)),
            execute_ms=float(frame.get("execute_ms", 0.0)),
            meta=dict(frame.get("meta") or {}),
        )


@dataclass(frozen=True)
class ServerConfig:
    """Complete configuration of one :class:`~repro.serve.server.SpMVServer`.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` binds an ephemeral port (the bound port
        is readable from ``server.port`` once started).
    device:
        Simulated device every pooled execution runs on.
    max_queue:
        Admission bound: the maximum number of requests admitted but not
        yet completed. Request ``max_queue + 1`` is rejected with a
        ``status="rejected"`` response (:class:`~repro.errors.AdmissionError`
        in-process) instead of queueing unboundedly.
    batch_window_ms:
        Micro-batch coalescing window: the first single-vector request
        for a ``(matrix, policy)`` key opens a batch that flushes after
        this many milliseconds or at ``max_batch``, whichever is first.
        ``0`` flushes on the next event-loop tick (batching across
        concurrent arrivals still happens; idle waiting does not).
    max_batch:
        Upper bound on coalesced vectors per ``run_spmm`` call.
    executor_threads:
        Width of the thread pool the (GIL-releasing NumPy) kernel calls
        run on, i.e. how many distinct micro-batches execute in parallel.
    drain_timeout_s:
        Graceful-shutdown budget: how long :meth:`ServerCore.shutdown`
        waits for admitted requests to finish before cancelling them.
    max_line_bytes:
        Transport frame limit for one NDJSON line (vectors are plain
        JSON arrays; size this to your largest matrix dimension).
    policy:
        Default :class:`ExecutionPolicy` executions run under; requests
        may override the scalar fields (POLICY_OVERRIDE_FIELDS).
    """

    host: str = "127.0.0.1"
    port: int = 0
    device: str = "k20"
    max_queue: int = 256
    batch_window_ms: float = 2.0
    max_batch: int = 32
    executor_threads: int = 4
    drain_timeout_s: float = 10.0
    max_line_bytes: int = 32 * 1024 * 1024
    policy: Optional[ExecutionPolicy] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValidationError("max_queue must be >= 1")
        if self.max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if self.batch_window_ms < 0:
            raise ValidationError("batch_window_ms must be >= 0")
        if self.executor_threads < 1:
            raise ValidationError("executor_threads must be >= 1")
        if self.drain_timeout_s < 0:
            raise ValidationError("drain_timeout_s must be >= 0")
        if self.max_line_bytes < 4096:
            raise ValidationError("max_line_bytes must be >= 4096")
        if not (0 <= self.port <= 65535):
            raise ValidationError(f"port must be in [0, 65535], got {self.port}")

    def resolved_policy(self) -> ExecutionPolicy:
        """The default policy, materialized (``None`` → default policy)."""
        return self.policy if self.policy is not None else ExecutionPolicy()

    def with_(self, **updates: Any) -> "ServerConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **updates)

    def describe(self) -> Dict[str, Any]:
        """JSON-able summary (the policy reduced to its describe dict)."""
        return {
            "host": self.host,
            "port": self.port,
            "device": self.device,
            "max_queue": self.max_queue,
            "batch_window_ms": self.batch_window_ms,
            "max_batch": self.max_batch,
            "executor_threads": self.executor_threads,
            "drain_timeout_s": self.drain_timeout_s,
            "policy": self.resolved_policy().describe(),
        }
