"""Cross-process telemetry: worker-side capture and coordinator-side merge.

The process backend (``ExecutionPolicy(backend="process")``) runs each
shard inside a separate worker process. Spans and metric samples recorded
there would die with the worker, so this module defines the wire format
and the two halves of the distributed-telemetry pipeline:

**Worker side** (:func:`capture`, :func:`build_batch`) — each task that
arrives with a trace context ``(trace_id, parent_span_id)`` runs under a
private :class:`~repro.telemetry.tracer.Tracer` and
:class:`~repro.telemetry.metrics.MetricsRegistry`, then ships one *batch*
dict inside the shard's ``done`` result message::

    {
      "worker": 2,                # worker slot (one lane per worker)
      "pid": 41234,               # OS pid of the worker process
      "shard": 2, "attempt": 0,   # which task produced this batch
      "trace_id": "9f3a...",      # propagated from the coordinator
      "parent_span_id": 7,        # coordinator span the roots nest under
      "t0_wall": 1723e9,          # wall-clock anchor of the worker tracer
      "spans": [Span.to_dict()],  # ts_us relative to the worker's t0
      "snapshot": registry.snapshot(),
      "elapsed_s": 0.0123,        # shard call wallclock
    }

**Coordinator side** (:func:`graft_spans`, :func:`merge_batches`) —
accepted batches (those whose message's rows the coordinator accepted;
stale and failed attempts are dropped with their message) are grafted
into the live tracer
with ids remapped and timestamps rebased through the wall-clock anchors
(``offset = batch.t0_wall - local.t0_wall``; ``perf_counter`` origins are
per-process and otherwise incomparable), and their registry snapshots are
folded into the coordinator registry via
:meth:`MetricsRegistry.merge(snapshot, labels={"worker": ...})
<repro.telemetry.metrics.MetricsRegistry.merge>`.

The merged registry provably equals the sum of the per-worker snapshots
(see :func:`repro.telemetry.metrics.merge_snapshots`), and the grafted
spans carry ``worker``/``worker_pid`` attributes that the Chrome-trace
exporter turns into one process lane per worker.

Zero-overhead contract: when telemetry is disabled the coordinator sends
``None`` as the trace context, the worker skips capture entirely, and
the result message carries ``None`` for its batch.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .metrics import MetricsRegistry
from .tracer import Span, Tracer

__all__ = [
    "capture",
    "build_batch",
    "graft_spans",
    "merge_batches",
]


class capture:
    """Worker-side scoped capture for one task.

    Context manager that creates a private tracer (inheriting the
    coordinator's ``trace_id``) and registry, and exposes them as
    ``cap.tracer`` / ``cap.registry``. The task body runs under a root
    span named ``worker.task`` so every kernel/verify span the dispatch
    layer opens nests beneath it.
    """

    __slots__ = ("tracer", "registry", "trace_id", "root")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.tracer = Tracer(trace_id=trace_id)
        self.registry = MetricsRegistry()
        self.root: Optional[Span] = None

    def __enter__(self) -> "capture":
        from . import metrics, tracer as tracer_mod

        tracer_mod.enable_tracing(self.tracer)
        metrics.start_collecting(self.registry)
        self.root = self.tracer.start("worker.task", category="worker")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        from . import metrics, tracer as tracer_mod

        if self.root is not None:
            if exc_type is not None:
                self.root.attrs.setdefault(
                    "error", f"{exc_type.__name__}: {exc}"
                )
            self.tracer.finish(self.root)
        tracer_mod.disable_tracing()
        metrics.stop_collecting()
        return False


def build_batch(
    cap: capture,
    *,
    worker: int,
    shard: int,
    attempt: int,
    parent_span_id: Optional[int],
    elapsed_s: float,
) -> Dict[str, Any]:
    """Serialize one task's capture into the wire-format batch dict."""
    return {
        "worker": int(worker),
        "pid": os.getpid(),
        "shard": int(shard),
        "attempt": int(attempt),
        "trace_id": cap.trace_id,
        "parent_span_id": parent_span_id,
        "t0_wall": cap.tracer.t0_wall,
        "spans": [s.to_dict() for s in cap.tracer.spans],
        "snapshot": cap.registry.snapshot(),
        "elapsed_s": float(elapsed_s),
    }


def _rebuild_counters(d: Mapping[str, Any]) -> Any:
    """Reconstruct a KernelCounters from a Span.to_dict counters block.

    ``to_dict`` serializes a field subset, so filter to the dataclass's
    declared fields rather than splatting blindly.
    """
    from ..gpu.counters import KernelCounters

    names = {f.name for f in dataclasses.fields(KernelCounters)}
    return KernelCounters(**{k: int(v) for k, v in d.items() if k in names})


def graft_spans(
    tracer: Tracer,
    batch: Mapping[str, Any],
    parent: Optional[Span] = None,
) -> List[Span]:
    """Graft a worker batch's spans into a live coordinator tracer.

    Span ids are remapped into the coordinator's id space, parent links
    are preserved within the batch, root spans are attached to ``parent``
    (or, failing that, to the batch's ``parent_span_id`` if that span is
    still known to the tracer), and timestamps are rebased through the
    wall-clock anchors so worker spans land on the coordinator timeline.
    Every grafted span gains ``worker``/``worker_pid``/``trace_id``
    attributes — the Chrome-trace exporter keys its per-worker process
    lanes off these. Returns the grafted spans in start order.
    """
    offset_s = float(batch["t0_wall"]) - tracer.t0_wall
    if parent is None and batch.get("parent_span_id") is not None:
        wanted = batch["parent_span_id"]
        for s in tracer.spans:
            if s.span_id == wanted:
                parent = s
                break
    base_depth = parent.depth + 1 if parent is not None else 0

    id_map: Dict[int, int] = {}
    grafted: List[Span] = []
    for d in batch["spans"]:
        new_id = tracer._next_id
        tracer._next_id += 1
        id_map[d["span_id"]] = new_id
        old_parent = d.get("parent_id")
        if old_parent is not None and old_parent in id_map:
            parent_id = id_map[old_parent]
            depth = base_depth + d.get("depth", 0)
        else:
            parent_id = parent.span_id if parent is not None else None
            depth = base_depth
        t_start = tracer.t0 + offset_s + d["ts_us"] / 1e6
        s = Span(
            name=d["name"],
            category=d.get("category", ""),
            span_id=new_id,
            parent_id=parent_id,
            depth=depth,
            t_start=t_start,
            tracer=tracer,
            attrs=d.get("attrs"),
        )
        s.t_end = t_start + d.get("dur_us", 0.0) / 1e6
        s.attrs.update(
            worker=int(batch["worker"]),
            worker_pid=int(batch["pid"]),
            trace_id=batch.get("trace_id"),
        )
        if "counters" in d:
            s.counters = _rebuild_counters(d["counters"])
        if "timing" in d:
            s.timing = dict(d["timing"])
        if "events" in d:
            s.events = [dict(e) for e in d["events"]]
        tracer.spans.append(s)
        grafted.append(s)
    return grafted


def merge_batches(
    registry: MetricsRegistry,
    batches: Sequence[Mapping[str, Any]],
    device_names: Optional[Sequence[str]] = None,
) -> None:
    """Fold every batch's registry snapshot into ``registry``.

    Each batch's series gain a ``worker=<slot>`` label (and, when
    ``device_names`` is given, ``device=<name>`` for the shard's device),
    so per-worker series stay distinct from the coordinator's own and the
    merged total equals the sum of the per-worker snapshots. Batches are
    merged in worker order for deterministic series creation.
    """
    for batch in sorted(batches, key=lambda b: (b["worker"], b["attempt"])):
        labels = {"worker": str(batch["worker"])}
        if device_names is not None:
            shard = batch.get("shard")
            if shard is not None and 0 <= int(shard) < len(device_names):
                labels["device"] = str(device_names[int(shard)])
        registry.merge(batch["snapshot"], labels)
