"""Unified metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` gathers everything the simulator can measure
behind a single snapshot API:

* per-kernel :class:`~repro.gpu.counters.KernelCounters` totals (DRAM
  bytes by stream, flops, decode ops, launches), labelled by format and
  device — emitted by ``repro.kernels.base.SpMVKernel.run``;
* texture-cache request/fetch statistics from
  :class:`repro.gpu.texcache.TextureCacheModel`;
* bitstream encode statistics from :func:`repro.bitstream.packing.pack_slice`
  and :func:`~repro.bitstream.packing.unpack_slice`;
* the per-process integrity counters
  (:data:`repro.integrity.counters.COUNTERS`), folded in at snapshot time.

Collection is off by default; hot-path emitters check :func:`collecting`
(one module-global read) before doing any work, so the disabled path stays
allocation-free. ``telemetry.enable()`` switches both tracing and metric
collection on together.
"""

from __future__ import annotations

import bisect
import threading
from collections import deque
from typing import Any, Deque, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "registry",
    "collecting",
    "start_collecting",
    "stop_collecting",
    "record_kernel",
    "record_texcache",
    "record_bitstream_encode",
    "record_bitstream_decode",
    "record_plan_build",
    "record_plan_cache",
    "record_jit_compile",
    "record_retune",
    "record_exec",
    "record_worker_event",
    "record_shard_latency",
    "merge_snapshots",
]

#: Default histogram buckets for byte-sized observations (powers of 4).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(4.0 ** k for k in range(2, 14))

#: Buckets for latency observations in seconds (10us .. ~84s, powers of 4).
LATENCY_BUCKETS: Tuple[float, ...] = tuple(1e-5 * 4.0 ** k for k in range(12))

#: Sliding-window size of raw samples retained per histogram for exact
#: percentiles. Bounded so long-lived registries stay O(1) per series.
DEFAULT_WINDOW = 2048


def _escape_label_value(value: str) -> str:
    """Escape a label value for the canonical series key (and for the
    Prometheus text format, which uses the same ``\\``/``"``/newline
    escapes)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
    return "".join(out)


def _label_key(name: str, labels: Optional[Mapping[str, str]]) -> str:
    """Canonical series key: ``name`` or ``name{a="x",b="y"}`` (sorted,
    label values escaped so quotes/backslashes/newlines stay parseable)."""
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{_escape_label_value(labels[k])}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def _parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`_label_key`: ``name{a="x"}`` -> (name, {"a": "x"})."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    if not rest.endswith("}"):
        raise ValidationError(f"malformed series key {key!r}")
    labels: Dict[str, str] = {}
    body = rest[:-1]
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        label = body[i:eq]
        if body[eq + 1] != '"':
            raise ValidationError(f"malformed series key {key!r}")
        j = eq + 2
        raw = []
        while j < len(body):
            ch = body[j]
            if ch == "\\":
                raw.append(body[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ValidationError(f"malformed series key {key!r}")
        labels[label] = _unescape_label_value("".join(raw))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return name, labels


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics) with a bounded
    sliding window of raw samples for exact percentiles.

    The buckets serve the Prometheus exposition; :meth:`percentile`
    interpolates on the retained raw samples (the most recent ``window``
    observations) with NumPy's default linear method, so ``percentile(q)``
    is exactly ``numpy.percentile(samples, q)``.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "samples")

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        b = sorted(float(x) for x in buckets)
        if not b:
            raise ValidationError("histogram needs at least one bucket bound")
        if window < 1:
            raise ValidationError("histogram window must be >= 1")
        self.buckets: Tuple[float, ...] = tuple(b)
        self.counts = [0] * (len(b) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0
        self.samples: Deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        self.samples.append(value)

    def percentile(self, q: float) -> float:
        """Exact q-th percentile of the retained samples, q in [0, 100].

        Linear interpolation between closest ranks — bit-identical to
        ``numpy.percentile`` (default method) on the same window.
        """
        import numpy as np

        if not 0.0 <= q <= 100.0:
            raise ValidationError(f"percentile q must be in [0, 100], got {q!r}")
        if not self.samples:
            raise ValidationError(
                "histogram has no retained samples to take a percentile of"
            )
        return float(np.percentile(np.fromiter(self.samples, dtype=float), q))

    def merge_dict(self, other: Dict[str, Any]) -> None:
        """Fold a :meth:`to_dict` snapshot of another histogram into this
        one (bucket bounds must match)."""
        if tuple(float(b) for b in other["buckets"]) != self.buckets:
            raise ValidationError(
                "cannot merge histograms with different bucket bounds"
            )
        cumulative = other["cumulative"]
        previous = 0
        for i, cum in enumerate(cumulative):
            self.counts[i] += cum - previous
            previous = cum
        self.counts[-1] += other["count"] - previous
        self.sum += other["sum"]
        self.count += other["count"]
        for v in other.get("samples", ()):
            self.samples.append(float(v))

    def to_dict(self) -> Dict[str, Any]:
        cumulative = []
        running = 0
        for c in self.counts[:-1]:
            running += c
            cumulative.append(running)
        return {
            "buckets": list(self.buckets),
            "cumulative": cumulative,
            "sum": self.sum,
            "count": self.count,
            "samples": list(self.samples),
        }


class MetricsRegistry:
    """Thread-safe named registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create ---------------------------------------------------
    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        key = _label_key(name, labels)
        with self._lock:
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter()
            return c

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        key = _label_key(name, labels)
        with self._lock:
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = Gauge()
            return g

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = _label_key(name, labels)
        with self._lock:
            h = self._histograms.get(key)
            if h is None:
                h = self._histograms[key] = Histogram(buckets)
            return h

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Consistent copy: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` keyed by the canonical series key."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
            }

    def unified_snapshot(self) -> Dict[str, Any]:
        """:meth:`snapshot` plus the per-process integrity counters.

        The integrity layer predates the registry and keeps its own
        process-scope counters; this folds them in as gauges so one call
        sees the whole system.
        """
        snap = self.snapshot()
        from ..integrity.counters import COUNTERS  # lazy: avoid cycle

        integrity = COUNTERS.snapshot()
        snap["gauges"].update(
            {
                "integrity.verifications": float(integrity.verifications),
                "integrity.detections": float(integrity.detections),
                "integrity.fallbacks": float(integrity.fallbacks),
                "integrity.raised": float(integrity.raised),
            }
        )
        return snap

    def merge(
        self,
        snapshot: Mapping[str, Any],
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        ``labels`` (e.g. ``{"worker": "2"}``) are added to every merged
        series, so per-worker snapshots land as distinct labelled series
        instead of colliding with the coordinator's own. Counters and
        gauges add; histograms merge bucket counts, sums and retained
        samples. Merging the snapshots of N disjoint registries therefore
        yields exactly the sum of the N snapshots (the merged-equals-sum
        invariant exercised by the distributed-telemetry tests).
        """
        extra = dict(labels) if labels else {}
        for key, value in snapshot.get("counters", {}).items():
            name, lbl = _parse_key(key)
            lbl.update(extra)
            self.counter(name, lbl).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            name, lbl = _parse_key(key)
            lbl.update(extra)
            self.gauge(name, lbl).inc(value)
        for key, d in snapshot.get("histograms", {}).items():
            name, lbl = _parse_key(key)
            lbl.update(extra)
            self.histogram(name, lbl, buckets=d["buckets"]).merge_dict(d)

    def reset(self) -> None:
        """Drop every registered series (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide default registry.
REGISTRY = MetricsRegistry()

#: Registry currently receiving hot-path emissions (None = collection off).
_ACTIVE: Optional[MetricsRegistry] = None


def registry() -> MetricsRegistry:
    """The registry receiving emissions, or the default one when off."""
    return _ACTIVE if _ACTIVE is not None else REGISTRY


def collecting() -> bool:
    """True while hot-path metric emission is switched on."""
    return _ACTIVE is not None


def start_collecting(target: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Switch hot-path emission on, optionally into a private registry."""
    global _ACTIVE
    _ACTIVE = target if target is not None else REGISTRY
    return _ACTIVE


def stop_collecting() -> None:
    """Switch hot-path emission off."""
    global _ACTIVE
    _ACTIVE = None


# ----------------------------------------------------------------------
# Hot-path emission helpers. Each checks `collecting()` first so the
# disabled path is one global read; callers may also guard themselves.
# ----------------------------------------------------------------------
def record_kernel(format_name: str, device_name: str, counters: Any) -> None:
    """Fold one kernel launch's :class:`KernelCounters` into the registry."""
    reg = _ACTIVE
    if reg is None:
        return
    labels = {"format": format_name, "device": device_name}
    reg.counter("kernel.launches", labels).inc(counters.launches or 1)
    reg.counter("kernel.dram_bytes", labels).inc(counters.dram_bytes)
    reg.counter("kernel.index_bytes", labels).inc(counters.index_bytes)
    reg.counter("kernel.value_bytes", labels).inc(counters.value_bytes)
    reg.counter("kernel.x_bytes", labels).inc(counters.x_bytes)
    reg.counter("kernel.y_bytes", labels).inc(counters.y_bytes)
    reg.counter("kernel.aux_bytes", labels).inc(counters.aux_bytes)
    reg.counter("kernel.useful_flops", labels).inc(counters.useful_flops)
    reg.counter("kernel.issued_flops", labels).inc(counters.issued_flops)
    reg.counter("kernel.decode_ops", labels).inc(counters.decode_ops)
    reg.histogram("kernel.dram_bytes_per_launch", labels).observe(
        counters.dram_bytes
    )


def record_texcache(requests: int, fetches: int, line_bytes: int) -> None:
    """Texture-cache statistics for one block/warp access pattern."""
    reg = _ACTIVE
    if reg is None:
        return
    reg.counter("texcache.requests").inc(requests)
    reg.counter("texcache.fetches").inc(fetches)
    reg.counter("texcache.hits").inc(max(0, requests - fetches))
    reg.counter("texcache.bytes").inc(fetches * line_bytes)


def record_bitstream_encode(symbols: int, payload_bits: int) -> None:
    """One packed slice/interval on the encode side."""
    reg = _ACTIVE
    if reg is None:
        return
    reg.counter("bitstream.slices_encoded").inc()
    reg.counter("bitstream.symbols_written").inc(symbols)
    reg.counter("bitstream.payload_bits").inc(payload_bits)


def record_bitstream_decode(symbols: int) -> None:
    """One unpacked slice/interval on the host-side decode path."""
    reg = _ACTIVE
    if reg is None:
        return
    reg.counter("bitstream.slices_decoded").inc()
    reg.counter("bitstream.symbols_read").inc(symbols)


def record_plan_build(format_name: str, device_name: str, seconds: float) -> None:
    """One prepared-plan build (the one-time decode + accounting pass)."""
    reg = _ACTIVE
    if reg is None:
        return
    labels = {"format": format_name, "device": device_name}
    reg.counter("plan.builds", labels).inc()
    reg.counter("plan.build_seconds", labels).inc(seconds)


def record_exec(
    format_name: str,
    device_name: str,
    devices: int,
    counters: Any,
    comms: Any = None,
) -> None:
    """One sharded multi-device execution (merged view).

    The per-shard launches already emitted through :func:`record_kernel`;
    this adds the engine-level series — executions by shard count and the
    modeled interconnect traffic — so dashboards can separate kernel
    work from communication.
    """
    reg = _ACTIVE
    if reg is None:
        return
    labels = {
        "format": format_name,
        "device": device_name,
        "devices": str(devices),
    }
    reg.counter("exec.sharded_runs", labels).inc()
    reg.counter("exec.interconnect_bytes", labels).inc(
        counters.interconnect_bytes
    )
    if comms is not None:
        reg.counter(f"exec.comms_{comms.strategy}_runs", labels).inc()
        reg.counter("exec.messages", labels).inc(comms.messages)


def record_worker_event(event: str, count: int = 1) -> None:
    """A process-pool recovery event: worker_deaths, shard_reassignments,
    retries or respawns — emitted once per sharded call with the call's
    recovery totals, so dashboards see ``exec.worker_deaths`` etc."""
    reg = _ACTIVE
    if reg is None:
        return
    reg.counter(f"exec.{event}").inc(count)


def record_shard_latency(worker: str, seconds: float) -> None:
    """One shard call's wallclock, recorded into the per-worker latency
    histogram ``exec.shard_latency_seconds{worker=...}`` (p50/p95/p99 via
    :meth:`Histogram.percentile`)."""
    reg = _ACTIVE
    if reg is None:
        return
    reg.histogram(
        "exec.shard_latency_seconds",
        {"worker": str(worker)},
        buckets=LATENCY_BUCKETS,
    ).observe(seconds)


def merge_snapshots(snapshots: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Pure sum of registry snapshots (no labelling): counters and gauges
    add per key; histograms merge per key. Used to state the
    merged-equals-sum invariant independently of :meth:`MetricsRegistry.merge`.
    """
    reg = MetricsRegistry()
    for snap in snapshots:
        reg.merge(snap)
    return reg.snapshot()


def record_plan_cache(event: str, count: int = 1) -> None:
    """A plan-cache lifecycle event: hits/misses/builds/evictions/invalidations."""
    reg = _ACTIVE
    if reg is None:
        return
    reg.counter(f"plan_cache.{event}").inc(count)


def record_jit_compile(format_name: str, device_name: str, seconds: float) -> None:
    """One warm-compile pass of a plan's compiled replay at prepare() time."""
    reg = _ACTIVE
    if reg is None:
        return
    labels = {"format": format_name, "device": device_name}
    reg.counter("plan.jit_builds", labels).inc()
    reg.counter("plan.jit_compile_seconds", labels).inc(seconds)


def record_retune(event: str, format_name: str = "", count: int = 1) -> None:
    """An online-autotuning lifecycle event (``exec.retune.<event>``).

    Events: ``evaluations`` (a retune window closed and was scored),
    ``triggered`` (the session was re-planned onto a new candidate),
    ``kept`` (the current configuration is already the measured best) and
    ``skipped_hysteresis`` (a predicted win existed but was under the
    hysteresis threshold).
    """
    reg = _ACTIVE
    if reg is None:
        return
    labels = {"format": format_name} if format_name else None
    reg.counter(f"exec.retune.{event}", labels).inc(count)
