"""Shared plumbing of the repo benchmark: placement, clocks, spans,
statistics and the result line.

Nothing here imports ``repro``: the entry point puts the checkout's
``src`` on ``sys.path`` first, so every module of the benchmark measures
the program of the checkout it runs in.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


def placement() -> Tuple[Set[int], Set[int]]:
    """Disjoint CPU sets ``(program, generator)``.

    With two or more usable CPUs the program gets the first and the load
    generator the second, so the scheduler never migrates one onto the
    other's core. With one CPU both share it (recorded in the report).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        return {cpus[0]}, {cpus[1]}
    return set(cpus), set(cpus)


def pin(cpus: Iterable[int], pid: int = 0) -> None:
    os.sched_setaffinity(pid, set(cpus))


def environment(program: Set[int], generator: Set[int]) -> Dict[str, object]:
    """What the result was measured on, recorded with every result."""

    def importable(name: str) -> Optional[str]:
        try:
            module = __import__(name)
        except ImportError:
            return None
        return str(getattr(module, "__version__", "yes"))

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": sorted(os.sched_getaffinity(0)),
        "program_cpus": sorted(program),
        "generator_cpus": sorted(generator),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importable("scipy"),
        "numba": importable("numba"),
        "machine": platform.machine(),
    }


def reset_peak_rss(pid: int) -> None:
    """Restart a process's VmHWM from its current resident set, so the
    peak covers the measured phases and not set-up or references.

    In this process, freed heap is first returned to the system, so the
    restart point does not depend on what set-up left fragmented.
    """
    if pid == os.getpid():
        gc.collect()
        ctypes.CDLL(None).malloc_trim(0)
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")


class StealMeter:
    """Share of CPU time the hypervisor took from this machine's CPUs
    while the meter ran (``steal`` in ``/proc/stat``)."""

    def __init__(self) -> None:
        self.start = self._read()

    @staticmethod
    def _read() -> Tuple[int, int]:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
        return fields[7], sum(fields)

    def share(self) -> float:
        steal, total = self._read()
        return (steal - self.start[0]) / max(1, total - self.start[1])


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span recorder: ``(name, start_ns, end_ns, parent, op)``.

    ``parent`` is the index of the enclosing span (``-1`` for a root) and
    ``op`` the id of the operation the span belongs to. Spans are kept in
    memory and written out once, when the benchmark ends.
    """

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: int = -1):
        index = self.open(name, op)
        try:
            yield index
        finally:
            self.close(index)

    def open(self, name: str, op: int = -1) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, time.perf_counter_ns(), 0, parent, op])
        self._stack.append(len(self.records) - 1)
        return len(self.records) - 1

    def close(self, index: int) -> None:
        self.records[index][2] = time.perf_counter_ns()
        self._stack.remove(index)

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: int = -1, op: int = -1) -> int:
        """Record a finished span (for overlapping async operations)."""
        self.records.append([name, int(start_ns), int(end_ns), parent, op])
        return len(self.records) - 1

    def durations_ms(self, name: str) -> List[float]:
        return [(r[2] - r[1]) / 1e6 for r in self.records if r[0] == name]

    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the part of it
        its child spans cover (children do not overlap here)."""
        child = [0] * len(self.records)
        for r in self.records:
            if r[3] >= 0:
                child[r[3]] += r[2] - r[1]
        totals: Dict[str, float] = {}
        for i, r in enumerate(self.records):
            totals[r[0]] = totals.get(r[0], 0.0) + (r[2] - r[1] - child[i]) / 1e6
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                 "spans": self.records},
                fh,
            )


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def pct(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (NumPy's linear method) of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def supported(values: Sequence[float], q: float) -> bool:
    """Whether the sample holds at least ten values beyond percentile q."""
    return len(values) * (1.0 - q / 100.0) >= 10.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def window_rate(start_ns: int, ends_ns: Sequence[int], windows: int = 5) -> float:
    """Operations per second: the median over ``windows`` consecutive
    runs of completions, so one window of host noise does not move it."""
    marks = [start_ns] + list(ends_ns)
    size = max(1, (len(marks) - 1) // windows)
    rates = [size * 1e9 / (marks[i + size] - marks[i])
             for i in range(0, len(marks) - size, size)][:windows]
    return median(rates)


def closed_loop(op, seconds: float, trace: bool):
    """Run ``op(traced) -> (start_ns, end_ns, record)`` back to back for
    ``seconds``; with ``trace`` every other call is traced. A ``None``
    record marks a failed operation. Returns the loop start, then
    ``(latency_ms, traced, record)`` and the end time of every ok one."""
    done, ends = [], []
    start = time.perf_counter_ns()
    stop = start + int(seconds * 1e9)
    last, calls = start, 0
    while last < stop:
        traced = trace and calls % 2 == 1
        t0, last, record = op(traced)
        calls += 1
        if record is not None:
            done.append(((last - t0) / 1e6, traced, record))
            ends.append(last)
    return start, done, ends


def open_loop(op, seconds: float, rate: float):
    """Call ``op(False)`` at a fixed ``rate`` for ``seconds``, each timed
    from when it was due. Returns latencies of ok operations (ms) and
    how late each call started (ms)."""
    latency, late = [], []
    start = time.perf_counter_ns()
    period = 1e9 / rate
    for i in range(int(seconds * rate)):
        due = start + int(i * period)
        delay = (due - time.perf_counter_ns()) / 1e9
        if delay > 0:
            time.sleep(delay)
        t0, t1, record = op(False)
        late.append((t0 - due) / 1e6)
        if record is not None:
            latency.append((t1 - due) / 1e6)
    return latency, late


class Stopwatch:
    """Named wall-clock timings of set-up steps, one list per step."""

    def __init__(self) -> None:
        self.times: Dict[str, List[float]] = {}

    @contextmanager
    def time(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times.setdefault(name, []).append(time.perf_counter() - t0)

    def median(self, name: str) -> float:
        return median(self.times[name])


# ---------------------------------------------------------------------------
# the result
# ---------------------------------------------------------------------------


class Outcome:
    """Operation accounting of one run: every attempt ends in exactly
    one of ok, mismatch, rejected, error, timeout or not-converged."""

    KINDS = ("ok", "mismatch", "rejected", "error", "timeout", "not_converged")

    def __init__(self) -> None:
        self.counts = {k: 0 for k in self.KINDS}
        self.samples: List[str] = []

    def note(self, kind: str, detail: str = "") -> None:
        self.counts[kind] += 1
        if kind != "ok" and len(self.samples) < 5:
            self.samples.append(f"{kind}: {detail}")

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]

    @property
    def correct(self) -> bool:
        """No operation returned a wrong answer or missed its check."""
        return self.counts["mismatch"] == 0 and self.counts["not_converged"] == 0

    def describe(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                **self.counts, "failure_samples": self.samples}


def emit(outcome: Outcome, metrics: Dict[str, float],
         report: Dict[str, object], units: Dict[str, str]) -> None:
    """Print the human-readable report, then the result as the last line.

    ``units`` holds the metrics this run must print, in order, with
    their units. A metric that could not be measured (the SciPy ceiling
    without SciPy) is left out and named under ``absent_metrics``.
    """
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    report = dict(report, absent_metrics=sorted(set(units) - set(metrics)))
    print("report " + json.dumps(report, sort_keys=True, default=str))
    for name in units:
        if name in metrics:
            print(f"  {name:<30} {metrics[name]:>14.6g} {units[name]}")
    sys.stdout.flush()
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    sys.stdout.flush()
