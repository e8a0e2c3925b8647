"""Distributed-telemetry acceptance: the ISSUE 7 tentpole, end to end.

A 4-device ``backend="process"`` run with telemetry enabled must produce

* a Chrome trace with one process lane per worker whose spans nest under
  the coordinator's ``spmv.dispatch`` span,
* a merged registry snapshot equal to the sum of the per-worker
  snapshots, with ``kernel.*`` counters bit-identical to the thread
  backend,
* per-worker latency histograms with working exact percentiles,

and with telemetry disabled no worker may capture telemetry.
"""

import multiprocessing as mp
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.errors import WorkerFailureError
from repro.exec.chaos import ChaosPolicy
from repro.exec.engine import execute_sharded, sharded_view, shutdown_pools
from repro.exec.policy import ExecutionPolicy
from repro.exec.workers import WorkerPool, worker_pool
from repro.formats.conversion import convert
from repro.gpu.device import get_device
from repro.kernels.dispatch import run_spmv
from repro.matrices.suite import generate
from repro.telemetry import metrics as M
from repro.telemetry import remote
from repro.telemetry.exporters import chrome_trace_events
from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)

N_DEVICES = 4


@pytest.fixture(autouse=True)
def telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture(scope="module")
def mat():
    return convert(generate("cant", scale=0.02, seed=0), "csr")


@pytest.fixture(scope="module")
def x(mat):
    return np.random.default_rng(17).standard_normal(mat.shape[1])


@pytest.fixture(scope="module")
def traced(mat, x):
    """One traced 4-worker process run, shared by the lane/nesting tests."""
    telemetry.disable()
    policy = ExecutionPolicy(devices=N_DEVICES, backend="process")
    with telemetry.tracing() as tracer:
        result = run_spmv(mat, x, "k20", policy=policy)
        snapshot = telemetry.metrics.registry().snapshot()
    shutdown_pools(mat)
    return SimpleNamespace(tracer=tracer, result=result, snapshot=snapshot)


class TestChromeLanes:
    def test_one_lane_per_worker(self, traced):
        events = chrome_trace_events(traced.tracer)
        lanes = sorted({e["pid"] for e in events if e["ph"] == "X"})
        assert lanes == [1, 2, 3, 4, 5]  # coordinator + 4 workers

    def test_lane_metadata_events(self, traced):
        events = chrome_trace_events(traced.tracer)
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert names[1] == "coordinator"
        for slot in range(N_DEVICES):
            assert names[2 + slot].startswith(f"worker {slot}")
        threads = [e for e in events
                   if e.get("ph") == "M" and e["name"] == "thread_name"]
        assert len(threads) == 1 + N_DEVICES

    def test_worker_spans_nest_under_dispatch(self, traced):
        tracer = traced.tracer
        by_id = {s.span_id: s for s in tracer.spans}
        roots = [s for s in tracer.spans if s.name == "worker.task"]
        assert len(roots) == N_DEVICES
        assert {s.attrs["worker"] for s in roots} == set(range(N_DEVICES))
        for s in roots:
            ancestors = []
            cur = s
            while cur.parent_id is not None:
                cur = by_id[cur.parent_id]
                ancestors.append(cur.name)
            assert "exec.sharded" in ancestors
            assert "spmv.dispatch" in ancestors

    def test_worker_spans_contain_kernel_work(self, traced):
        tracer = traced.tracer
        worker_spans = [s for s in tracer.spans
                        if s.attrs.get("worker") is not None]
        kernels = [s for s in worker_spans if s.name.startswith("kernel.")]
        assert len(kernels) >= N_DEVICES
        for s in kernels:
            assert s.attrs["trace_id"] == tracer.trace_id

    def test_trace_serializes_to_json(self, traced):
        import json

        text = telemetry.to_chrome_trace(traced.tracer)
        parsed = json.loads(text)
        assert any(e.get("ph") == "M" for e in parsed)


class TestMergedEqualsSum:
    def test_pool_batches_sum_to_the_merged_registry(self, mat, x):
        sharded = sharded_view(mat, N_DEVICES, "greedy-nnz")
        device = get_device("k20")
        policy = ExecutionPolicy(devices=N_DEVICES, backend="process")
        pool = worker_pool(sharded, device, policy)
        try:
            _, _, stats = pool.execute(x, telem=("trace-x", None))
        finally:
            shutdown_pools(mat)
        batches = stats.telemetry
        assert len(batches) == N_DEVICES
        assert {b["worker"] for b in batches} == set(range(N_DEVICES))

        merged_reg = MetricsRegistry()
        remote.merge_batches(merged_reg, batches)
        merged = merged_reg.snapshot()

        per_worker = []
        for b in batches:
            one = MetricsRegistry()
            one.merge(b["snapshot"], {"worker": str(b["worker"])})
            per_worker.append(one.snapshot())
        assert merge_snapshots(per_worker) == merged

    def test_kernel_counters_bit_identical_to_thread_backend(self, mat, x):
        device = get_device("k20")

        def run(backend):
            reg = MetricsRegistry()
            M.start_collecting(reg)
            try:
                result = execute_sharded(
                    mat, x, device,
                    ExecutionPolicy(devices=N_DEVICES, backend=backend),
                )
            finally:
                M.stop_collecting()
                if backend == "process":
                    shutdown_pools(mat)
            return result, reg.snapshot()

        r_thread, s_thread = run("thread")
        r_process, s_process = run("process")
        assert np.array_equal(r_thread.y, r_process.y)

        def kernel_series(snap):
            return {
                k: v for k, v in snap["counters"].items()
                if k.startswith("kernel.") and "worker=" not in k
            }

        assert kernel_series(s_thread) == kernel_series(s_process)

    def test_worker_labelled_series_present_when_collecting(self, traced):
        worker_keys = [k for k in traced.snapshot["counters"]
                       if "worker=" in k]
        assert worker_keys, "merged snapshot must carry worker= series"
        workers = set()
        for k in worker_keys:
            _, labels = M._parse_key(k)
            workers.add(labels["worker"])
        assert workers == {str(w) for w in range(N_DEVICES)}


class TestAcceptedAttemptsOnly:
    """A faulted shard's first attempt ships no telemetry that is kept:
    only the attempt whose rows were accepted is grafted and merged."""

    @pytest.mark.parametrize("kind", ["corrupt-shard-result", "kill-worker"])
    def test_one_root_and_one_batch_per_shard(self, mat, x, kind,
                                              monkeypatch):
        calls = []
        execute = WorkerPool.execute

        def spy(self, *args, **kwargs):
            out = execute(self, *args, **kwargs)
            calls.append(out[2])
            return out

        monkeypatch.setattr(WorkerPool, "execute", spy)
        chaos = ChaosPolicy(seed=0, kinds=(kind,), max_faults=1, shard=1)
        policy = ExecutionPolicy(devices=2, backend="process",
                                 shard_timeout_s=5.0, chaos=chaos)
        try:
            with telemetry.tracing() as tracer:
                result = run_spmv(mat, x, "k20", policy=policy)
        finally:
            shutdown_pools(mat)
        assert result.retries >= 1
        roots = [s for s in tracer.spans if s.name == "worker.task"]
        assert sorted(s.attrs["shard"] for s in roots) == [0, 1]
        assert {s.attrs["shard"]: s.attrs["attempt"] for s in roots} == {
            0: 0, 1: 1}

        (stats,) = calls
        assert sorted((b["shard"], b["attempt"])
                      for b in stats.telemetry) == [(0, 0), (1, 1)]
        merged = MetricsRegistry()
        remote.merge_batches(merged, stats.telemetry)
        per_batch = []
        for b in stats.telemetry:
            one = MetricsRegistry()
            one.merge(b["snapshot"], {"worker": str(b["worker"])})
            per_batch.append(one.snapshot())
        assert merge_snapshots(per_batch) == merged.snapshot()


class TestLatencyHistograms:
    def test_per_worker_p99_recorded_on_process_backend(self, traced):
        hists = {
            k: d for k, d in traced.snapshot["histograms"].items()
            if k.startswith("exec.shard_latency_seconds")
        }
        assert len(hists) == N_DEVICES
        for d in hists.values():
            h = Histogram(LATENCY_BUCKETS)
            h.merge_dict(d)
            assert h.count >= 1
            assert h.percentile(99) > 0.0
            assert (h.percentile(50) <= h.percentile(95)
                    <= h.percentile(99))

    def test_thread_backend_records_latency_too(self, mat, x):
        reg = MetricsRegistry()
        M.start_collecting(reg)
        try:
            execute_sharded(
                mat, x, "k20",
                ExecutionPolicy(devices=N_DEVICES, backend="thread"),
            )
        finally:
            M.stop_collecting()
        keys = [k for k in reg.snapshot()["histograms"]
                if k.startswith("exec.shard_latency_seconds")]
        assert len(keys) == N_DEVICES


class TestDisabledPath:
    def test_no_queue_traffic_when_disabled(self, mat, x, monkeypatch):
        """With telemetry off no worker enters ``remote.capture``: the
        forked workers inherit a ``capture`` that raises, so a capture
        would fail its shard."""
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("workers inherit the patch only when forked")
        assert not telemetry.enabled() and not M.collecting()

        def no_capture(trace_id):
            raise RuntimeError("a worker entered remote.capture")

        shutdown_pools(mat)
        monkeypatch.setattr(remote, "capture", no_capture)
        sharded = sharded_view(mat, N_DEVICES, "greedy-nnz")
        policy = ExecutionPolicy(
            devices=N_DEVICES, backend="process", max_retries=0)
        pool = worker_pool(sharded, get_device("k20"), policy)
        try:
            y, _, stats = pool.execute(x)  # no trace context
            assert stats.telemetry == []
            assert stats.retries == 0
            assert np.array_equal(y, run_spmv(mat, x, "k20").y)
            # Control: a traced call does enter the patched capture.
            with pytest.raises(WorkerFailureError, match="remote.capture"):
                pool.execute(x, telem=("trace-x", None))
        finally:
            shutdown_pools(mat)

    def test_result_still_bit_identical_without_telemetry(self, mat, x):
        base = run_spmv(mat, x, "k20")
        res = run_spmv(
            mat, x, "k20",
            policy=ExecutionPolicy(devices=N_DEVICES, backend="process"),
        )
        shutdown_pools(mat)
        assert np.array_equal(res.y, base.y)
