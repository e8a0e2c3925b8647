"""Dispatch-level acceptance: sharded execution through ``run_spmv``.

For every acceptance format × device count the sharded product must be
bit-identical to the single-device product, and the merged counters
must equal the per-shard sum in every field plus the modeled
interconnect bytes. A sharded SpMM block is one engine call on either
backend and equals its stacked per-column sharded calls, bits and
counters alike.
"""

import dataclasses

import numpy as np
import pytest

from repro.exec.engine import ShardedSpMVResult, sharded_view, shutdown_pools
from repro.exec.workers import WorkerPool, worker_pool
from repro.exec.policy import ExecutionPolicy
from repro.exec.partition import ShardedMatrix, partition
from repro.formats.conversion import convert
from repro.gpu.device import get_device
from repro.gpu.timing import MultiDeviceBreakdown
from repro.integrity import seal
from repro.kernels.dispatch import run_spmm, run_spmv
from repro.matrices.suite import generate
from repro.pipeline import Session
from repro.telemetry import metrics as M

FORMATS = ("bro_ell", "bro_coo", "bro_hyb", "csr")


@pytest.fixture(scope="module")
def coo():
    return generate("cant", scale=0.02, seed=0)


@pytest.fixture(scope="module")
def x(coo):
    return np.random.default_rng(17).standard_normal(coo.shape[1])


def assert_counters_merge(result):
    """Merged counters == per-shard aggregate, plus comms on interconnect.

    Every field sums across shards except ``threads``, which
    ``KernelCounters.__add__`` deliberately maxes (the occupancy model
    must see the largest concurrent grid, not a phantom combined one).
    """
    for f in dataclasses.fields(result.counters):
        per_shard = [getattr(r.counters, f.name) for r in result.shard_results]
        merged = getattr(result.counters, f.name)
        if f.name == "interconnect_bytes":
            assert merged == sum(per_shard) + result.comms.total_bytes, f.name
        elif f.name == "threads":
            assert merged == max(per_shard), f.name
        else:
            assert merged == sum(per_shard), f.name


class TestDispatchBitIdentity:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_y_and_counters_across_device_counts(self, coo, x, fmt):
        mat = convert(coo, fmt)
        base = run_spmv(mat, x, "k20")
        for devices in (1, 2, 4):
            pol = ExecutionPolicy(devices=devices)
            res = run_spmv(mat, x, "k20", policy=pol)
            assert np.array_equal(res.y, base.y), (fmt, devices)
            if devices == 1:
                assert not isinstance(res, ShardedSpMVResult)
            else:
                assert isinstance(res, ShardedSpMVResult)
                assert res.n_devices == devices
                assert_counters_merge(res)
                assert res.counters.interconnect_bytes > 0

    def test_fast_and_reference_engines_agree_sharded(self, coo, x):
        mat = convert(coo, "bro_ell")
        fast = run_spmv(mat, x, "k20",
                        policy=ExecutionPolicy(devices=4))
        ref = run_spmv(mat, x, "k20",
                       policy=ExecutionPolicy(engine="reference", devices=4))
        assert np.array_equal(fast.y, ref.y)


class TestShardedTiming:
    def test_timing_is_multi_device_breakdown(self, coo, x):
        mat = convert(coo, "csr")
        res = run_spmv(mat, x, "k20", policy=ExecutionPolicy(devices=4))
        t = res.timing
        assert isinstance(t, MultiDeviceBreakdown)
        assert t.t_comm > 0
        assert t.time >= t.t_comm
        assert t.messages == res.comms.messages

    def test_kernel_phase_is_slowest_shard(self, coo, x):
        mat = convert(coo, "csr")
        res = run_spmv(mat, x, "k20", policy=ExecutionPolicy(devices=4))
        slowest = max(r.timing.time for r in res.shard_results)
        assert res.timing.t_kernel == pytest.approx(slowest)


SPMM_FORMATS = ("bro_ell", "bro_hyb", "csr", "sell_c_sigma")


@pytest.fixture(scope="module")
def spmm_mats(coo):
    mats = {fmt: convert(coo, fmt) for fmt in SPMM_FORMATS}
    yield mats
    for mat in mats.values():
        shutdown_pools(mat)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestShardedSpMM:
    """A sharded block is one engine call, equal to its k column calls."""

    def test_columns_match_spmv(self, coo):
        mat = convert(coo, "bro_ell")
        X = np.random.default_rng(3).standard_normal((mat.shape[1], 3))
        pol = ExecutionPolicy(devices=2)
        block = run_spmm(mat, X, "k20", policy=pol)
        for j in range(3):
            single = run_spmv(mat, X[:, j], "k20", policy=pol)
            assert np.array_equal(block.y[:, j], single.y)

    @pytest.mark.parametrize("k", (1, 3, 8))
    @pytest.mark.parametrize("fmt", SPMM_FORMATS)
    @pytest.mark.parametrize(
        "backend, shard_timeout_s",
        (("thread", None), ("thread", 30.0), ("process", None)),
        ids=("thread", "thread-deadline", "process"),
    )
    def test_block_equals_single_device_and_columns(
        self, spmm_mats, backend, shard_timeout_s, fmt, k
    ):
        mat = spmm_mats[fmt]
        X = np.random.default_rng(k).standard_normal((mat.shape[1], k))
        pol = ExecutionPolicy(devices=2, backend=backend,
                              shard_timeout_s=shard_timeout_s)
        block = run_spmm(mat, X, "k20", policy=pol)
        columns = [run_spmv(mat, X[:, j], "k20", policy=pol)
                   for j in range(k)]

        assert isinstance(block, ShardedSpMVResult)
        assert block.y.shape == (mat.shape[0], k)
        assert np.array_equal(bits(block.y), bits(run_spmm(mat, X, "k20").y))
        assert np.array_equal(
            bits(block.y), bits(np.stack([c.y for c in columns], axis=1))
        )
        column_sum = sum(c.counters for c in columns)
        for f in dataclasses.fields(block.counters):
            assert (getattr(block.counters, f.name)
                    == getattr(column_sum, f.name)), f.name
        assert block.counters.interconnect_bytes == (
            sum(r.counters.interconnect_bytes for r in block.shard_results)
            + k * block.comms.total_bytes
        )

    def test_process_block_is_one_pool_round_trip(self, spmm_mats,
                                                  monkeypatch):
        mat = spmm_mats["bro_ell"]
        pol = ExecutionPolicy(devices=2, backend="process")
        X = np.random.default_rng(5).standard_normal((mat.shape[1], 8))
        run_spmm(mat, X, "k20", policy=pol)  # warm: the pool exists
        pool = worker_pool(sharded_view(mat, 2, pol.partitioner),
                           get_device("k20"), pol)
        payloads = []
        execute = WorkerPool.execute

        def counting(self, x, **kwargs):
            payloads.append(x.shape)
            return execute(self, x, **kwargs)

        monkeypatch.setattr(WorkerPool, "execute", counting)
        before = pool._call
        run_spmm(mat, X, "k20", policy=pol)
        assert pool._call == before + 1
        assert payloads == [X.shape]

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_exec_metrics_record_once_per_block(self, spmm_mats, backend):
        mat = spmm_mats["csr"]
        X = np.random.default_rng(6).standard_normal((mat.shape[1], 8))
        pol = ExecutionPolicy(devices=2, backend=backend)
        reg = M.MetricsRegistry()
        M.start_collecting(reg)
        try:
            run_spmm(mat, X, "k20", policy=pol)
        finally:
            M.stop_collecting()
        snap = reg.snapshot()
        (runs,) = [v for key, v in snap["counters"].items()
                   if key.startswith("exec.sharded_runs")]
        assert runs == 1
        latencies = [h["count"] for key, h in snap["histograms"].items()
                     if key.startswith("exec.shard_latency_seconds")]
        assert sorted(latencies) == [1, 1]


class TestIntegrityComposition:
    def test_verify_runs_before_sharding(self, coo, x):
        mat = seal(convert(coo, "bro_ell"))
        res = run_spmv(mat, x, "k20",
                       policy=ExecutionPolicy(verify="checksum", devices=2))
        assert isinstance(res, ShardedSpMVResult)
        base = run_spmv(mat, x, "k20")
        assert np.array_equal(res.y, base.y)

    def test_fallback_serves_sharded_too(self, coo, x):
        mat = convert(coo, "bro_ell")
        fb = seal(convert(coo, "csr"))
        res = run_spmv(mat, x, "k20",
                       policy=ExecutionPolicy(fallback=fb, devices=2))
        assert np.array_equal(res.y, run_spmv(mat, x, "k20").y)


class TestPreShardedContainers:
    def test_sharded_matrix_routes_through_engine(self, coo, x):
        sharded = partition(convert(coo, "bro_ell"), 4)
        res = run_spmv(sharded, x, "k20")
        assert isinstance(res, ShardedSpMVResult)
        assert res.n_devices == 4
        base = run_spmv(convert(coo, "bro_ell"), x, "k20")
        assert np.array_equal(res.y, base.y)

    def test_device_count_mismatch_rejected(self, coo, x):
        from repro.errors import ValidationError

        sharded = partition(convert(coo, "bro_ell"), 4)
        with pytest.raises(ValidationError, match="already sharded"):
            run_spmv(sharded, x, "k20", policy=ExecutionPolicy(devices=2))

    def test_loaded_sharded_container_executes(self, coo, x, tmp_path):
        from repro.serialize import load_container, save_container

        sharded = partition(convert(coo, "bro_ell"), 2)
        path = tmp_path / "m.brx"
        save_container(sharded, path)
        loaded = load_container(path)
        assert isinstance(loaded, ShardedMatrix)
        res = run_spmv(loaded, x, "k20")
        assert np.array_equal(res.y, run_spmv(sharded, x, "k20").y)


class TestSessionSharding:
    def test_session_executes_sharded_policy(self, coo, x):
        mat = convert(coo, "bro_ell")
        sess = Session("k20", policy=ExecutionPolicy(devices=4)).use(mat)
        res = sess.run(x)
        assert isinstance(res, ShardedSpMVResult)
        base = Session("k20").use(mat).run(x)
        assert np.array_equal(res.y, base.y)
