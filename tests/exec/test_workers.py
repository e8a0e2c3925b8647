"""Process-backend sharded execution: the fault-tolerance acceptance bar.

With ``ExecutionPolicy(backend="process")`` and any single injected fault
per call, ``run_spmv`` must return ``y`` bit-identical to the
single-device reference with the recovery path visible
(``shard_reassignments >= 1``) — or raise a typed error. Never wrong
numbers.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.errors import ShardTimeoutError, ValidationError, WorkerFailureError
from repro.exec.chaos import PROCESS_FAULT_KINDS, ChaosPolicy
from repro.exec.engine import ShardedSpMVResult, sharded_view, shutdown_pools
from repro.exec.policy import ExecutionPolicy
from repro.exec.workers import WorkerPool, worker_pool
from repro.exec.partition import partition
from repro.integrity import seal
from repro.formats.conversion import convert
from repro.matrices.suite import generate
from repro.telemetry import metrics as M

FORMATS = ("bro_ell", "bro_coo", "bro_hyb", "csr")


@pytest.fixture(scope="module")
def coo():
    return generate("cant", scale=0.02, seed=0)


@pytest.fixture(scope="module")
def x(coo):
    return np.random.default_rng(17).standard_normal(coo.shape[1])


def _policy(**overrides):
    base = dict(
        devices=4, backend="process", shard_timeout_s=5.0, max_retries=3
    )
    base.update(overrides)
    return ExecutionPolicy(**base)


class TestCleanProcessBackend:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_bit_identical_to_single_device(self, coo, x, fmt):
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, fmt)
        try:
            base = run_spmv(mat, x, "k20")
            res = run_spmv(mat, x, "k20", policy=_policy())
            assert isinstance(res, ShardedSpMVResult)
            assert res.backend == "process"
            assert res.n_devices == 4
            assert np.array_equal(res.y, base.y)
            assert res.worker_deaths == 0
            assert res.shard_reassignments == 0
            assert res.retries == 0
        finally:
            assert shutdown_pools(mat) == 1

    def test_pool_is_reused_across_calls(self, coo, x):
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, "csr")
        pol = _policy(devices=2)
        try:
            first = run_spmv(mat, x, "k20", policy=pol)
            second = run_spmv(mat, x, "k20", policy=pol)
            assert np.array_equal(first.y, second.y)
        finally:
            # Both calls were served by ONE cached pool.
            assert shutdown_pools(mat) == 1

    def test_shutdown_is_idempotent(self, coo):
        mat = convert(coo, "csr")
        sharded = partition(mat, 2)
        pool = worker_pool(sharded, first_device(), _policy(devices=2))
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(ValidationError, match="shut down"):
            pool.execute(np.zeros(mat.shape[1]))
        assert shutdown_pools(sharded) == 0


def first_device():
    from repro.gpu.device import get_device

    return get_device("k20")


class TestFaultRecovery:
    """Acceptance: one injected fault per call, any kind × any format."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("kind", PROCESS_FAULT_KINDS)
    def test_recovers_bit_identical(self, coo, x, fmt, kind):
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, fmt)
        base = run_spmv(mat, x, "k20")
        chaos = ChaosPolicy(seed=3, kinds=(kind,), max_faults=1, stall_s=1.2)
        pol = _policy(shard_timeout_s=0.4, chaos=chaos)
        try:
            res = run_spmv(mat, x, "k20", policy=pol)
            assert np.array_equal(res.y, base.y), (fmt, kind)
            assert res.shard_reassignments >= 1
            assert res.retries >= 1
            if kind in ("kill-worker", "stall-worker"):
                assert res.worker_deaths >= 1
            else:  # transport corruption never kills the worker
                assert res.worker_deaths == 0
        finally:
            shutdown_pools(mat)

    def test_container_fault_kind_detected_and_retried(self, coo, x):
        """Integrity fault kinds corrupt the shard container copy; the
        checksum-verified worker run raises typed and the retry is clean."""
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, "bro_ell")
        base = run_spmv(mat, x, "k20")
        chaos = ChaosPolicy(seed=5, kinds=("stream_bit_flip",), max_faults=1)
        try:
            res = run_spmv(mat, x, "k20", policy=_policy(chaos=chaos))
            assert np.array_equal(res.y, base.y)
            assert res.retries >= 1
        finally:
            shutdown_pools(mat)

    def test_recovery_events_name_the_failover(self, coo, x):
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, "csr")
        chaos = ChaosPolicy(seed=1, kinds=("kill-worker",), max_faults=1)
        try:
            res = run_spmv(mat, x, "k20", policy=_policy(chaos=chaos))
            events = [e["event"] for e in res.recovery_events]
            assert "worker_lost" in events
            assert "shard_reassigned" in events
            assert "worker_respawned" in events  # every lost worker is respawned
        finally:
            shutdown_pools(mat)

    def test_exhausted_retries_raise_typed_worker_failure(self, coo, x):
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, "csr")
        # rate=1.0 with no budget: every call (and there is only one
        # attempt allowed) eats a kill — the shard can never finish.
        chaos = ChaosPolicy(seed=2, kinds=("kill-worker",), max_faults=1)
        try:
            with pytest.raises(WorkerFailureError, match="shard"):
                run_spmv(
                    mat, x, "k20", policy=_policy(max_retries=0, chaos=chaos)
                )
        finally:
            shutdown_pools(mat)

    def test_exhausted_stalls_raise_typed_timeout(self, coo, x):
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, "csr")
        chaos = ChaosPolicy(
            seed=4, kinds=("stall-worker",), max_faults=1, stall_s=2.0
        )
        try:
            with pytest.raises(ShardTimeoutError) as excinfo:
                run_spmv(
                    mat, x, "k20",
                    policy=_policy(
                        shard_timeout_s=0.3, max_retries=0, chaos=chaos
                    ),
                )
            assert excinfo.value.shard >= 0
            assert excinfo.value.timeout_s == pytest.approx(0.3)
        finally:
            shutdown_pools(mat)


class TestBlockFaultRecovery:
    """The same faults on an (n, 8) SpMM block: one task per shard
    carries the whole block, so every fault hits a 2-D payload."""

    K = 8

    @pytest.fixture(scope="class")
    def X(self, coo):
        return np.random.default_rng(23).standard_normal(
            (coo.shape[1], self.K)
        )

    @pytest.mark.parametrize("kind", PROCESS_FAULT_KINDS + ("stream_bit_flip",))
    def test_block_recovers_bit_identical(self, coo, X, kind):
        from repro.kernels.dispatch import run_spmm

        mat = convert(coo, "bro_ell")
        base = run_spmm(mat, X, "k20")
        chaos = ChaosPolicy(seed=3, kinds=(kind,), max_faults=1, stall_s=1.2)
        pol = _policy(devices=2, shard_timeout_s=0.4, chaos=chaos)
        reg = M.MetricsRegistry()
        M.start_collecting(reg)
        try:
            res = run_spmm(mat, X, "k20", policy=pol)
        finally:
            M.stop_collecting()
            shutdown_pools(mat)
        assert isinstance(res, ShardedSpMVResult)
        assert np.array_equal(
            res.y.view(np.uint64), np.ascontiguousarray(base.y).view(np.uint64)
        ), kind
        assert res.retries >= 1
        counters = reg.snapshot()["counters"]
        assert counters["exec.retries"] == res.retries
        if kind in ("kill-worker", "stall-worker"):
            assert counters["exec.worker_deaths"] == res.worker_deaths >= 1
        if kind == "corrupt-shard-result":
            events = [e["event"] for e in res.recovery_events]
            assert "shard_crc_mismatch" in events

    def test_thread_container_fault_degrades_typed(self, coo, X):
        """The thread backend has no retry: a corrupted shard container
        is caught by its checksum verify and the block degrades to the
        fallback — or raises typed without one."""
        from repro.errors import ReproError
        from repro.integrity.counters import COUNTERS
        from repro.kernels.dispatch import run_spmm

        mat = convert(coo, "bro_ell")
        fallback = convert(coo, "csr")
        base = run_spmm(mat, X, "k20")

        # Two live chaos policies: each keeps its own one-fault budget.
        chaos = [ChaosPolicy(seed=5, kinds=("stream_bit_flip",),
                             max_faults=1) for _ in range(2)]
        fallbacks = COUNTERS.snapshot().fallbacks
        res = run_spmm(mat, X, "k20", policy=ExecutionPolicy(
            devices=2, backend="thread", chaos=chaos[0], fallback=fallback))
        assert res.fallback_used
        assert np.array_equal(res.y, base.y)
        assert COUNTERS.snapshot().fallbacks == fallbacks + 1
        with pytest.raises(ReproError):
            run_spmm(mat, X, "k20", policy=ExecutionPolicy(
                devices=2, backend="thread", chaos=chaos[1]))

    def test_result_corruption_flips_one_bit_of_a_block(self):
        from repro.exec.workers import _crc, _flip_one_bit

        Y = np.random.default_rng(0).standard_normal((5, self.K))
        flipped = _flip_one_bit(Y)
        diff = np.bitwise_xor(Y.view(np.uint64), flipped.view(np.uint64))
        assert int(np.unpackbits(diff.view(np.uint8)).sum()) == 1
        assert _crc(flipped) != _crc(Y)
        assert np.array_equal(Y[1:], flipped[1:])


class TestRecoveryAccounting:
    def test_metrics_expose_worker_events(self, coo, x):
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, "csr")
        chaos = ChaosPolicy(seed=3, kinds=("kill-worker",), max_faults=1)
        reg = M.MetricsRegistry()
        try:
            with telemetry.tracing(registry=reg):
                res = run_spmv(mat, x, "k20", policy=_policy(chaos=chaos))
            counters = reg.snapshot()["counters"]
            assert counters["exec.worker_deaths"] == res.worker_deaths >= 1
            assert (
                counters["exec.shard_reassignments"]
                == res.shard_reassignments >= 1
            )
            assert counters["exec.retries"] == res.retries >= 1
        finally:
            shutdown_pools(mat)

    def test_shard_counters_fold_into_kernel_metrics(self, coo, x):
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, "csr")
        reg = M.MetricsRegistry()
        try:
            with telemetry.tracing(registry=reg):
                res = run_spmv(mat, x, "k20", policy=_policy(devices=2))
            counters = reg.snapshot()["counters"]
            device_name = res.shard_results[0].device.name
            key = f'kernel.dram_bytes{{device="{device_name}",format="csr"}}'
            per_shard = sum(r.counters.dram_bytes for r in res.shard_results)
            assert counters[key] == per_shard
        finally:
            shutdown_pools(mat)


class TestElasticity:
    def test_elastic_pool_respawns_the_lost_slot(self, coo, x):
        from repro.kernels.dispatch import run_spmv

        mat = convert(coo, "csr")
        chaos = ChaosPolicy(seed=7, kinds=("kill-worker",), max_faults=1)
        pol = _policy(chaos=chaos)
        try:
            faulted = run_spmv(mat, x, "k20", policy=pol)
            assert faulted.worker_deaths == 1
            # The respawned slot serves the next (clean) call: all four
            # workers are live again and nothing needs recovery.
            clean = run_spmv(mat, x, "k20", policy=pol)
            assert np.array_equal(clean.y, faulted.y)
            assert clean.worker_deaths == 0
            assert clean.retries == 0
        finally:
            shutdown_pools(mat)


def _pool(mat, pol):
    return worker_pool(sharded_view(mat, pol.devices, pol.partitioner),
                       first_device(), pol)


def _files(pool):
    """Names of the segment files in the pool's shard directory."""
    return sorted(p.name for p in Path(pool._tmpdir).glob("*.seg"))


class TestBlockTransport:
    """Blocks travel through the pool's mapped segment files; the task
    and result messages carry only a token and the CRC."""

    def test_widths_share_one_pool_and_grow_once(self, coo):
        from repro.kernels.dispatch import run_spmm

        mat = convert(coo, "bro_ell")
        pol = _policy(devices=2)
        thread = ExecutionPolicy(devices=2, backend="thread")
        reference = ExecutionPolicy(engine="reference")
        rng = np.random.default_rng(31)
        generations = []
        try:
            for k in (1, 8, 16, 8):
                X = rng.standard_normal((mat.shape[1], k))
                res = run_spmm(mat, X, "k20", policy=pol)
                base = run_spmm(mat, X, "k20", policy=thread)
                ref = run_spmm(mat, X, "k20", policy=reference).y
                assert np.array_equal(
                    res.y.view(np.uint64),
                    np.ascontiguousarray(ref).view(np.uint64)), k
                assert np.array_equal(res.y.view(np.uint64),
                                      base.y.view(np.uint64)), k
                assert res.counters == base.counters, k
                assert [r.counters for r in res.shard_results] == [
                    r.counters for r in base.shard_results], k
                assert res.retries == 0
                pool = _pool(mat, pol)
                generations.append(pool.generation)
                assert _files(pool) == [f"x{pool.generation}.seg",
                                        f"y{pool.generation}.seg"]
        finally:
            shutdown_pools(mat)
        assert generations == [0, 0, 1, 1]

    def test_late_write_after_done_is_caught_and_retried(
            self, coo, monkeypatch):
        from repro.kernels.dispatch import run_spmm

        mat = convert(coo, "csr")
        X = np.random.default_rng(37).standard_normal((mat.shape[1], 8))
        base = run_spmm(mat, X, "k20")
        handle = WorkerPool._handle
        scribbled = []

        def late_write(self, msg, call, states, done, y, stats):
            if msg[0] == "done" and not scribbled:
                # Another write lands in the shard's rows after its
                # "done" message, before the coordinator copies them out.
                shard = msg[2]
                r0, r1 = self._bounds[shard], self._bounds[shard + 1]
                self._y_seg[:y.size].reshape(y.shape)[r0:r1] += 1.0
                scribbled.append(shard)
            return handle(self, msg, call, states, done, y, stats)

        monkeypatch.setattr(WorkerPool, "_handle", late_write)
        try:
            res = run_spmm(mat, X, "k20", policy=_policy(devices=2))
        finally:
            shutdown_pools(mat)
        assert np.array_equal(res.y.view(np.uint64),
                              np.ascontiguousarray(base.y).view(np.uint64))
        assert res.retries == 1
        assert res.worker_deaths == 0
        assert [e["shard"] for e in res.recovery_events
                if e["event"] == "shard_crc_mismatch"] == scribbled

    def test_no_segment_outlives_its_pool(self, coo, x):
        from repro.kernels.dispatch import run_spmv

        mat = seal(convert(coo, "csr"))
        pol = _policy(devices=2)
        kill = _policy(devices=2, chaos=ChaosPolicy(
            seed=1, kinds=("kill-worker",), max_faults=1))
        dirs = []
        try:
            run_spmv(mat, x, "k20", policy=pol)
            dirs.append(Path(_pool(mat, pol)._tmpdir))
            mat.vals[:] *= 2.0
            seal(mat)  # the re-seal supersedes the partition and its pool
            run_spmv(mat, x, "k20", policy=pol)
            assert not dirs[0].exists()
            res = run_spmv(mat, x, "k20", policy=kill)
            assert res.worker_deaths == 1  # and a respawn
            for policy in (pol, kill):
                pool = _pool(mat, policy)
                assert _files(pool) == ["x0.seg", "y0.seg"]
                dirs.append(Path(pool._tmpdir))
        finally:
            assert shutdown_pools(mat) == 2
        assert not any(d.exists() for d in dirs)


#: A coordinator that runs one 2-device process call, prints its worker
#: pids and waits to be killed.
_COORDINATOR = """
import time
import numpy as np
from repro import ExecutionPolicy, run_spmv
from repro.exec.engine import sharded_view
from repro.exec.workers import worker_pool
from repro.formats.conversion import convert
from repro.gpu.device import get_device
from repro.matrices.suite import generate

mat = convert(generate("cant", scale=0.02, seed=0), "csr")
pol = ExecutionPolicy(devices=2, backend="process")
run_spmv(mat, np.ones(mat.shape[1]), "k20", policy=pol)
pool = worker_pool(sharded_view(mat, 2, pol.partitioner),
                   get_device("k20"), pol)
print(*(w.process.pid for w in pool._workers), flush=True)
time.sleep(60)
"""


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_their_coordinator_is_killed(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-c", _COORDINATOR],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline and not all(map(_gone, pids)):
        time.sleep(0.05)
    assert all(map(_gone, pids)), pids
    assert not list(tmp_path.glob("repro-shards-*"))


class TestHeartbeats:
    """A heartbeat is one aligned 8-byte float per worker slot, kept in
    shared memory without a lock: a worker that dies mid-write (a
    ``kill-worker`` exit, a fence's ``terminate()``) could otherwise
    leave a process-shared lock held for good, and the coordinator's
    next liveness read would block with no timeout."""

    def test_reading_a_heartbeat_takes_no_lock(self, coo):
        mat = convert(coo, "csr")
        pool = _pool(mat, _policy(devices=2))
        try:
            beats = pool._heartbeats
            assert not hasattr(beats, "get_lock")
            assert not hasattr(beats, "get_obj")  # a raw ctypes array
            assert len(beats) == 2
            assert all(0.0 <= age < 5.0 for age in pool.heartbeat_ages())
        finally:
            pool.shutdown()

    def test_back_to_back_worker_kills_finish_in_bounded_time(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        t0 = time.monotonic()
        # A coordinator blocked on a lost lock never returns, so the
        # calls run in a child that the timeout can stop.
        done = subprocess.run([sys.executable, "-c", _KILL_EVERY_CALL],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["deaths", "30"]
        assert time.monotonic() - t0 < 60


#: 30 calls on a 2-device process pool, each losing one worker to a
#: ``kill-worker`` fault; every ``y`` must equal the one-device product.
_KILL_EVERY_CALL = """
import numpy as np
from repro import ExecutionPolicy, run_spmv
from repro.exec.chaos import ChaosPolicy
from repro.exec.engine import shutdown_pools
from repro.formats.conversion import convert
from repro.matrices.suite import generate

mat = convert(generate("cant", scale=0.02, seed=0), "csr")
x = np.random.default_rng(17).standard_normal(mat.shape[1])
base = run_spmv(mat, x, "k20").y
pol = ExecutionPolicy(devices=2, backend="process", shard_timeout_s=5.0,
                      max_retries=3,
                      chaos=ChaosPolicy(seed=0, kinds=("kill-worker",)))
deaths = 0
try:
    for _ in range(30):
        res = run_spmv(mat, x, "k20", policy=pol)
        assert np.array_equal(res.y.view(np.uint64), base.view(np.uint64))
        deaths += res.worker_deaths
finally:
    shutdown_pools(mat)
print("deaths", deaths)
"""
