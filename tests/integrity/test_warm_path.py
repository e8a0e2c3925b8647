"""Integrity on the warm path: each check runs on the bytes a call reads.

The container is checked when a cache first reads it under its seal; the
plan's replay arrays are checked on every ``verify="checksum"`` call, and
its index arrays are range-checked on every ``verify="structure"`` call.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.bro_ell import BROELLMatrix
from repro.core.bro_hyb import BROHYBMatrix
from repro.errors import IntegrityError
from repro.exec.chaos import ChaosPolicy
from repro.exec.engine import sharded_view, shutdown_pools
from repro.exec.policy import ExecutionPolicy
from repro.formats.conversion import convert
from repro.formats.csr import CSRMatrix
from repro.integrity import seal
from repro.integrity.counters import COUNTERS
from repro.kernels.dispatch import run_spmm, run_spmv
from repro.kernels.plan import prepare
from repro.kernels.plancache import PLAN_CACHE, PlanCache
from repro.matrices import generate
from tests.conftest import random_coo, requires_scipy_executor

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def fixture():
    coo = random_coo(64, 48, density=0.08, seed=21)
    mat = seal(BROELLMatrix.from_coo(coo, h=16))
    x = np.random.default_rng(21).standard_normal(coo.shape[1])
    return coo, mat, x, CSRMatrix.from_coo(coo)


@pytest.fixture(scope="module")
def cop20k_hyb():
    """BRO-HYB of cop20k_A: a quarter of its ELL lanes are masked."""
    coo = generate("cop20k_A", scale=0.05)
    mat = seal(BROHYBMatrix.from_coo(coo, h=64))
    x = np.random.default_rng(22).standard_normal(coo.shape[1])
    return coo, mat, x, CSRMatrix.from_coo(coo)


def _reference(mat, x):
    return run_spmv(mat, x, "k20", policy=ExecutionPolicy(engine="reference")).y


def _flip(plan, suffix):
    """Flip one bit in the first replay array whose path ends in ``suffix``."""
    name, arr = next((n, a) for n, a in plan.replay_arrays().items()
                     if n.endswith(suffix) and a.size)
    arr.reshape(-1).view(np.uint8)[0] ^= np.uint8(1 << 6)
    return name


def _flip_high(plan, suffix):
    """Flip the second-highest bit of the first element of the first
    replay array whose path ends in ``suffix``: an index far out of range."""
    name, arr = next((n, a) for n, a in plan.replay_arrays().items()
                     if n.endswith(suffix) and a.size)
    arr.reshape(-1)[:1].view(np.uint8)[arr.itemsize - 1] ^= np.uint8(1 << 6)
    return name


def _corrupt_in_place(mat):
    mat.stream.data[0] ^= np.uint32(1 << 13)


class TestPlanArrayFaults:
    @pytest.mark.parametrize("fmt", ["bro_ell", "bro_hyb", "bro_ell_mt", "csr"])
    @pytest.mark.parametrize("array", ["_gather", "_vals", "_rows", "_counts"])
    def test_bit_flip_detected_and_served_by_fallback(self, fmt, array):
        coo = random_coo(64, 48, density=0.08, seed=3)
        mat = seal(convert(coo, fmt))
        x = np.random.default_rng(3).standard_normal(48)
        expected = _reference(mat, x)
        pol = ExecutionPolicy(verify="checksum", compute_backend="numpy",
                              fallback=CSRMatrix.from_coo(coo))
        assert np.array_equal(run_spmv(mat, x, "k20", policy=pol).y, expected)
        plan = PLAN_CACHE.get_or_build(mat, "k20", backend="numpy")
        name = _flip(plan, array)

        result = run_spmv(mat, x, "k20", policy=pol)
        assert result.fault_detected and result.fallback_used
        assert name in result.integrity_error
        np.testing.assert_allclose(result.y, coo.to_dense() @ x, rtol=1e-9)
        # The failed plan left the cache: the next call rebuilds it.
        again = run_spmv(mat, x, "k20", policy=pol)
        assert not again.fallback_used
        assert np.array_equal(again.y, expected)

    @requires_scipy_executor
    @pytest.mark.parametrize("array", ["_indptr", "_gather", "_vals"])
    def test_scipy_layout_bit_flip_detected(self, fixture, cop20k_hyb, array):
        for coo, mat, x, csr in (fixture, cop20k_hyb):
            pol = ExecutionPolicy(verify="checksum", fallback=csr)
            first = run_spmv(mat, x, "k20", policy=pol)
            assert not first.fault_detected  # the build sealed its arrays
            expected = first.y
            plan = PLAN_CACHE.get_or_build(mat, "k20", backend="auto")
            if plan.backend != "scipy":
                pytest.skip("auto does not resolve to the scipy executor here")
            if mat is cop20k_hyb[1]:
                # The ELL part's masked lanes were dropped: the sealed
                # arrays are the compacted ones.
                jagged = prepare(mat, "k20", backend="numpy")
                assert (plan._parts[0]._vals.shape[0]
                        < jagged._parts[0]._vals.shape[0])
            name = _flip(plan, array)
            result = run_spmv(mat, x, "k20", policy=pol)
            assert result.fault_detected and result.fallback_used
            assert name in result.integrity_error
            np.testing.assert_allclose(result.y, expected, rtol=1e-9)

    def test_unverified_call_does_not_check_the_plan(self, fixture):
        _, mat, x, _ = fixture
        pol = ExecutionPolicy(compute_backend="numpy")
        run_spmv(mat, x, "k20", policy=pol)
        plan = PLAN_CACHE.get_or_build(mat, "k20", backend="numpy")
        plan._vals[0] += 1.0
        with pytest.raises(IntegrityError, match="_vals"):
            plan.verify_arrays()
        run_spmv(mat, x, "k20", policy=pol)  # no check below "checksum"

    @requires_scipy_executor
    def test_scipy_leaf_holds_only_its_row_arrays(self, fixture, cop20k_hyb):
        for _, mat, _, _ in (fixture, cop20k_hyb):
            plan = prepare(mat, "k20", backend="scipy")
            for leaf in plan._children() or (plan,):
                assert set(leaf.replay_arrays()) == {
                    "_indptr", "_gather", "_vals"}
            plan.verify_arrays()
            plan.verify_bounds()

    @pytest.mark.parametrize("fmt", ["bro_ell", "bro_hyb", "csr"])
    @pytest.mark.parametrize("array", ["_gather", "_rows", "_counts"])
    def test_structure_guard_catches_out_of_range_index(self, fmt, array):
        coo = random_coo(64, 48, density=0.08, seed=3)
        mat = seal(convert(coo, fmt))
        x = np.random.default_rng(3).standard_normal(48)
        pol = ExecutionPolicy(verify="structure", compute_backend="numpy",
                              fallback=CSRMatrix.from_coo(coo))
        expected = run_spmv(mat, x, "k20", policy=pol).y
        plan = PLAN_CACHE.get_or_build(mat, "k20", backend="numpy")
        name = _flip_high(plan, array)
        result = run_spmv(mat, x, "k20", policy=pol)
        assert result.fault_detected and result.fallback_used
        assert "index bounds" in result.integrity_error
        assert name in result.integrity_error
        # The failed plan left the cache: the next call rebuilds it.
        again = run_spmv(mat, x, "k20", policy=pol)
        assert not again.fallback_used
        assert np.array_equal(again.y, expected)

    @requires_scipy_executor
    def test_structure_guard_keeps_scipy_loop_in_bounds(self):
        """A far out-of-range ``_gather`` or ``_indptr`` entry in a warm
        scipy plan comes back as a typed error under ``"structure"``; the
        compiled row loop never reads it (which could kill the process)."""
        code = (
            "import numpy as np\n"
            "from repro.core.bro_ell import BROELLMatrix\n"
            "from repro.errors import IntegrityError\n"
            "from repro.exec.policy import ExecutionPolicy\n"
            "from repro.integrity import seal\n"
            "from repro.kernels.dispatch import run_spmv\n"
            "from repro.kernels.plancache import PLAN_CACHE\n"
            "from tests.conftest import random_coo\n"
            "mat = seal(BROELLMatrix.from_coo(\n"
            "    random_coo(64, 48, density=0.08, seed=21), h=16))\n"
            "pol = ExecutionPolicy(verify='structure')\n"
            "for name in ('_gather', '_indptr'):\n"
            "    run_spmv(mat, np.ones(48), 'k20', policy=pol)\n"
            "    plan = PLAN_CACHE.get_or_build(mat, 'k20')\n"
            "    assert plan.backend == 'scipy', plan.backend\n"
            "    arr = getattr(plan, name)\n"
            "    arr[:1].view(np.uint8)[arr.itemsize - 1] ^= np.uint8(1 << 6)\n"
            "    try:\n"
            "        run_spmv(mat, np.ones(48), 'k20', policy=pol)\n"
            "    except IntegrityError as exc:\n"
            "        assert name in str(exc), exc\n"
            "        print(name, 'typed')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=ROOT, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), str(ROOT)])},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["_gather typed", "_indptr typed"]

    def test_thread_shards(self, fixture):
        coo, mat, x, csr = fixture
        pol = ExecutionPolicy(verify="checksum", devices=2, backend="thread",
                              fallback=csr)
        expected = _reference(mat, x)
        assert np.array_equal(run_spmv(mat, x, "k20", policy=pol).y, expected)
        shard = sharded_view(mat, 2, pol.partitioner).shards[1]
        _flip(PLAN_CACHE.get_or_build(shard, "k20"), "_vals")
        before = COUNTERS.snapshot()
        result = run_spmv(mat, x, "k20", policy=pol)
        after = COUNTERS.snapshot()
        assert result.fallback_used
        # Counted once, by the dispatch whose result the caller gets; the
        # shard's nested dispatch raised to it, not to the caller.
        assert (after.verifications - before.verifications,
                after.detections - before.detections,
                after.fallbacks - before.fallbacks,
                after.raised - before.raised) == (1, 1, 1, 0)
        np.testing.assert_allclose(result.y, coo.to_dense() @ x, rtol=1e-9)
        assert np.array_equal(run_spmv(mat, x, "k20", policy=pol).y, expected)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_chaos_plan_fault(self, fixture, backend):
        coo, mat, x, csr = fixture
        X = np.random.default_rng(4).standard_normal((mat.shape[1], 3))
        expected = run_spmm(mat, X, "k20",
                            policy=ExecutionPolicy(engine="reference")).y
        chaos = ChaosPolicy(seed=2, kinds=("plan_bit_flip",), max_faults=1)
        pol = ExecutionPolicy(devices=2, backend=backend, chaos=chaos,
                              fallback=csr)
        try:
            res = run_spmm(mat, X, "k20", policy=pol)
        finally:
            shutdown_pools(mat)
        if backend == "process":
            # The worker reports the typed error; the retry rebuilds.
            assert res.retries >= 1 and not res.fallback_used
            assert np.array_equal(res.y, expected)
        else:
            assert res.fallback_used
            np.testing.assert_allclose(res.y, coo.to_dense() @ X, rtol=1e-9)


class TestContainerChecks:
    def test_in_place_corruption_after_warm_call_is_benign(self, fixture):
        _, mat, x, csr = fixture
        expected = _reference(mat, x)
        pol = ExecutionPolicy(verify="checksum", fallback=csr)
        run_spmv(mat, x, "k20", policy=pol)
        _corrupt_in_place(mat)
        result = run_spmv(mat, x, "k20", policy=pol)
        assert not result.fault_detected
        assert np.array_equal(result.y, expected)

    @pytest.mark.parametrize("read", ["invalidate", "evict", "repartition",
                                      "reference"])
    def test_detected_at_the_next_read(self, fixture, read):
        coo, mat, x, csr = fixture
        other = seal(BROELLMatrix.from_coo(random_coo(64, 48, seed=5), h=16))
        cache = PlanCache(maxsize=1)
        pol = ExecutionPolicy(verify="checksum", fallback=csr, plan_cache=cache)
        if read == "repartition":
            pol = pol.with_(devices=2)
        run_spmv(mat, x, "k20", policy=pol)
        _corrupt_in_place(mat)
        if read == "invalidate":
            cache.invalidate(mat)
        elif read == "evict":
            run_spmv(other, x, "k20", policy=pol)
        elif read == "repartition":
            pol = pol.with_(partitioner="contiguous")
        else:
            pol = pol.with_(engine="reference")
        result = run_spmv(mat, x, "k20", policy=pol)
        assert result.fault_detected and result.fallback_used
        assert "IntegrityError" in result.integrity_error
        np.testing.assert_allclose(result.y, coo.to_dense() @ x, rtol=1e-9)

    def test_unverified_plan_verifies_its_container_exactly_once(self, fixture):
        _, mat, x, _ = fixture
        cache = PlanCache()
        run_spmv(mat, x, "k20", policy=ExecutionPolicy(plan_cache=cache))
        assert cache.stats()["container_checks"] == 0
        checked = ExecutionPolicy(verify="checksum", plan_cache=cache)
        for _ in range(3):
            run_spmv(mat, x, "k20", policy=checked)
        run_spmv(mat, x, "k20", policy=checked.with_(verify="structure"))
        stats = cache.stats()
        assert stats["container_checks"] == 1
        assert stats["builds"] == 1

    def test_stronger_level_upgrades_the_record(self, fixture):
        _, mat, x, _ = fixture
        cache = PlanCache()
        pol = ExecutionPolicy(verify="structure", plan_cache=cache)
        run_spmv(mat, x, "k20", policy=pol)
        run_spmv(mat, x, "k20", policy=pol.with_(verify="checksum"))
        run_spmv(mat, x, "k20", policy=pol.with_(verify="checksum"))
        assert cache.stats()["container_checks"] == 2

    def test_content_hit_verifies_the_new_object(self, fixture):
        import copy

        coo, mat, x, csr = fixture
        cache = PlanCache()
        pol = ExecutionPolicy(verify="checksum", fallback=csr, plan_cache=cache)
        run_spmv(mat, x, "k20", policy=pol)
        twin = copy.deepcopy(mat)
        assert not run_spmv(twin, x, "k20", policy=pol).fallback_used
        assert cache.stats()["content_hits"] == 1
        bad = copy.deepcopy(mat)
        _corrupt_in_place(bad)
        assert run_spmv(bad, x, "k20", policy=pol).fallback_used
        assert cache.stats()["content_hits"] == 1


class TestShardedViewFollowsTheSeal:
    def test_prebuilt_sharded_matrix_checked_once_per_seal(self, fixture):
        from repro.exec.partition import partition

        coo, mat, x, csr = fixture
        sharded = seal(partition(mat, 2))
        sharded.shards[0]._vals[0] += 1.0  # decodes fine: silent in values
        pol = ExecutionPolicy(verify="checksum", fallback=csr)
        result = run_spmv(sharded, x, "k20", policy=pol)
        assert result.fallback_used
        np.testing.assert_allclose(result.y, coo.to_dense() @ x, rtol=1e-9)
        seal(sharded)  # accept the change on purpose
        assert not run_spmv(sharded, x, "k20", policy=pol).fallback_used

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_reseal_repartitions(self, backend):
        coo = random_coo(64, 48, density=0.08, seed=9)
        mat = seal(convert(coo, "csr"))
        x = np.random.default_rng(9).standard_normal(48)
        pol = ExecutionPolicy(verify="checksum", devices=2, backend=backend)
        try:
            before = run_spmv(mat, x, "k20", policy=pol).y
            old = sharded_view(mat, 2, pol.partitioner)
            pools = list(getattr(old, "_repro_worker_pools", {}).values())
            mat.vals[:] *= 2.0
            seal(mat)
            after = run_spmv(mat, x, "k20", policy=pol).y
            single = run_spmv(mat, x, "k20",
                              policy=ExecutionPolicy(verify="checksum")).y
        finally:
            shutdown_pools(mat)
        assert np.array_equal(after, single)
        assert np.array_equal(after, 2.0 * before)
        assert sharded_view(mat, 2, pol.partitioner) is not old
        assert all(pool._closed for pool in pools)

    def test_reseal_drops_superseded_shard_plans(self):
        coo = random_coo(64, 48, density=0.08, seed=9)
        mat = seal(convert(coo, "csr"))
        x = np.random.default_rng(9).standard_normal(48)
        pol = ExecutionPolicy(devices=2, backend="thread")
        sizes = []
        for _ in range(3):
            mat.vals[:] *= 2.0
            seal(mat)
            run_spmv(mat, x, "k20", policy=pol)
            sizes.append(len(PLAN_CACHE))
        assert sizes == [2, 2, 2]
