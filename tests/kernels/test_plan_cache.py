"""Plan-cache correctness: LRU bounds, fingerprint invalidation, staleness.

The acceptance criterion: re-sealing or corrupting a container must
invalidate its cached plan — a mutated matrix can never be served stale
results.
"""

import copy

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ValidationError
from repro.formats.conversion import convert
from repro.integrity.checksums import seal
from repro.kernels import PLAN_CACHE, PlanCache, run_spmv
from repro.kernels.plancache import fingerprint_token
from repro.telemetry import metrics as M
from repro.exec.policy import ExecutionPolicy
from tests.conftest import random_coo


def small_matrix(seed=0, fmt="bro_ell"):
    coo = random_coo(64, 64, density=0.08, seed=seed)
    kwargs = {"h": 16} if fmt in ("bro_ell", "bro_hyb") else {}
    return convert(coo, fmt, **kwargs)


class TestLookup:
    def test_miss_then_hit_returns_same_plan(self):
        cache = PlanCache()
        mat = small_matrix()
        p1 = cache.get_or_build(mat, "k20")
        p2 = cache.get_or_build(mat, "k20")
        assert p1 is p2
        s = cache.stats()
        assert s["misses"] == 1 and s["hits"] == 1 and s["builds"] == 1
        assert len(cache) == 1
        assert mat in cache

    def test_distinct_devices_get_distinct_plans(self):
        cache = PlanCache()
        mat = small_matrix()
        p_k20 = cache.get_or_build(mat, "k20")
        p_c2070 = cache.get_or_build(mat, "c2070")
        assert p_k20 is not p_c2070
        assert len(cache) == 2

    def test_invalid_validate_level_rejected(self):
        cache = PlanCache()
        with pytest.raises(ValueError, match="validate"):
            cache.get_or_build(small_matrix(), "k20", validate="paranoid")

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestLRUEviction:
    def test_oldest_entry_evicted_at_capacity(self):
        cache = PlanCache(maxsize=2)
        mats = [small_matrix(seed=s) for s in range(3)]
        for m in mats:
            cache.get_or_build(m, "k20")
        assert len(cache) == 2
        assert mats[0] not in cache
        assert mats[1] in cache and mats[2] in cache
        assert cache.stats()["evictions"] == 1

    def test_hit_refreshes_recency(self):
        cache = PlanCache(maxsize=2)
        a, b, c = (small_matrix(seed=s) for s in range(3))
        cache.get_or_build(a, "k20")
        cache.get_or_build(b, "k20")
        cache.get_or_build(a, "k20")  # a becomes most-recent
        cache.get_or_build(c, "k20")  # evicts b, not a
        assert a in cache and c in cache and b not in cache

    def test_evicted_entry_rebuilds(self):
        cache = PlanCache(maxsize=1)
        a, b = small_matrix(seed=0), small_matrix(seed=1)
        p1 = cache.get_or_build(a, "k20")
        cache.get_or_build(b, "k20")
        p2 = cache.get_or_build(a, "k20")
        assert p1 is not p2
        assert cache.stats()["builds"] == 3


class TestInvalidation:
    def test_reseal_after_mutation_invalidates(self):
        """The acceptance case: mutate + re-seal => fresh plan, fresh results."""
        cache = PlanCache()
        coo = random_coo(48, 48, density=0.1, seed=3)
        mat = seal(convert(coo, "coo"))
        x = np.random.default_rng(0).standard_normal(48)

        p1 = cache.get_or_build(mat, "k20")
        y1 = p1.execute(x).y

        mat.vals[:] *= 2.0
        seal(mat)
        p2 = cache.get_or_build(mat, "k20")
        y2 = p2.execute(x).y

        assert p1 is not p2
        assert cache.stats()["invalidations"] == 1
        np.testing.assert_allclose(y2, 2.0 * y1)

    def test_unsealed_header_validation_cannot_see_silent_mutation(self):
        # Documents the contract: without a seal the header token is None
        # before and after, so "header" validation serves the cached plan.
        cache = PlanCache()
        mat = small_matrix(fmt="coo")
        p1 = cache.get_or_build(mat, "k20")
        mat.vals[:] *= 2.0
        p2 = cache.get_or_build(mat, "k20")
        assert p1 is p2

    def test_full_validation_catches_silent_mutation(self):
        cache = PlanCache()
        mat = small_matrix(fmt="coo")
        p1 = cache.get_or_build(mat, "k20", validate="full")
        mat.vals[:] *= 2.0
        p2 = cache.get_or_build(mat, "k20", validate="full")
        assert p1 is not p2
        assert cache.stats()["invalidations"] == 1

    def test_validate_none_trusts_the_key(self):
        cache = PlanCache()
        mat = seal(small_matrix(fmt="coo"))
        p1 = cache.get_or_build(mat, "k20")
        mat.vals[:] *= 2.0
        seal(mat)
        assert cache.get_or_build(mat, "k20", validate="none") is p1

    def test_explicit_invalidate_drops_all_devices(self):
        cache = PlanCache()
        mat = small_matrix()
        cache.get_or_build(mat, "k20")
        cache.get_or_build(mat, "c2070")
        assert cache.invalidate(mat) == 2
        assert len(cache) == 0
        assert cache.invalidate(mat) == 0

    def test_clear_keeps_stats(self):
        cache = PlanCache()
        cache.get_or_build(small_matrix(), "k20")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["builds"] == 1

    def test_fingerprint_token_none_for_unsealed(self):
        assert fingerprint_token(None) is None


class TestContentIndex:
    """The content index holds the checksum of the bytes a plan was
    built from, not the header its container carries."""

    @staticmethod
    def _stale_copy(mat):
        bad = copy.deepcopy(mat)  # keeps the pristine seal
        bad.vals[0] += 1.0
        return bad

    def test_stale_header_copy_is_not_served_to_its_twin(self):
        cache = PlanCache()
        mat = seal(small_matrix(fmt="coo"))
        x = np.random.default_rng(1).standard_normal(mat.shape[1])
        bad_plan = cache.get_or_build(self._stale_copy(mat), "k20")
        plan = cache.get_or_build(mat, "k20")
        assert plan is not bad_plan
        assert cache.stats()["content_hits"] == 0
        np.testing.assert_allclose(plan.execute(x).y, mat.spmv(x))

    def test_twin_plan_is_served_to_a_stale_header_copy(self):
        cache = PlanCache()
        mat = seal(small_matrix(fmt="coo"))
        plan = cache.get_or_build(mat, "k20")
        assert cache.get_or_build(self._stale_copy(mat), "k20") is plan
        assert cache.stats()["content_hits"] == 1


class TestBackendKeying:
    """The cache key includes the resolved executor backend: a numpy plan
    is never served to an ``"auto"`` request that resolves to jit, and
    vice versa."""

    def test_numpy_and_jit_plans_cached_separately(self, monkeypatch):
        from repro.kernels import backends

        monkeypatch.setattr(backends, "jit_available", lambda: True)
        cache = PlanCache()
        mat = small_matrix()
        p_numpy = cache.get_or_build(mat, "k20", backend="numpy")
        p_jit = cache.get_or_build(mat, "k20", backend="auto")
        assert p_numpy is not p_jit
        assert p_numpy.backend == "numpy"
        assert p_jit.backend == "jit"
        assert len(cache) == 2
        # Repeat requests hit their own entry, never the other backend's.
        assert cache.get_or_build(mat, "k20", backend="numpy") is p_numpy
        assert cache.get_or_build(mat, "k20", backend="auto") is p_jit
        assert cache.stats()["builds"] == 2
        assert cache.stats()["hits"] == 2

    def test_auto_and_honoured_jit_share_an_entry(self, monkeypatch):
        # "auto" resolves before keying: with Numba every "auto" request
        # lands on the one jit entry — no double builds.
        from repro.kernels import backends

        monkeypatch.setattr(backends, "jit_available", lambda: True)
        cache = PlanCache()
        mat = small_matrix()
        p_auto = cache.get_or_build(mat, "k20", backend="auto")
        assert p_auto.backend == "jit"
        assert cache.get_or_build(mat, "k20", backend="auto") is p_auto
        assert cache.stats()["builds"] == 1

    def test_unfulfillable_jit_shares_the_auto_entry(self):
        from repro.kernels import backends

        if backends.jit_available():
            pytest.skip("host has Numba")
        cache = PlanCache()
        mat = small_matrix()
        p_auto = cache.get_or_build(mat, "k20", backend="auto")
        assert p_auto.backend == (
            "scipy" if backends.scipy_refusal() is None else "numpy")
        # "jit" is no request: it is refused and builds nothing, so the
        # auto entry stays the only one.
        with pytest.raises(ValidationError, match="compute_backend"):
            cache.get_or_build(mat, "k20", backend="jit")
        assert cache.get_or_build(mat, "k20", backend="auto") is p_auto
        assert len(cache) == 1
        assert cache.stats()["builds"] == 1

    def test_eviction_is_per_backend_entry(self, monkeypatch):
        from repro.kernels import backends

        monkeypatch.setattr(backends, "jit_available", lambda: True)
        cache = PlanCache(maxsize=2)
        mat = small_matrix()
        p_numpy = cache.get_or_build(mat, "k20", backend="numpy")
        p_jit = cache.get_or_build(mat, "k20", backend="auto")
        other = small_matrix(seed=5)
        cache.get_or_build(other, "k20", backend="numpy")  # evicts p_numpy
        assert cache.stats()["evictions"] == 1
        # The jit entry survived; only the numpy plan rebuilds.
        assert cache.get_or_build(mat, "k20", backend="auto") is p_jit
        rebuilt = cache.get_or_build(mat, "k20", backend="numpy")
        assert rebuilt is not p_numpy
        assert rebuilt.backend == "numpy"

    def test_invalidate_drops_every_backend_entry(self, monkeypatch):
        from repro.kernels import backends

        monkeypatch.setattr(backends, "jit_available", lambda: True)
        cache = PlanCache()
        mat = small_matrix()
        cache.get_or_build(mat, "k20", backend="numpy")
        cache.get_or_build(mat, "k20", backend="auto")
        cache.get_or_build(mat, "c2070", backend="numpy")
        assert cache.invalidate(mat) == 3
        assert len(cache) == 0


class TestWarmSessionRebuilds:
    """Satellite 6: a warm Session replays with zero plan rebuilds and a
    memoized counters prototype (no per-call re-derivation)."""

    def test_zero_rebuilds_on_warm_session(self):
        from repro.pipeline import Session

        cache = PlanCache()
        sess = Session(
            "k20",
            policy=ExecutionPolicy(plan_cache=cache, compute_backend="numpy"),
        )
        sess.use(small_matrix())
        sess.prepare()
        assert cache.stats()["builds"] == 1
        x = np.ones(sess.matrix.shape[1])
        for _ in range(4):
            sess.run(x)
        stats = cache.stats()
        assert stats["builds"] == 1, "warm session must not rebuild plans"
        assert stats["misses"] == 1

    def test_counters_prototype_memoized_per_k(self):
        cache = PlanCache()
        plan = cache.get_or_build(small_matrix(), "k20")
        c1 = plan.counters()
        c2 = plan.counters()
        assert c1 == c2 and c1 is not c2  # copies of one memoized proto
        assert plan._counters_memo[1] is plan._counters
        k1 = plan.counters(4)
        k2 = plan.counters(4)
        assert k1 == k2 and k1 is not k2
        assert len(plan._counters_memo) == 2
        assert k1.launches == 4 * c1.launches
        assert k1.threads == c1.threads


class TestRunSpmvIntegration:
    def test_corrupt_then_reseal_never_serves_stale_y(self):
        cache = PlanCache()
        coo = random_coo(40, 40, density=0.1, seed=9)
        mat = seal(convert(coo, "coo"))
        x = np.ones(40)
        y1 = run_spmv(mat, x, "k20",
                      policy=ExecutionPolicy(plan_cache=cache)).y
        mat.vals[:] += 1.0
        seal(mat)
        y2 = run_spmv(mat, x, "k20",
                      policy=ExecutionPolicy(plan_cache=cache)).y
        np.testing.assert_allclose(y2, mat.spmv(x))
        assert not np.allclose(y1, y2)

    def test_in_place_mutation_needs_publishing(self):
        # The contract of the default engine: a plan is cached per
        # container object, so an in-place mutation shows only once it
        # is published — by re-sealing, invalidating, or on the
        # reference engine, which decodes on every call.
        coo = random_coo(40, 40, density=0.1, seed=9)
        mat = convert(coo, "csr")
        x = np.ones(40)
        y1 = run_spmv(mat, x, "k20").y
        mat.vals[:] *= 2.0
        assert np.array_equal(run_spmv(mat, x, "k20").y, y1)
        reference = run_spmv(mat, x, "k20",
                             policy=ExecutionPolicy(engine="reference")).y
        np.testing.assert_allclose(reference, 2.0 * y1)
        assert PLAN_CACHE.invalidate(mat) == 1
        assert np.array_equal(run_spmv(mat, x, "k20").y, reference)

        mat.vals[:] *= 2.0
        seal(mat)
        np.testing.assert_allclose(run_spmv(mat, x, "k20").y, 2.0 * reference)

    def test_global_cache_is_the_default(self):
        mat = small_matrix(seed=42)
        x = np.ones(mat.shape[1])
        before = PLAN_CACHE.stats()["builds"]
        run_spmv(mat, x, "k20")
        run_spmv(mat, x, "k20")
        after = PLAN_CACHE.stats()
        assert after["builds"] == before + 1
        assert after["hits"] >= 1

    def test_cache_metrics_emitted(self):
        reg = M.MetricsRegistry()
        cache = PlanCache()
        mat = small_matrix(seed=11)
        with telemetry.tracing(registry=reg):
            cache.get_or_build(mat, "k20")
            cache.get_or_build(mat, "k20")
        telemetry.disable()
        snap = reg.snapshot()["counters"]
        assert snap["plan_cache.misses"] == 1
        assert snap["plan_cache.hits"] == 1
        assert snap["plan_cache.builds"] == 1
