"""The prepared-plan (fast) engine must be indistinguishable from the
stepwise reference engine: bit-identical ``y`` (no tolerance) and equal
``KernelCounters`` for every suite matrix, every BRO format, and both
symbol lengths — the tentpole acceptance criterion. The suite sweep
runs on the numpy jagged replay and again on SciPy's CSR row loops (the
``"scipy"`` executor, skipped where the host refuses it).
"""

from functools import lru_cache

import numpy as np
import pytest

from repro import telemetry
from repro.errors import KernelError, ValidationError
from repro.formats.conversion import convert
from repro.kernels import (
    has_planner,
    plannable_formats,
    prepare,
    run_spmv,
)
from repro.kernels.plancache import PLAN_CACHE, PlanCache
from repro.matrices.suite import TABLE2, generate
from repro.telemetry import metrics as M
from repro.exec.policy import ExecutionPolicy
from tests.conftest import random_coo, requires_scipy_executor

_REF = ExecutionPolicy(engine="reference")

#: Scale small enough that the full 31-matrix suite sweep stays fast.
SUITE_SCALE = 0.004

BRO_FORMATS = ("bro_ell", "bro_ell_mt", "bro_ell_vc", "bro_coo", "bro_hyb", "bro_sell")
BASELINE_FORMATS = ("ellpack", "coo", "csr", "sliced_ellpack", "ellpack_r",
                    "sell_c_sigma", "cmrs", "hyb", "bellpack")


@lru_cache(maxsize=None)
def suite_coo(name):
    return generate(name, scale=SUITE_SCALE)


@lru_cache(maxsize=None)
def suite_format(name, fmt, sym_len):
    kwargs = {"sym_len": sym_len}
    if fmt in ("bro_ell", "bro_hyb"):
        kwargs["h"] = 64
    return convert(suite_coo(name), fmt, **kwargs)


def _x_for(mat, seed=7):
    return np.random.default_rng(seed).standard_normal(mat.shape[1])


class TestRegistry:
    def test_all_target_formats_plannable(self):
        for fmt in BRO_FORMATS + BASELINE_FORMATS:
            assert has_planner(fmt)
        assert set(BRO_FORMATS + BASELINE_FORMATS) <= set(plannable_formats())

    def test_unplannable_format_raises(self, random_matrix, monkeypatch):
        # Every format with a reference kernel now ships a planner, so
        # simulate a missing builder by unbinding one temporarily.
        from repro import registry as _registry

        monkeypatch.setattr(_registry.get_spec("ellpack_r"), "planner", None)
        mat = convert(random_matrix, "ellpack_r")
        assert not has_planner("ellpack_r")
        with pytest.raises(KernelError, match="no prepared-plan builder"):
            prepare(mat, "k20")

    def test_engine_fast_is_rejected(self):
        # "auto" replays the plan for every plannable format, so "fast"
        # would be a second spelling of it; the policy refuses it typed.
        with pytest.raises(ValidationError, match="engine must be one of"):
            ExecutionPolicy(engine="fast")

    def test_auto_engine_falls_back_to_reference(self, random_matrix, monkeypatch):
        # auto + unplannable format must still work (reference engine).
        from repro import registry as _registry

        monkeypatch.setattr(_registry.get_spec("ellpack_r"), "planner", None)
        mat = convert(random_matrix, "ellpack_r")
        res = run_spmv(mat, _x_for(mat), "k20",
                       policy=ExecutionPolicy(plan_cache=PlanCache()))
        np.testing.assert_allclose(res.y, random_matrix.spmv(_x_for(mat)))


class TestSuiteEquivalence:
    """The headline sweep: every Table 2 matrix x BRO format x sym_len."""

    #: the executor the plans replay on; TestSuiteEquivalenceScipy
    #: repeats the sweep on SciPy's row loops.
    EXECUTOR = "numpy"

    @pytest.mark.parametrize("name", sorted(TABLE2))
    @pytest.mark.parametrize("sym_len", [32, 64])
    def test_suite_matrix_bit_identical(self, name, sym_len):
        for fmt in BRO_FORMATS:
            mat = suite_format(name, fmt, sym_len)
            x = _x_for(mat)
            ref = run_spmv(mat, x, "k20", policy=_REF)
            plan = prepare(mat, "k20", backend=self.EXECUTOR)
            fast = plan.execute(x)
            assert np.array_equal(ref.y, fast.y), (name, fmt, sym_len)
            assert ref.counters == fast.counters, (name, fmt, sym_len)

    @pytest.mark.parametrize("fmt", BASELINE_FORMATS)
    def test_baseline_formats_bit_identical(self, fmt):
        for seed in (0, 1, 2):
            coo = random_coo(140, 120, density=0.06, seed=seed)
            mat = convert(coo, fmt)
            x = _x_for(mat, seed)
            ref = run_spmv(mat, x, "k20", policy=_REF)
            fast = prepare(mat, "k20", backend=self.EXECUTOR).execute(x)
            assert np.array_equal(ref.y, fast.y)
            assert ref.counters == fast.counters

    @pytest.mark.parametrize("device", ["c2070", "gtx680", "k20"])
    def test_counters_match_on_every_device(self, device):
        mat = suite_format("sme3Da", "bro_ell", 32)
        x = _x_for(mat)
        ref = run_spmv(mat, x, device, policy=_REF)
        fast = prepare(mat, device, backend=self.EXECUTOR).execute(x)
        assert np.array_equal(ref.y, fast.y)
        assert ref.counters == fast.counters

    def test_empty_row_and_single_entry_edge_cases(self):
        from repro.formats.coo import COOMatrix

        for coo in (
            COOMatrix([0, 7], [1, 2], [1.0, 2.0], (9, 4)),
            COOMatrix([2], [3], [5.0], (5, 5)),
        ):
            for fmt in BRO_FORMATS:
                kwargs = {"h": 4} if fmt in ("bro_ell", "bro_hyb") else {}
                mat = convert(coo, fmt, **kwargs)
                x = np.ones(coo.shape[1])
                ref = run_spmv(mat, x, "k20", policy=_REF)
                fast = prepare(mat, "k20", backend=self.EXECUTOR).execute(x)
                assert np.array_equal(ref.y, fast.y)
                assert ref.counters == fast.counters


@requires_scipy_executor
class TestSuiteEquivalenceScipy(TestSuiteEquivalence):
    EXECUTOR = "scipy"


class TestDispatchEngines:
    def test_run_spmv_engine_fast_equals_reference(self):
        mat = suite_format("epb3", "bro_ell", 32)
        x = _x_for(mat)
        cache = PlanCache()
        ref = run_spmv(mat, x, "k20", policy=_REF)
        fast = run_spmv(mat, x, "k20", policy=ExecutionPolicy(plan_cache=cache))
        again = run_spmv(mat, x, "k20", policy=ExecutionPolicy(plan_cache=cache))
        assert np.array_equal(ref.y, fast.y)
        assert np.array_equal(ref.y, again.y)
        assert ref.counters == fast.counters == again.counters
        assert cache.stats()["builds"] == 1
        assert cache.stats()["hits"] == 1

    @pytest.mark.parametrize("fmt", sorted(BRO_FORMATS + BASELINE_FORMATS))
    def test_default_policy_builds_once_then_hits(self, fmt):
        # No plan source in the policy: the process-wide cache serves it.
        mat = convert(random_coo(140, 120, density=0.06, seed=5), fmt)
        x = _x_for(mat)
        before = PLAN_CACHE.stats()
        first = run_spmv(mat, x, "k20")
        mid = PLAN_CACHE.stats()
        second = run_spmv(mat, x, "k20")
        after = PLAN_CACHE.stats()
        assert mid["builds"] - before["builds"] == 1
        assert mid["hits"] == before["hits"]
        assert after["builds"] == mid["builds"]
        assert after["hits"] - mid["hits"] == 1
        ref = run_spmv(mat, x, "k20", policy=_REF)
        assert np.array_equal(first.y, ref.y)
        assert np.array_equal(second.y, ref.y)
        assert first.counters == second.counters == ref.counters

    def test_explicit_plan_argument(self):
        mat = suite_format("rim", "bro_coo", 32)
        x = _x_for(mat)
        plan = prepare(mat, "k20")
        ref = run_spmv(mat, x, "k20", policy=_REF)
        fast = run_spmv(mat, x, "k20", policy=ExecutionPolicy(plan=plan))
        assert np.array_equal(ref.y, fast.y)
        assert ref.counters == fast.counters

    def test_plan_for_wrong_matrix_rejected(self):
        a = suite_format("rim", "bro_ell", 32)
        b = suite_format("epb3", "bro_ell", 32)
        plan = prepare(a, "k20")
        with pytest.raises(ValidationError, match="different matrix"):
            run_spmv(b, _x_for(b), "k20", policy=ExecutionPolicy(plan=plan))

    def test_plan_for_wrong_device_rejected(self):
        mat = suite_format("rim", "bro_ell", 32)
        plan = prepare(mat, "c2070")
        with pytest.raises(ValidationError, match="device"):
            run_spmv(mat, _x_for(mat), "k20", policy=ExecutionPolicy(plan=plan))

    def test_plan_conflicts_with_reference_engine(self):
        mat = suite_format("rim", "bro_ell", 32)
        plan = prepare(mat, "k20")
        with pytest.raises(ValidationError, match="engine='reference'"):
            run_spmv(mat, _x_for(mat), "k20",
                     policy=ExecutionPolicy(plan=plan, engine="reference"))

    def test_verified_fallback_path_with_fast_engine(self):
        """A corrupted container degrades to the fallback on the fast path
        exactly as on the reference path (plan build is inside the guard)."""
        import copy

        from repro.formats.csr import CSRMatrix

        coo = suite_coo("rim")
        mat = copy.deepcopy(suite_format("rim", "bro_ell", 32))
        # Corrupt the packed stream so decoding produces garbage widths.
        mat.stream.data[:] = np.iinfo(mat.stream.data.dtype).max
        fb = CSRMatrix.from_coo(coo)
        x = _x_for(mat)
        res = run_spmv(
            mat, x, "k20",
            policy=ExecutionPolicy(verify="structure", fallback=fb,
                                   plan_cache=PlanCache()),
        )
        assert res.fallback_used
        np.testing.assert_allclose(res.y, coo.spmv(x))


class TestTelemetryParity:
    @pytest.fixture(autouse=True)
    def telemetry_off(self):
        telemetry.disable()
        yield
        telemetry.disable()

    def test_fast_replay_emits_kernel_span_and_metrics(self):
        mat = suite_format("epb3", "bro_ell", 32)
        x = _x_for(mat)
        plan = prepare(mat, "k20")
        reg = M.MetricsRegistry()
        with telemetry.tracing(registry=reg) as t:
            result = plan.execute(x)
        (kspan,) = t.find("kernel.bro_ell")
        assert kspan.attrs["engine"] == "fast"
        assert kspan.counters is not None
        assert kspan.counters.dram_bytes == result.counters.dram_bytes
        key = f'kernel.dram_bytes{{device="{result.device.name}",format="bro_ell"}}'
        assert reg.snapshot()["counters"][key] == result.counters.dram_bytes

    def test_prepare_emits_plan_span_and_build_metrics(self):
        mat = suite_format("epb3", "bro_ell", 32)
        reg = M.MetricsRegistry()
        with telemetry.tracing(registry=reg) as t:
            plan = prepare(mat, "k20")
        assert t.find("spmv.plan")
        assert plan.build_seconds > 0.0
        snap = reg.snapshot()["counters"]
        key = f'plan.builds{{device="{plan.device.name}",format="bro_ell"}}'
        assert snap[key] == 1

    def test_fast_result_identical_with_and_without_telemetry(self):
        mat = suite_format("epb3", "bro_ell", 32)
        x = _x_for(mat)
        plan = prepare(mat, "k20")
        plain = plan.execute(x)
        with telemetry.tracing():
            traced = plan.execute(x)
        assert np.array_equal(plain.y, traced.y)
        assert plain.counters == traced.counters
