"""SimulatedOperator must route through run_spmv — the integrity boundary —
and use the prepared-plan engine for plannable formats.
"""

import copy

import numpy as np
import pytest

from repro import telemetry
from repro.exec.policy import ExecutionPolicy
from repro.formats.conversion import convert
from repro.formats.csr import CSRMatrix
from repro.kernels import run_spmv
from repro.kernels.plancache import PlanCache
from repro.solvers.operators import FormatOperator, SimulatedOperator
from tests.conftest import random_coo


def workload(fmt="bro_ell", seed=0):
    coo = random_coo(72, 72, density=0.08, seed=seed)
    kwargs = {"h": 24} if fmt in ("bro_ell", "bro_hyb") else {}
    return coo, convert(coo, fmt, **kwargs)


class TestFormatOperator:
    def test_reference_application(self):
        coo, mat = workload()
        op = FormatOperator(mat)
        x = np.ones(72)
        np.testing.assert_allclose(op(x), coo.spmv(x))
        assert op.spmv_calls == 1


class TestSimulatedOperator:
    def test_matches_reference_engine_bit_identically(self):
        _, mat = workload()
        x = np.random.default_rng(1).standard_normal(72)
        fast = SimulatedOperator(mat, "k20", policy=ExecutionPolicy(plan_cache=PlanCache()))
        ref = SimulatedOperator(mat, "k20", policy=ExecutionPolicy(engine="reference"))
        assert fast.session.policy.engine == "auto"
        assert ref.session.policy.engine == "reference"
        assert np.array_equal(fast(x), ref(x))
        # Equal counters => equal predicted device time and traffic.
        assert fast.device_time == ref.device_time
        assert fast.dram_bytes == ref.dram_bytes
        assert fast.session.plan_cache.stats()["builds"] == 1

    def test_unplannable_format_falls_back_to_reference_engine(self, monkeypatch):
        # Every shipped format with a kernel now has a planner; unbind one
        # to exercise the reference-engine fallback.
        from repro import registry as _registry

        monkeypatch.setattr(_registry.get_spec("ellpack_r"), "planner", None)
        _, mat = workload(fmt="ellpack_r")
        cache = PlanCache()
        op = SimulatedOperator(mat, "k20", policy=ExecutionPolicy(plan_cache=cache))
        x = np.ones(72)
        op(x)
        assert op.spmv_calls == 1
        assert cache.stats()["builds"] == 0  # the stepwise kernels ran

    def test_repeated_calls_hit_the_plan_cache(self):
        _, mat = workload()
        cache = PlanCache()
        op = SimulatedOperator(mat, "k20", policy=ExecutionPolicy(plan_cache=cache))
        x = np.ones(72)
        for _ in range(5):
            op(x)
        s = cache.stats()
        assert s["builds"] == 1
        assert s["hits"] == 4
        assert op.spmv_calls == 5

    def test_routes_through_run_spmv_dispatch_span(self):
        """The satellite bug: operator calls used to bypass run_spmv, so
        solves never produced the dispatch span. Now they must."""
        _, mat = workload()
        op = SimulatedOperator(mat, "k20", policy=ExecutionPolicy(plan_cache=PlanCache()))
        with telemetry.tracing() as t:
            op(np.ones(72))
        telemetry.disable()
        assert t.find("spmv.dispatch")

    def test_verify_and_fallback_pass_through(self):
        """Operator-driven solves honor verify/fallback like direct dispatch."""
        coo, mat = workload()
        mat = copy.deepcopy(mat)
        mat.stream.data[:] = np.iinfo(mat.stream.data.dtype).max
        fb = CSRMatrix.from_coo(coo)
        op = SimulatedOperator(
            mat, "k20",
            policy=ExecutionPolicy(verify="structure", fallback=fb,
                                   plan_cache=PlanCache()),
        )
        x = np.ones(72)
        y = op(x)
        np.testing.assert_allclose(y, coo.spmv(x))
        assert op.fallbacks_used == 1

    def test_accumulates_device_time_and_traffic(self):
        _, mat = workload()
        op = SimulatedOperator(mat, "k20", policy=ExecutionPolicy(plan_cache=PlanCache()))
        x = np.ones(72)
        single = run_spmv(mat, x, "k20", policy=ExecutionPolicy(engine="reference"))
        op(x)
        op(x)
        assert op.device_time == pytest.approx(2 * single.timing.time)
        assert op.dram_bytes == 2 * single.counters.dram_bytes

    def test_cg_solve_identical_across_engines(self):
        from repro.solvers.cg import conjugate_gradient

        n = 48
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        dense = q @ np.diag(np.linspace(1.0, 8.0, n)) @ q.T
        from repro.formats.coo import COOMatrix

        mat = convert(COOMatrix.from_dense(dense), "bro_ell", h=16)
        b = rng.standard_normal(n)
        res_fast = conjugate_gradient(
            SimulatedOperator(mat, "k20", policy=ExecutionPolicy(plan_cache=PlanCache())), b, tol=1e-10
        )
        res_ref = conjugate_gradient(
            SimulatedOperator(mat, "k20", policy=ExecutionPolicy(engine="reference")), b, tol=1e-10
        )
        # Bit-identical SpMVs => bit-identical CG trajectories.
        assert res_fast.iterations == res_ref.iterations
        assert np.array_equal(res_fast.x, res_ref.x)
