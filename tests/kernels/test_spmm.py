"""Multi-RHS (SpMM) batching: every column bit-identical to its SpMV,
counters equal to the sum of the k single-vector records.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.formats.conversion import convert
from repro.kernels import prepare, run_spmm, run_spmv
from repro.kernels.plan import check_multi_x
from repro.kernels.plancache import PlanCache
from repro.exec.policy import ExecutionPolicy
from tests.conftest import random_coo

_REF = ExecutionPolicy(engine="reference")

FORMATS = ("bro_ell", "bro_ell_mt", "bro_ell_vc", "bro_coo", "bro_hyb",
           "ellpack", "coo", "csr")


def make(fmt, seed=0):
    coo = random_coo(96, 80, density=0.07, seed=seed)
    kwargs = {"h": 32} if fmt in ("bro_ell", "bro_hyb") else {}
    return coo, convert(coo, fmt, **kwargs)


class TestColumnEquivalence:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_each_column_bit_identical_to_spmv(self, fmt):
        coo, mat = make(fmt)
        X = np.random.default_rng(5).standard_normal((80, 4))
        res = run_spmm(mat, X, "k20")
        assert res.y.shape == (96, 4)
        for j in range(4):
            ref = run_spmv(mat, X[:, j], "k20", policy=_REF)
            assert np.array_equal(res.y[:, j], ref.y), (fmt, j)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_counters_equal_sum_of_columns(self, fmt):
        _, mat = make(fmt)
        X = np.random.default_rng(6).standard_normal((80, 3))
        res = run_spmm(mat, X, "k20")
        expected = sum(
            run_spmv(mat, X[:, j], "k20", policy=_REF).counters
            for j in range(3)
        )
        assert res.counters == expected

    def test_fast_and_reference_spmm_agree(self):
        _, mat = make("bro_ell")
        X = np.random.default_rng(7).standard_normal((80, 5))
        fast = run_spmm(mat, X, "k20",
                        policy=ExecutionPolicy(plan_cache=PlanCache()))
        ref = run_spmm(mat, X, "k20", policy=_REF)
        assert np.array_equal(fast.y, ref.y)
        assert fast.counters == ref.counters

    def test_single_column_block(self):
        _, mat = make("bro_ell")
        X = np.random.default_rng(8).standard_normal((80, 1))
        res = run_spmm(mat, X, "k20")
        ref = run_spmv(mat, X[:, 0], "k20", policy=_REF)
        assert np.array_equal(res.y[:, 0], ref.y)
        assert res.counters == ref.counters

    def test_plan_execute_many_matches_run_spmm(self):
        _, mat = make("bro_coo")
        plan = prepare(mat, "k20")
        X = np.random.default_rng(9).standard_normal((80, 6))
        a = plan.execute_many(X)
        b = run_spmm(mat, X, "k20", policy=_REF)
        assert np.array_equal(a.y, b.y)
        assert a.counters == b.counters


class TestValidation:
    def test_vector_rejected(self):
        _, mat = make("bro_ell")
        with pytest.raises(ValidationError, match="shape"):
            run_spmm(mat, np.ones(80), "k20")

    def test_wrong_row_count_rejected(self):
        _, mat = make("bro_ell")
        with pytest.raises(ValidationError, match="shape"):
            run_spmm(mat, np.ones((79, 2)), "k20")

    def test_empty_block_rejected(self):
        _, mat = make("bro_ell")
        with pytest.raises(ValidationError, match="k >= 1"):
            check_multi_x(mat, np.ones((80, 0)))

    def test_verified_fallback_path(self):
        import copy

        from repro.formats.csr import CSRMatrix

        coo, mat = make("bro_ell")
        mat = copy.deepcopy(mat)
        mat.stream.data[:] = np.iinfo(mat.stream.data.dtype).max
        fb = CSRMatrix.from_coo(coo)
        X = np.random.default_rng(10).standard_normal((80, 3))
        res = run_spmm(mat, X, "k20",
                       policy=ExecutionPolicy(verify="structure", fallback=fb))
        assert res.fallback_used
        for j in range(3):
            np.testing.assert_allclose(res.y[:, j], coo.spmv(X[:, j]))
