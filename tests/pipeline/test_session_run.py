"""Session.run — the single entry point for SpMV and SpMM.

1-D dispatches to run_spmv, 2-D to run_spmm (column-bit-identical), any
other rank is a typed error, and the removed execute/execute_many
spellings stay removed.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.formats.conversion import convert
from repro.matrices.suite import generate
from repro.pipeline import Session


@pytest.fixture(scope="module")
def sess():
    s = Session("k20")
    s.use(convert(generate("qcd5_4", scale=0.02, seed=3), "bro_ell", h=16))
    return s


@pytest.fixture(scope="module")
def n(sess):
    return sess.matrix.shape[1]


class TestRunDispatch:
    def test_1d_runs_single_spmv(self, sess, n):
        x = np.linspace(-1, 1, n)
        result = sess.run(x)
        assert result.y.shape == (sess.matrix.shape[0],)
        assert np.array_equal(result.y, sess.run(x).y)  # deterministic

    def test_2d_runs_multi_rhs_column_identical(self, sess, n):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, 3))
        block = sess.run(X)
        assert block.y.shape == (sess.matrix.shape[0], 3)
        for j in range(3):
            single = sess.run(np.ascontiguousarray(X[:, j]))
            assert np.array_equal(block.y[:, j], single.y)

    def test_other_ranks_are_typed_errors(self, sess):
        with pytest.raises(ValidationError, match="1-D vector or"):
            sess.run(np.ones((2, 2, 2)))
        with pytest.raises(ValidationError):
            sess.run(np.float64(3.0))

    def test_accepts_lists(self, sess, n):
        y_list = sess.run([1.0] * n).y
        y_arr = sess.run(np.ones(n)).y
        assert np.array_equal(y_list, y_arr)

    def test_engine_and_verify_overrides_still_work(self, sess, n):
        x = np.linspace(0, 1, n)
        fast = sess.run(x)
        ref = sess.run(x, policy=sess.policy.with_(engine="reference"))
        assert np.allclose(fast.y, ref.y)
        verified = sess.run(x, policy=sess.policy.with_(verify=True))
        assert verified.fault_detected is False


class TestDeprecatedShims:
    def test_legacy_spellings_are_gone(self, sess):
        assert not hasattr(sess, "execute")
        assert not hasattr(sess, "execute_many")

    def test_run_itself_does_not_warn(self, sess, n):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            sess.run(np.ones(n))
        assert not caught
