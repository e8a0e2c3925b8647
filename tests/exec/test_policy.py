"""ExecutionPolicy validation and the policy-only entry points.

The pre-policy loose keywords (``verify=``/``fallback=``/``engine=``/
``plan=``/``plan_cache=``) were deprecated shims for one release and are
now removed: every entry point accepts ``policy=`` only, and passing a
legacy keyword is a plain ``TypeError``. The fault-tolerance fields
(``backend``/``shard_timeout_s``/``max_retries``/``chaos``) validate like
the rest of the frozen dataclass.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.exec.chaos import ChaosPolicy
from repro.exec.policy import ExecutionPolicy
from repro.kernels.dispatch import run_spmm, run_spmv
from repro.pipeline import Session
from repro.solvers.operators import SimulatedOperator

from ..conftest import random_coo
from repro.formats.conversion import convert


@pytest.fixture(scope="module")
def mat():
    return convert(random_coo(512, 512, density=0.02, seed=0), "bro_ell")


@pytest.fixture(scope="module")
def x(mat):
    return np.random.default_rng(1).standard_normal(mat.shape[1])


class TestPolicyValidation:
    def test_defaults(self):
        pol = ExecutionPolicy()
        assert pol.engine == "auto"
        assert pol.verify is False
        assert pol.devices == 1
        assert pol.partitioner == "greedy-nnz"
        assert pol.comms == "auto"
        assert pol.backend == "thread"
        assert pol.shard_timeout_s is None
        assert pol.max_retries == 2
        assert pol.chaos is None
        assert pol.compute_backend == "auto"
        assert not pol.sharded

    def test_verify_normalization(self):
        assert ExecutionPolicy(verify=True).verify == "checksum"
        assert ExecutionPolicy(verify=None).verify is False
        assert ExecutionPolicy(verify="full").verify == "full"

    @pytest.mark.parametrize("kwargs", [
        {"engine": "turbo"},
        {"verify": "paranoid"},
        {"devices": 0},
        {"devices": 2.5},
        {"partitioner": "round-robin"},
        {"comms": "carrier-pigeon"},
        {"backend": "mpi"},
        {"shard_timeout_s": 0.0},
        {"shard_timeout_s": -1.0},
        {"max_retries": -1},
        {"max_retries": 1.5},
        {"chaos": "kill-worker"},
        # A bool is not a count or a duration, and a deadline must be a
        # finite real number: all raise typed, none a bare TypeError.
        {"devices": True},
        {"max_retries": False},
        {"shard_timeout_s": True},
        {"shard_timeout_s": "1"},
        {"shard_timeout_s": float("nan")},
        {"shard_timeout_s": float("inf")},
        {"shard_timeout_s": 1j},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            ExecutionPolicy(**kwargs)

    def test_explicit_plan_incompatible_with_sharding(self, mat):
        from repro.kernels.plan import prepare

        plan = prepare(mat, "k20")
        with pytest.raises(ValidationError, match="multi-device"):
            ExecutionPolicy(devices=2, plan=plan)

    def test_with_returns_validated_copy(self):
        pol = ExecutionPolicy()
        sharded = pol.with_(devices=4)
        assert sharded.devices == 4 and pol.devices == 1
        assert sharded.sharded
        with pytest.raises(ValidationError):
            pol.with_(engine="nope")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPolicy().engine = "reference"

    def test_describe_is_jsonable(self):
        import json

        doc = ExecutionPolicy(
            devices=2, verify="full", backend="process",
            shard_timeout_s=1.5, chaos=ChaosPolicy(seed=3),
        ).describe()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["devices"] == 2 and doc["verify"] == "full"
        assert doc["backend"] == "process"
        assert doc["shard_timeout_s"] == 1.5
        assert doc["chaos"] is True

    def test_chaos_accepts_policy_instance(self):
        chaos = ChaosPolicy(seed=1, kinds=("kill-worker",))
        pol = ExecutionPolicy(backend="process", chaos=chaos)
        assert pol.chaos is chaos


class TestLegacyKeywordsRemoved:
    """The deprecation window is over: legacy kwargs are TypeErrors now."""

    def test_run_spmv_rejects_legacy_kwargs(self, mat, x):
        with pytest.raises(TypeError):
            run_spmv(mat, x, "k20", engine="reference")
        with pytest.raises(TypeError):
            run_spmv(mat, x, "k20", verify="checksum")

    def test_run_spmm_rejects_legacy_kwargs(self, mat, x):
        X = np.stack([x, 2 * x], axis=1)
        with pytest.raises(TypeError):
            run_spmm(mat, X, "k20", engine="reference")

    def test_session_rejects_legacy_kwargs(self):
        with pytest.raises(TypeError):
            Session("k20", verify="structure")

    def test_session_run_rejects_legacy_kwargs(self, mat, x):
        sess = Session("k20").use(mat)
        with pytest.raises(TypeError):
            sess.run(x, verify=True)
        with pytest.raises(TypeError):
            sess.run(x, engine="reference")

    def test_operator_rejects_legacy_kwargs(self, mat):
        with pytest.raises(TypeError):
            SimulatedOperator(mat, "k20", engine="reference")

    def test_policy_rejects_removed_fields(self):
        # The process pool always respawns a lost worker.
        with pytest.raises(TypeError):
            ExecutionPolicy(elastic=False)
        assert len(dataclasses.fields(ExecutionPolicy)) == 13

    def test_policy_module_no_longer_exports_shims(self):
        import repro.exec.policy as policy_mod

        assert not hasattr(policy_mod, "coerce_policy")
        assert not hasattr(policy_mod, "UNSET")

    def test_policy_only_call_is_warning_free(self, mat, x):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_spmv(mat, x, "k20", policy=ExecutionPolicy(engine="reference"))
            Session("k20", policy=ExecutionPolicy()).use(mat).run(x)


class TestSessionPolicyView:
    def test_session_fills_plan_cache_for_fast_engines(self):
        sess = Session("k20", policy=ExecutionPolicy())
        assert sess.plan_cache is not None
        ref = Session("k20", policy=ExecutionPolicy(engine="reference"))
        assert ref.plan_cache is None

    def test_policy_is_the_only_view(self, mat):
        sess = Session("k20", policy=ExecutionPolicy(verify="checksum"))
        op = SimulatedOperator(mat, "k20")
        for name in ("verify", "fallback", "engine"):
            assert not hasattr(sess, name), name
            assert not hasattr(op, name), name
        assert not hasattr(op, "plan_cache")
        sess.use(mat).with_fallback("csr")
        assert sess.policy.fallback.format_name == "csr"
        assert sess.policy.verify == "checksum"

    def test_describe_reports_devices(self, mat):
        sess = Session("k20", policy=ExecutionPolicy(devices=4)).use(mat)
        assert sess.describe()["devices"] == 4
