"""The typed request/response schema: wire round-trips, policy keys,
validation. One schema backs the socket protocol, the in-process path
and ``repro spmv --json`` — these tests pin its invariants.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.exec.policy import ExecutionPolicy
from repro.serve import ServerConfig, SpMVRequest, SpMVResponse
from repro.serve.api import (
    POLICY_OVERRIDE_FIELDS,
    apply_policy_overrides,
    policy_key,
)


class TestRequest:
    def test_wire_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(37)
        req = SpMVRequest(request_id="r1", matrix="qcd5_4", x=x,
                          tenant="acme", policy={"engine": "reference"})
        # Through real JSON text, not just dict round-tripping: Python
        # float repr is shortest-round-trip, so bytes survive exactly.
        frame = json.loads(json.dumps(req.to_wire()))
        back = SpMVRequest.from_wire(frame)
        assert back.request_id == "r1"
        assert back.matrix == "qcd5_4"
        assert back.tenant == "acme"
        assert back.policy == {"engine": "reference"}
        assert np.array_equal(back.x, x)

    def test_batch_request_round_trips(self):
        X = np.arange(12, dtype=np.float64).reshape(4, 3)
        req = SpMVRequest(request_id="b", matrix="m", x=X)
        assert req.is_batch and req.n_vectors == 3
        back = SpMVRequest.from_wire(json.loads(json.dumps(req.to_wire())))
        assert np.array_equal(back.x, X)

    def test_validation_errors_are_typed(self):
        x = np.ones(4)
        with pytest.raises(ValidationError):
            SpMVRequest(request_id="", matrix="m", x=x)
        with pytest.raises(ValidationError):
            SpMVRequest(request_id="r", matrix="", x=x)
        with pytest.raises(ValidationError):
            SpMVRequest(request_id="r", matrix="m", x=np.ones((2, 2, 2)))
        with pytest.raises(ValidationError):
            SpMVRequest(request_id="r", matrix="m", x=np.empty(0))
        with pytest.raises(ValidationError, match="unknown policy"):
            SpMVRequest(request_id="r", matrix="m", x=x,
                        policy={"plan_cache": None})

    def test_from_wire_rejects_bad_frames(self):
        with pytest.raises(ValidationError):
            SpMVRequest.from_wire(["not", "a", "dict"])
        with pytest.raises(ValidationError, match="missing"):
            SpMVRequest.from_wire({"op": "spmv", "id": "r"})
        with pytest.raises(ValidationError, match="not numeric"):
            SpMVRequest.from_wire(
                {"id": "r", "matrix": "m", "x": ["a", "b"]}
            )

    def test_requests_are_frozen(self):
        req = SpMVRequest(request_id="r", matrix="m", x=np.ones(4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.matrix = "other"


class TestResponse:
    def test_wire_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(1)
        req = SpMVRequest(request_id="r", matrix="m", x=rng.standard_normal(8))
        y = rng.standard_normal(8)
        resp = SpMVResponse.success(req, y, format="bro_ell", batch_size=4,
                                    queue_ms=1.5, execute_ms=0.25,
                                    meta={"device": "k20"})
        back = SpMVResponse.from_wire(json.loads(json.dumps(resp.to_wire())))
        assert back.ok and np.array_equal(back.y, y)
        assert back.batch_size == 4
        assert back.queue_ms == 1.5 and back.execute_ms == 0.25
        assert back.meta == {"device": "k20"}

    def test_summary_frame_elides_y(self):
        req = SpMVRequest(request_id="r", matrix="m", x=np.ones(4))
        resp = SpMVResponse.success(req, np.ones(4))
        frame = resp.to_wire(include_y=False)
        assert "y" not in frame
        back = SpMVResponse.from_wire(frame)
        assert back.ok and back.y is None

    def test_failure_carries_typed_error(self):
        req = SpMVRequest(request_id="r", matrix="m", x=np.ones(4))
        resp = SpMVResponse.failure(req, ValidationError("nope"))
        assert resp.status == "error" and not resp.ok
        assert resp.error_type == "ValidationError"
        back = SpMVResponse.from_wire(resp.to_wire())
        assert back.error == "nope" and back.error_type == "ValidationError"

    def test_rejected_status(self):
        req = SpMVRequest(request_id="r", matrix="m", x=np.ones(4))
        resp = SpMVResponse.failure(req, ValidationError("full"),
                                    status="rejected")
        assert resp.rejected and not resp.ok

    def test_unknown_status_rejected(self):
        with pytest.raises(ValidationError, match="status"):
            SpMVResponse(request_id="r", status="maybe")


class TestPolicyKey:
    def test_spelling_invariant(self):
        a = policy_key({"engine": "reference", "devices": 2})
        b = policy_key({"devices": 2, "engine": "reference"})
        assert a == b

    def test_empty_and_none_share_a_key(self):
        assert policy_key(None) == policy_key({}) == ()

    def test_unknown_field_is_typed_error(self):
        with pytest.raises(ValidationError, match="unknown policy"):
            policy_key({"fallback": "x"})

    def test_apply_overrides_revalidates(self):
        base = ExecutionPolicy()
        updated = apply_policy_overrides(base, {"devices": 2})
        assert updated.devices == 2
        assert apply_policy_overrides(base, None) is base

    def test_override_fields_are_all_policy_fields(self):
        names = {f.name for f in dataclasses.fields(ExecutionPolicy)}
        for field in POLICY_OVERRIDE_FIELDS:
            assert field in names


class TestServerConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ServerConfig(max_queue=0)
        with pytest.raises(ValidationError):
            ServerConfig(max_batch=0)
        with pytest.raises(ValidationError):
            ServerConfig(batch_window_ms=-1)
        with pytest.raises(ValidationError):
            ServerConfig(executor_threads=0)
        with pytest.raises(ValidationError):
            ServerConfig(port=70000)

    def test_with_revalidates(self):
        cfg = ServerConfig()
        assert cfg.with_(max_batch=8).max_batch == 8
        with pytest.raises(ValidationError):
            cfg.with_(max_queue=-1)

    def test_describe_is_jsonable(self):
        text = json.dumps(ServerConfig().describe())
        assert "max_queue" in text and "policy" in text
