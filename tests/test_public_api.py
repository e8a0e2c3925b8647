"""The typed public surface of the top-level ``repro`` package.

These tests pin the names exported from ``repro/__init__.py`` so the
public API cannot change silently: removing a re-export, renaming a
class or dropping a subpackage from ``__all__`` fails here first, and
adding a new public name forces an explicit update of EXPECTED_EXPORTS.
"""

import pytest

import repro

#: The complete expected value of ``repro.__all__``. Update deliberately.
EXPECTED_EXPORTS = {
    "__version__",
    "ReproError",
    # formats
    "SparseFormat",
    "COOMatrix",
    "CSRMatrix",
    "ELLPACKMatrix",
    "ELLPACKRMatrix",
    "SlicedELLPACKMatrix",
    "HYBMatrix",
    "convert",
    "from_dense",
    "from_scipy",
    "to_scipy",
    # the paper's contribution
    "BROELLMatrix",
    "BROCOOMatrix",
    "BROHYBMatrix",
    "CompressionReport",
    "index_compression_report",
    "space_savings",
    "compression_ratio",
    # simulated GPU
    "DeviceSpec",
    "DEVICES",
    "get_device",
    "run_spmv",
    "run_spmm",
    "prepare",
    "SpMVResult",
    "jit_available",
    # execution policy + multi-device sharding
    "ExecutionPolicy",
    "ShardedMatrix",
    "partition",
    "strong_scaling",
    "weak_scaling",
    # fault tolerance + chaos testing
    "ChaosPolicy",
    "run_chaos_campaign",
    # extension points
    "register_format",
    # reordering
    "bar_permutation",
    "rcm_permutation",
    "amd_permutation",
    "rowsort_permutation",
    "apply_reordering",
    # solvers
    "conjugate_gradient",
    "gmres",
    "SimulatedOperator",
    # integrity
    "seal",
    "verify_integrity",
    "validate_structure",
    "run_campaign",
    # pipeline + persistence
    "Session",
    "save_container",
    "load_container",
    # online autotuning
    "OnlineTuner",
    "RetuneConfig",
    # serving layer
    "SpMVRequest",
    "SpMVResponse",
    "ServerConfig",
    "SpMVServer",
    "ServeClient",
    "MatrixPool",
    "ServeError",
    "AdmissionError",
    # subpackages
    "registry",
    "bench",
    "bitstream",
    "core",
    "exec",
    "formats",
    "gpu",
    "integrity",
    "kernels",
    "matrices",
    "reorder",
    "serve",
    "solvers",
    "telemetry",
    "tuner",
}


class TestPublicSurface:
    def test_all_matches_expected_exactly(self):
        actual = set(repro.__all__)
        added = actual - EXPECTED_EXPORTS
        removed = EXPECTED_EXPORTS - actual
        assert not added and not removed, (
            f"public surface changed: added={sorted(added)}, "
            f"removed={sorted(removed)} — update tests/test_public_api.py "
            f"deliberately if this is intended"
        )

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_no_duplicates_in_all(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_star_import_is_clean(self):
        namespace = {}
        exec("from repro import *", namespace)  # noqa: S102 - deliberate
        for name in repro.__all__:
            if name != "__version__":
                assert name in namespace


class TestKeyExports:
    def test_execution_policy_is_frozen_dataclass(self):
        import dataclasses

        assert dataclasses.is_dataclass(repro.ExecutionPolicy)
        pol = repro.ExecutionPolicy(devices=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pol.devices = 4

    def test_sharded_format_registered_at_import(self):
        # Importing repro must register the "sharded" container so plain
        # load_container() can read sharded .brx files.
        assert "sharded" in repro.registry.available_formats()

    def test_session_and_policy_compose(self):
        sess = repro.Session("k20", policy=repro.ExecutionPolicy(devices=2))
        assert sess.policy.devices == 2

    def test_prepare_and_register_format_are_canonical(self):
        from repro.kernels.plan import prepare as plan_prepare
        from repro.registry import register_format as registry_register

        assert repro.prepare is plan_prepare
        assert repro.register_format is registry_register

    def test_serve_types_are_frozen_dataclasses(self):
        import dataclasses

        for cls in (repro.SpMVRequest, repro.SpMVResponse, repro.ServerConfig):
            assert dataclasses.is_dataclass(cls)
        cfg = repro.ServerConfig(max_queue=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_queue = 16

    def test_admission_error_is_typed_serve_error(self):
        assert issubclass(repro.AdmissionError, repro.ServeError)
        assert issubclass(repro.ServeError, repro.ReproError)

    def test_session_run_is_the_only_entrypoint(self):
        import numpy as np

        sess = repro.Session("k20")
        sess.use(repro.convert(
            repro.matrices.generate("cant", scale=0.01), "bro_ell"
        ))
        x = np.ones(sess.matrix.shape[1])
        assert sess.run(x).y.shape == (sess.matrix.shape[0],)
        # the deprecated execute/execute_many shims are gone
        assert not hasattr(repro.Session, "execute")
        assert not hasattr(repro.Session, "execute_many")

    def test_version_is_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") >= 1
