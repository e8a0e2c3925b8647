"""Graceful degradation in run_spmv: verify levels, CSR fallback, counters."""

import copy

import numpy as np
import pytest

from repro.core.bro_ell import BROELLMatrix
from repro.errors import IntegrityError, ValidationError
from repro.exec.policy import ExecutionPolicy
from repro.formats.csr import CSRMatrix
from repro.integrity import COUNTERS, seal
from repro.kernels.dispatch import run_spmv
from tests.conftest import random_coo


@pytest.fixture
def fixture():
    coo = random_coo(64, 48, density=0.08, seed=21)
    mat = seal(BROELLMatrix.from_coo(coo, h=16))
    x = np.random.default_rng(21).standard_normal(coo.shape[1])
    return coo, mat, x, CSRMatrix.from_coo(coo)


def _corrupt(mat):
    bad = copy.deepcopy(mat)
    bad.stream.data[0] ^= np.uint32(1 << 13)
    return bad


class _EngineCase:
    #: the policy's engine; the ``Reference`` siblings repeat every test
    #: on the stepwise kernels.
    ENGINE = "auto"

    def _policy(self, **fields):
        return ExecutionPolicy(engine=self.ENGINE, **fields)


class TestVerifyLevels(_EngineCase):
    def test_default_path_unchanged(self, fixture):
        coo, mat, x, _ = fixture
        result = run_spmv(mat, x, "k20", policy=self._policy())
        assert not result.fault_detected
        assert not result.fallback_used
        assert result.integrity_counters is None
        np.testing.assert_allclose(result.y, coo.spmv(x))

    @pytest.mark.parametrize("level", [True, "structure", "checksum", "full"])
    def test_clean_matrix_passes_every_level(self, fixture, level):
        coo, mat, x, _ = fixture
        result = run_spmv(mat, x, "k20", policy=self._policy(verify=level))
        assert not result.fault_detected
        assert result.integrity_counters is not None
        np.testing.assert_allclose(result.y, coo.spmv(x))

    def test_unknown_level_rejected(self, fixture):
        _, mat, x, _ = fixture
        with pytest.raises(ValidationError, match="verify"):
            run_spmv(mat, x, "k20", policy=self._policy(verify="paranoid"))

    def test_corruption_raises_without_fallback(self, fixture):
        _, mat, x, _ = fixture
        with pytest.raises(IntegrityError):
            run_spmv(_corrupt(mat), x, "k20",
                     policy=self._policy(verify=True))


class TestFallback(_EngineCase):
    def test_fallback_recovers_reference_result(self, fixture):
        coo, mat, x, csr = fixture
        result = run_spmv(_corrupt(mat), x, "k20",
                          policy=self._policy(verify=True, fallback=csr))
        assert result.fault_detected
        assert result.fallback_used
        assert "IntegrityError" in result.integrity_error
        np.testing.assert_allclose(result.y, coo.to_dense() @ x, rtol=1e-9)

    def test_fallback_not_used_when_clean(self, fixture):
        coo, mat, x, csr = fixture
        result = run_spmv(mat, x, "k20",
                          policy=self._policy(verify=True, fallback=csr))
        assert not result.fallback_used
        np.testing.assert_allclose(result.y, coo.spmv(x))

    def test_fallback_without_verify_still_guards_kernel_errors(self, fixture):
        # verify=False + fallback: pre-checks are skipped but a decode
        # error inside the kernel still degrades gracefully.
        coo, mat, x, csr = fixture
        bad = copy.deepcopy(mat)
        bad._stream = type(bad.stream)(
            bad.stream.data[:-1].copy(),
            np.minimum(bad.stream.slice_ptr, bad.stream.data.shape[0] - 1),
            bad.stream.sym_len,
        )
        result = run_spmv(bad, x, "k20", policy=self._policy(fallback=csr))
        assert result.fallback_used
        np.testing.assert_allclose(result.y, coo.to_dense() @ x, rtol=1e-9)

    def test_unsealed_matrix_verify_checksum_skips_crc(self, fixture):
        coo, _, x, csr = fixture
        unsealed = BROELLMatrix.from_coo(coo, h=16)
        result = run_spmv(unsealed, x, "k20",
                          policy=self._policy(verify="checksum", fallback=csr))
        assert not result.fallback_used  # structure fine, no header to check


class TestVerifyLevelsReference(TestVerifyLevels):
    ENGINE = "reference"


class TestFallbackReference(TestFallback):
    ENGINE = "reference"


class TestStaleHeaderTrustBoundary:
    """A corrupted copy that still carries its pristine twin's seal.

    The plan cache looks a copy up by its attached header, so once the
    twin's plan is cached the copy is served that plan without a
    decode. Only a checksum recomputed from the bytes —
    ``verify="checksum"`` here — tells the two apart. The other way
    round is closed: a plan built from the copy's bytes is indexed
    under their own checksum, never served to the twin.
    """

    def test_cached_twin_is_served_without_verify(self, fixture):
        _, mat, x, csr = fixture
        pristine = run_spmv(mat, x, "k20")
        result = run_spmv(_corrupt(mat), x, "k20",
                          policy=ExecutionPolicy(fallback=csr))
        assert not result.fallback_used
        assert np.array_equal(result.y, pristine.y)

    def test_checksum_detects_the_stale_header(self, fixture):
        coo, mat, x, csr = fixture
        run_spmv(mat, x, "k20")
        result = run_spmv(_corrupt(mat), x, "k20",
                          policy=ExecutionPolicy(verify="checksum", fallback=csr))
        assert result.fault_detected
        assert result.fallback_used
        np.testing.assert_allclose(result.y, coo.to_dense() @ x, rtol=1e-9)

    @pytest.mark.parametrize("verify", ["checksum", False])
    def test_stale_copy_run_first_does_not_poison_the_twin(self, fixture, verify):
        _, mat, x, _ = fixture
        bad = copy.deepcopy(mat)
        bad._vals[0] += 1.0  # decodes fine: a silent value corruption
        corrupt_y = run_spmv(bad, x, "k20").y
        result = run_spmv(mat, x, "k20",
                          policy=ExecutionPolicy(verify=verify))
        expected = run_spmv(mat, x, "k20",
                            policy=ExecutionPolicy(engine="reference")).y
        assert not result.fault_detected
        assert np.array_equal(result.y, expected)
        assert not np.array_equal(corrupt_y, expected)


class TestCounters:
    def test_counters_accumulate(self, fixture):
        coo, mat, x, csr = fixture
        COUNTERS.reset()
        run_spmv(mat, x, "k20", policy=ExecutionPolicy(verify=True))
        result = run_spmv(_corrupt(mat), x, "k20",
                          policy=ExecutionPolicy(verify=True, fallback=csr))
        snap = result.integrity_counters
        assert snap.verifications == 2
        assert snap.detections == 1
        assert snap.fallbacks == 1
        assert snap.raised == 0

    def test_raised_counter_without_fallback(self, fixture):
        _, mat, x, _ = fixture
        COUNTERS.reset()
        with pytest.raises(IntegrityError):
            run_spmv(_corrupt(mat), x, "k20",
                     policy=ExecutionPolicy(verify=True))
        snap = COUNTERS.snapshot()
        assert snap.detections == 1
        assert snap.raised == 1
        assert snap.fallbacks == 0
