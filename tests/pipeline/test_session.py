"""Pipeline :class:`~repro.pipeline.Session` end-to-end tests.

Includes the registry acceptance case: a toy format that declares EVERY
capability — container, conversion defaults, kernel, planner, validator,
integrity fields, tracer, tuner profile, serializer — in one
``register_format`` call, and then works through the whole Session
pipeline (convert, seal, save, open, prepare, fast/verified execute)
with no other wiring.
"""

import numpy as np
import pytest

from repro import registry as _registry
from repro.exec.policy import ExecutionPolicy
from repro.errors import FormatError, ReproError, ValidationError
from repro.formats.base import SparseFormat, register_format
from repro.formats.coo import COOMatrix
from repro.gpu.counters import KernelCounters
from repro.integrity.checksums import is_sealed
from repro.kernels.base import SpMVKernel, SpMVResult
from repro.kernels.plan import SpMVPlan
from repro.kernels.plancache import PlanCache
from repro.pipeline import Session


class TestSessionPipeline:
    def test_full_chain(self, tmp_path):
        sess = (
            Session(device="k20")
            .load("epb3", scale=0.01)
            .reorder("bar", h=64)
            .convert("bro_ell", h=64)
            .seal()
            .prepare()
        )
        assert sess.format_name == "bro_ell"
        assert sess.sealed
        assert sess.permutation is not None
        x = np.random.default_rng(0).standard_normal(sess.matrix.shape[1])
        r = sess.run(x)
        assert np.allclose(r.y, sess.matrix.to_coo().spmv(x), rtol=1e-8)
        assert sess.spmv_calls == 1
        assert sess.device_time > 0
        assert sess.dram_bytes > 0

        d = sess.describe()
        assert d["format"] == "bro_ell"
        assert d["sealed"] and d["reordered"]
        assert d["plannable"] and d["serializable"]

    def test_save_open_roundtrip(self, tmp_path):
        path = tmp_path / "sess.brx"
        s1 = (
            Session()
            .load("epb3", scale=0.01)
            .convert("bro_ell", h=64)
            .seal()
            .save(path)
        )
        s2 = Session.open(path)
        assert s2.sealed
        assert s2.fingerprint == s1.fingerprint
        x = np.random.default_rng(1).standard_normal(s1.matrix.shape[1])
        assert np.array_equal(s1.run(x).y, s2.run(x).y)

    def test_load_accepts_brx_path(self, tmp_path):
        path = tmp_path / "direct.brx"
        Session().load("epb3", scale=0.01).convert("csr").save(path)
        sess = Session().load(str(path))
        assert sess.format_name == "csr"

    def test_run_2d_matches_columnwise(self):
        sess = Session().load("epb3", scale=0.01).convert("bro_ell", h=64)
        X = np.random.default_rng(2).standard_normal((sess.matrix.shape[1], 4))
        R = sess.run(X)
        for j in range(4):
            assert np.array_equal(R.y[:, j], sess.run(X[:, j]).y)

    def test_with_fallback_recovers(self):
        sess = (
            Session(policy=ExecutionPolicy(verify="checksum"))
            .load("epb3", scale=0.01)
            .with_fallback("csr")
            .convert("bro_ell", h=64)
            .seal()
        )
        # Corrupt the sealed stream: verified dispatch must fall back.
        sess.matrix.stream.data[:] ^= 7
        x = np.random.default_rng(3).standard_normal(sess.matrix.shape[1])
        r = sess.run(x)
        assert r.fallback_used
        assert sess.fallbacks_used == 1
        assert np.allclose(r.y, sess.policy.fallback.spmv(x))

    def test_empty_session_raises(self):
        with pytest.raises(ReproError, match="no matrix"):
            Session().matrix
        with pytest.raises(ReproError, match="neither"):
            Session().load("not_a_matrix_name")

    def test_reorder_after_convert_rejected(self):
        sess = Session().load("epb3", scale=0.01).convert("csr")
        with pytest.raises(ReproError, match="before convert"):
            sess.reorder("bar")

    def test_unknown_reordering_rejected(self):
        sess = Session().load("epb3", scale=0.01)
        with pytest.raises(ValidationError, match="unknown reordering"):
            sess.reorder("sort_by_vibes")

    def test_reference_engine_has_no_plan_cache(self):
        sess = Session(policy=ExecutionPolicy(engine="reference")).load("epb3", scale=0.01)
        assert sess.plan_cache is None
        assert sess.convert("bro_ell", h=64).plan() is None


# ---------------------------------------------------------------------------
# The toy format: every capability declared in ONE register_format call.
# ---------------------------------------------------------------------------


class _ToyKernel(SpMVKernel):
    format_name = "toy_diag"

    def _execute(self, matrix, x, device):
        n = matrix.shape[0]
        counters = KernelCounters(
            value_bytes=8 * n, x_bytes=8 * n, y_bytes=8 * n,
            useful_flops=2 * n, issued_flops=2 * n, launches=1, threads=n,
        )
        return SpMVResult(y=matrix.diag * x, counters=counters, device=device)


class _ToyPlan(SpMVPlan):
    format_name = "toy_diag"

    def _replay(self, x):
        return self.matrix.diag * x


def _build_toy_plan(matrix, device, executor):
    n = matrix.shape[0]
    counters = KernelCounters(
        value_bytes=8 * n, x_bytes=8 * n, y_bytes=8 * n,
        useful_flops=2 * n, issued_flops=2 * n, launches=1, threads=n,
    )
    return _ToyPlan(matrix, device, counters, executor)


def _validate_toy(matrix, deep=False):
    if matrix.diag.shape != (matrix.shape[0],):
        raise ValidationError("toy_diag diagonal has the wrong length")


def _toy_fields(matrix):
    return {"diag": matrix.diag}, ("toy_diag", matrix.shape)


def _toy_trace_rows(matrix, device):
    class _Row:
        def __init__(self, i, v):
            self.i, self.v = i, v

        def row(self):
            return f"{self.i:6d} {self.v:10.3f}"

    return [_Row(i, v) for i, v in enumerate(matrix.diag[:4])]


def _make_toy_format():
    @register_format(
        default_kwargs={"gain": 1.0},
        kernel=_ToyKernel,
        planner=_build_toy_plan,
        validator=_validate_toy,
        integrity_fields=_toy_fields,
        tracer=_registry.BlockTracer(
            "per-diagonal profile", lambda: "   idx      value", _toy_trace_rows
        ),
        tuner=_registry.TunerProfile(candidate=False),
        # The diagonal array is its own (trivial) index encoding; the label
        # only needs to show up in the capability matrix.
        codec="columns",
    )
    class ToyDiagMatrix(SparseFormat):
        """Diagonal-only storage: one array, the simplest possible format."""

        format_name = "toy_diag"

        def __init__(self, diag, shape):
            self.diag = np.asarray(diag, dtype=np.float64)
            self._shape = (int(shape[0]), int(shape[1]))

        @property
        def shape(self):
            return self._shape

        @property
        def nnz(self):
            return int(np.count_nonzero(self.diag))

        @classmethod
        def from_coo(cls, coo, gain=1.0, **kwargs):
            diag = np.zeros(coo.shape[0], dtype=np.float64)
            on = coo.row_idx == coo.col_idx
            np.add.at(diag, coo.row_idx[on], coo.vals[on])
            return cls(diag * float(gain), coo.shape)

        def to_coo(self):
            idx = np.flatnonzero(self.diag)
            return COOMatrix(idx, idx, self.diag[idx], self._shape)

        def spmv(self, x):
            x = self.check_x(x)
            return self.diag * x

        def device_bytes(self):
            return {"index": 0, "values": int(self.diag.nbytes), "aux": 0}

        def to_state(self):
            return {"shape": list(self._shape)}, {"diag": self.diag}

        @classmethod
        def from_state(cls, meta, arrays):
            return cls(arrays["diag"], tuple(meta["shape"]))

    return ToyDiagMatrix


@pytest.fixture
def toy_format():
    cls = _make_toy_format()
    try:
        yield cls
    finally:
        _registry.unregister_format("toy_diag")


class TestToyFormatThroughSession:
    def _diag_coo(self, n=64, seed=0):
        rng = np.random.default_rng(seed)
        idx = np.arange(n)
        return COOMatrix(idx, idx, rng.standard_normal(n), (n, n))

    def test_one_declaration_covers_every_capability(self, toy_format):
        spec = _registry.get_spec("toy_diag")
        caps = spec.capabilities()
        assert all(caps.values()), f"missing capabilities: {caps}"
        row = next(
            r for r in _registry.capability_matrix() if r["format"] == "toy_diag"
        )
        assert row["kernel"] and row["planner"] and row["serializer"]
        assert row["default_kwargs"] == {"gain": 1.0}

    def test_end_to_end_session(self, toy_format, tmp_path):
        coo = self._diag_coo()
        cache = PlanCache()
        sess = (
            Session(policy=ExecutionPolicy(plan_cache=cache))
            .use(coo)
            .convert("toy_diag")
            .seal()
            .save(tmp_path / "toy.brx")
        )
        assert is_sealed(sess.matrix)

        # Reopen: serializer + reattached seal + content-keyed plan cache.
        sess.prepare()
        reopened = Session.open(tmp_path / "toy.brx", policy=ExecutionPolicy(plan_cache=cache))
        x = np.random.default_rng(4).standard_normal(coo.shape[1])
        r = reopened.run(x, policy=reopened.policy.with_(verify="full"))
        assert np.array_equal(r.y, sess.matrix.diag * x)
        assert cache.stats()["builds"] == 1  # content hit, no rebuild
        assert cache.stats()["content_hits"] >= 1

        # Registry-routed tracer, straight from the one declaration.
        tracer = _registry.tracer_for("toy_diag")
        assert tracer.title == "per-diagonal profile"
        assert len(tracer.rows(sess.matrix, r.device)) == 4

    def test_conversion_defaults_and_rejection(self, toy_format):
        coo = self._diag_coo()
        from repro.formats.conversion import convert

        mat = convert(coo, "toy_diag", gain=2.0)
        assert np.allclose(mat.diag, 2.0 * coo.to_dense().diagonal())
        with pytest.raises(FormatError, match="gain"):
            convert(coo, "toy_diag", h=64)

    def test_unregister_removes_everything(self):
        cls = _make_toy_format()
        assert "toy_diag" in _registry.available_formats()
        _registry.unregister_format("toy_diag")
        assert "toy_diag" not in _registry.available_formats()
        assert _registry.find_spec("toy_diag") is None
        with pytest.raises(FormatError):
            _registry.get_spec("toy_diag")
