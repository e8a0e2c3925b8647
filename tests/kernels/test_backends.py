"""The pluggable executor-backend layer.

Three contracts, in order of importance:

* **bit-identity** — for every compiled format, suite matrix and symbol
  length, the ``"jit"`` replay produces the same ``y`` bits and the same
  :class:`KernelCounters` as the ``"numpy"`` replay and as the
  ``"scipy"`` replay (SciPy's CSR row loops). On a Numba-free host the
  compiled aliases *are* the pure-Python twins, so a plan the planner
  builds for ``"jit"`` drives the exact loops Numba would compile.
* **one executor rule** — ``resolve_backend`` maps the two policy
  requests to concrete backends: ``"numpy"`` stays numpy and ``"auto"``
  takes the fastest executor the host runs (jit, then scipy, then numpy)
  without raising for a missing Numba or SciPy; ``"jit"`` is no policy
  request, ``prepare`` raises for an executor the host cannot run, and
  a SciPy build that fails the probe (an FMA-contracting loop, say) is
  refused with a reason.
* **plan wiring** — the planner's executor reaches every part of a
  composite plan, ``warm_compile`` records ``jit_compile_seconds`` at
  prepare() time, and legacy plans that override ``_replay`` directly
  keep working under any requested backend.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.exec.policy import ExecutionPolicy
from repro.formats.conversion import convert
from repro.kernels import backends, prepare, run_spmv
from repro.kernels.plan import SpMVPlan
from repro.kernels.plancache import PlanCache
from repro.gpu.device import get_device
from repro.matrices.suite import generate
from repro.registry import planner_for
from repro.telemetry import metrics as M
from tests.conftest import random_coo, requires_scipy_executor

ROOT = Path(__file__).resolve().parents[2]

#: A representative Table 2 slice — dense-ish, tall-sparse, and the QCD
#: lattice — small enough that the format x sym_len sweep stays quick.
SUITE = ("dense2", "epb3", "qcd5_4")
SUITE_SCALE = 0.01

BRO_FORMATS = ("bro_ell", "bro_ell_mt", "bro_ell_vc", "bro_coo", "bro_hyb", "bro_sell")
PLAIN_FORMATS = ("csr", "ellpack", "sliced_ellpack", "ellpack_r", "sell_c_sigma",
                 "cmrs", "hyb", "bellpack", "coo")


@lru_cache(maxsize=None)
def suite_mat(name, fmt, sym_len=None):
    kwargs = {}
    if sym_len is not None:
        kwargs["sym_len"] = sym_len
    if fmt in ("bro_ell", "bro_hyb"):
        kwargs["h"] = 64
    return convert(generate(name, scale=SUITE_SCALE), fmt, **kwargs)


def _x_for(mat, seed=11):
    return np.random.default_rng(seed).standard_normal(mat.shape[1])


def _built_for(mat, executor):
    """The format's plan built for ``executor``; for ``"jit"`` without
    Numba its loops are the interpreted twins."""
    return planner_for(mat.format_name)(mat, get_device("k20"), executor)


def _auto_without_numba():
    """What ``"auto"`` resolves to without Numba."""
    return "scipy" if backends.scipy_refusal() is None else "numpy"


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_numpy_always_numpy(self, monkeypatch):
        assert backends.resolve_backend("numpy") == "numpy"
        monkeypatch.setattr(backends, "jit_available", lambda: True)
        assert backends.resolve_backend("numpy") == "numpy"

    def test_bad_name_rejected(self):
        # Executor names are no requests: only prepare() takes them.
        for name in ("cuda", "jit", "scipy"):
            with pytest.raises(ValidationError, match="compute_backend"):
                backends.resolve_backend(name)

    def test_auto_without_numba_is_silent(self):
        if backends.jit_available():  # container never has numba; CI may
            pytest.skip("host has Numba")
        reg = M.start_collecting(M.MetricsRegistry())
        try:
            assert backends.resolve_backend("auto") == _auto_without_numba()
        finally:
            M.stop_collecting()
        assert not reg.snapshot()["counters"]

    def test_jit_resolves_when_available(self, monkeypatch):
        monkeypatch.setattr(backends, "jit_available", lambda: True)
        assert backends.resolve_backend("auto") == "jit"


class _FakeSparsetools:
    """Stands in for SciPy's ``_sparsetools``: row loops computed in
    Python in storage order (``kind="exact"``), every row summing to
    ``-2**-60`` as an FMA-contracting loop does on the probe's first row
    (``"fma"``), or a changed signature (``"arity"``)."""

    def __init__(self, kind):
        self.kind = kind

    def _rows(self, n_row, n_vecs, Ap, Aj, Ax, Xx, Yx):
        if self.kind == "fma":
            Yx[:] = -(2.0**-60)
            return
        X = np.asarray(Xx).reshape(-1, n_vecs)
        Y = Yx.reshape(n_row, n_vecs)
        for i in range(n_row):
            for jj in range(Ap[i], Ap[i + 1]):
                for j in range(n_vecs):
                    Y[i, j] = Y[i, j] + float(Ax[jj]) * float(X[Aj[jj], j])

    def csr_matvec(self, n_row, n_col, Ap, Aj, Ax, Xx, Yx):
        self._rows(n_row, 1, Ap, Aj, Ax, Xx, Yx)

    def csr_matvecs(self, n_row, n_col, n_vecs, Ap, Aj, Ax, Xx, Yx, *more):
        if self.kind == "arity" and not more:
            raise TypeError("csr_matvecs expects 9 arguments")
        self._rows(n_row, n_vecs, Ap, Aj, Ax, Xx, Yx)


class TestScipyProbe:
    """The loader and the first-use probe behind the ``"scipy"`` executor."""

    @pytest.fixture
    def fresh_probe(self, monkeypatch):
        # Numba would outrank SciPy; re-run the probe under the fake.
        monkeypatch.setattr(backends, "jit_available", lambda: False)
        monkeypatch.setattr(backends, "_SCIPY_STATE", None)

    @pytest.mark.parametrize("kind,reason,resolved", [
        ("fma", "scipy-fma", "numpy"),
        ("arity", "scipy-error", "numpy"),
        ("exact", None, "scipy"),
    ])
    def test_probe_vets_the_loops(self, fresh_probe, monkeypatch, kind,
                                  reason, resolved):
        monkeypatch.setattr(backends, "_load_sparsetools",
                            lambda: _FakeSparsetools(kind))
        assert backends.resolve_backend("auto") == resolved
        assert backends.scipy_refusal() == reason

    def test_fma_loop_is_refused(self, fresh_probe, monkeypatch):
        monkeypatch.setattr(backends, "_load_sparsetools",
                            lambda: _FakeSparsetools("fma"))
        mat = suite_mat("epb3", "bro_ell", 32)
        plan = prepare(mat, "k20", backend="auto")
        assert plan.backend == "numpy"
        assert backends.scipy_refusal() == "scipy-fma"
        with pytest.raises(ValidationError, match="scipy-fma"):
            prepare(mat, "k20", backend="scipy")

    def test_missing_extension_resolves_to_numpy(self, fresh_probe,
                                                 monkeypatch):
        monkeypatch.setattr(backends, "_SPARSETOOLS_NAME",
                            "scipy.sparse._no_such_extension")
        assert backends.resolve_backend("auto") == "numpy"
        assert backends.scipy_refusal() == "scipy-missing"

    @requires_scipy_executor
    def test_auto_leaves_scipy_sparse_unimported(self):
        """prepare -> execute -> execute_many under "auto" loads only the
        extension: ``scipy.sparse`` (~22 MiB of RSS) is never imported."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.formats.conversion import convert\n"
            "from repro.kernels import prepare\n"
            "from tests.conftest import random_coo\n"
            "mat = convert(random_coo(60, 50, density=0.1, seed=0), 'csr')\n"
            "plan = prepare(mat, 'k20', backend='auto')\n"
            "plan.execute(np.ones(50))\n"
            "plan.execute_many(np.ones((50, 3)))\n"
            "print(plan.backend, 'scipy.sparse' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), str(ROOT)])},
        ).stdout.split()
        expect = "jit" if backends.jit_available() else "scipy"
        assert out == [expect, "False"]


# ----------------------------------------------------------------------
# Bit-identity: jit replay == numpy replay, bits and counters
# ----------------------------------------------------------------------
class TestBitIdentity:
    """Build each plan for ``"jit"`` through its planner so the jit code
    paths execute even without Numba (the aliases are then the
    interpreted twins, which pin the exact loop order the compiled
    functions share), and compare it with the plan built for
    ``EXECUTOR``."""

    #: the executor the jit replay is compared with; TestBitIdentityScipy
    #: repeats every test on SciPy's row loops.
    EXECUTOR = "numpy"

    @pytest.mark.parametrize("name", SUITE)
    @pytest.mark.parametrize("sym_len", [32, 64])
    def test_bro_formats(self, name, sym_len):
        for fmt in BRO_FORMATS:
            mat = suite_mat(name, fmt, sym_len)
            x = _x_for(mat)
            plan = prepare(mat, "k20", backend=self.EXECUTOR)
            y_base = plan.execute(x)
            y_jit = _built_for(mat, "jit").execute(x)
            assert np.array_equal(y_base.y, y_jit.y), (name, fmt, sym_len)
            assert y_base.counters == y_jit.counters

    @pytest.mark.parametrize("fmt", PLAIN_FORMATS)
    def test_plain_formats(self, fmt):
        for seed in (0, 1):
            mat = convert(random_coo(150, 130, density=0.07, seed=seed), fmt)
            x = _x_for(mat, seed)
            plan = prepare(mat, "k20", backend=self.EXECUTOR)
            y_base = plan.execute(x)
            y_jit = _built_for(mat, "jit").execute(x)
            assert np.array_equal(y_base.y, y_jit.y)
            assert y_base.counters == y_jit.counters

    @pytest.mark.parametrize("fmt", BRO_FORMATS + PLAIN_FORMATS)
    def test_multi_rhs(self, fmt):
        mat = suite_mat("qcd5_4", fmt, 32 if fmt in BRO_FORMATS else None)
        X = np.random.default_rng(3).standard_normal((mat.shape[1], 5))
        plan = prepare(mat, "k20", backend=self.EXECUTOR)
        Y_base = plan.execute_many(X)
        for j in range(X.shape[1]):
            assert np.array_equal(Y_base.y[:, j], plan.execute(X[:, j]).y)
        jit = _built_for(mat, "jit")
        Y_jit = jit.execute_many(X)
        assert np.array_equal(Y_base.y, Y_jit.y)
        assert Y_base.counters == Y_jit.counters
        # ... and each column matches a single-vector jit replay.
        for j in range(X.shape[1]):
            assert np.array_equal(Y_jit.y[:, j], jit.execute(X[:, j]).y)


@requires_scipy_executor
class TestBitIdentityScipy(TestBitIdentity):
    EXECUTOR = "scipy"


# ----------------------------------------------------------------------
# Plan wiring: the executor reaches every part, warm_compile, prepare()
# ----------------------------------------------------------------------
class TestPlanWiring:
    @pytest.mark.parametrize("fmt", ["bro_hyb", "bro_ell_mt"])
    def test_executor_reaches_every_part(self, fmt):
        mat = suite_mat("dense2", fmt, 32)
        for executor in ("jit", "numpy"):
            plan = _built_for(mat, executor)
            children = plan._children()
            assert children, f"{fmt} plan should have part plans"
            assert plan.backend == executor
            assert all(c.backend == executor for c in children)

    def test_planner_rejects_policy_names(self):
        with pytest.raises(ValidationError, match="executor backend"):
            _built_for(suite_mat("epb3", "bro_ell", 32), "auto")

    def test_warm_compile_noop_on_numpy(self):
        plan = prepare(suite_mat("epb3", "bro_ell", 32), "k20")
        assert plan.warm_compile() == 0.0
        assert plan.jit_compile_seconds == 0.0

    def test_warm_compile_records_seconds_on_jit(self):
        plan = _built_for(suite_mat("epb3", "bro_ell", 32), "jit")
        seconds = plan.warm_compile()
        assert seconds > 0.0
        assert plan.jit_compile_seconds == seconds

    def test_prepare_jit_without_numba_raises(self, monkeypatch):
        monkeypatch.setattr(backends, "jit_available", lambda: False)
        mat = suite_mat("epb3", "bro_ell", 32)
        reg = M.start_collecting(M.MetricsRegistry())
        try:
            # An executor this host cannot run is refused, never swapped
            # for another one.
            with pytest.raises(ValidationError, match="numba-missing"):
                prepare(mat, "k20", backend="jit")
            plan = prepare(mat, "k20", backend="auto")
        finally:
            M.stop_collecting()
        assert plan.backend == _auto_without_numba()
        assert plan.jit_compile_seconds == 0.0
        # Only a jit warm-compile counts as a JIT build.
        assert not any(k.startswith("plan.jit_builds")
                       for k in reg.snapshot()["counters"])

    def test_prepare_jit_with_numba_warm_compiles(self, monkeypatch):
        monkeypatch.setattr(backends, "jit_available", lambda: True)
        reg = M.start_collecting(M.MetricsRegistry())
        try:
            plan = prepare(suite_mat("epb3", "bro_ell", 32), "k20",
                           backend="auto")
        finally:
            M.stop_collecting()
        assert plan.backend == "jit"
        assert plan.jit_compile_seconds > 0.0
        snap = reg.snapshot()["counters"]
        key = f'plan.jit_builds{{device="{plan.device.name}",format="bro_ell"}}'
        assert snap[key] == 1

    def test_legacy_replay_override_ignores_backend(self):
        """Plans that predate the backend layer override ``_replay``
        directly; any backend request must leave them untouched."""

        class _LegacyPlan(SpMVPlan):
            format_name = "legacy"

            def _replay(self, x):
                return np.zeros(self.matrix.shape[0])

        mat = convert(random_coo(10, 8, density=0.3, seed=0), "csr")
        donor = prepare(mat, "k20")
        plan = _LegacyPlan(mat, donor.device, donor.counters(), "jit")
        assert plan._replay(np.ones(8)).shape == (10,)
        with pytest.raises(NotImplementedError, match="_replay_numpy"):
            plan._replay_numpy(np.ones(8))


# ----------------------------------------------------------------------
# Policy-level executor requests
# ----------------------------------------------------------------------
class TestPolicyFallback:
    def test_auto_policy_is_default_and_silent(self):
        """The default request gives numpy's bits on dense2 BRO-ELL
        whatever executor it resolves to (the CI executor-request pin)."""
        assert ExecutionPolicy().compute_backend == "auto"
        mat = convert(generate("dense2", scale=0.05, seed=0), "bro_ell")
        x = np.random.default_rng(0).standard_normal(mat.shape[1])
        y_np = run_spmv(mat, x, "k20",
                        policy=ExecutionPolicy(plan_cache=PlanCache(),
                                               compute_backend="numpy"))
        y_auto = run_spmv(mat, x, "k20",
                          policy=ExecutionPolicy(plan_cache=PlanCache()))
        assert np.array_equal(y_np.y, y_auto.y)
        assert y_np.counters == y_auto.counters

    def test_policy_validates_backend_name(self):
        with pytest.raises(ValidationError, match="compute_backend"):
            ExecutionPolicy(compute_backend="cuda")

    def test_jit_is_not_a_policy_request(self):
        # "jit" used to resolve exactly as "auto" does; the policy names
        # only the two requests and prepare() names executors.
        with pytest.raises(ValidationError, match="compute_backend"):
            ExecutionPolicy(compute_backend="jit")
        with pytest.raises(ValidationError, match="compute_backend"):
            PlanCache().get_or_build(suite_mat("epb3", "bro_ell", 32), "k20",
                                     backend="jit")
