"""The solvers pinned to the code they replaced.

``_solver_oracle`` keeps the previous ``conjugate_gradient``,
``bicgstab`` and ``gmres`` verbatim. The solvers now start from
``r = b`` when ``x0`` is unset instead of applying the operator to the
zero guess, and CG updates its vectors in place and takes one dot per
iteration without a preconditioner. Iterates, residual histories,
iteration counts and convergence flags must not change, and a solve
must make exactly one operator call fewer when (and only when) ``x0``
is unset.
"""

import functools
import operator as _op

import numpy as np
import pytest

from repro import bar_permutation
from repro.errors import ConvergenceError
from repro.exec.policy import ExecutionPolicy
from repro.formats.conversion import convert
from repro.formats.coo import COOMatrix
from repro.gpu.timing import predict
from repro.kernels import plannable_formats, run_spmv
from repro.kernels.plancache import PlanCache
from repro.matrices.suite import generate
from repro.solvers import bicgstab, conjugate_gradient, gmres
from repro.solvers.operators import FormatOperator, SimulatedOperator

from . import _solver_oracle as oracle


def _spd(coo: COOMatrix) -> COOMatrix:
    """``coo + coo.T`` without its diagonal, plus one diagonal value of
    twice the largest off-diagonal row sum plus one: symmetric and
    strictly diagonally dominant, hence SPD."""
    off = coo.row_idx != coo.col_idx
    rows = np.concatenate([coo.row_idx[off], coo.col_idx[off]])
    cols = np.concatenate([coo.col_idx[off], coo.row_idx[off]])
    vals = np.concatenate([coo.vals[off], coo.vals[off]])
    m = coo.shape[0]
    row_sums = np.bincount(rows, weights=np.abs(vals), minlength=m)
    diag = np.arange(m)
    return COOMatrix(
        np.concatenate([rows, diag]),
        np.concatenate([cols, diag]),
        np.concatenate([vals, np.full(m, 2.0 * row_sums.max() + 1.0)]),
        coo.shape,
    )


def _bar_symmetric(coo: COOMatrix) -> COOMatrix:
    """``P A P^T`` with BAR's row order, so an SPD system stays SPD."""
    perm = bar_permutation(coo, h=64)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.shape[0])
    return COOMatrix(inverse[coo.row_idx], inverse[coo.col_idx],
                     coo.vals, coo.shape)


def _random(n: int, seed: int, density: float) -> COOMatrix:
    rng = np.random.default_rng(seed)
    nnz = int(density * n * n)
    return COOMatrix(rng.integers(0, n, nnz), rng.integers(0, n, nnz),
                     rng.standard_normal(nnz), (n, n))


def _nonsymmetric(n: int, seed: int) -> COOMatrix:
    """A random nonsymmetric matrix with a dominant diagonal."""
    a = _random(n, seed, 0.05)
    diag = np.arange(n)
    return COOMatrix(np.concatenate([a.row_idx, diag]),
                     np.concatenate([a.col_idx, diag]),
                     np.concatenate([a.vals, np.full(n, 4.0)]), a.shape)


SPD_SYSTEMS = {
    "random_spd_csr": lambda: convert(_spd(_random(96, 0, 0.05)), "csr"),
    "random_spd_bro_ell": lambda: convert(_spd(_random(96, 1, 0.05)),
                                          "bro_ell", h=32),
    "qcd5_4_bar_bro_ell": lambda: convert(
        _bar_symmetric(_spd(generate("qcd5_4", scale=0.02))), "bro_ell",
        h=64),
}
NONSYM_SYSTEMS = {
    "nonsym_csr": lambda: convert(_nonsymmetric(80, 2), "csr"),
    "nonsym_bro_hyb": lambda: convert(_nonsymmetric(80, 3), "bro_hyb", h=32),
}


@functools.lru_cache(maxsize=None)
def _system(name: str):
    return {**SPD_SYSTEMS, **NONSYM_SYSTEMS}[name]()


def _operator(matrix) -> SimulatedOperator:
    return SimulatedOperator(
        matrix, "k20",
        policy=ExecutionPolicy(verify=False, plan_cache=PlanCache()),
    )


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _inputs(n: int, seed: int, case: str):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    x0 = 0.1 * rng.standard_normal(n) if case == "x0" else None
    return b, x0


def _assert_same(new, old, new_op, old_op, x0):
    assert np.array_equal(_bits(new.x), _bits(old.x))
    assert np.array_equal(_bits(new.residual_history),
                          _bits(old.residual_history))
    assert new.iterations == old.iterations
    assert new.converged == old.converged
    assert new.residual == old.residual
    expected = old_op.spmv_calls - (1 if x0 is None else 0)
    assert new_op.spmv_calls == expected


def _assert_accounting(op: SimulatedOperator) -> None:
    """Device time and traffic are the sums the unmemoized accounting
    gave: ``predict(counters).time`` added once per call, in order."""
    plan = op.session.plan()
    counters = plan.counters()
    per_call = predict(counters, op.device).time
    total = functools.reduce(_op.add, [per_call] * op.spmv_calls, 0.0)
    assert op.device_time == total
    assert op.dram_bytes == op.spmv_calls * counters.dram_bytes


@pytest.mark.parametrize("case", ["zero", "x0", "jacobi"])
@pytest.mark.parametrize("name", sorted(SPD_SYSTEMS))
def test_cg_matches_oracle(name, case):
    matrix = _system(name)
    b, x0 = _inputs(matrix.shape[0], 7, case)
    kwargs = {"tol": 1e-10, "max_iter": 300}
    if case == "jacobi":
        coo = matrix.to_coo()
        diag = np.zeros(matrix.shape[0])
        on = coo.row_idx == coo.col_idx
        diag[coo.row_idx[on]] = coo.vals[on]
        kwargs["jacobi_diagonal"] = diag
    new_op, old_op = _operator(matrix), _operator(matrix)
    new = conjugate_gradient(new_op, b, x0=x0, **kwargs)
    old = oracle.conjugate_gradient(old_op, b, x0=x0, **kwargs)
    assert old.converged and old.iterations > 2
    _assert_same(new, old, new_op, old_op, x0)
    _assert_accounting(new_op)
    _assert_accounting(old_op)


def test_cg_budget_exhausted_matches_oracle():
    matrix = _system("qcd5_4_bar_bro_ell")
    b, _ = _inputs(matrix.shape[0], 3, "zero")
    new_op, old_op = _operator(matrix), _operator(matrix)
    new = conjugate_gradient(new_op, b, tol=1e-14, max_iter=3)
    old = oracle.conjugate_gradient(old_op, b, tol=1e-14, max_iter=3)
    assert not old.converged
    _assert_same(new, old, new_op, old_op, None)


@pytest.mark.parametrize("case", ["zero", "x0"])
@pytest.mark.parametrize("name", sorted(NONSYM_SYSTEMS)
                         + ["qcd5_4_bar_bro_ell"])
def test_bicgstab_matches_oracle(name, case):
    matrix = _system(name)
    b, x0 = _inputs(matrix.shape[0], 11, case)
    new_op, old_op = _operator(matrix), _operator(matrix)
    new = bicgstab(new_op, b, x0=x0, tol=1e-10, max_iter=300)
    old = oracle.bicgstab(old_op, b, x0=x0, tol=1e-10, max_iter=300)
    assert old.converged
    _assert_same(new, old, new_op, old_op, x0)
    _assert_accounting(new_op)


@pytest.mark.parametrize("restart", [4, 30])
@pytest.mark.parametrize("case", ["zero", "x0"])
@pytest.mark.parametrize("name", sorted(NONSYM_SYSTEMS)
                         + ["qcd5_4_bar_bro_ell"])
def test_gmres_matches_oracle(name, case, restart):
    matrix = _system(name)
    b, x0 = _inputs(matrix.shape[0], 13, case)
    new_op, old_op = _operator(matrix), _operator(matrix)
    new = gmres(new_op, b, x0=x0, tol=1e-10, restart=restart, max_iter=300)
    old = oracle.gmres(old_op, b, x0=x0, tol=1e-10, restart=restart,
                       max_iter=300)
    assert old.converged
    _assert_same(new, old, new_op, old_op, x0)
    _assert_accounting(new_op)


@pytest.mark.parametrize("solver,reference", [
    (conjugate_gradient, oracle.conjugate_gradient),
    (bicgstab, oracle.bicgstab),
    (gmres, oracle.gmres),
])
def test_reference_operator_matches_oracle(solver, reference):
    """The host reference path (``FormatOperator``) too."""
    matrix = _system("qcd5_4_bar_bro_ell")
    b, _ = _inputs(matrix.shape[0], 5, "zero")
    new_op, old_op = FormatOperator(matrix), FormatOperator(matrix)
    new = solver(new_op, b, tol=1e-10, max_iter=300)
    old = reference(old_op, b, tol=1e-10, max_iter=300)
    assert np.array_equal(_bits(new.x), _bits(old.x))
    assert new.residual_history == old.residual_history
    assert new_op.spmv_calls == old_op.spmv_calls - 1


class TestZeroGuess:
    """The premise of skipping the product: for finite values, ``A @ 0``
    is ``+0.0`` in every row, so ``b - A @ 0`` is ``b`` bit for bit."""

    @pytest.mark.parametrize("engine", ["auto", "reference"])
    @pytest.mark.parametrize("fmt", sorted(plannable_formats()))
    def test_product_with_zero_is_positive_zero(self, fmt, engine):
        # Every value negative and one empty row: a kernel that
        # accumulated -0.0 products without a +0.0 start would show it.
        a = _random(64, 4, 0.1)
        keep = a.row_idx != 9
        coo = COOMatrix(a.row_idx[keep], a.col_idx[keep],
                        -np.abs(a.vals[keep]) - 0.5, a.shape)
        matrix = convert(coo, fmt)
        y = run_spmv(matrix, np.zeros(64), "k20",
                     policy=ExecutionPolicy(engine=engine,
                                            plan_cache=PlanCache())).y
        assert not np.any(_bits(y))
        b = np.random.default_rng(0).standard_normal(64)
        b[[1, 2, 3]] = [-0.0, np.nan, np.inf]
        assert np.array_equal(_bits(b - y), _bits(b))

    def test_negative_zero_and_nan_in_b(self):
        matrix = _system("random_spd_csr")
        b, _ = _inputs(matrix.shape[0], 1, "zero")
        b[0], b[1] = -0.0, np.nan
        new_op, old_op = _operator(matrix), _operator(matrix)
        new = conjugate_gradient(new_op, b, max_iter=5)
        old = oracle.conjugate_gradient(old_op, b, max_iter=5)
        assert np.array_equal(_bits(new.x), _bits(old.x))
        assert np.array_equal(_bits(new.residual_history),
                              _bits(old.residual_history))
        assert new_op.spmv_calls == old_op.spmv_calls - 1


class TestNonFiniteMatrix:
    """A non-finite value in ``A`` no longer poisons the initial residual;
    it first shows at the first ``A @ p``."""

    def _matrix(self):
        coo = _spd(_random(32, 6, 0.1))
        vals = coo.vals.copy()
        vals[(coo.row_idx == 5) & (coo.col_idx == 5)] = -np.inf
        return convert(COOMatrix(coo.row_idx, coo.col_idx, vals, coo.shape),
                       "csr")

    def test_cg_negative_infinity_now_raises(self):
        matrix = self._matrix()
        b = np.ones(32)
        old = oracle.conjugate_gradient(_operator(matrix), b, max_iter=20)
        assert not old.converged  # the zero-guess product made r NaN
        assert np.isnan(old.residual_history[0])
        with pytest.raises(ConvergenceError, match="positive definite"):
            conjugate_gradient(_operator(matrix), b, max_iter=20)


class TestCountersIndependence:
    def test_mutating_a_result_never_reaches_the_next(self):
        matrix = _system("nonsym_bro_hyb")
        cache = PlanCache()
        policy = ExecutionPolicy(verify=False, plan_cache=cache)
        x = np.ones(matrix.shape[1])
        first = run_spmv(matrix, x, "k20", policy=policy)
        pristine = first.counters.to_dict()
        time = first.timing.time
        first.counters.x_bytes += 10**6
        first.counters.launches = 99
        second = run_spmv(matrix, x, "k20", policy=policy)
        assert second.counters.to_dict() == pristine
        assert second.counters is not first.counters
        assert second.timing.time == time
        plan = cache.get_or_build(matrix, "k20")
        assert plan.counters().to_dict() == pristine
        block = plan.execute_many(np.ones((matrix.shape[1], 3)))
        block.counters.index_bytes = 0
        assert plan.counters(3).to_dict() != block.counters.to_dict()
        assert plan.execute_many(
            np.ones((matrix.shape[1], 3))).counters == plan.counters(3)

    @pytest.mark.parametrize("k", [1, 3])
    def test_session_accounting_per_block_width(self, k):
        """``Session`` adds the memoized time of the plan's ``k``-vector
        record: what ``predict`` gives for ``counters(k)``."""
        from repro.pipeline import Session

        matrix = _system("nonsym_bro_hyb")
        session = Session("k20", policy=ExecutionPolicy(
            plan_cache=PlanCache())).use(matrix)
        X = np.ones((matrix.shape[1], k)) if k > 1 else np.ones(matrix.shape[1])
        session.run(X)
        session.run(X)
        counters = session.plan().counters(k)
        per_call = predict(counters, session.device).time
        assert session.device_time == per_call + per_call
        assert session.dram_bytes == 2 * counters.dram_bytes

    def test_copy_is_equal_and_independent(self):
        matrix = _system("random_spd_csr")
        c = run_spmv(matrix, np.ones(matrix.shape[1]), "k20").counters
        d = c.copy()
        assert d == c and d is not c and type(d) is type(c)
        d.value_bytes += 1
        assert d != c
