"""Micro-benchmark: the executor's fused inner loops vs their NumPy replays.

PR 8 gave every plan a compiled fast path: one fused gather+mask+
segmented-reduce loop per kernel family (jagged sliced ELL, ELL slice,
COO scatter, CSR row sums, ELLPACK column accumulation), compiled with Numba when it is
importable and interpreted otherwise.  This file pins two things:

* **bit-identity** — each kernel accumulates in exactly the order of the
  vectorized NumPy replay, so swapping backends can never change ``y``
  by even one ulp; and
* **the reporting contract** — ``microbench_exec()`` (the rows folded
  into ``repro bench wallclock``) uses a ``ratio`` column rather than
  ``speedup`` so the ``--min-speedup`` gate ignores the interpreted
  twins on Numba-free hosts, where they lose to NumPy by construction.

On a host with Numba the timed rows exercise the real compiled loops and
the ratio is the compiled-path win; without it they time the pure-Python
twins on a shrunken problem.
"""

import numpy as np
from conftest import save_table

from repro.bench.experiments import microbench_exec
from repro.formats.conversion import convert
from repro.formats.coo import COOMatrix
from repro.kernels import backends as _bk
from repro.kernels import prepare
from repro.types import VALUE_DTYPE

COLUMNS = ["format", "mode", "backend", "ref_time_ms", "fast_time_ms", "ratio"]

MICRO_MODES = {
    "micro:gather_reduce",
    "micro:scatter",
    "micro:row_sums",
    "micro:column_acc",
}


def _operands(m=96, k=5, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m)
    return rng, m, k, x


class TestKernelBitIdentity:
    """Each fused loop reproduces its NumPy replay bit for bit.

    These run the *interpreted* twins from ``PY_KERNELS`` so the loop
    order is pinned on every host; with Numba present the compiled
    aliases execute the same source and tests/kernels/test_backends.py
    covers them through the plan layer.
    """

    def test_ell_slice_gather_reduce(self):
        rng, m, k, x = _operands()
        vals_t = rng.standard_normal((k, m))
        gather_t = rng.integers(0, m, size=(k, m))
        valid_t = rng.random((k, m)) < 0.7
        vals_t[~valid_t] = 0.0

        expected = np.zeros(m, dtype=VALUE_DTYPE)
        for c in range(k):
            expected += np.where(valid_t[c], vals_t[c] * x[gather_t[c]], 0.0)

        y = np.zeros(m, dtype=VALUE_DTYPE)
        _bk.PY_KERNELS["ell_slice_spmv"](vals_t, gather_t, valid_t, x, y)
        assert np.array_equal(y, expected)

    def _jagged_plan(self, fmt):
        # Uneven rows (empty, short, dense) over slices of 8: the width
        # sort and per-column prefix counts both matter.
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((40, 33))
        dense[rng.random((40, 33)) < 0.8] = 0.0
        dense[3] = rng.standard_normal(33)
        dense[16:24] = 0.0
        kwargs = {"c": 8} if fmt == "bro_sell" else {"h": 8}
        return prepare(convert(COOMatrix.from_dense(dense), fmt, **kwargs), "k20")

    def test_jagged_spmv_matches_numpy_replay(self):
        for fmt in ("bro_ell", "bro_sell", "sliced_ellpack"):
            plan = self._jagged_plan(fmt)
            x = np.random.default_rng(1).standard_normal(plan.shape[1])
            y = np.zeros(plan.shape[0], dtype=VALUE_DTYPE)
            _bk.PY_KERNELS["jagged_spmv"](
                plan._counts, plan._gather, plan._vals, plan._rows,
                plan._extend(x), y,
            )
            assert np.array_equal(y, plan.execute(x).y), fmt

    def test_jagged_spmm_matches_numpy_replay(self):
        for fmt in ("bro_ell", "bro_sell", "sliced_ellpack"):
            plan = self._jagged_plan(fmt)
            X = np.random.default_rng(2).standard_normal((plan.shape[1], 5))
            Y = np.zeros((plan.shape[0], 5), dtype=VALUE_DTYPE)
            _bk.PY_KERNELS["jagged_spmm"](
                plan._counts, plan._gather, plan._vals, plan._rows,
                plan._extend(X), Y,
            )
            assert np.array_equal(Y, plan.execute_many(X).y), fmt

    def test_coo_scatter(self):
        rng, m, _, x = _operands()
        nnz = 4 * m
        rows = np.sort(rng.integers(0, m, size=nnz))
        cols = rng.integers(0, m, size=nnz)
        vals = rng.standard_normal(nnz)

        expected = np.zeros(m, dtype=VALUE_DTYPE)
        np.add.at(expected, rows, vals * x[cols])

        y = np.zeros(m, dtype=VALUE_DTYPE)
        _bk.PY_KERNELS["coo_scatter_spmv"](rows, cols, vals, x, y)
        assert np.array_equal(y, expected)

    def test_csr_row_sums_match_column_schedule(self):
        rng, m, _, x = _operands()
        lengths = rng.integers(0, 9, size=m)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = rng.integers(0, m, size=int(indptr[-1]))
        vals = rng.standard_normal(int(indptr[-1]))

        schedule = _bk.csr_column_schedule(indptr)
        expected = _bk.csr_spmv_columns(indices, vals, x, schedule, m)

        y = np.empty(m, dtype=VALUE_DTYPE)
        _bk.PY_KERNELS["csr_spmv"](indptr, indices, vals, x, y)
        assert np.array_equal(y, expected)

    def test_ellpack_column_accumulation(self):
        rng, m, k, x = _operands()
        col_idx_t = rng.integers(0, m, size=(k, m))
        vals_t = rng.standard_normal((k, m))

        expected = np.zeros(m, dtype=VALUE_DTYPE)
        for c in range(k):
            expected += vals_t[c] * x[col_idx_t[c]]

        y = np.zeros(m, dtype=VALUE_DTYPE)
        _bk.PY_KERNELS["ellpack_spmv"](col_idx_t, vals_t, x, y)
        assert np.array_equal(y, expected)


class TestMicrobenchRows:
    def test_row_shape_and_gate_exemption(self):
        rows = microbench_exec(m=256, k=4, repeats=2)
        assert {r["mode"] for r in rows} == MICRO_MODES
        expect_backend = "jit" if _bk.jit_available() else "python"
        for r in rows:
            assert r["matrix"] == "synthetic"
            assert r["backend"] == expect_backend
            assert r["ratio"] > 0.0
            # `ratio`, never `speedup`: the wallclock --min-speedup gate
            # only inspects rows carrying a "speedup" key, and the
            # interpreted twins must not trip it on Numba-free hosts.
            assert "speedup" not in r

    def test_compiled_loops_beat_numpy_when_jit(self):
        if not _bk.jit_available():
            return  # interpreted twins lose to NumPy by construction
        rows = microbench_exec(repeats=3)
        assert max(r["ratio"] for r in rows) > 1.0


def test_microbench_exec_table(benchmark):
    rows = microbench_exec(repeats=3)
    save_table(
        "microbench_exec", rows, COLUMNS,
        "executor inner loops: NumPy replay vs fused kernel "
        f"(backend={rows[0]['backend']})",
    )

    rng, m, k, x = _operands(m=256, k=6)
    vals_t = rng.standard_normal((k, m))
    gather_t = rng.integers(0, m, size=(k, m))
    valid_t = rng.random((k, m)) < 0.7
    vals_t[~valid_t] = 0.0
    y = np.zeros(m, dtype=VALUE_DTYPE)
    benchmark.pedantic(
        lambda: _bk.ell_slice_spmv(vals_t, gather_t, valid_t, x, y),
        rounds=3, iterations=1,
    )
