"""Micro-benchmark: the executor's one inner loop vs its NumPy replay.

Every plannable format lowers onto the jagged layout, so the compiled
fast path is one loop (``jagged_spmv``/``jagged_spmm``), compiled with
Numba when it is importable and interpreted otherwise.  This file pins
two things:

* **bit-identity** — the loop accumulates in exactly the order of the
  vectorized NumPy replay, so swapping backends can never change ``y``
  by even one ulp; and
* **the reporting contract** — ``microbench_exec()`` (the rows folded
  into ``repro bench wallclock``) uses a ``ratio`` column rather than
  ``speedup`` so the ``--min-speedup`` gate ignores the interpreted
  twin on Numba-free hosts, where it loses to NumPy by construction.

On a host with Numba the timed row exercises the real compiled loop and
the ratio is the compiled-path win; without it it times the pure-Python
twin on a shrunken problem.
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

MICRO_MODES = {"micro:jagged"}

#: Formats whose plans the interpreted twin is checked against: sliced,
#: chunked, entry-list and blocked lowerings.
JAGGED_FORMATS = ("bro_ell", "bro_sell", "sliced_ellpack", "coo", "csr",
                  "bellpack")


def _jagged_plan(fmt):
    # Uneven rows (empty, short, dense) over slices of 8: the width
    # sort and per-column prefix counts both matter.
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((40, 33))
    dense[rng.random((40, 33)) < 0.8] = 0.0
    dense[3] = rng.standard_normal(33)
    dense[16:24] = 0.0
    kwargs = {"bro_sell": {"c": 8}, "bro_ell": {"h": 8},
              "sliced_ellpack": {"h": 8}}.get(fmt, {})
    return prepare(convert(COOMatrix.from_dense(dense), fmt, **kwargs), "k20")


class TestKernelBitIdentity:
    """The jagged loop reproduces its NumPy replay bit for bit.

    These run the *interpreted* twins from ``PY_KERNELS`` so the loop
    order is pinned on every host; with Numba present the compiled
    aliases execute the same source and tests/kernels/test_backends.py
    covers them through the plan layer.
    """

    def test_jagged_spmv_matches_numpy_replay(self):
        for fmt in JAGGED_FORMATS:
            plan = _jagged_plan(fmt)
            x = np.random.default_rng(1).standard_normal(plan.shape[1])
            y = np.zeros(plan.shape[0], dtype=VALUE_DTYPE)
            _bk.PY_KERNELS["jagged_spmv"](
                plan._counts, plan._gather, plan._vals, plan._rows,
                plan._extend(x), y,
            )
            assert np.array_equal(y, plan.execute(x).y), fmt

    def test_jagged_spmm_matches_numpy_replay(self):
        for fmt in JAGGED_FORMATS:
            plan = _jagged_plan(fmt)
            X = np.random.default_rng(2).standard_normal((plan.shape[1], 5))
            Y = np.zeros((plan.shape[0], 5), dtype=VALUE_DTYPE)
            _bk.PY_KERNELS["jagged_spmm"](
                plan._counts, plan._gather, plan._vals, plan._rows,
                plan._extend(X), Y,
            )
            assert np.array_equal(Y, plan.execute_many(X).y), fmt


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
            return  # the interpreted twin loses to NumPy by construction
        rows = microbench_exec(repeats=3)
        assert max(r["ratio"] for r in rows) > 1.0


def test_microbench_exec_table(benchmark):
    rows = microbench_exec(repeats=3)
    save_table(
        "microbench_exec", rows, COLUMNS,
        "executor inner loop: NumPy jagged replay vs jagged_spmv "
        f"(backend={rows[0]['backend']})",
    )

    plan = _jagged_plan("bro_ell")
    x = np.random.default_rng(4).standard_normal(plan.shape[1])
    xe = plan._extend(x)
    y = np.zeros(plan.shape[0], dtype=VALUE_DTYPE)
    benchmark.pedantic(
        lambda: _bk.jagged_spmv(
            plan._counts, plan._gather, plan._vals, plan._rows, xe, y
        ),
        rounds=3, iterations=1,
    )
