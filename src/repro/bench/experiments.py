"""One function per paper table/figure, returning structured result rows.

Every function is pure given its inputs and returns ``list[dict]`` rows
that the ``benchmarks/`` files print, persist as CSV, and assert the
paper's qualitative shape on. EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..core.bro_ell import BROELLMatrix
from ..core.bro_hyb import BROHYBMatrix
from ..core.compression import index_compression_report
from ..exec.policy import ExecutionPolicy
from ..formats.coo import COOMatrix
from ..formats.ellpack import ELLPACKMatrix
from ..gpu.device import DEVICES, get_device
from ..matrices.analysis import analyze
from ..matrices.suite import TABLE2, test_set_1, test_set_2
from ..reorder import (
    amd_permutation,
    bar_permutation,
    rcm_permutation,
)
from .harness import ExperimentGrid, bench_scale, cached_format, cached_matrix, spmv_once

__all__ = [
    "table1_devices",
    "table2_suite",
    "table3_savings",
    "table4_hyb_split",
    "table5_bar_savings",
    "fig3_savings_sweep",
    "fig4_bro_ell",
    "fig5_eai",
    "fig6_bandwidth",
    "fig7_bro_coo",
    "fig8_bro_hyb",
    "fig9_reordering",
    "wallclock_engines",
    "scale_bench",
]

_ALL_DEVICES = ("c2070", "gtx680", "k20")


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1_devices() -> List[Dict]:
    """Table 1: the simulated device registry."""
    rows = []
    for key in _ALL_DEVICES:
        dev = DEVICES[key]
        rows.append(
            {
                "device": dev.name,
                "compute_capability": dev.compute_capability,
                "cores": dev.cores,
                "mem_bw_gbps": dev.peak_bw_gbps,
                "dp_gflops": dev.dp_gflops,
                "measured_bw_gbps": dev.measured_bw_gbps,
                "decode_gops": dev.decode_gops,
            }
        )
    return rows


def table2_suite(scale: float | None = None) -> List[Dict]:
    """Table 2: generated-suite statistics vs the paper's targets."""
    scale = bench_scale() if scale is None else scale
    rows = []
    for name, spec in TABLE2.items():
        stats = analyze(cached_matrix(name, scale), name)
        rows.append(
            {
                "matrix": name,
                "test_set": spec.test_set,
                "rows": stats.rows,
                "cols": stats.cols,
                "nnz": stats.nnz,
                "mu": stats.mu,
                "mu_paper": spec.mu,
                "sigma": stats.sigma,
                "sigma_paper": spec.sigma,
            }
        )
    return rows


def _paper_test_set_1() -> List[str]:
    """Test Set 1 as the paper's Tables 3 and 5 and Fig. 6 list it: the
    16 sparse matrices, without the dense control matrix ``dense2``."""
    return [name for name in test_set_1() if name != "dense2"]


def table3_savings(scale: float | None = None, h: int = 256) -> List[Dict]:
    """Table 3: BRO-ELL index space savings on Test Set 1 (the paper's
    16 sparse matrices)."""
    scale = bench_scale() if scale is None else scale
    rows = []
    for name in _paper_test_set_1():
        bro = cached_format(name, scale, "bro_ell", h)
        assert isinstance(bro, BROELLMatrix)
        report = index_compression_report(bro, name)
        rows.append(
            {
                "matrix": name,
                "eta_pct": 100.0 * report.eta,
                "kappa": report.kappa,
                "original_bytes": report.original_index_bytes,
                "compressed_bytes": report.compressed_index_bytes,
            }
        )
    return rows


def table4_hyb_split(scale: float | None = None, h: int = 256) -> List[Dict]:
    """Table 4: BRO-HYB partition fractions and space savings, Test Set 2."""
    scale = bench_scale() if scale is None else scale
    rows = []
    for name in test_set_2():
        bro = cached_format(name, scale, "bro_hyb", h)
        assert isinstance(bro, BROHYBMatrix)
        report = index_compression_report(bro, name)
        rows.append(
            {
                "matrix": name,
                "pct_bro_ell": 100.0 * bro.ell_fraction,
                "eta_pct": 100.0 * report.eta,
            }
        )
    return rows


def table5_bar_savings(
    scale: float | None = None, h: int = 256, alpha: int = 32
) -> List[Dict]:
    """Table 5: space savings after BAR reordering, Test Set 1 (the
    paper's 16 sparse matrices)."""
    scale = bench_scale() if scale is None else scale
    rows = []
    for name in _paper_test_set_1():
        coo = cached_matrix(name, scale)
        before = index_compression_report(
            BROELLMatrix.from_coo(coo, h=h), name
        ).eta
        perm = bar_permutation(coo, h=h, alpha=alpha)
        after = index_compression_report(
            BROELLMatrix.from_coo(coo.permute_rows(perm), h=h), name
        ).eta
        rows.append(
            {
                "matrix": name,
                "eta_before_pct": 100.0 * before,
                "eta_after_pct": 100.0 * after,
                "delta_pp": 100.0 * (after - before),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def fig3_savings_sweep(
    m: int = 8192,
    k: int = 64,
    bit_widths: Sequence[int] = (32, 28, 24, 20, 16, 12, 8, 4, 2, 1),
    devices: Sequence[str] = _ALL_DEVICES,
    h: int = 256,
) -> List[Dict]:
    """Fig. 3: BRO-ELL GFlop/s vs index space savings on a dense matrix.

    A dense matrix (delta = 1 everywhere) lets the per-index width be
    forced to ``b`` bits, i.e. space savings ``eta = 1 - b/32``, without
    touching anything else — exactly the paper's methodology.
    """
    rng = np.random.default_rng(0)
    rows_idx = np.repeat(np.arange(m), k)
    cols_idx = np.tile(np.arange(k), m)
    dense = COOMatrix(rows_idx, cols_idx, rng.standard_normal(m * k), (m, k))
    x = rng.standard_normal(k)
    ell = ELLPACKMatrix.from_coo(dense)
    bro = BROELLMatrix.from_coo(dense, h=h)
    out: List[Dict] = []
    for dev in devices:
        ell_gflops = spmv_once(ell, dev, x).gflops
        for bits in bit_widths:
            forced = bro.with_uniform_width(bits)
            res = spmv_once(forced, dev, x)
            out.append(
                {
                    "device": DEVICES[dev].name,
                    "device_key": dev,
                    "bits": bits,
                    "eta_pct": 100.0 * (1.0 - bits / 32.0),
                    "gflops": res.gflops,
                    "ellpack_gflops": ell_gflops,
                    "speedup": res.gflops / ell_gflops,
                }
            )
    return out


def fig3_break_even(rows: List[Dict]) -> Dict[str, float]:
    """Interpolate each device's break-even space savings from Fig. 3 rows."""
    out: Dict[str, float] = {}
    for dev in {r["device_key"] for r in rows}:
        series = sorted(
            (r for r in rows if r["device_key"] == dev), key=lambda r: r["eta_pct"]
        )
        eta = np.array([r["eta_pct"] for r in series])
        ratio = np.array([r["speedup"] for r in series])
        # First crossing of speedup = 1.
        out[dev] = float(np.interp(1.0, ratio, eta))
    return out


def fig4_bro_ell(
    scale: float | None = None,
    devices: Sequence[str] = _ALL_DEVICES,
    matrices: Sequence[str] | None = None,
    h: int = 256,
) -> List[Dict]:
    """Fig. 4: BRO-ELL vs ELLPACK and ELLPACK-R across Test Set 1."""
    scale = bench_scale() if scale is None else scale
    grid = ExperimentGrid(
        matrices=list(matrices or test_set_1()),
        formats=("ellpack", "ellpack_r", "bro_ell"),
        devices=tuple(devices),
        scale=scale,
        h=h,
    )
    rows = grid.run()
    for row in rows:
        row["speedup_vs_ellpack"] = row["gflops_bro_ell"] / row["gflops_ellpack"]
        row["speedup_vs_ellpack_r"] = row["gflops_bro_ell"] / row["gflops_ellpack_r"]
    return rows


def fig5_eai(
    scale: float | None = None, device: str = "k20", h: int = 256
) -> List[Dict]:
    """Fig. 5: effective arithmetic intensity, ELLPACK vs BRO-ELL on K20."""
    rows = fig4_bro_ell(scale=scale, devices=(device,), h=h)
    return [
        {
            "matrix": r["matrix"],
            "eai_ellpack": r["eai_ellpack"],
            "eai_bro_ell": r["eai_bro_ell"],
            "eai_ratio": r["eai_bro_ell"] / r["eai_ellpack"],
        }
        for r in rows
    ]


def fig6_bandwidth(
    scale: float | None = None,
    devices: Sequence[str] = _ALL_DEVICES,
    h: int = 256,
) -> List[Dict]:
    """Fig. 6: BRO-ELL DRAM bandwidth utilization, the paper's first six
    matrices."""
    first_six = _paper_test_set_1()[:6]
    rows = fig4_bro_ell(scale=scale, devices=devices, matrices=first_six, h=h)
    return [
        {
            "matrix": r["matrix"],
            "device": r["device"],
            "device_key": r["device_key"],
            "bw_utilization": r["bw_util_bro_ell"],
        }
        for r in rows
    ]


def fig7_bro_coo(
    scale: float | None = None,
    devices: Sequence[str] = _ALL_DEVICES,
    matrices: Sequence[str] | None = None,
) -> List[Dict]:
    """Fig. 7: BRO-COO vs COO across all thirty matrices."""
    scale = bench_scale() if scale is None else scale
    grid = ExperimentGrid(
        matrices=list(matrices or (test_set_1() + test_set_2())),
        formats=("coo", "bro_coo"),
        devices=tuple(devices),
        scale=scale,
    )
    rows = grid.run()
    for row in rows:
        row["speedup_vs_coo"] = row["gflops_bro_coo"] / row["gflops_coo"]
    return rows


def fig8_bro_hyb(
    scale: float | None = None,
    devices: Sequence[str] = ("k20",),
    h: int = 256,
) -> List[Dict]:
    """Fig. 8: BRO-HYB vs HYB on Test Set 2 (paper shows K20)."""
    scale = bench_scale() if scale is None else scale
    grid = ExperimentGrid(
        matrices=test_set_2(),
        formats=("hyb", "bro_hyb"),
        devices=tuple(devices),
        scale=scale,
        h=h,
    )
    rows = grid.run()
    for row in rows:
        row["speedup_vs_hyb"] = row["gflops_bro_hyb"] / row["gflops_hyb"]
    return rows


def fig9_reordering(
    scale: float | None = None,
    device: str = "k20",
    h: int = 256,
    matrices: Sequence[str] | None = None,
) -> List[Dict]:
    """Fig. 9: BAR vs RCM vs AMD reordering, BRO-ELL GFlop/s on Test Set 1."""
    scale = bench_scale(0.02) if scale is None else scale
    out: List[Dict] = []
    for name in matrices or test_set_1():
        coo = cached_matrix(name, scale)
        x = np.random.default_rng(7).standard_normal(coo.shape[1])
        ell = spmv_once(ELLPACKMatrix.from_coo(coo), device, x).gflops
        base = spmv_once(BROELLMatrix.from_coo(coo, h=h), device, x).gflops
        row: Dict = {
            "matrix": name,
            "gflops_ellpack": ell,
            "gflops_bro_ell": base,
        }
        for label, fn in (
            ("bar", lambda c: bar_permutation(c, h=h)),
            ("rcm", rcm_permutation),
            ("amd", amd_permutation),
        ):
            perm = fn(coo)
            reordered = coo.permute_rows(perm)
            res = spmv_once(BROELLMatrix.from_coo(reordered, h=h), device, x[:])
            row[f"gflops_{label}"] = res.gflops
            row[f"{label}_gain_pct"] = 100.0 * (res.gflops / base - 1.0)
        out.append(row)
    return out


# ----------------------------------------------------------------------
# Host wall-clock: prepared-plan engine vs reference engine
# ----------------------------------------------------------------------
def _time_repeat(fn, repeats: int) -> float:
    """Average wall-clock seconds of ``repeats`` calls of ``fn``."""
    import time

    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def _spd_system(name: str, scale: float):
    """A small SPD system derived from a suite matrix (for the CG rows).

    Symmetrize and make strictly diagonally dominant — SPD by Gershgorin —
    without a dense matmul, so the construction stays cheap in CI.
    """
    d = cached_matrix(name, scale).to_dense()
    s = 0.5 * (d + d.T)
    np.fill_diagonal(s, s.diagonal() + np.abs(s).sum(axis=1) + 1.0)
    return COOMatrix.from_dense(s)


def _executor_backends() -> List[str]:
    """The executor backends this host can actually run compiled."""
    from ..kernels.backends import jit_available, scipy_refusal

    return (["numpy"] + (["scipy"] if scipy_refusal() is None else [])
            + (["jit"] if jit_available() else []))


def wallclock_engines(
    scale: float | None = None,
    matrices: Sequence[str] = ("dense2", "epb3"),
    formats: Sequence[str] = ("bro_ell", "bro_hyb", "sell_c_sigma", "cmrs",
                              "bro_sell"),
    device: str = "k20",
    h: int = 256,
    repeats: int = 5,
    spmm_k: int = 8,
    cg_iters: int = 50,
) -> List[Dict]:
    """Host wall-clock of the prepared-plan engine vs the reference engine.

    Unlike every other experiment this one measures *our* time, not the
    simulated device's: plan-build seconds, per-call replay seconds, and
    the speedup over re-decoding with the stepwise kernels. Three modes
    per (matrix, format): a single-vector SpMV, a ``spmm_k``-column SpMM
    block, and a ``cg_iters``-iteration :class:`SimulatedOperator` CG
    solve on an SPD system derived from the matrix (built at
    ``min(scale, 0.02)`` so the dense symmetrization stays small).

    Every row carries a ``backend`` column. The spmv/spmm modes run once
    per available executor backend (``numpy`` always; ``scipy`` when
    SciPy's row loops pass their probe; ``jit`` when Numba is importable,
    with the warm-compile inside ``build_time_ms``), and
    the :func:`microbench_exec` inner-loop row is appended at the end
    so one report records the whole compiled-path trajectory.
    """
    import time

    from ..formats.conversion import convert
    from ..kernels.dispatch import run_spmm, run_spmv
    from ..kernels.plan import prepare
    from ..kernels.plancache import PlanCache
    from ..solvers.cg import conjugate_gradient
    from ..solvers.operators import SimulatedOperator

    scale = bench_scale() if scale is None else scale
    backends = _executor_backends()
    rows: List[Dict] = []
    for name in matrices:
        for fmt in formats:
            mat = cached_format(name, scale, fmt, h)
            n = mat.shape[1]
            x = np.random.default_rng(12345).standard_normal(n)
            X = np.random.default_rng(99).standard_normal((n, spmm_k))

            ref_policy = ExecutionPolicy(engine="reference")
            ref_spmv = _time_repeat(
                lambda: run_spmv(mat, x, device, policy=ref_policy), repeats
            )
            ref_spmm = _time_repeat(
                lambda: run_spmm(mat, X, device, policy=ref_policy),
                max(1, repeats // 2),
            )

            for backend in backends:
                t0 = time.perf_counter()
                plan = prepare(mat, device, backend=backend)
                build_time = time.perf_counter() - t0

                fast_spmv = _time_repeat(lambda: plan.execute(x), repeats)
                rows.append(
                    {
                        "matrix": name,
                        "format": fmt,
                        "mode": "spmv",
                        "backend": backend,
                        "build_time_ms": 1e3 * build_time,
                        "ref_time_ms": 1e3 * ref_spmv,
                        "fast_time_ms": 1e3 * fast_spmv,
                        "speedup": ref_spmv / fast_spmv,
                    }
                )

                fast_spmm = _time_repeat(
                    lambda: plan.execute_many(X), max(1, repeats // 2)
                )
                rows.append(
                    {
                        "matrix": name,
                        "format": fmt,
                        "mode": f"spmm{spmm_k}",
                        "backend": backend,
                        "build_time_ms": 1e3 * build_time,
                        "ref_time_ms": 1e3 * ref_spmm,
                        "fast_time_ms": 1e3 * fast_spmm,
                        "speedup": ref_spmm / fast_spmm,
                    }
                )

        # CG on an SPD system built from the matrix: the acceptance case —
        # one decode amortized over a many-iteration operator-driven solve.
        spd = _spd_system(name, min(scale, 0.02))
        from .. import registry as _registry

        kwargs = {"h": h} if _registry.get_spec(formats[0]).accepts("h") else {}
        spd_mat = convert(spd, formats[0], **kwargs)
        b = np.ones(spd_mat.shape[1])

        op_ref = SimulatedOperator(
            spd_mat, device, policy=ExecutionPolicy(engine="reference")
        )
        t0 = time.perf_counter()
        conjugate_gradient(op_ref, b, tol=0.0, max_iter=cg_iters)
        ref_cg = time.perf_counter() - t0

        cache = PlanCache()
        op_fast = SimulatedOperator(
            spd_mat, device, policy=ExecutionPolicy(plan_cache=cache)
        )
        t0 = time.perf_counter()
        conjugate_gradient(op_fast, b, tol=0.0, max_iter=cg_iters)
        fast_cg = time.perf_counter() - t0

        # The first fast iteration built the plan (its cost is inside
        # fast_cg); fetch it back from the cache to report the build time.
        cg_plan = cache.get_or_build(spd_mat, device)
        rows.append(
            {
                "matrix": name,
                "format": formats[0],
                "mode": f"cg{cg_iters}",
                "backend": "numpy",
                "build_time_ms": 1e3 * cg_plan.build_seconds,
                "ref_time_ms": 1e3 * ref_cg,
                "fast_time_ms": 1e3 * fast_cg,
                "speedup": ref_cg / fast_cg,
            }
        )
    rows.extend(microbench_exec())
    return rows


# ----------------------------------------------------------------------
# Executor inner-loop microbenchmark (numpy vs the compiled jagged loop)
# ----------------------------------------------------------------------
def microbench_exec(
    m: int = 4096,
    k: int = 24,
    repeats: int = 5,
    seed: int = 7,
) -> List[Dict]:
    """Microbenchmark the executor's one inner loop against NumPy.

    Every plannable format replays through the jagged layout, so one row
    covers them all: a synthetic ``m``-row CSR matrix with uneven row
    lengths (geometric, mean ``k``) lowered onto the jagged plan, timed
    with the vectorized NumPy replay and with ``jagged_spmv``. With Numba
    importable the kernel is the compiled loop (``backend="jit"``,
    warm-compiled before timing); without it it is the pure-Python twin
    (``backend="python"``) — slower than NumPy by construction, kept
    because it pins the loop order the jit path compiles. The row uses a
    ``ratio`` column (numpy time / kernel time, >1 means the kernel wins)
    rather than ``speedup`` so the wallclock ``--min-speedup`` gate never
    fails on a Numba-free host.
    """
    from ..formats.csr import CSRMatrix
    from ..kernels import backends as _bk
    from ..kernels.plan import prepare
    from ..registry import planner_for

    backend = "jit" if _bk.jit_available() else "python"
    if backend == "python":
        # The interpreted twin is O(python-op) per nnz; shrink the
        # problem so the microbench stays fast on Numba-free hosts.
        m, k = min(m, 512), min(k, 8)

    rng = np.random.default_rng(seed)
    lengths = np.minimum(rng.geometric(1.0 / k, size=m), m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(m, size=int(n), replace=False)) for n in lengths]
    )
    mat = CSRMatrix(indptr, indices, rng.standard_normal(int(indptr[-1])),
                    (m, m))
    x = rng.standard_normal(m)

    numpy_plan = prepare(mat, "k20")
    kernel_plan = planner_for("csr")(mat, get_device("k20"), "jit")  # or its twin
    numpy_plan.execute(x)  # warm both paths (jit: triggers compilation)
    kernel_plan.execute(x)
    t_numpy = _time_repeat(lambda: numpy_plan.execute(x), repeats)
    t_kernel = _time_repeat(lambda: kernel_plan.execute(x), repeats)
    return [
        {
            "matrix": "synthetic",
            "format": "csr",
            "mode": "micro:jagged",
            "backend": backend,
            "ref_time_ms": 1e3 * t_numpy,
            "fast_time_ms": 1e3 * t_kernel,
            "ratio": t_numpy / t_kernel if t_kernel > 0 else 0.0,
        }
    ]


# ----------------------------------------------------------------------
# Scale bench: per-device-count wallclock + latency percentiles
# ----------------------------------------------------------------------
def scale_bench(
    scale: float | None = None,
    matrices: Sequence[str] = ("cant",),
    format_name: str = "csr",
    device: str = "k20",
    devices: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
) -> List[Dict]:
    """Per-device-count scaling rows: modeled speedup + measured latency.

    Two kinds of columns per (matrix, device-count) row:

    * ``speedup``/``efficiency`` — the *modeled* strong-scaling numbers
      (deterministic, so they gate regressions in ``repro bench
      --compare``);
    * ``wallclock_ms`` and ``p50_ms``/``p95_ms``/``p99_ms`` — *measured*
      host wall-clock of the process backend and the exact percentiles of
      the per-shard latency histograms
      (``exec.shard_latency_seconds{worker=...}``). Their column names
      deliberately match no :func:`~repro.telemetry.benchreport.metric_direction`
      fragment, so they are recorded and compared informationally but
      never fail CI on noisy hardware.
    """
    import time

    from ..exec.engine import execute_sharded, shutdown_pools
    from ..exec.scaling import strong_scaling
    from ..kernels.dispatch import run_spmv
    from ..telemetry.metrics import (
        LATENCY_BUCKETS,
        Histogram,
        MetricsRegistry,
        start_collecting,
        stop_collecting,
    )

    scale = bench_scale() if scale is None else scale
    counts = sorted({int(n) for n in devices})
    rows: List[Dict] = []
    for name in matrices:
        mat = cached_format(name, scale, format_name)
        x = np.random.default_rng(12345).standard_normal(mat.shape[1])
        modeled = {
            r["devices"]: r
            for r in strong_scaling(mat, device, counts, backend="thread")
        }
        for n in counts:
            reg = MetricsRegistry()
            start_collecting(reg)
            try:
                t0 = time.perf_counter()
                for _ in range(repeats):
                    if n == 1:
                        run_spmv(mat, x, device, policy=ExecutionPolicy())
                    else:
                        execute_sharded(
                            mat, x, device,
                            ExecutionPolicy(devices=n, backend="process"),
                        )
                wallclock = (time.perf_counter() - t0) / repeats
            finally:
                stop_collecting()
                if n > 1:
                    shutdown_pools(mat)
            snap = reg.snapshot()
            merged = Histogram(LATENCY_BUCKETS)
            for key, h in snap["histograms"].items():
                if key.startswith("exec.shard_latency_seconds"):
                    merged.merge_dict(h)
            if merged.count == 0:
                # Single-device path records no shard latency; the call
                # wallclock is the whole distribution.
                merged.observe(wallclock)
            rows.append(
                {
                    "matrix": name,
                    "devices": n,
                    "backend": "process" if n > 1 else "single",
                    "speedup": modeled[n]["speedup"],
                    "efficiency": modeled[n]["efficiency"],
                    "wallclock_ms": 1e3 * wallclock,
                    "p50_ms": 1e3 * merged.percentile(50),
                    "p95_ms": 1e3 * merged.percentile(95),
                    "p99_ms": 1e3 * merged.percentile(99),
                }
            )
    return rows
