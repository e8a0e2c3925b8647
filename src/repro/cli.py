"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``devices``
    Print the simulated GPU registry (paper Table 1).
``matrices``
    List the Table 2 suite with its published statistics.
``analyze <matrix>``
    Generate (or load) a matrix and print its statistics.
``compress <matrix>``
    Compress with a BRO format and print the space-savings report.
``spmv <matrix>``
    Run one simulated SpMV and print the timing breakdown; ``--save``
    persists the converted container as a ``.brx`` file, and ``<matrix>``
    may itself be a saved ``.brx`` container. ``--devices N`` shards the
    run across N simulated devices (``--partition``/``--comms`` select
    the row partitioner and x-distribution strategy).
``scale <matrix>``
    Scaling sweep: run the sharded engine across a list of device counts
    (``--devices 1,2,4,8``) and report modeled speedup/efficiency with
    the interconnect term broken out. ``--weak`` switches to the
    weak-scaling experiment (matrix grows with the device count at fixed
    work per device) and ``--backend process`` runs the sweep on the
    fault-tolerant worker pool.
``chaos``
    Chaos-engineering campaign: inject seeded faults (worker kills,
    stalls, corrupted shard results, container bit flips) into sharded
    executions and assert the zero-silent-corruption contract — every
    injected fault either recovers to a bit-identical product or raises
    a typed error. Exits non-zero on any silent corruption.
``formats``
    Print the format capability matrix (kernel, planner, tracer, tuner,
    validator, integrity, serializer) straight from the registry.
``advise <matrix>``
    Rank all storage formats for the matrix on a device.
``bench <experiment>``
    Regenerate one of the paper's tables/figures and print its rows;
    ``--save`` writes a ``BENCH_<experiment>.json`` report and
    ``--compare <baseline.json>`` reruns at the baseline's scale and fails
    on regressions.
``profile <matrix>``
    Trace one full pipeline run (load, convert, seal, verified dispatch,
    kernel) and print the span tree plus the roofline attribution — or
    export it as JSONL, Chrome trace-event JSON or Prometheus text.
``export <matrix> <out.mtx>``
    Write a generated suite matrix to a MatrixMarket file.
``selfcheck``
    Quick internal verification (formats, kernels, calibration).
``verify``
    Integrity check + seeded fault-injection campaign over the registered
    formats; prints a detection/recovery table and exits non-zero on any
    silent corruption.

``<matrix>`` is either a Table 2 name (generated synthetically at
``--scale``) or a path to a MatrixMarket ``.mtx`` file.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

import numpy as np

from . import registry as _registry
from .bench import experiments as exp
from .bench.reporting import format_table
from .core.compression import index_compression_report
from .errors import ReproError
from .exec.policy import PARTITIONERS, ExecutionPolicy
from .formats.conversion import convert
from .formats.coo import COOMatrix
from .gpu.device import DEVICES
from .kernels.dispatch import run_spmv
from .matrices.analysis import analyze
from .matrices.io import read_matrix_market
from .matrices.suite import TABLE2, generate
from .pipeline import Session
from .tuner.advisor import rank_formats

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table1": (exp.table1_devices, ["device", "compute_capability", "cores",
                                    "mem_bw_gbps", "dp_gflops"]),
    "table2": (exp.table2_suite, ["matrix", "rows", "cols", "nnz", "mu",
                                  "mu_paper", "sigma", "sigma_paper"]),
    "table3": (exp.table3_savings, ["matrix", "eta_pct", "kappa"]),
    "table4": (exp.table4_hyb_split, ["matrix", "pct_bro_ell", "eta_pct"]),
    "table5": (exp.table5_bar_savings, ["matrix", "eta_before_pct",
                                        "eta_after_pct", "delta_pp"]),
    "fig3": (exp.fig3_savings_sweep, ["device", "bits", "eta_pct", "gflops",
                                      "speedup"]),
    "fig4": (exp.fig4_bro_ell, ["matrix", "device", "gflops_ellpack",
                                "gflops_bro_ell", "speedup_vs_ellpack"]),
    "fig5": (exp.fig5_eai, ["matrix", "eai_ellpack", "eai_bro_ell",
                            "eai_ratio"]),
    "fig6": (exp.fig6_bandwidth, ["matrix", "device", "bw_utilization"]),
    "fig7": (exp.fig7_bro_coo, ["matrix", "device", "gflops_coo",
                                "gflops_bro_coo", "speedup_vs_coo"]),
    "fig8": (exp.fig8_bro_hyb, ["matrix", "device", "gflops_hyb",
                                "gflops_bro_hyb", "speedup_vs_hyb"]),
    "fig9": (exp.fig9_reordering, ["matrix", "gflops_bro_ell", "gflops_bar",
                                   "bar_gain_pct", "rcm_gain_pct",
                                   "amd_gain_pct"]),
    "wallclock": (exp.wallclock_engines, ["matrix", "format", "mode",
                                          "backend", "build_time_ms",
                                          "ref_time_ms", "fast_time_ms",
                                          "speedup", "ratio"]),
    "scale": (exp.scale_bench, ["matrix", "devices", "backend", "speedup",
                                "efficiency", "wallclock_ms", "p50_ms",
                                "p95_ms", "p99_ms"]),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _load_matrix(spec: str, scale: float) -> COOMatrix:
    if spec in TABLE2:
        return generate(spec, scale=scale)
    if spec.endswith(".mtx"):
        return read_matrix_market(spec)
    raise ReproError(
        f"{spec!r} is neither a Table 2 matrix name nor a .mtx path; "
        f"known names: {', '.join(sorted(TABLE2))}"
    )


def _conversion_kwargs(fmt: str, args: argparse.Namespace) -> dict:
    """Conversion overrides from the shared --h/--sym-len flags."""
    spec = _registry.get_spec(fmt)
    kwargs: dict = {}
    if spec.accepts("h"):
        kwargs["h"] = args.h
    if getattr(args, "sym_len", None) is not None and spec.accepts("sym_len"):
        kwargs["sym_len"] = args.sym_len
    return kwargs


def _suite_kwargs(fmt: str, h: int) -> dict:
    """Conversion overrides for a self-check sweep, asked of the registry."""
    spec = _registry.get_spec(fmt)
    kwargs: dict = {}
    if spec.accepts("h"):
        kwargs["h"] = h
    if spec.accepts("threads_per_row"):
        kwargs["threads_per_row"] = 2
    return kwargs


def _device_list(text: str) -> List[int]:
    """Parse a ``--devices`` sweep list like ``1,2,4,8``."""
    try:
        counts = sorted({int(part) for part in text.split(",") if part})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        )
    if not counts or counts[0] < 1:
        raise argparse.ArgumentTypeError(
            f"device counts must be positive integers, got {text!r}"
        )
    return counts


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs).

    Subcommands share one spelling for the common flags via argparse
    parent parsers: ``--scale``, ``--device``, ``--json`` and the
    conversion trio ``--format``/``--h``/``--sym-len``. ``--format``
    always names the *storage* format; machine-readable output is always
    ``--json`` (``profile`` adds ``--export`` for its non-JSON trace
    formats).
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BRO sparse formats + simulated-GPU SpMV (SC '13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups — one definition, one spelling, every subcommand.
    matrix_p = argparse.ArgumentParser(add_help=False)
    matrix_p.add_argument("matrix", help="Table 2 name or a .mtx file path")
    matrix_p.add_argument("--scale", type=float, default=0.05,
                          help="generation scale for suite names "
                               "(default 0.05)")
    device_p = argparse.ArgumentParser(add_help=False)
    device_p.add_argument("--device", default="k20", choices=sorted(DEVICES))
    json_p = argparse.ArgumentParser(add_help=False)
    json_p.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    def conv_parent(default_format: str = "bro_ell",
                    default_sym_len: Optional[int] = None,
                    ) -> argparse.ArgumentParser:
        # A fresh parent per subcommand: argparse parents share action
        # objects, so per-subcommand defaults must not mutate a shared one.
        cp = argparse.ArgumentParser(add_help=False)
        cp.add_argument("--format", default=default_format,
                        help=f"storage format (default {default_format})")
        cp.add_argument("--h", type=int, default=256, help="slice height")
        cp.add_argument("--sym-len", type=int, default=default_sym_len,
                        choices=[32, 64], dest="sym_len",
                        help="symbol length in bits (format default if unset)")
        return cp

    sub.add_parser("devices", help="print the simulated GPU registry")
    sub.add_parser("matrices", help="list the Table 2 matrix suite")
    sub.add_parser("selfcheck", help="quick internal verification")

    sub.add_parser("formats", parents=[json_p],
                   help="print the format capability matrix")

    p = sub.add_parser("verify", parents=[device_p, json_p],
                       help="integrity check + fault-injection campaign")
    p.add_argument("--faults", type=_positive_int, default=150,
                   help="faults to inject across the BRO formats (default 150)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")

    sub.add_parser("analyze", parents=[matrix_p, json_p],
                   help="matrix statistics")

    sub.add_parser("compress",
                   parents=[matrix_p, conv_parent(default_sym_len=32)],
                   help="BRO compression report")

    p = sub.add_parser("spmv",
                       parents=[matrix_p, device_p, conv_parent(), json_p],
                       help="run one simulated SpMV")
    p.add_argument("--devices", type=_positive_int, default=1, metavar="N",
                   help="shard across N simulated devices (default 1)")
    p.add_argument("--partition", default="greedy-nnz",
                   choices=sorted(PARTITIONERS),
                   help="row partitioner for --devices > 1")
    p.add_argument("--comms", default="auto",
                   choices=["auto", "broadcast", "halo"],
                   help="x-distribution strategy for --devices > 1")
    p.add_argument("--engine", default="auto",
                   choices=["auto", "reference"],
                   help="execution engine (default auto)")
    p.add_argument("--backend", default="thread",
                   choices=["thread", "process"],
                   help="sharded execution backend for --devices > 1 "
                        "(default thread)")
    p.add_argument("--trace", action="store_true",
                   help="print the format's per-block profile (formats with "
                        "a registered tracer; see `repro formats`)")
    p.add_argument("--save", metavar="PATH",
                   help="write the converted, sealed container to a .brx file")

    p = sub.add_parser("scale",
                       parents=[device_p, conv_parent("csr"), json_p],
                       help="strong/weak-scaling sweep across simulated "
                            "devices")
    # The matrix is only meaningful for strong scaling; weak scaling
    # generates its own growing problem, so the positional is optional.
    p.add_argument("matrix", nargs="?", default=None,
                   help="Table 2 name or a .mtx file path (required "
                        "unless --weak)")
    p.add_argument("--scale", type=float, default=0.05,
                   help="generation scale for suite names (default 0.05)")
    p.add_argument("--devices", type=_device_list, default=[1, 2, 4, 8],
                   metavar="LIST",
                   help="comma-separated device counts (default 1,2,4,8)")
    p.add_argument("--partition", default="greedy-nnz",
                   choices=sorted(PARTITIONERS),
                   help="row partitioner (default greedy-nnz)")
    p.add_argument("--comms", default="auto",
                   choices=["auto", "broadcast", "halo"],
                   help="x-distribution strategy (default auto)")
    p.add_argument("--backend", default="thread",
                   choices=["thread", "process"],
                   help="sharded execution backend (default thread)")
    p.add_argument("--weak", action="store_true",
                   help="weak scaling: grow the matrix with the device "
                        "count at fixed work per device (ignores <matrix>)")
    p.add_argument("--rows-per-device", type=_positive_int, default=256,
                   dest="rows_per_device", metavar="N",
                   help="weak-scaling work per device (default 256 rows)")

    p = sub.add_parser("chaos", parents=[device_p, json_p],
                       help="fault-injection campaign against the sharded "
                            "engines (zero-silent-corruption gate)")
    p.add_argument("--campaign", action="store_true",
                   help="accepted for symmetry with `repro verify`; the "
                        "campaign is the only mode")
    p.add_argument("--workers", type=_positive_int, default=4,
                   help="worker processes / shards per trial (default 4)")
    p.add_argument("--formats", default="bro_ell,csr",
                   help="comma-separated storage formats "
                        "(default bro_ell,csr)")
    p.add_argument("--kinds", default=None,
                   help="comma-separated fault kinds (default: kill-worker,"
                        "stall-worker,corrupt-shard-result,stream_bit_flip,"
                        "plan_bit_flip)")
    p.add_argument("--repeats", type=_positive_int, default=1,
                   help="trials per (format, kind) cell (default 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--backend", default="process",
                   choices=["thread", "process"],
                   help="sharded backend under test (default process)")
    p.add_argument("--timeout", type=float, default=1.0, metavar="S",
                   help="per-shard deadline in seconds (default 1.0)")
    p.add_argument("--retries", type=_positive_int, default=3,
                   help="per-shard retry budget (default 3)")
    p.add_argument("--output", metavar="PATH",
                   help="also write the campaign report JSON to PATH")

    p = sub.add_parser("health", parents=[device_p, json_p],
                       help="run a short sharded workload and grade it "
                            "against SLO thresholds")
    p.add_argument("matrix", nargs="?", default="cant",
                   help="Table 2 matrix name (default cant)")
    p.add_argument("--scale", type=float, default=0.05,
                   help="generation scale (default 0.05)")
    p.add_argument("--format", default="csr",
                   help="storage format for the probe (default csr)")
    p.add_argument("--devices", type=_positive_int, default=4,
                   help="shard/worker count (default 4)")
    p.add_argument("--calls", type=_positive_int, default=3,
                   help="sharded SpMV calls to probe with (default 3)")
    p.add_argument("--max-p99-ms", type=float, default=2000.0,
                   help="per-worker p99 latency SLO in ms (default 2000)")
    p.add_argument("--max-heartbeat-age", type=float, default=2.0,
                   metavar="S",
                   help="max worker heartbeat age in seconds (default 2.0)")
    p.add_argument("--max-worker-deaths", type=int, default=0,
                   help="max tolerated worker deaths (default 0)")
    p.add_argument("--max-retries", type=int, default=0,
                   help="max tolerated shard retries (default 0)")
    p.add_argument("--min-bw-util", type=float, default=0.05,
                   help="min achieved-vs-roofline bandwidth fraction "
                        "(default 0.05)")

    sub.add_parser("advise", parents=[matrix_p, device_p],
                   help="rank formats for a matrix")

    p = sub.add_parser("export", parents=[matrix_p],
                       help="write a suite matrix to .mtx")
    p.add_argument("output", help="destination .mtx path")

    p = sub.add_parser("bench", parents=[json_p],
                       help="regenerate one paper experiment")
    p.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    p.add_argument("--scale", type=float, default=None,
                   help="matrix scale (defaults per experiment)")
    p.add_argument("--plot", action="store_true",
                   help="also render an ASCII chart of the experiment")
    p.add_argument("--save", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="write a BENCH_<experiment>.json report "
                        "(optionally to PATH)")
    p.add_argument("--compare", metavar="BASELINE",
                   help="compare against a baseline BENCH json (rerun at its "
                        "recorded scale); exit 1 on regressions")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="relative regression threshold (default 0.05)")
    p.add_argument("--min-speedup", type=float, default=None, metavar="X",
                   help="fail unless every row's 'speedup' column is >= X "
                        "(used by the wallclock perf-smoke gate)")

    p = sub.add_parser(
        "profile", parents=[matrix_p, device_p, conv_parent(), json_p],
        help="trace one full pipeline run and attribute time",
    )
    p.add_argument("--export", default="table",
                   choices=["table", "json", "chrome", "prom"],
                   help="trace export format (default table; --json is "
                        "shorthand for --export json)")
    p.add_argument("--output", metavar="PATH",
                   help="write the export to PATH instead of stdout")
    p.add_argument("--devices", type=int, default=1,
                   help="shard the dispatch across N simulated devices "
                        "(default 1)")
    p.add_argument("--backend", choices=["thread", "process"],
                   default="thread",
                   help="sharded execution backend; 'process' grafts "
                        "worker spans into the trace (default thread)")

    p = sub.add_parser("serve", parents=[device_p],
                       help="run the long-lived SpMV server over a pool "
                            "of warm matrices")
    p.add_argument("--matrix", action="append", default=None, metavar="NAME",
                   help="Table 2 name or .brx path to pool (repeatable; "
                        "default: qcd5_4)")
    p.add_argument("--scale", type=float, default=0.05,
                   help="generation scale for suite names (default 0.05)")
    p.add_argument("--format", default="bro_ell",
                   help="storage format for suite matrices (default bro_ell)")
    p.add_argument("--h", type=int, default=64,
                   help="slice height for suite conversion (default 64; "
                        "calibrated for multi-RHS amortization)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="bind port; 0 picks an ephemeral port (default 0)")
    p.add_argument("--max-queue", type=_positive_int, default=256,
                   dest="max_queue",
                   help="admission bound on in-flight requests (default 256)")
    p.add_argument("--batch-window-ms", type=float, default=2.0,
                   dest="batch_window_ms",
                   help="micro-batch coalescing window in ms (default 2.0)")
    p.add_argument("--max-batch", type=_positive_int, default=16,
                   dest="max_batch",
                   help="max coalesced vectors per kernel call (default 16)")
    p.add_argument("--executor-threads", type=_positive_int, default=4,
                   dest="executor_threads",
                   help="kernel executor thread-pool width (default 4)")

    p = sub.add_parser("serve-bench", parents=[json_p],
                       help="micro-batched serving throughput vs the "
                            "unbatched serial baseline")
    p.add_argument("--matrix", default="qcd5_4",
                   help="Table 2 matrix name (default qcd5_4)")
    p.add_argument("--scale", type=float, default=None,
                   help="matrix scale (default 0.05, or the baseline's "
                        "recorded scale under --compare)")
    p.add_argument("--format", default="bro_ell",
                   help="storage format (default bro_ell)")
    p.add_argument("--device", default="k20", choices=sorted(DEVICES))
    p.add_argument("--requests", type=_positive_int, default=256,
                   help="total requests per phase (default 256)")
    p.add_argument("--concurrency", type=_positive_int, default=16,
                   help="concurrent in-flight requests (default 16)")
    p.add_argument("--max-batch", type=_positive_int, default=16,
                   dest="max_batch",
                   help="micro-batch size bound (default 16 == concurrency "
                        "so every wave flushes on size, not the window)")
    p.add_argument("--window-ms", type=float, default=2.0, dest="window_ms",
                   help="micro-batch window in ms (default 2.0)")
    p.add_argument("--h", type=int, default=64,
                   help="slice height (default 64; calibrated so the "
                        "multi-RHS replay stays cache-resident)")
    p.add_argument("--seed", type=int, default=1234,
                   help="vector/matrix seed (default 1234)")
    p.add_argument("--save", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="write a BENCH_serve.json report (optionally to "
                        "PATH)")
    p.add_argument("--compare", metavar="BASELINE",
                   help="compare against a baseline BENCH_serve.json (rerun "
                        "at its recorded scale); exit 1 on regressions")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="relative regression threshold (default 0.05)")
    p.add_argument("--min-speedup", type=float, default=None, metavar="X",
                   dest="min_speedup",
                   help="fail unless batch_speedup >= X (the acceptance "
                        "gate uses 2.0)")
    return parser


def _cmd_devices() -> int:
    rows = exp.table1_devices()
    print(format_table(rows, ["device", "compute_capability", "cores",
                              "mem_bw_gbps", "dp_gflops", "measured_bw_gbps",
                              "decode_gops"],
                       "Simulated GPUs (paper Table 1 + calibration)"))
    return 0


def _cmd_matrices() -> int:
    rows = [
        {
            "matrix": s.name,
            "set": s.test_set,
            "rows": s.rows,
            "cols": s.cols,
            "nnz": s.nnz,
            "mu": s.mu,
            "sigma": s.sigma,
            "family": s.family,
        }
        for s in TABLE2.values()
    ]
    print(format_table(rows, ["matrix", "set", "rows", "cols", "nnz", "mu",
                              "sigma", "family"],
                       "Table 2 matrix suite (published statistics)"))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    coo = _load_matrix(args.matrix, args.scale)
    stats = analyze(coo, args.matrix)
    if args.json:
        import json

        from .telemetry.benchreport import _json_default

        print(json.dumps({
            "matrix": stats.name,
            "rows": stats.rows,
            "cols": stats.cols,
            "nnz": stats.nnz,
            "mu": stats.mu,
            "sigma": stats.sigma,
            "min_row": stats.min_row,
            "max_row": stats.max_row,
            "mean_delta_bits": stats.mean_delta_bits,
            "mean_col_span": stats.mean_col_span,
        }, indent=2, sort_keys=True, default=_json_default))
        return 0
    print(f"matrix          : {stats.name}")
    print(f"shape           : {stats.rows} x {stats.cols}")
    print(f"non-zeros       : {stats.nnz}")
    print(f"row length      : mean {stats.mu:.2f}, std {stats.sigma:.2f}, "
          f"min {stats.min_row}, max {stats.max_row}")
    print(f"mean delta width: {stats.mean_delta_bits:.2f} bits "
          f"(lower = more BRO-compressible)")
    print(f"mean column span: {stats.mean_col_span:.1f}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    if args.format not in ("bro_ell", "bro_coo", "bro_hyb"):
        raise ReproError(
            f"compress reports BRO index compression; --format must be "
            f"bro_ell, bro_coo or bro_hyb, got {args.format!r}"
        )
    coo = _load_matrix(args.matrix, args.scale)
    mat = convert(coo, args.format, **_conversion_kwargs(args.format, args))
    report = index_compression_report(mat, args.matrix)
    print(f"scheme            : {report.scheme}")
    print(f"original index    : {report.original_index_bytes:,} bytes")
    print(f"compressed index  : {report.compressed_index_bytes:,} bytes")
    print(f"space savings eta : {100 * report.eta:.1f}%")
    print(f"compression kappa : {report.kappa:.2f}x")
    return 0


def _cmd_spmv(args: argparse.Namespace) -> int:
    policy = ExecutionPolicy(
        engine=args.engine,
        devices=args.devices,
        partitioner=args.partition,
        comms=args.comms,
        backend=args.backend,
    )
    sess = Session(device=args.device, policy=policy)
    sess.load(args.matrix, scale=args.scale)
    # A .brx container may already hold a sharded matrix; leave it alone.
    if sess.format_name not in (args.format, "sharded"):
        sess.convert(args.format, **_conversion_kwargs(args.format, args))
    x = np.random.default_rng(0).standard_normal(sess.matrix.shape[1])
    t_exec = time.perf_counter()
    result = sess.run(x)
    execute_ms = 1e3 * (time.perf_counter() - t_exec)
    if not np.allclose(result.y, sess.source.spmv(x), rtol=1e-8):
        raise ReproError("kernel verification failed")  # pragma: no cover
    t = result.timing
    c = result.counters
    comms = getattr(result, "comms", None)
    if args.json:
        import dataclasses
        import json

        from .serve.api import SpMVRequest, SpMVResponse
        from .telemetry.benchreport import _json_default

        meta = {
            "matrix": args.matrix,
            "format": sess.format_name,
            "device": t.device.name,
            "devices": getattr(result, "n_devices", 1),
            "time_us": t.time * 1e6,
            "occupancy": t.occupancy,
            "bound": t.bound,
            "gflops": t.gflops,
            "achieved_bw_gbps": t.achieved_bw_gbps,
            "bandwidth_utilization": t.bandwidth_utilization,
            "counters": dataclasses.asdict(c),
            "comms": comms.to_dict() if comms is not None else None,
        }
        # The CLI emits the same typed envelope the serving layer speaks
        # (repro.serve.api.SpMVResponse), with the simulation payload
        # under "meta" and the product vector elided.
        request = SpMVRequest(
            request_id="cli", matrix=args.matrix, x=x, tenant="cli"
        )
        response = SpMVResponse.success(
            request, result.y, format=sess.format_name,
            execute_ms=execute_ms, meta=meta,
        )
        print(json.dumps(response.to_wire(include_y=False), indent=2,
                         sort_keys=True, default=_json_default))
        return 0
    print(f"format     : {sess.format_name}   device: {t.device.name}")
    print(f"verified   : kernel output matches reference")
    if comms is not None:
        print(f"devices    : {result.n_devices} "
              f"(partition {result.partitioner}, comms {comms.strategy})")
        print(f"interlink  : {c.interconnect_bytes:,} bytes, "
              f"{comms.messages} messages, "
              f"t_comm {t.t_comm * 1e6:.2f} us")
    print(f"DRAM bytes : index {c.index_bytes:,} | values {c.value_bytes:,} "
          f"| x {c.x_bytes:,} | y {c.y_bytes:,} | aux {c.aux_bytes:,}")
    print(f"time       : {t.time * 1e6:.2f} us "
          f"(mem {t.t_mem * 1e6:.2f}, flop {t.t_flop * 1e6:.2f}, "
          f"decode {t.t_decode * 1e6:.2f}, launch {t.t_launch * 1e6:.2f})")
    print(f"occupancy  : {t.occupancy:.2f}   bound: {t.bound}")
    print(f"throughput : {t.gflops:.2f} GFlop/s   "
          f"{t.achieved_bw_gbps:.1f} GB/s "
          f"({100 * t.bandwidth_utilization:.0f}% of pin bandwidth)")
    if getattr(args, "trace", False):
        tracer = _registry.tracer_for(sess.format_name)
        if tracer is None:
            traced = [n for n in _registry.available_formats()
                      if _registry.tracer_for(n) is not None]
            raise ReproError(
                f"--trace is not available for format {sess.format_name!r}; "
                f"formats with a block tracer: {', '.join(traced)}"
            )
        print(f"\n{tracer.title}:")
        print(tracer.header())
        for tr in tracer.rows(sess.matrix, t.device):
            print(tr.row())
    if getattr(args, "save", None):
        sess.seal().save(args.save)
        print(f"\nwrote sealed {sess.format_name} container to {args.save}")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from .exec.scaling import strong_scaling, weak_scaling

    if args.weak:
        rows = weak_scaling(
            args.format,
            args.device,
            args.devices,
            rows_per_device=args.rows_per_device,
            partitioner=args.partition,
            comms=args.comms,
            backend=args.backend,
        )
        mode = "Weak"
        ratio_col = None
    else:
        if args.matrix is None:
            print("error: a matrix name is required for strong scaling "
                  "(pass one, or use --weak)", file=sys.stderr)
            return 2
        coo = _load_matrix(args.matrix, args.scale)
        mat = convert(coo, args.format,
                      **_conversion_kwargs(args.format, args))
        rows = strong_scaling(
            mat,
            args.device,
            args.devices,
            partitioner=args.partition,
            comms=args.comms,
            backend=args.backend,
        )
        mode = "Strong"
        ratio_col = "speedup"
    if args.json:
        import json

        print(json.dumps({
            "matrix": None if args.weak else args.matrix,
            "mode": mode.lower(),
            "scale": args.scale,
            "format": args.format,
            "device": args.device,
            "partition": args.partition,
            "backend": args.backend,
            "rows": rows,
        }, indent=2, sort_keys=True))
        return 0
    printable = []
    for r in rows:
        row = {
            "devices": r["devices"],
            "comms": r["comms"] or "-",
            "t_total_us": 1e6 * r["t_total"],
            "t_kernel_us": 1e6 * r["t_kernel"],
            "t_comm_us": 1e6 * r["t_comm"],
            "gflops": r["gflops"],
            "link_bytes": r["interconnect_bytes"],
            "efficiency": r["efficiency"],
            "bound": r["bound"],
        }
        if ratio_col:
            row["speedup"] = r["speedup"]
        if args.weak:
            row["rows"] = r["rows"]
        printable.append(row)
    columns = ["devices"] + (["rows"] if args.weak else []) + [
        "comms", "t_total_us", "t_kernel_us", "t_comm_us", "gflops",
        "link_bytes",
    ] + (["speedup"] if ratio_col else []) + ["efficiency", "bound"]
    subject = args.format if args.weak else f"{args.matrix} as {args.format}"
    print(format_table(
        printable,
        columns,
        f"{mode} scaling: {subject} on {DEVICES[args.device].name} "
        f"({args.partition}, {args.backend} backend)",
    ))
    return 0


def _print_campaign(report, title: str) -> None:
    """The table, totals, skipped pairs and violations of a fault campaign."""
    from .integrity.campaign import OUTCOMES

    print(format_table(
        report.rows(), ["format", "fault", "injected", *OUTCOMES], title))
    print(f"\ncampaign: {report.injected} faults injected, "
          f"{report.recovered} recovered bit-identically, "
          f"{report.unaffected} unaffected, {report.detected} raised "
          f"typed errors, {report.silent} SILENT, "
          f"{report.untyped} untyped")
    if report.skipped:
        print("skipped (fault does not apply): " + ", ".join(
            f"{fmt} x {kind}" for fmt, kind in report.skipped))
    violations = [t for t in report.trials if t.outcome in ("silent", "untyped")]
    for t in violations[:10]:
        print(f"{t.outcome.upper()} {t.format_name}/{t.kind}: {t.target} "
              f"({t.detail})")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .exec.chaos import DEFAULT_CAMPAIGN_KINDS, run_chaos_campaign

    formats = tuple(f for f in args.formats.split(",") if f)
    kinds = (
        tuple(k for k in args.kinds.split(",") if k)
        if args.kinds else DEFAULT_CAMPAIGN_KINDS
    )
    report = run_chaos_campaign(
        formats=formats,
        kinds=kinds,
        workers=args.workers,
        repeats=args.repeats,
        seed=args.seed,
        device=args.device,
        backend=args.backend,
        shard_timeout_s=args.timeout,
        max_retries=args.retries,
    )
    doc = report.to_dict()
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        import json

        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_campaign(
            report, f"Chaos campaign: {args.backend} backend, "
            f"{args.workers} workers, seed {args.seed}")
        if args.output:
            print(f"wrote campaign report to {args.output}")
    if not report.clean:
        if not args.json:
            print("chaos campaign FAILED: silent corruption or untyped "
                  "errors detected")
        return 1
    if not args.json:
        print("chaos campaign passed: zero silent corruption")
    return 0


def _cmd_formats(args: argparse.Namespace) -> int:
    rows = _registry.capability_matrix()
    if args.json:
        import json

        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    printable = []
    for row in rows:
        out = dict(row)
        out["default_kwargs"] = ",".join(
            f"{k}={v}" for k, v in sorted(row["default_kwargs"].items())
        ) or "-"
        for key in ("kernel", "planner", "tracer", "tuner", "validator",
                    "integrity", "serializer"):
            out[key] = "yes" if row[key] else "-"
        out["codec"] = row["codec"] or "-"
        printable.append(out)
    from .kernels.backends import numba_version, resolve_backend, scipy_refusal

    jit_note = {
        "jit": f"host executor: jit (Numba {numba_version()})",
        "scipy": "host executor: scipy (SciPy's CSR row loops; no Numba)",
        "numpy": "host executor: numpy (no Numba; SciPy's loops refused: "
                 f"{scipy_refusal()})",
    }[resolve_backend("auto")]
    print(format_table(
        printable,
        ["format", "container", "kernel", "planner", "tracer", "tuner",
         "validator", "integrity", "serializer", "codec",
         "default_kwargs"],
        "Format capability matrix (from repro.registry)",
    ))
    print(jit_note)
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    coo = _load_matrix(args.matrix, args.scale)
    ranking = rank_formats(coo, args.device)
    print(f"Format ranking for {args.matrix} on {DEVICES[args.device].name} "
          f"(model-predicted):")
    for i, rec in enumerate(ranking, 1):
        print(f"{i:2d}. {rec.describe()}")
    return 0


def _cmd_selfcheck() -> int:
    """A fast end-to-end verification a user can run after installing."""
    from .bench.experiments import fig3_break_even, fig3_savings_sweep
    from .matrices.generators import banded_random

    checks = 0
    coo = banded_random(2048, 12.0, 3.0, bandwidth=120, seed=42)
    x = np.random.default_rng(42).standard_normal(coo.shape[1])
    reference = coo.spmv(x)
    for fmt in _registry.kernel_formats():
        mat = convert(coo, fmt, **_suite_kwargs(fmt, h=128))
        if not np.allclose(mat.to_dense(), coo.to_dense()):
            print(f"FAIL: {fmt} round trip")
            return 1
        res = run_spmv(mat, x, "k20")
        if not np.allclose(res.y, reference, rtol=1e-8):
            print(f"FAIL: {fmt} kernel output")
            return 1
        checks += 2
        print(f"ok  {fmt}: lossless round trip + kernel verified")

    rows = fig3_savings_sweep(m=4096, k=32, bit_widths=(32, 16, 8, 1))
    measured = fig3_break_even(rows)
    for dev, paper in (("c2070", 17.0), ("gtx680", 9.0), ("k20", 23.0)):
        if abs(measured[dev] - paper) > 4.0:
            print(f"FAIL: {dev} break-even {measured[dev]:.1f}% vs {paper}%")
            return 1
        checks += 1
        print(f"ok  {dev}: break-even {measured[dev]:.1f}% (paper {paper}%)")
    print(f"\nselfcheck passed ({checks} checks)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Integrity self-check + seeded fault-injection campaign."""
    import tempfile
    from pathlib import Path

    from .integrity import (
        ARCHIVE_FAULT_KINDS,
        corrupt_archive,
        run_campaign,
        seal,
        validate_structure,
    )
    from .matrices.cache import load_matrix, save_matrix
    from .matrices.generators import banded_random

    json_mode = getattr(args, "json", False)
    emit = (lambda *a, **k: None) if json_mode else print
    failures = 0
    format_rows = []

    # 1. Verified round trip of every format that has a kernel: seal the
    #    container, dispatch under full verification, compare to reference.
    coo = banded_random(512, 10.0, 3.0, bandwidth=96, seed=args.seed)
    x = np.random.default_rng(args.seed).standard_normal(coo.shape[1])
    reference = coo.spmv(x)
    for fmt in _registry.kernel_formats():
        mat = seal(convert(coo, fmt, **_suite_kwargs(fmt, h=64)))
        try:
            validate_structure(mat, deep=True)
            res = run_spmv(
                mat, x, args.device, policy=ExecutionPolicy(verify="full")
            )
        except ReproError as exc:
            emit(f"FAIL {fmt}: verified dispatch raised {exc}")
            format_rows.append({"format": fmt, "ok": False, "error": str(exc)})
            failures += 1
            continue
        if not np.allclose(res.y, reference, rtol=1e-8):
            emit(f"FAIL {fmt}: verified kernel output mismatch")
            format_rows.append(
                {"format": fmt, "ok": False, "error": "output mismatch"}
            )
            failures += 1
            continue
        emit(f"ok  {fmt}: structure + checksums + verified kernel output")
        format_rows.append({"format": fmt, "ok": True, "error": None})

    # 2. The fault-injection campaign over the BRO formats.
    report = run_campaign(
        n_faults=args.faults, seed=args.seed, device=args.device
    )
    if not json_mode:
        print()
        _print_campaign(report, f"Fault-injection campaign "
                                f"({report.injected} faults, seed {args.seed})")
    failures += report.silent + report.untyped

    # 3. On-disk archive corruption: every corrupted cache file must be
    #    rejected by load_matrix with a typed error, never half-loaded.
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        archive_ok = 0
        archive_total = 0
        small = banded_random(64, 6.0, 2.0, bandwidth=20, seed=args.seed)
        for kind in ARCHIVE_FAULT_KINDS:
            for trial in range(4):
                path = Path(tmp) / f"{kind}_{trial}.npz"
                save_matrix(small, path)
                corrupt_archive(path, rng, kind=kind)
                archive_total += 1
                try:
                    loaded = load_matrix(path)
                except ReproError:
                    archive_ok += 1
                    continue
                # A flip can land in zip padding and leave the payload
                # intact; loading the exact original matrix is not silent
                # corruption.
                if (loaded.shape == small.shape
                        and np.array_equal(loaded.to_dense(), small.to_dense())):
                    archive_ok += 1
                else:
                    emit(f"FAIL cache: {kind} trial {trial} loaded corrupt data")
                    failures += 1
        emit(f"ok  cache archives: {archive_ok}/{archive_total} corruptions "
             "detected or harmless")

    if json_mode:
        import json

        print(json.dumps({
            "formats": format_rows,
            "campaign": report.to_dict(),
            "archive": {"ok": archive_ok, "total": archive_total},
            "failures": failures,
            "passed": failures == 0,
        }, indent=2, sort_keys=True))

    if failures:
        emit(f"\nverify FAILED ({failures} problem(s))")
        return 1
    emit("\nverify passed: zero silent corruption")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .matrices.io import write_matrix_market

    coo = _load_matrix(args.matrix, args.scale)
    write_matrix_market(coo, args.output)
    print(f"wrote {coo.shape[0]}x{coo.shape[1]} matrix "
          f"({coo.nnz} non-zeros) to {args.output}")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from .telemetry.health import HealthThresholds, run_health_check

    thresholds = HealthThresholds(
        max_p99_ms=args.max_p99_ms,
        max_heartbeat_age_s=args.max_heartbeat_age,
        max_worker_deaths=args.max_worker_deaths,
        max_retries=args.max_retries,
        min_bw_utilization=args.min_bw_util,
    )
    report = run_health_check(
        matrix=args.matrix,
        scale=args.scale,
        format_name=args.format,
        device=args.device,
        devices=args.devices,
        calls=args.calls,
        thresholds=thresholds,
    )
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        rows = [
            {
                "check": r["check"],
                "worker": r.get("worker", "-"),
                "value": r["value"],
                "threshold": "-" if r["threshold"] is None else r["threshold"],
                "status": "ok" if r["ok"] else "BREACH",
            }
            for r in report.rows
        ]
        print(format_table(
            rows, ["check", "worker", "value", "threshold", "status"],
            f"Health probe: {report.matrix} x{report.calls} on "
            f"{report.devices} workers ({report.device})",
        ))
        verdict = "healthy" if report.healthy else "UNHEALTHY"
        print(f"\n{verdict}: "
              f"{sum(r['ok'] for r in report.rows)}/{len(report.rows)} "
              f"checks ok")
    return 0 if report.healthy else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .telemetry import benchreport as br

    fn, columns = _EXPERIMENTS[args.experiment]

    baseline = None
    scale = args.scale
    if args.compare:
        baseline = br.load_report(args.compare)
        if scale is None:
            # Rerun at the baseline's recorded scale so the simulated rows
            # are directly comparable.
            scale = baseline.get("scale")

    rows = fn() if scale is None else fn(scale=scale)
    if args.json:
        import json

        from .telemetry.benchreport import _json_default

        print(json.dumps({
            "experiment": args.experiment,
            "scale": scale,
            "rows": rows,
        }, indent=2, sort_keys=True, default=_json_default))
    else:
        print(format_table(rows, columns, f"Experiment {args.experiment}"))
        if args.plot:
            print()
            print(_render_plot(args.experiment, rows, columns))

    report = br.make_report(args.experiment, rows, scale=scale)
    if args.save is not None:
        path = args.save or br.default_report_path(args.experiment)
        br.write_report(report, path)
        print(f"\nwrote benchmark report to {path}")

    if baseline is not None:
        comp = br.compare_reports(baseline, report, threshold=args.threshold)
        print(f"\ncomparison vs {args.compare}: {comp.summary()}")
        if comp.deltas:
            print(format_table(
                [d.row() for d in comp.deltas],
                ["row", "metric", "baseline", "current", "delta_pct",
                 "status"],
                "Metrics beyond threshold",
            ))
        for key in comp.missing_rows:
            print(f"MISSING baseline row: {key}")
        if not comp.clean:
            print("bench comparison FAILED")
            return 1
        print("bench comparison passed: zero regressions")

    if args.min_speedup is not None:
        gated = [r for r in rows if "speedup" in r]
        slow = [r for r in gated if r["speedup"] < args.min_speedup]
        if not gated:
            print(f"\nmin-speedup gate FAILED: no rows carry a 'speedup' column")
            return 1
        if slow:
            print(f"\nmin-speedup gate FAILED ({args.min_speedup:.1f}x):")
            for r in slow:
                keys = [str(v) for v in r.values() if isinstance(v, str)]
                print(f"  {' '.join(keys)}: {r['speedup']:.2f}x")
            return 1
        worst = min(r["speedup"] for r in gated)
        print(f"\nmin-speedup gate passed: worst row {worst:.2f}x "
              f">= {args.min_speedup:.1f}x")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import MatrixPool, ServerConfig, serve

    names = args.matrix or ["qcd5_4"]
    pool = MatrixPool(device=args.device)
    for name in names:
        if name.endswith(".brx"):
            entry = pool.load(os.path.splitext(os.path.basename(name))[0],
                              name)
        else:
            entry = pool.load_suite(name, scale=args.scale,
                                    format=args.format, h=args.h)
        print(f"pooled {entry.name}: {entry.matrix.format_name} "
              f"{entry.matrix.shape[0]}x{entry.matrix.shape[1]} "
              f"nnz={entry.matrix.nnz}")
    warmed = pool.warm()
    print(f"warmed {warmed} plan(s) on {args.device}")
    serve(pool, ServerConfig(
        host=args.host,
        port=args.port,
        device=args.device,
        max_queue=args.max_queue,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        executor_threads=args.executor_threads,
    ))
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .serve import serve_bench
    from .telemetry import benchreport as br

    baseline = None
    scale = args.scale
    if args.compare:
        baseline = br.load_report(args.compare)
        if scale is None:
            scale = baseline.get("scale")
    if scale is None:
        scale = 0.05

    result = serve_bench(
        matrix=args.matrix,
        scale=scale,
        format=args.format,
        device=args.device,
        requests=args.requests,
        concurrency=args.concurrency,
        batch_window_ms=args.window_ms,
        max_batch=args.max_batch,
        h=args.h,
        seed=args.seed,
    )
    report = result["report"]
    summary = result["summary"]

    if args.json:
        import json

        from .telemetry.benchreport import _json_default

        print(json.dumps(report, indent=2, sort_keys=True,
                         default=_json_default))
    else:
        print(format_table(
            report["rows"],
            ["matrix", "format", "device", "concurrency", "requests",
             "max_batch", "batch_speedup", "serial_rps", "batched_rps",
             "mean_occupancy", "p50_ms", "p99_ms", "corrupted"],
            "serve-bench: micro-batched vs serial SpMV serving",
        ))
        print(f"\nbatch speedup   : {summary['batch_speedup']:.2f}x "
              f"(batched {summary['batched_rps']:.0f} rps vs serial "
              f"{summary['serial_rps']:.0f} rps)")
        print(f"mean occupancy  : {summary['mean_occupancy']:.2f} "
              f"vectors/kernel call")
        print(f"latency         : p50 {summary['p50_ms']:.2f} ms   "
              f"p99 {summary['p99_ms']:.2f} ms")
        print(f"bit-identity    : {args.requests - summary['corrupted']}"
              f"/{args.requests} responses identical to direct run_spmv")

    if args.save is not None:
        path = args.save or br.default_report_path("serve")
        br.write_report(report, path)
        print(f"\nwrote benchmark report to {path}")

    if baseline is not None:
        comp = br.compare_reports(baseline, report, threshold=args.threshold)
        print(f"\ncomparison vs {args.compare}: {comp.summary()}")
        if comp.deltas:
            print(format_table(
                [d.row() for d in comp.deltas],
                ["row", "metric", "baseline", "current", "delta_pct",
                 "status"],
                "Metrics beyond threshold",
            ))
        for key in comp.missing_rows:
            print(f"MISSING baseline row: {key}")
        if not comp.clean:
            print("serve-bench comparison FAILED")
            return 1
        print("serve-bench comparison passed: zero regressions")

    if args.min_speedup is not None:
        speedup = summary["batch_speedup"]
        if speedup < args.min_speedup:
            print(f"\nmin-speedup gate FAILED: batch_speedup "
                  f"{speedup:.2f}x < {args.min_speedup:.1f}x")
            return 1
        print(f"\nmin-speedup gate passed: {speedup:.2f}x "
              f">= {args.min_speedup:.1f}x")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .telemetry import exporters
    from .telemetry.profiler import profile_matrix

    rep = profile_matrix(
        args.matrix,
        storage=args.format,
        device=args.device,
        scale=args.scale,
        h=args.h,
        devices=args.devices,
        backend=args.backend,
    )

    export = "json" if args.json and args.export == "table" else args.export
    if export != "table":
        if export == "json":
            text = exporters.to_jsonl(rep.tracer)
        elif export == "chrome":
            text = exporters.to_chrome_trace(rep.tracer, indent=2)
        else:  # prom
            text = exporters.prometheus_text(rep.snapshot)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
            print(f"wrote {export} export to {args.output}")
        else:
            print(text, end="" if text.endswith("\n") else "\n")
        return 0

    t = rep.result.timing
    print(f"profile    : {rep.matrix} as {rep.storage} on {rep.device_name}")
    print(f"verified   : checksum-verified dispatch "
          f"(fault_detected={rep.result.fault_detected})")
    print(f"time       : {t.time * 1e6:.2f} us   bound: {t.bound}   "
          f"occupancy: {t.occupancy:.2f}")
    print(f"throughput : {t.gflops:.2f} GFlop/s   "
          f"{100 * t.bandwidth_utilization:.0f}% of pin bandwidth")

    print("\npipeline spans:")
    print(f"{'span':<44s} {'category':<10s} {'dur us':>10s}")
    for row in rep.span_rows():
        print(f"{row['span']:<44s} {row['category']:<10s} "
              f"{row['dur_us']:>10.1f}")

    print("\nroofline attribution:")
    print(f"{'component':<10s} {'us':>10s} {'exposed us':>11s} {'share':>7s}")
    for row in rep.attribution():
        print(f"{row['component']:<10s} {row['us']:>10.2f} "
              f"{row['exposed_us']:>11.2f} {row['share_pct']:>6.1f}%")

    block = rep.block_profile()
    if block is not None:
        header, rows = block
        print("\nper-block profile:")
        print(header)
        for line in rows:
            print(line)
    return 0


def _render_plot(experiment: str, rows, columns) -> str:
    from .bench.plots import bar_chart, line_chart

    if experiment == "fig3":
        series = {}
        for r in rows:
            series.setdefault(r["device"], []).append(
                (r["eta_pct"], r["gflops"])
            )
        for pts in series.values():
            pts.sort()
        return line_chart(series, "BRO-ELL GFlop/s vs space savings (%)")
    # Bar chart of the last numeric column, labelled by matrix/device.
    value_col = columns[-1]
    label_col = "matrix" if "matrix" in columns else columns[0]
    labels = [f"{r[label_col]}" + (f"/{r['device']}" if "device" in r else "")
              for r in rows]
    values = [max(0.0, float(r[value_col])) for r in rows]
    return bar_chart(labels, values, f"{experiment}: {value_col}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "devices":
            return _cmd_devices()
        if args.command == "matrices":
            return _cmd_matrices()
        if args.command == "formats":
            return _cmd_formats(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "compress":
            return _cmd_compress(args)
        if args.command == "spmv":
            return _cmd_spmv(args)
        if args.command == "scale":
            return _cmd_scale(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "advise":
            return _cmd_advise(args)
        if args.command == "selfcheck":
            return _cmd_selfcheck()
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "serve-bench":
            return _cmd_serve_bench(args)
        if args.command == "health":
            return _cmd_health(args)
        if args.command == "profile":
            return _cmd_profile(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
