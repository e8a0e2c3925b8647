"""Workload ``shard-spmm``: verified sharded SpMM blocks in process.

Why: worker IPC and integrity checks dominate. Under a sharded policy
``run_spmm`` makes one sharded call per column, so a block of eight
columns on two devices is sixteen shard round trips, each one a kernel
call of a single vector inside a worker process. This is the kernel
layer used as SpMV inside workers, where ``serve-ndjson`` reaches it as
coalesced SpMM through the batcher. Wire and solver are bypassed.

``cop20k_A`` (Test Set 2) at scale 0.05 is encoded as BRO-HYB, sealed,
saved and opened by a ``Session`` whose policy runs two devices on the
process backend with checksum verification and a CSR fallback. One
caller sends seeded ``(n, 8)`` blocks to ``Session.run``.

* Phase A, closed loop: blocks back to back.
* Phase B, open loop: blocks due at a fixed rate of about a third of the
  phase-A capacity, each timed from when it was due.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from repro import Session
from repro.exec.engine import sharded_view
from repro.exec.workers import shutdown_matrix_pools
from repro.formats.conversion import convert
from repro.matrices.suite import generate

import harness
import inputs
import layers

NAME, SCALE, FORMAT = "cop20k_A", 0.05, "bro_hyb"
BLOCKS = 4
SETUPS = 3
WARMUP_BLOCKS = 4
CLOSED_SHARE = 0.75
#: Phase-B offered load, blocks/s: about a third of phase A's capacity
#: on a 2-CPU Xeon host, low enough that host noise does not tip the
#: queue into overload.
OPEN_RATE = 7.0


def _setup(watch: harness.Stopwatch, path: str, X0: np.ndarray):
    """Inputs to a warm worker pool: returns the session."""
    with watch.time("matrices.generate"):
        coo = generate(NAME, scale=SCALE)
    session = Session("k20").use(coo)
    with watch.time("core.encode"):
        session.convert(FORMAT, h=inputs.H)
    with watch.time("integrity.seal"):
        session.seal()
    with watch.time("serialize.save"):
        session.save(path)
    policy = layers.shard_policy(convert(coo, "csr"))
    with watch.time("serialize.load"):
        session = Session.open(path, "k20", policy=policy)
    with watch.time("exec.partition"):
        sharded_view(session.matrix, policy.devices, policy.partitioner)
    with watch.time("exec.first_call"):
        session.run(X0)
    return session


def run(ctx) -> None:
    # Workers fork from this process and inherit its CPU set: coordinator
    # and workers time-share the program CPU, which repeats far better
    # than letting three processes and their queue threads migrate.
    harness.pin(ctx.program_cpus)
    watch = harness.Stopwatch()
    rng = np.random.default_rng(ctx.seed)
    path = os.path.join(ctx.work, f"{NAME}.brx")
    n = generate(NAME, scale=SCALE).shape[1]
    blocks = [rng.standard_normal((n, layers.BLOCK_K)) for _ in range(BLOCKS)]
    session = None
    for _ in range(SETUPS):
        if session is not None:
            shutdown_matrix_pools(session.matrix)
        t0 = time.perf_counter()
        session = _setup(watch, path, blocks[0])
        watch.times.setdefault("setup", []).append(time.perf_counter() - t0)
    matrix = session.matrix

    # -- references, outside set-up -----------------------------------------
    refs = [inputs.reference_block(matrix, X).view(np.uint64) for X in blocks]
    outcome = harness.Outcome()
    spans = harness.Spans()
    shard_ms: List[np.ndarray] = []
    cache = [0.0, 0.0]  # workers' plan-cache hits, lookups (traced blocks)
    op_id = [0]

    def block(traced: bool):
        k = op_id[0] % BLOCKS
        op_id[0] += 1
        t0 = time.perf_counter_ns()
        try:
            if traced:
                Y, ms, (hits, lookups) = layers.sharded_op(
                    matrix, blocks[k], session.policy, spans, op_id[0])
                shard_ms.append(ms)
                cache[0] += hits
                cache[1] += lookups
                fallback = False
            else:
                result = session.run(blocks[k])
                Y, fallback = result.y, result.fallback_used
        except Exception as exc:  # noqa: BLE001 - counted, never dropped
            outcome.note("error", f"{type(exc).__name__}: {exc}")
            return t0, time.perf_counter_ns(), None
        t1 = time.perf_counter_ns()
        if fallback:
            outcome.note("error", "served by the CSR fallback")
            return t0, t1, None
        if not np.array_equal(np.ascontiguousarray(Y).view(np.uint64), refs[k]):
            outcome.note("mismatch", f"block {k}")
            return t0, t1, None
        outcome.note("ok")
        return t0, t1, k

    harness.reset_peak_rss(os.getpid())
    for _ in range(WARMUP_BLOCKS):
        block(False)

    steal = harness.StealMeter()
    start, closed, ends = harness.closed_loop(
        block, ctx.seconds * CLOSED_SHARE, ctx.trace)
    open_ms, late_ms = harness.open_loop(
        block, ctx.seconds * (1 - CLOSED_SHARE), OPEN_RATE)

    latency = [ms for ms, _, _ in closed]
    closed_rate = harness.window_rate(start, ends)
    report: Dict[str, object] = {
        "open_p50_ms": harness.pct(open_ms, 50),
        "ops_per_s": closed_rate,
        "p50_ms": harness.pct(latency, 50),
        "samples": {"closed": len(latency), "open": len(open_ms)},
        "cpu_steal_share": steal.share(),
        "p90_supported": harness.supported(latency, 90),
        "p99_ms": (harness.pct(latency, 99)
                   if harness.supported(latency, 99) else None),
        "open_rate_per_s": OPEN_RATE,
        "open_start_late_p50_ms": harness.pct(late_ms, 50),
        "open_start_late_max_ms": max(late_ms),
        "matrix": {"name": NAME, "scale": SCALE, "format": FORMAT,
                   "shape": list(matrix.shape), "nnz": int(matrix.nnz)},
        "setup_steps_s": {k: harness.median(v) for k, v in watch.times.items()},
    }
    if not ctx.trace:
        ctx.finish(outcome, {
            "setup_s": watch.median("setup"),
            "peak_rss_mb": harness.peak_rss_mb(os.getpid()),
            "p90_ms": harness.pct(latency, 90),
        }, report)
        return

    # -- traced run ---------------------------------------------------------
    traced_ms = [ms for ms, t, _ in closed if t]
    untraced_ms = [ms for ms, t, _ in closed if not t]
    costs = layers.exec_costs(spans, shard_ms)
    measured = dict(costs["metrics"])
    measured.update(layers.path_metrics(costs["shares"], costs["latency_ms"]))
    measured.update({
        "exec.single_device_ms": layers.single_device_ms(matrix, blocks[0]),
        "kernels.vectors_per_call": 1.0,
        "kernels.plan_cache_hit_ratio": (cache[0] / cache[1] if cache[1]
                                         else 1.0),
        "serve.rejected": 0.0,
        "closed_loop.ops_per_s": closed_rate,
        "closed_loop.p50_ms": harness.pct(latency, 50),
        "open_loop.p50_ms": harness.pct(open_ms, 50),
        "trace.overhead_pct": 100.0 * (harness.median(traced_ms)
                                       / harness.median(untraced_ms) - 1.0),
    })
    shutdown_matrix_pools(matrix)
    unit = layers.unit_cost_metrics([NAME], [matrix], [1.0],
                                    [blocks[0][:, 0]], rng)
    metrics = layers.workload_layers(ctx, unit, [matrix], [1.0], watch, {},
                                     measured, rng)
    spans.dump(ctx.spans_path())
    ctx.finish(outcome, metrics, report)
