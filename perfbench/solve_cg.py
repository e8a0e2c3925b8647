"""Workload ``solve-cg``: conjugate-gradient solves in process.

Why: single-vector plan replay and the solver's own vector operations
dominate, and set-up covers the paper's whole offline pipeline
(generate, BAR reordering, BRO-ELL encoding, seal, save, load, plan).
Wire, micro-batching, sharding and integrity checks are bypassed.

The system is built from ``qcd5_4`` (Test Set 1) at scale 0.2: made
symmetric and strictly diagonally dominant, hence SPD, reordered with
BAR applied to rows and columns alike so it stays SPD, and encoded as
BRO-ELL. Its working set (about 4.7 MiB) exceeds a 4 MiB L2. A
``Session`` opens the sealed ``.brx`` file and one caller runs
``conjugate_gradient`` through ``SimulatedOperator`` with verification
off, at a fixed tolerance, over a seeded set of right-hand sides.

* Phase A, closed loop: solves back to back.
* Phase B, open loop: solves due at a fixed rate of about a third of the
  phase-A capacity, each timed from when it was due.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np

from repro import ExecutionPolicy, Session, SimulatedOperator
from repro import bar_permutation, conjugate_gradient
from repro.kernels.plancache import PlanCache
from repro.matrices.suite import generate

import harness
import inputs
import layers

NAME, SCALE, FORMAT = "qcd5_4", 0.2, "bro_ell"
#: Diagonal over the largest off-diagonal row sum: bounds the condition
#: number by 3, so a solve is eight SpMVs and a run holds over a hundred.
DOMINANCE = 2.0
RIGHT_HAND_SIDES = 3
SETUPS = 3
WARMUP_SOLVES = 2
CLOSED_SHARE = 0.75
#: Phase-B offered load, solves/s: about a third of phase A's capacity
#: on a 2-CPU Xeon host, low enough that host noise does not tip the
#: queue into overload.
OPEN_RATE = 4.0
#: A solve's true residual may exceed the tolerance CG tested against
#: its recurrence residual by this factor before it counts as failed.
RESIDUAL_SLACK = 10.0


def _setup(watch: harness.Stopwatch, path: str):
    """Inputs to a ready operator: returns (session, operator).

    Each set-up gets its own plan cache: the process-wide one would
    serve later set-ups the plan built for an identical earlier matrix.
    """
    policy = ExecutionPolicy(verify=False, plan_cache=PlanCache())
    with watch.time("matrices.generate"):
        spd = inputs.spd_from(generate(NAME, scale=SCALE), DOMINANCE)
    with watch.time("reorder.bar"):
        system = inputs.permute_symmetric(spd, bar_permutation(spd, h=inputs.H))
    session = Session("k20", policy=policy).use(system)
    with watch.time("core.encode"):
        session.convert(FORMAT, h=inputs.H)
    with watch.time("integrity.seal"):
        session.seal()
    with watch.time("serialize.save"):
        session.save(path)
    with watch.time("serialize.load"):
        session = Session.open(path, "k20", policy=policy)
    with watch.time("kernels.plan"):
        session.prepare()
    operator = SimulatedOperator(session.matrix, "k20", policy=policy)
    operator(np.zeros(system.shape[1]))  # first call
    return session, operator, policy.plan_cache


def run(ctx) -> None:
    harness.pin(ctx.program_cpus)
    watch = harness.Stopwatch()
    rng = np.random.default_rng(ctx.seed)
    path = os.path.join(ctx.work, f"{NAME}-spd.brx")
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        session, operator, plan_cache = _setup(watch, path)
        watch.times.setdefault("setup", []).append(time.perf_counter() - t0)
    matrix = session.matrix
    n = matrix.shape[0]

    # -- references, outside set-up: the reference engine's solves -------
    rhs = inputs.vectors(rng, n, RIGHT_HAND_SIDES)
    reference = SimulatedOperator(matrix, "k20", policy=inputs.REFERENCE)
    x_ref = [conjugate_gradient(reference, b, tol=layers.CG_TOL,
                                max_iter=layers.CG_MAX_ITER).x.view(np.uint64)
             for b in rhs]
    csr = inputs.scipy_csr(matrix)
    check = csr if csr is not None else matrix.to_coo()
    outcome = harness.Outcome()

    def verify(k: int, result) -> bool:
        if not result.converged:
            outcome.note("not_converged", f"rhs {k}: {result.residual:.3g}")
            return False
        residual = (np.linalg.norm(rhs[k] - check @ result.x)
                    / np.linalg.norm(rhs[k]))
        if residual > RESIDUAL_SLACK * layers.CG_TOL:
            outcome.note("not_converged", f"rhs {k}: true residual {residual:.3g}")
            return False
        if not np.array_equal(result.x.view(np.uint64), x_ref[k]):
            outcome.note("mismatch", f"rhs {k}")
            return False
        outcome.note("ok")
        return True

    spans = harness.Spans()
    op_id = [0]
    harness.reset_peak_rss(os.getpid())

    def solve(traced: bool):
        k = op_id[0] % RIGHT_HAND_SIDES
        op_id[0] += 1
        t0 = time.perf_counter_ns()
        if traced:
            result = layers.traced_solve(operator, rhs[k], spans, op_id[0])
        else:
            result = conjugate_gradient(operator, rhs[k], tol=layers.CG_TOL,
                                        max_iter=layers.CG_MAX_ITER)
        t1 = time.perf_counter_ns()
        # Keep the iteration count, not the result: holding every x
        # would grow the resident set with the number of solves.
        return t0, t1, result.iterations if verify(k, result) else None

    for _ in range(WARMUP_SOLVES):
        solve(False)
    cache0 = plan_cache.stats()

    steal = harness.StealMeter()
    start, closed, ends = harness.closed_loop(
        solve, ctx.seconds * CLOSED_SHARE, ctx.trace)
    open_ms, late_ms = harness.open_loop(
        solve, ctx.seconds * (1 - CLOSED_SHARE), OPEN_RATE)
    cache1 = plan_cache.stats()

    latency = [ms for ms, _, _ in closed]
    closed_rate = harness.window_rate(start, ends)
    report: Dict[str, object] = {
        "open_p50_ms": harness.pct(open_ms, 50),
        "ops_per_s": closed_rate,
        "p50_ms": harness.pct(latency, 50),
        "samples": {"closed": len(latency), "open": len(open_ms)},
        "cpu_steal_share": steal.share(),
        "iterations": harness.median([it for _, _, it in closed]),
        "p90_supported": harness.supported(latency, 90),
        "open_rate_per_s": OPEN_RATE,
        "open_start_late_p50_ms": harness.pct(late_ms, 50),
        "open_start_late_max_ms": max(late_ms),
        "matrix": {"name": NAME, "scale": SCALE, "format": FORMAT,
                   "shape": list(matrix.shape), "nnz": int(matrix.nnz),
                   "working_set_bytes": int(sum(matrix.device_bytes().values()))},
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
    measured = layers.solver_costs(spans, [it for _, t, it in closed if t])
    self_ms = spans.self_ms()
    measured.update(layers.path_metrics(
        {"solvers": self_ms["solvers"] / sum(traced_ms),
         "kernels": self_ms["kernels"] / sum(traced_ms)},
        harness.median(traced_ms)))
    lookups = ((cache1["hits"] - cache0["hits"])
               + (cache1["misses"] - cache0["misses"]))
    measured.update({
        "kernels.vectors_per_call": 1.0,
        "serve.rejected": 0.0,
        "kernels.plan_cache_hit_ratio": (
            (cache1["hits"] - cache0["hits"]) / lookups if lookups else 1.0),
        "closed_loop.ops_per_s": closed_rate,
        "closed_loop.p50_ms": harness.pct(latency, 50),
        "open_loop.p50_ms": harness.pct(open_ms, 50),
        "trace.overhead_pct": 100.0 * (harness.median(traced_ms)
                                       / harness.median(untraced_ms) - 1.0),
    })
    unit = layers.unit_cost_metrics([NAME], [matrix], [1.0], [rhs[0]], rng)
    metrics = layers.workload_layers(ctx, unit, [matrix], [1.0], watch, {},
                                     measured, rng)
    spans.dump(ctx.spans_path())
    ctx.finish(outcome, metrics, report)
