"""Per-layer metrics of a traced run.

Two kinds, both measured on the workload's own matrices and vectors and
weighted by the workload's request mix where it has more than one
matrix:

* **unit costs**: each layer called through its public functions, with
  the benchmark's clock around the call (``kernels.spmv_ns_per_nnz``,
  ``serve.decode_us``, ``integrity.checksum_ms``, ...). A layer that
  the workload's operations bypass is still measured on its inputs, so
  every traced run reports every metric; whether the layer is on the
  path shows in the ``path.*_share`` metrics instead.
* **path shares**: the share of one operation's traced latency spent in
  each layer along its blocking path, and the unattributed remainder.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import (
    ExecutionPolicy,
    SimulatedOperator,
    SpMVRequest,
    SpMVResponse,
    bar_permutation,
    conjugate_gradient,
    run_spmm,
    run_spmv,
    validate_structure,
    verify_integrity,
)
from repro.core.compression import index_compression_report
from repro.exec.engine import execute_sharded, sharded_view
from repro.exec.workers import shutdown_matrix_pools
from repro.formats.conversion import convert
from repro.integrity import seal
from repro.kernels.plancache import PlanCache
from repro.serialize import load_container, save_container
from repro.telemetry import metrics as telemetry_metrics

import harness
import inputs

DEVICE = "k20"
#: Layers whose share of the blocking path is reported.
PATH_LAYERS = ("wire", "queue", "kernels", "gpu", "solvers", "exec",
               "integrity")
#: Columns of one SpMM block.
BLOCK_K = 8
CG_TOL = 1e-8
CG_MAX_ITER = 500


def shard_policy(fallback) -> ExecutionPolicy:
    """The sharded policy of ``shard-spmm`` and of the exec probe."""
    return ExecutionPolicy(devices=2, backend="process", verify="checksum",
                           fallback=fallback)


def timed(fn: Callable[[], object], min_reps: int = 5,
          min_s: float = 0.1) -> float:
    """Median seconds of one call, over at least ``min_reps`` calls and
    ``min_s`` seconds."""
    times: List[float] = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return harness.median(times)


def paired(base: Callable[[], object], other: Callable[[], object],
           reps: int = 51) -> float:
    """Seconds ``other`` takes beyond ``base``: the difference of their
    fastest calls, interleaved so drift affects both alike. Minima are
    steady where host noise only ever adds time."""
    base_s, other_s = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        base()
        t1 = time.perf_counter()
        other()
        base_s.append(t1 - t0)
        other_s.append(time.perf_counter() - t1)
    return min(other_s) - min(base_s)


def path_metrics(shares: Dict[str, float], latency_ms: float) -> Dict[str, float]:
    """``path.<layer>_share`` for every layer, the remainder, and the
    traced latency the shares are of."""
    out = {f"path.{layer}_share": float(shares.get(layer, 0.0))
           for layer in PATH_LAYERS}
    out["path.remainder_share"] = 1.0 - sum(out.values())
    out["path.latency_ms"] = float(latency_ms)
    return out


# ---------------------------------------------------------------------------
# unit costs of one matrix
# ---------------------------------------------------------------------------


def _kernel_costs(matrix, x: np.ndarray, X: np.ndarray) -> Dict[str, float]:
    nnz = float(matrix.nnz)
    cache = PlanCache()
    build = []
    for _ in range(3):
        cache.clear()
        t0 = time.perf_counter()
        plan = cache.get_or_build(matrix, DEVICE)
        build.append(time.perf_counter() - t0)
    result = plan.execute(x)
    spmv_s = timed(lambda: plan.execute(x))
    spmm_s = timed(lambda: plan.execute_many(X))
    policy = ExecutionPolicy(plan_cache=cache)
    timing_s = timed(lambda: result.timing, min_reps=20)
    csr = inputs.scipy_csr(matrix)
    ceiling = (timed(lambda: csr @ x, min_reps=20) * 1e9 / nnz
               if csr is not None else None)
    dram = float(result.counters.dram_bytes)
    index = index_compression_report(matrix)
    return {
        "kernels.spmv_ns_per_nnz": spmv_s * 1e9 / nnz,
        "kernels.spmm8_ns_per_nnz": spmm_s * 1e9 / (nnz * X.shape[1]),
        "kernels.dispatch_us": paired(
            lambda: plan.execute(x),
            lambda: run_spmv(matrix, x, DEVICE, policy=policy)) * 1e6,
        "kernels.plan_build_s": harness.median(build),
        "kernels.dram_bytes_per_nnz": dram / nnz,
        "kernels.host_gbps": dram / spmv_s / 1e9,
        "kernels.ceiling_ns_per_nnz": ceiling,
        "gpu.timing_us": timing_s * 1e6,
        "core.index_bytes_ratio": (index.compressed_index_bytes
                                   / index.original_index_bytes),
    }


def _wire_costs(name: str, fmt: str, x: np.ndarray, y: np.ndarray) -> Dict[str, float]:
    """What the server spends on one request's NDJSON frames, line bytes
    to typed request and typed response to line bytes."""
    line = (json.dumps(SpMVRequest("r", name, x, tenant="bench").to_wire())
            + "\n").encode()

    def decode():
        return SpMVRequest.from_wire(json.loads(line.decode().strip()))

    request = decode()

    def encode():
        return (json.dumps(SpMVResponse.success(
            request, y, format=fmt, batch_size=1).to_wire()) + "\n").encode()

    return {"serve.decode_us": timed(decode) * 1e6,
            "serve.encode_us": timed(encode) * 1e6}


def _integrity_costs(matrix) -> Dict[str, float]:
    return {
        "integrity.validate_ms": timed(lambda: validate_structure(matrix)) * 1e3,
        "integrity.checksum_ms": timed(lambda: verify_integrity(matrix)) * 1e3,
    }


def unit_costs(name: str, matrix, x: np.ndarray, X: np.ndarray) -> Dict[str, float]:
    costs = _kernel_costs(matrix, x, X)
    y = run_spmv(matrix, x, DEVICE, policy=inputs.REFERENCE).y
    costs.update(_wire_costs(name, matrix.format_name, x, y))
    costs.update(_integrity_costs(matrix))
    return costs


# ---------------------------------------------------------------------------
# layers measured as a whole: solver, sharded execution, set-up steps
# ---------------------------------------------------------------------------


class TracedOperator:
    """``SimulatedOperator`` with a ``kernels`` span around every call."""

    def __init__(self, operator, spans: harness.Spans, op: int):
        self.operator, self.spans, self.op = operator, spans, op

    def __call__(self, x):
        with self.spans.span("kernels", self.op):
            return self.operator(x)


def traced_solve(operator, b, spans: harness.Spans, op: int):
    """One CG solve under a ``solvers`` span with traced operator calls."""
    with spans.span("solvers", op):
        return conjugate_gradient(TracedOperator(operator, spans, op), b,
                                  tol=CG_TOL, max_iter=CG_MAX_ITER)


def solver_costs(spans: harness.Spans, iterations) -> Dict[str, float]:
    """Solver metrics from traced solves (``solvers`` root spans) and
    their iteration counts."""
    self_ms = spans.self_ms()
    solves = spans.durations_ms("solvers")
    n = len(solves)
    return {
        "solvers.iterations": float(harness.median(iterations)),
        "solvers.self_ms": self_ms.get("solvers", 0.0) / n,
        "solvers.operator_share": self_ms.get("kernels", 0.0) / sum(solves),
    }


def solver_probe(matrix, rng: np.random.Generator) -> Dict[str, float]:
    """CG on the SPD system with this matrix's sparsity and format, for
    workloads whose operations do not run the solver."""
    spd = convert(inputs.spd_from(matrix.to_coo()), matrix.format_name,
                  h=inputs.H)
    operator = SimulatedOperator(spd, DEVICE,
                                 policy=ExecutionPolicy(verify=False))
    spans = harness.Spans()
    iterations = [traced_solve(operator, rng.standard_normal(spd.shape[0]),
                               spans, i).iterations for i in range(3)]
    return solver_costs(spans, iterations)


def sharded_op(matrix, X: np.ndarray, policy: ExecutionPolicy,
               spans: harness.Spans, op: int):
    """One SpMM block the way ``run_spmm`` runs it under the shard
    policy (structure and checksum verification, then one sharded call
    per column) with a span around each layer call.

    Worker time comes from the program's own shard latency histogram,
    collected into a private registry for this block only. Returns the
    block's ``Y``, the per-call shard latencies (ms, one row per worker)
    and the workers' plan-cache ``(hits, lookups)``.
    """
    registry = telemetry_metrics.MetricsRegistry()
    telemetry_metrics.start_collecting(registry)
    try:
        with spans.span("op", op):
            with spans.span("integrity", op):
                validate_structure(matrix)
                verify_integrity(matrix)
            columns = []
            for j in range(X.shape[1]):
                with spans.span("exec", op):
                    columns.append(
                        execute_sharded(matrix, X[:, j], DEVICE, policy).y)
            Y = np.stack(columns, axis=1)
    finally:
        telemetry_metrics.stop_collecting()
    snapshot = registry.snapshot()
    # Each worker's window lists its shard latencies in call order.
    shard_ms = np.stack([
        np.asarray(h["samples"], dtype=float) * 1e3
        for key, h in sorted(snapshot["histograms"].items())
        if key.startswith("exec.shard_latency_seconds")
    ])

    def count(event: str) -> float:
        return sum(v for k, v in snapshot["counters"].items()
                   if k.startswith(f"plan_cache.{event}"))

    return Y, shard_ms, (count("hits"), count("hits") + count("misses"))


def exec_costs(spans: harness.Spans, shard_ms: List[np.ndarray]) -> Dict[str, object]:
    """Exec metrics and path shares of traced ``sharded_op`` blocks."""
    ops = [r for r in spans.records if r[0] == "op"]
    by_op = {}
    for name, start, end, _, op in spans.records:
        by_op.setdefault((op, name), []).append((end - start) / 1e6)
    block = np.array([(r[2] - r[1]) / 1e6 for r in ops])
    integrity = np.array([sum(by_op[(r[4], "integrity")]) for r in ops])
    calls = np.array([sum(by_op[(r[4], "exec")]) for r in ops])
    worker = np.array([s.max(axis=0).sum() for s in shard_ms])
    total = block.sum()
    return {
        "metrics": {
            "exec.shard_calls_per_block": float(np.median(
                [s.size for s in shard_ms])),
            "exec.shard_p50_ms": float(np.median(np.concatenate(
                [s.ravel() for s in shard_ms]))),
            "exec.overhead_ms": float(np.median(calls - worker)),
        },
        "shares": {
            "integrity": integrity.sum() / total,
            "kernels": worker.sum() / total,
            "exec": (calls - worker).sum() / total,
        },
        "latency_ms": float(np.median(block)),
    }


def exec_probe(matrix, X: np.ndarray) -> Dict[str, float]:
    """Partition, first call and warm sharded blocks on a fresh sealed
    copy of this matrix, for workloads whose operations are not sharded."""
    copy = convert(matrix.to_coo(), matrix.format_name, h=inputs.H)
    seal(copy)
    policy = shard_policy(convert(matrix.to_coo(), "csr"))
    t0 = time.perf_counter()
    sharded_view(copy, 2, "greedy-nnz")
    partition_s = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        run_spmm(copy, X, DEVICE, policy=policy)
        first_call_s = time.perf_counter() - t0
        spans = harness.Spans()
        shard_ms = [sharded_op(copy, X, policy, spans, i)[1] for i in range(5)]
    finally:
        shutdown_matrix_pools(copy)
    costs = exec_costs(spans, shard_ms)["metrics"]
    costs.update({"exec.partition_s": partition_s,
                  "exec.first_call_s": first_call_s,
                  "exec.single_device_ms": single_device_ms(copy, X)})
    return costs


def single_device_ms(matrix, X: np.ndarray) -> float:
    """The same block on one device (reference for the sharded block)."""
    return timed(lambda: run_spmm(matrix, X, DEVICE,
                                  policy=ExecutionPolicy())) * 1e3


def load_probe(matrix, work: str) -> float:
    """Seconds to load this matrix's sealed ``.brx`` file."""
    path = f"{work}/probe.brx"
    save_container(matrix, path)
    return timed(lambda: load_container(path, verify=True), min_reps=3)


def bar_probe(matrix) -> float:
    """Seconds BAR takes to reorder this matrix (one run: it is slow)."""
    coo = matrix.to_coo()
    t0 = time.perf_counter()
    bar_permutation(coo, h=inputs.H)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# everything, for one workload
# ---------------------------------------------------------------------------


def weighted(per_matrix: List[Dict[str, Optional[float]]],
             weights: Sequence[float], key: str) -> Optional[float]:
    values = [m[key] for m in per_matrix]
    if any(v is None for v in values):
        return None
    return float(sum(w * v for w, v in zip(weights, values)))


def unit_cost_metrics(names, matrices, weights, xs, rng) -> Dict[str, object]:
    """Mix-weighted unit costs of every layer on the workload's matrices."""
    per_matrix = []
    for name, matrix, x in zip(names, matrices, xs):
        X = rng.standard_normal((matrix.shape[1], BLOCK_K))
        per_matrix.append(unit_costs(name, matrix, x, X))
    metrics = {key: weighted(per_matrix, weights, key)
               for key in per_matrix[0]}
    return {"metrics": metrics, "per_matrix": per_matrix}


def setup_metrics(watch: harness.Stopwatch, per_setup: Dict[str, int]) -> Dict[str, float]:
    """Median per set-up of each set-up step the workload timed;
    ``per_setup`` says how many times a step runs in one set-up."""
    names = {
        "matrices.generate": "matrices.generate_s",
        "core.encode": "core.encode_s",
        "integrity.seal": "integrity.seal_s",
        "serialize.save": "serialize.save_s",
        "serialize.load": "serialize.load_s",
        "reorder.bar": "reorder.bar_s",
        "exec.partition": "exec.partition_s",
        "exec.first_call": "exec.first_call_s",
        "kernels.plan": "kernels.plan_build_s",
    }
    out = {}
    for step, metric in names.items():
        if step in watch.times:
            k = per_setup.get(step, 1)
            times = watch.times[step]
            sums = [sum(times[i:i + k]) for i in range(0, len(times), k)]
            out[metric] = harness.median(sums)
    return out


def workload_layers(ctx, unit: Dict[str, object], matrices, weights,
                    watch: harness.Stopwatch, per_setup: Dict[str, int],
                    measured: Dict[str, float],
                    rng: np.random.Generator) -> Dict[str, float]:
    """Every per-layer metric for one workload's traced run.

    ``unit`` is :func:`unit_cost_metrics` of the workload's matrices and
    ``measured`` what the workload's own operations measured (path
    shares, solver or exec metrics on its path); layers off the path
    are probed on the workload's matrices, weighted by ``weights``.
    """
    out = dict(unit["metrics"])
    out.update(setup_metrics(watch, per_setup))
    probes = []
    for matrix in matrices:
        probe: Dict[str, float] = {}
        if "serialize.load_s" not in out:
            probe["serialize.load_s"] = load_probe(matrix, ctx.work)
        if "reorder.bar_s" not in out:
            probe["reorder.bar_s"] = bar_probe(matrix)
        if "exec.overhead_ms" not in measured:
            X = rng.standard_normal((matrix.shape[1], BLOCK_K))
            probe.update(exec_probe(matrix, X))
        if "solvers.self_ms" not in measured:
            probe.update(solver_probe(matrix, rng))
        probes.append(probe)
    for key in probes[0]:
        out[key] = weighted(probes, weights, key)
    out.update(measured)
    return {k: v for k, v in out.items() if v is not None}
