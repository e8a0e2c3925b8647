"""One-call SpMV entry point: pick the kernel from the matrix's format.

Beyond plain dispatch, :func:`run_spmv` is the integrity boundary of the
library. With verification enabled, each check runs on the bytes the
call reads, when it reads them:

* the **container** — structural validation, plus its CRC32 header at
  ``"checksum"`` when the matrix was sealed with
  :func:`repro.integrity.seal` — is checked when it is first read under
  its current seal: before the plan cache builds a plan from it (or
  aliases a twin's plan to it), before ``sharded_view`` partitions it,
  and on every call of the reference engine (which decodes it every
  time) or with an explicit ``plan=``. ``"full"`` deep-checks it on
  every call;
* the **plan** — at ``"checksum"`` and ``"full"`` every replay first
  compares the plan's arrays against the CRC taken when it was built;
  at ``"structure"`` it range-checks the index arrays the executor
  reads, so a flipped index bit cannot read out of bounds. A plan that
  fails is dropped from its cache.

With a fallback matrix supplied, dispatch degrades gracefully: any typed
:class:`~repro.errors.ReproError` raised during verification or decode
reroutes the request to the fallback's reference kernel (typically CSR)
instead of failing, recording the event in the per-process integrity
counters and on the returned :class:`~repro.kernels.base.SpMVResult`.
A container mutated in place after a verified warm call is not read
again, so the call keeps returning the sealed matrix's ``y``; the
mutation is caught at the next read (``invalidate``, eviction, a
re-partition, the reference engine). Re-seal after mutating on purpose.

Execution is configured by one object — an
:class:`~repro.exec.policy.ExecutionPolicy`::

    run_spmv(matrix, x, "k20", policy=ExecutionPolicy(verify="checksum",
                                                      devices=4))

The policy selects between two single-device engines that produce
identical results (same ``y`` bits, equal :class:`KernelCounters`):

* ``"auto"`` (default) — a prepared :class:`~repro.kernels.plan.SpMVPlan`
  that decoded once and replays cached gather tables, for every format
  with a plan builder. The plan comes from ``policy.plan``, else
  ``policy.plan_cache``, else the process-wide
  :data:`~repro.kernels.plancache.PLAN_CACHE`. A format without a
  planner runs the reference engine.
* ``"reference"`` — the stepwise simulated kernels, re-decoding every
  packed stream on each call (Algorithm 1 as written). This is the
  oracle the plan is checked against.

With ``policy.devices > 1`` (or a pre-built
:class:`~repro.exec.partition.ShardedMatrix`) the primary execution
routes through the sharded engine (:mod:`repro.exec.engine`) *inside*
the guarded region, so verification and graceful degradation apply to
multi-device runs unchanged. An SpMM block is one sharded call: every
shard receives the whole ``(n, k)`` block.

The pre-policy loose keywords (``verify=``, ``fallback=``, ``engine=``,
``plan=``, ``plan_cache=``) went through one deprecation release and are
now gone; ``policy=`` is the only spelling.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Optional

import numpy as np

from ..errors import IntegrityError, ReproError, ValidationError
from ..exec.policy import ExecutionPolicy
from ..formats.base import SparseFormat
from ..gpu.device import DeviceSpec, get_device
from ..integrity.counters import COUNTERS
from ..integrity.validators import verify_container
from ..registry import has_planner, kernel_for
from ..telemetry.tracer import NULL_SPAN, get_tracer
from ..telemetry.tracer import span as _span
from .base import SpMVResult
from .plan import SpMVPlan, check_multi_x
from .plancache import cache_for

__all__ = ["run_spmv", "run_spmm"]

#: Exceptions treated as container-corruption symptoms on the guarded path.
#: A corrupted container does not always fail with a typed ReproError —
#: out-of-range decoded indices surface from NumPy as IndexError, and
#: garbage widths can trip ValueError/OverflowError inside the decoder.
_CORRUPTION_ERRORS = (ReproError, IndexError, ValueError, OverflowError)

#: True inside the primary execution of a guarded dispatch. The shards
#: of a thread-backend call dispatch again, guarded at the call's verify
#: level; only the outermost dispatch counts in ``COUNTERS``, since it
#: alone decides what reaches the caller.
_IN_GUARD: ContextVar[bool] = ContextVar("repro_in_guard", default=False)


def _is_sharded_run(matrix: SparseFormat, policy: ExecutionPolicy) -> bool:
    """Whether this call routes through the multi-device engine."""
    return policy.sharded or matrix.format_name == "sharded"


def _resolve_engine(matrix: SparseFormat, policy: ExecutionPolicy) -> str:
    """Pick the single-device engine; validate the selector combination.

    Sharded runs keep the policy's selector verbatim — each shard
    re-resolves it against the *inner* format inside the engine.
    """
    if _is_sharded_run(matrix, policy):
        return policy.engine
    if policy.plan is not None:
        if policy.engine == "reference":
            raise ValidationError("plan= cannot be combined with engine='reference'")
        return "fast"
    if policy.engine == "auto" and has_planner(matrix.format_name):
        return "fast"
    return "reference"


def _check_plan(plan: SpMVPlan, matrix: SparseFormat, device: DeviceSpec) -> None:
    if plan.matrix is not matrix:
        raise ValidationError(
            "plan was prepared for a different matrix object; re-run "
            "prepare() (or use a PlanCache) after replacing the container"
        )
    if plan.device.name != device.name:
        raise ValidationError(
            f"plan was prepared for device {plan.device.name!r}, "
            f"cannot execute on {device.name!r}"
        )


def _primary(
    matrix: SparseFormat,
    x: np.ndarray,
    device: DeviceSpec,
    engine: str,
    policy: ExecutionPolicy,
    multi: bool,
) -> SpMVResult:
    """Run the selected engine for a vector or, with ``multi``, an
    ``(n, k)`` block (no integrity handling)."""
    x = check_multi_x(matrix, x) if multi else matrix.check_x(x)
    if _is_sharded_run(matrix, policy):
        from ..exec.engine import execute_sharded  # lazy: engine imports us

        return execute_sharded(matrix, x, device, policy)
    if engine == "fast":
        plan = policy.plan
        if plan is None:
            cache = cache_for(policy)
            plan = cache.get_or_build(
                matrix, device, backend=policy.compute_backend,
                verify=policy.verify,
            )
        else:
            _check_plan(plan, matrix, device)
        if policy.verify:
            check = (plan.verify_bounds if policy.verify == "structure"
                     else plan.verify_arrays)
            try:
                check()
            except IntegrityError:
                if policy.plan is None:
                    cache.discard(plan)  # the next call rebuilds it
                raise
        return plan.execute_checked(x)
    kernel = kernel_for(matrix.format_name)
    if x.ndim == 1:
        return kernel.run(matrix, x, device)
    # Reference SpMM: k independent kernel runs, one per column. The
    # summed counters equal the plan's scaled prototype because
    # the accounting is x-independent (k identical records).
    results = [kernel.run(matrix, x[:, j], device) for j in range(x.shape[1])]
    return SpMVResult(
        y=np.stack([r.y for r in results], axis=1),
        counters=sum(r.counters for r in results),
        device=device,
    )


def _dispatch(
    matrix: SparseFormat,
    x: np.ndarray,
    device: DeviceSpec | str,
    policy: Optional[ExecutionPolicy],
    multi: bool,
) -> SpMVResult:
    """The integrity boundary shared by :func:`run_spmv` and :func:`run_spmm`."""
    pol = policy if policy is not None else ExecutionPolicy()
    if isinstance(device, str):
        device = get_device(device)
    level = pol.verify
    eng = _resolve_engine(matrix, pol)
    span_name = "spmm.dispatch" if multi else "spmv.dispatch"

    if level is False and pol.fallback is None:
        # The unguarded path: no verification, failures propagate.
        # Telemetry-free unless a tracer is active (the kernel's own span
        # still fires inside run() when one is).
        if get_tracer() is None:
            return _primary(matrix, x, device, eng, pol, multi)
        with _span(
            span_name,
            "pipeline",
            format=matrix.format_name,
            device=device.name,
            verify="off",
            engine=eng,
            devices=pol.devices,
        ):
            return _primary(matrix, x, device, eng, pol, multi)

    with _span(
        span_name,
        "pipeline",
        format=matrix.format_name,
        device=device.name,
        verify=level if level is not False else "off",
        fallback=pol.fallback.format_name if pol.fallback is not None else None,
        engine=eng,
        devices=pol.devices,
    ) as sp:
        nested = _IN_GUARD.get()
        if not nested:
            COUNTERS.record_verification()
        try:
            if level is not False and (
                level == "full"
                or (not _is_sharded_run(matrix, pol)
                    and (eng == "reference" or pol.plan is not None))
            ):
                # The container checks that run on every call; the plan
                # cache and sharded_view check once per seal.
                verify_container(matrix, level)
            # Plan building (and shard re-encoding on the multi-device
            # path) happens inside the guarded region: a corrupted
            # stream fails the vectorized decode with the same typed
            # errors the stepwise decoder raises, and degrades identically.
            token = _IN_GUARD.set(True)
            try:
                result = _primary(matrix, x, device, eng, pol, multi)
            finally:
                _IN_GUARD.reset(token)
        except _CORRUPTION_ERRORS as exc:
            if not nested:
                COUNTERS.record_detection()
            if sp is not NULL_SPAN:
                sp.event(
                    "integrity.detected",
                    error=f"{type(exc).__name__}: {exc}",
                )
            if pol.fallback is None:
                if not nested:
                    COUNTERS.record_raised()
                raise
            result = _primary(
                pol.fallback, x, device, "reference", ExecutionPolicy(), multi
            )
            if not nested:
                COUNTERS.record_fallback()
            if sp is not NULL_SPAN:
                sp.event("integrity.fallback", format=pol.fallback.format_name)
            result.fault_detected = True
            result.fallback_used = True
            result.integrity_error = f"{type(exc).__name__}: {exc}"
        result.integrity_counters = COUNTERS.snapshot()
        return result


def run_spmv(
    matrix: SparseFormat,
    x: np.ndarray,
    device: DeviceSpec | str = "k20",
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> SpMVResult:
    """Execute ``y = A @ x`` on the simulated device with the format's kernel.

    Parameters
    ----------
    matrix:
        Any registered sparse format with a simulated kernel, including a
        :class:`~repro.exec.partition.ShardedMatrix` (which always runs
        through the multi-device engine).
    x:
        Dense input vector of length ``matrix.shape[1]``.
    device:
        A :class:`~repro.gpu.device.DeviceSpec` or a registry key
        (``"c2070"``, ``"gtx680"``, ``"k20"``). With ``policy.devices >
        1`` every simulated device uses this spec.
    policy:
        The :class:`~repro.exec.policy.ExecutionPolicy` configuring
        verification, fallback, engine selection, plan caching and
        multi-device sharding. ``None`` means the default policy.

    Returns
    -------
    SpMVResult
        The product vector, the instrumentation counters, (lazily) the
        predicted timing and — on the verified path — the integrity flags
        and the per-process counter snapshot. Multi-device runs return a
        :class:`~repro.exec.engine.ShardedSpMVResult` carrying per-shard
        results and the communication report.

    The default engine caches a plan per container object: after an
    in-place mutation, re-seal the container, ``invalidate`` it in the
    plan cache, or run ``engine="reference"`` to see the new values.
    """
    return _dispatch(matrix, x, device, policy, multi=False)


def run_spmm(
    matrix: SparseFormat,
    X: np.ndarray,
    device: DeviceSpec | str = "k20",
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> SpMVResult:
    """Execute ``Y = A @ X`` for a multi-RHS block ``X`` of shape ``(n, k)``.

    Column ``j`` of the result is bit-identical to ``run_spmv(matrix,
    X[:, j], ...)``, and the counters equal the sum of the ``k``
    single-vector records. ``policy`` behaves exactly as in
    :func:`run_spmv`.
    """
    return _dispatch(matrix, X, device, policy, multi=True)
