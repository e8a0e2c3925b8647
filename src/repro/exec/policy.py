"""The typed execution contract: one frozen object instead of five kwargs.

Every execution entry point — ``run_spmv``, ``run_spmm``,
:meth:`Session.run`, ``SimulatedOperator`` — is configured by a
single frozen :class:`ExecutionPolicy`. The policy carries the
single-device knobs (``engine``, ``verify``, ``fallback``, plan
sourcing, ``compute_backend``), the multi-device knobs (``devices``,
``partitioner``, ``comms``) and the fault-tolerance knobs (``backend``,
``shard_timeout_s``, ``max_retries``, ``chaos``)::

    from repro import ExecutionPolicy, run_spmv

    policy = ExecutionPolicy(verify="checksum", devices=4,
                             backend="process", partitioner="greedy-nnz")
    result = run_spmv(matrix, x, "k20", policy=policy)

The pre-policy loose keywords (``verify=``/``fallback=``/``engine=``/
``plan=``/``plan_cache=``) were deprecated shims for one release and
have been removed; ``policy=`` is the only spelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import TYPE_CHECKING, Any, Optional, Union

from ..errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from ..formats.base import SparseFormat
    from ..kernels.plan import SpMVPlan
    from ..kernels.plancache import PlanCache
    from .chaos import ChaosPolicy

__all__ = ["ExecutionPolicy"]

#: Accepted ``verify`` levels, in increasing strictness.
VERIFY_LEVELS = (False, "structure", "checksum", "full")

#: Accepted ``engine`` selectors.
ENGINES = ("auto", "reference")

#: Accepted sharded-execution backends.
BACKENDS = ("thread", "process")

#: Accepted executor (compute) backend requests for plan replay.
COMPUTE_BACKENDS = ("auto", "numpy")

#: Registered row-partitioner names (mirrored by repro.exec.partition).
PARTITIONERS = ("contiguous", "greedy-nnz", "slice-aligned")


def _is_int(value: Any) -> bool:
    """An ``int`` that is not a ``bool`` (``True`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def normalize_verify(verify: Union[bool, str, None]) -> Union[bool, str]:
    """Map the accepted ``verify`` spellings onto their canonical level."""
    if verify is None or verify is False:
        return False
    if verify is True:
        return "checksum"
    if verify in ("structure", "checksum", "full"):
        return verify
    raise ValidationError(
        f"verify must be one of {VERIFY_LEVELS}, got {verify!r}"
    )


@dataclass(frozen=True)
class ExecutionPolicy:
    """Complete configuration of one SpMV/SpMM execution path.

    Parameters
    ----------
    engine:
        ``"auto"`` (default) — replay a prepared plan for every format
        with a plan builder (the stepwise kernels otherwise);
        ``"reference"`` — always the stepwise kernels, re-decoding on
        every call.
    verify:
        Integrity level: ``False`` (default), ``"structure"``,
        ``True``/``"checksum"`` or ``"full"``. Each check runs on the
        bytes the call reads. The container (structure, plus its CRC at
        ``"checksum"``) is checked once per seal, when a plan is built
        from it or it is partitioned, and on every reference-engine
        call; ``"full"`` deep-checks it on every call. At
        ``"checksum"`` and ``"full"`` every plan replay first checks
        the plan's arrays against their build-time CRC. Shards run
        under the same level. See ``docs/robustness.md``.
    fallback:
        Trusted container served when the primary fails verification or
        decode (typically the pristine CSR); ``None`` propagates errors.
    plan:
        Explicit :class:`~repro.kernels.plan.SpMVPlan` to replay.
    plan_cache:
        :class:`~repro.kernels.plancache.PlanCache` to build/reuse plans
        from; ``None`` uses the process-wide
        :data:`~repro.kernels.plancache.PLAN_CACHE`. The reference
        engine ignores it.
    devices:
        Number of simulated devices. ``1`` (default) executes exactly as
        before; ``> 1`` routes through the sharded engine
        (:mod:`repro.exec.engine`): rows are partitioned, each shard runs
        on its own device, partial products are reduced, and the timing
        model adds the interconnect term.
    partitioner:
        Row-partitioning strategy for ``devices > 1``: ``"greedy-nnz"``
        (default, balances non-zeros), ``"contiguous"`` (balances rows)
        or ``"slice-aligned"`` (greedy-nnz with boundaries snapped to
        BRO-ELL slice multiples so shard bitstreams re-encode without
        cross-shard slices).
    comms:
        Interconnect strategy modeled for the x-vector distribution:
        ``"auto"`` (default, cheaper of the two), ``"broadcast"`` (full x
        to every device) or ``"halo"`` (each device fetches only the
        remote cachelines its columns reach).
    backend:
        How shards execute: ``"thread"`` (default) runs them in process,
        one after another — replay holds the GIL, so threads could not
        overlap them — on the calling thread, or on one runner thread
        per call when ``shard_timeout_s`` is set; or ``"process"`` — a
        coordinator plus ``multiprocessing`` workers that each mmap
        their own ``.brx`` shard container, with heartbeats, shard
        failover and respawn of every lost worker
        (:mod:`repro.exec.workers`).
    shard_timeout_s:
        Per-shard execution deadline in seconds (``None`` disables).
        The thread backend raises a typed
        :class:`~repro.errors.ShardTimeoutError` on a miss and starts no
        further shard; the process backend treats a miss as a stalled
        worker and fails the shard over to a surviving worker before
        giving up.
    max_retries:
        Process-backend retry budget per shard and call: how many times
        a shard may be re-executed (with backoff and reassignment) after
        a worker death, a stall or a corrupt result before the engine
        raises a typed error.
    chaos:
        Optional seeded :class:`~repro.exec.chaos.ChaosPolicy` injecting
        faults into the sharded engines — worker kills, stalls and
        corrupted shard results — for failover testing.
    compute_backend:
        Executor backend for prepared-plan replay
        (:mod:`repro.kernels.backends`): ``"auto"`` (default) picks the
        Numba-compiled loops when Numba is importable, else SciPy's
        compiled CSR row loops when they pass their first-use probe,
        else interpreted NumPy; ``"numpy"`` forces the interpreted path.
        Results are bit-identical across backends. A specific compiled
        executor is named at :func:`~repro.kernels.plan.prepare`, which
        raises when this host cannot run it.
    """

    engine: str = "auto"
    verify: Union[bool, str] = False
    fallback: Optional["SparseFormat"] = field(default=None, compare=False)
    plan: Optional["SpMVPlan"] = field(default=None, compare=False)
    plan_cache: Optional["PlanCache"] = field(default=None, compare=False)
    devices: int = 1
    partitioner: str = "greedy-nnz"
    comms: str = "auto"
    backend: str = "thread"
    shard_timeout_s: Optional[float] = None
    max_retries: int = 2
    chaos: Optional["ChaosPolicy"] = field(default=None, compare=False)
    compute_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValidationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        object.__setattr__(self, "verify", normalize_verify(self.verify))
        if not _is_int(self.devices) or self.devices < 1:
            raise ValidationError(
                f"devices must be a positive integer, got {self.devices!r}"
            )
        if self.partitioner not in PARTITIONERS:
            raise ValidationError(
                f"partitioner must be one of {PARTITIONERS}, "
                f"got {self.partitioner!r}"
            )
        if self.comms not in ("auto", "broadcast", "halo"):
            raise ValidationError(
                f"comms must be 'auto', 'broadcast' or 'halo', "
                f"got {self.comms!r}"
            )
        if self.backend not in BACKENDS:
            raise ValidationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.compute_backend not in COMPUTE_BACKENDS:
            raise ValidationError(
                f"compute_backend must be one of {COMPUTE_BACKENDS}, "
                f"got {self.compute_backend!r}"
            )
        timeout = self.shard_timeout_s
        if timeout is not None and not (
            isinstance(timeout, Real)
            and not isinstance(timeout, bool)
            and math.isfinite(timeout)
            and timeout > 0
        ):
            raise ValidationError(
                f"shard_timeout_s must be a positive finite number or None, "
                f"got {timeout!r}"
            )
        if not _is_int(self.max_retries) or self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be a non-negative integer, "
                f"got {self.max_retries!r}"
            )
        if self.chaos is not None:
            from .chaos import ChaosPolicy  # local: avoid import cycle

            if not isinstance(self.chaos, ChaosPolicy):
                raise ValidationError(
                    f"chaos must be a ChaosPolicy, "
                    f"got {type(self.chaos).__name__}"
                )
        if self.devices > 1 and self.plan is not None:
            raise ValidationError(
                "an explicit plan= cannot drive a multi-device execution; "
                "shards build their own plans (pass plan_cache= instead)"
            )

    # ------------------------------------------------------------------
    @property
    def sharded(self) -> bool:
        """Whether this policy routes through the multi-device engine."""
        return self.devices > 1

    def with_(self, **updates: Any) -> "ExecutionPolicy":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **updates)

    def describe(self) -> dict:
        """JSON-able summary (objects reduced to presence flags)."""
        return {
            "engine": self.engine,
            "verify": self.verify,
            "fallback": (
                self.fallback.format_name if self.fallback is not None else None
            ),
            "plan": self.plan is not None,
            "plan_cache": self.plan_cache is not None,
            "devices": self.devices,
            "partitioner": self.partitioner,
            "comms": self.comms,
            "backend": self.backend,
            "shard_timeout_s": self.shard_timeout_s,
            "max_retries": self.max_retries,
            "chaos": self.chaos is not None,
            "compute_backend": self.compute_backend,
        }
