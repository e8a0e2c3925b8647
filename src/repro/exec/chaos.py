"""Seeded chaos injection for the sharded execution engines.

A :class:`ChaosPolicy` describes *which* faults to inject into a sharded
run and *how often*; attaching one to an
:class:`~repro.exec.policy.ExecutionPolicy` (``policy.chaos``) makes the
engine inject at most one fault per call, always on a shard's first
attempt, so the recovery machinery — retry, failover, respawn —
is what determines the outcome. Three process-level injectors target the
:mod:`repro.exec.workers` pool:

* ``"kill-worker"`` — the worker owning the target shard exits hard
  (``os._exit``) before computing it, as a crashed rank would;
* ``"stall-worker"`` — the worker sleeps past the shard deadline; the
  coordinator fails the shard over and drops the late result as stale;
* ``"corrupt-shard-result"`` — the worker flips one bit of one element
  of its ``y`` block *after* computing the transport CRC, so the
  coordinator's checksum verification catches the corruption and
  retries.

Any :func:`repro.integrity.faults.fault_kinds` name (``stream_bit_flip``,
``value_nan``, ...) is also accepted: the executing side injects that
fault into a copy of the shard container and runs it under checksum
verification, so container corruption surfaces as a typed error and the
shard retries against the pristine container. ``"plan_bit_flip"`` flips
one bit of the shard's warm plan instead and replays it under checksum
verification: the plan fails its replay-array CRC, is dropped, and the
retry rebuilds it.

:func:`run_shard` applies an event to one shard's run, and both sharded
backends call it, so a kind means the same on either: the thread backend
runs it in the calling process, a process worker in its own. Only
``"kill-worker"`` and ``"corrupt-shard-result"`` act around it, in the
worker loop, and the thread backend rejects them.

:func:`run_chaos_campaign` sweeps formats × fault kinds and asserts the
zero-silent-corruption contract end-to-end, with the outcomes of
:mod:`repro.integrity.campaign`: every trial must return the
bit-identical product or raise a typed
:class:`~repro.errors.ReproError` — never wrong numbers, and never an
untyped crash.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError, ValidationError

if TYPE_CHECKING:
    from ..formats.base import SparseFormat
    from ..integrity.campaign import CampaignReport
    from ..kernels.base import SpMVResult
    from .policy import ExecutionPolicy

__all__ = [
    "PROCESS_FAULT_KINDS",
    "ChaosPolicy",
    "ChaosEvent",
    "ChaosState",
    "run_chaos_campaign",
    "run_shard",
]

#: Fault kinds injected at the worker-pool level (not into containers).
PROCESS_FAULT_KINDS = ("kill-worker", "stall-worker", "corrupt-shard-result")

#: Default fault matrix of :func:`run_chaos_campaign`.
DEFAULT_CAMPAIGN_KINDS = PROCESS_FAULT_KINDS + ("stream_bit_flip", "plan_bit_flip")


@dataclass(frozen=True)
class ChaosEvent:
    """One planned fault: what to inject, into which shard, on which call."""

    kind: str
    shard: int
    call: int  #: 0-based index of the engine call the event fires on
    stall_s: float = 2.5


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded description of the faults to inject into sharded runs.

    Parameters
    ----------
    seed:
        Drives every random choice; equal seeds replay the same faults.
    kinds:
        Candidate fault kinds: any of :data:`PROCESS_FAULT_KINDS` and/or
        any :func:`repro.integrity.faults.fault_kinds` name applicable to
        the inner format.
    rate:
        Probability (0, 1] that a given engine call receives a fault.
    max_faults:
        Total faults over the policy's lifetime (``None`` = unlimited).
        The engine keeps one :class:`ChaosState` per cached pool, so a
        ``max_faults=1`` policy faults only the first call of a solve.
    stall_s:
        How long a ``"stall-worker"`` injection sleeps; must exceed the
        policy's ``shard_timeout_s`` for the stall to be detected.
    shard:
        Pin every fault to one shard index (default: seeded choice).
    """

    seed: int = 0
    kinds: Tuple[str, ...] = PROCESS_FAULT_KINDS
    rate: float = 1.0
    max_faults: Optional[int] = None
    stall_s: float = 2.5
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        kinds = tuple(self.kinds)
        object.__setattr__(self, "kinds", kinds)
        if not kinds or not all(isinstance(k, str) and k for k in kinds):
            raise ValidationError(
                f"chaos kinds must be a non-empty tuple of names, got {kinds!r}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValidationError(
                f"chaos rate must be in (0, 1], got {self.rate!r}"
            )
        if self.max_faults is not None and self.max_faults < 0:
            raise ValidationError(
                f"max_faults must be >= 0 or None, got {self.max_faults!r}"
            )
        if self.stall_s <= 0:
            raise ValidationError(
                f"stall_s must be positive, got {self.stall_s!r}"
            )


class ChaosState:
    """Mutable per-pool injection state: the RNG stream and fault budget.

    The engine keeps one state per cached executor so a solver loop sees
    a single deterministic fault sequence across its calls instead of
    re-seeding on every multiplication.
    """

    def __init__(self, policy: ChaosPolicy) -> None:
        self.policy = policy
        self._rng = np.random.default_rng(policy.seed)
        self.calls = 0
        self.injected = 0

    def plan_call(self, n_shards: int) -> Optional[ChaosEvent]:
        """The fault for the next engine call, or ``None`` for a clean one.

        At most one fault per call; it always lands on a shard's first
        attempt, so the retry path re-executes clean and deterministic.
        """
        call = self.calls
        self.calls += 1
        budget = self.policy.max_faults
        if budget is not None and self.injected >= budget:
            return None
        if float(self._rng.random()) >= self.policy.rate:
            return None
        kind = self.policy.kinds[int(self._rng.integers(len(self.policy.kinds)))]
        if self.policy.shard is not None:
            shard = int(self.policy.shard) % n_shards
        else:
            shard = int(self._rng.integers(n_shards))
        self.injected += 1
        return ChaosEvent(
            kind=kind, shard=shard, call=call, stall_s=self.policy.stall_s
        )


def run_shard(
    run: Callable[..., SpMVResult],
    shard: SparseFormat,
    x: np.ndarray,
    device: Any,
    policy: ExecutionPolicy,
    event: Optional[ChaosEvent],
    index: int,
) -> SpMVResult:
    """``run(shard, x, device, policy=policy)`` with ``event`` applied
    when it targets shard ``index``.

    A stall sleeps, then runs clean. ``"plan_bit_flip"`` flips a bit of
    the shard's warm plan (building it when cold) and a container kind
    runs a corrupted copy of the shard; both run under ``"checksum"``,
    so the fault surfaces as a typed error. A container kind seals an
    unsealed shard first, since the checksum can only catch corruption
    against a pristine seal, and raises ``ValidationError`` when the
    format cannot be sealed. ``"kill-worker"`` and
    ``"corrupt-shard-result"`` run clean here.
    """
    if event is None or event.shard != index:
        return run(shard, x, device, policy=policy)
    kind = event.kind
    if kind == "stall-worker":
        time.sleep(event.stall_s)
    if kind in PROCESS_FAULT_KINDS:
        return run(shard, x, device, policy=policy)
    from ..integrity.faults import PLAN_FAULT_KIND, flip_plan_bit, inject_fault

    policy = policy.with_(verify="checksum")
    rng = np.random.default_rng(event.call * 8191 + index)
    if kind == PLAN_FAULT_KIND:
        from ..kernels.plancache import cache_for

        flip_plan_bit(cache_for(policy).get_or_build(
            shard, device, backend=policy.compute_backend,
            verify=policy.verify), rng)
        return run(shard, x, device, policy=policy)
    from ..integrity.checksums import is_sealed, seal

    if not is_sealed(shard):
        try:
            seal(shard)
        except ReproError as exc:
            raise ValidationError(
                f"chaos kind {kind!r} needs a sealable shard format, "
                f"got {shard.format_name!r}"
            ) from exc
    injected = inject_fault(shard, rng, kind=kind)
    if injected.matrix is None:
        raise injected.build_error  # construction-time detection
    return run(injected.matrix, x, device, policy=policy)


def chaos_state(owner: object, policy: ChaosPolicy) -> ChaosState:
    """The :class:`ChaosState` for ``policy`` cached on ``owner``."""
    cache = getattr(owner, "_repro_chaos_states", None)
    if cache is None:
        cache = {}
        owner._repro_chaos_states = cache  # type: ignore[attr-defined]
    key = id(policy)
    state = cache.get(key)
    if state is None:
        state = cache[key] = ChaosState(policy)
    return state


# ---------------------------------------------------------------------------
# The chaos campaign
# ---------------------------------------------------------------------------


def _campaign_fixture(format_name: str, seed: int):
    """A sealed campaign container plus a seeded input vector."""
    from ..integrity.campaign import build_campaign_matrix
    from ..integrity.checksums import seal
    from ..matrices.generators import banded_random

    if format_name in ("bro_ell", "bro_coo", "bro_hyb"):
        sealed, coo = build_campaign_matrix(format_name, seed=seed)
    else:
        from ..formats.conversion import convert

        coo = banded_random(96, 8.0, 3.0, bandwidth=32, seed=seed)
        sealed = seal(convert(coo, format_name))
    x = np.random.default_rng(seed + 101).standard_normal(coo.shape[1])
    return sealed, x


def _applies(format_name: str, kind: str) -> bool:
    """Whether ``kind`` can be injected into a shard of ``format_name``."""
    from ..integrity.faults import PLAN_FAULT_KIND, fault_kinds
    from ..kernels.plan import has_planner

    if kind in PROCESS_FAULT_KINDS:
        return True
    if kind == PLAN_FAULT_KIND:
        return has_planner(format_name)
    return kind in fault_kinds(format_name)


def run_chaos_campaign(
    formats: Sequence[str] = ("bro_ell", "csr"),
    kinds: Sequence[str] = DEFAULT_CAMPAIGN_KINDS,
    workers: int = 4,
    repeats: int = 1,
    seed: int = 0,
    device: str = "k20",
    backend: str = "process",
    shard_timeout_s: float = 1.0,
    max_retries: int = 3,
    partitioner: str = "greedy-nnz",
) -> CampaignReport:
    """Sweep ``formats`` × ``kinds`` × ``repeats`` single-fault trials.

    Each trial runs one sharded ``run_spmv`` with exactly one injected
    fault (on the first attempt of the targeted shard), and
    :func:`~repro.integrity.campaign.run_trial` classifies it against
    the pristine single-device product. Its ``target`` is
    ``"repeat <r>"``.

    Process-level kinds require ``backend="process"``; container kinds
    run on either backend. A pair whose fault does not apply to the
    format (a container kind with no injector for it, ``plan_bit_flip``
    on a format without a planner) runs no trial and is listed in
    ``report.skipped``. A fresh worker pool is created and shut down
    per trial so every trial replays deterministically from the seed.
    """
    from ..integrity.campaign import CampaignReport, run_trial
    from ..kernels.dispatch import run_spmv
    from .engine import shutdown_pools
    from .policy import ExecutionPolicy

    if backend == "thread":
        bad = [k for k in kinds
               if k in PROCESS_FAULT_KINDS and k != "stall-worker"]
        if bad:
            raise ValidationError(
                f"fault kind(s) {bad} need backend='process'"
            )
    report = CampaignReport(
        settings={"workers": workers, "backend": backend, "seed": seed})
    for f_idx, fmt in enumerate(formats):
        sealed, x = _campaign_fixture(fmt, seed + 17 * f_idx)
        y_ref = run_spmv(sealed, x, device).y
        for k_idx, kind in enumerate(kinds):
            if not _applies(fmt, kind):
                report.skipped.append((fmt, kind))
                continue
            for rep in range(int(repeats)):
                trial_seed = seed + 1009 * f_idx + 101 * k_idx + rep
                chaos = ChaosPolicy(
                    seed=trial_seed, kinds=(kind,), rate=1.0, max_faults=1,
                    stall_s=2.5 * shard_timeout_s,
                )
                policy = ExecutionPolicy(
                    devices=workers, backend=backend,
                    partitioner=partitioner,
                    shard_timeout_s=shard_timeout_s,
                    max_retries=max_retries, chaos=chaos,
                )
                run = partial(run_spmv, sealed, x, device, policy=policy)
                try:
                    report.trials.append(
                        run_trial(fmt, kind, f"repeat {rep}", run, y_ref))
                finally:
                    shutdown_pools(sealed)
    return report
