"""Seeded fault campaigns: one trial record, one classifier, one report.

A campaign's contract is *zero silent corruption*. :func:`run_trial`
runs one faulted call and gives it exactly one outcome:

==============  ======================================================
``detected``    a typed :class:`~repro.errors.ReproError`, raised at
                build or at dispatch
``recovered``   ``y`` bit-identical to its reference, with a recovery
                action visible: ``fallback_used``, ``retries``,
                ``worker_deaths`` or ``shard_reassignments``
``unaffected``  ``y`` bit-identical, with no recovery action
``silent``      any other returned ``y`` — a contract violation
``untyped``     any other exception — a contract violation
==============  ======================================================

The reference is the unfaulted product of whatever served the call: the
CSR fallback's own product when the fallback served it, else the sealed
container's own product. Bit-identical means every bit of every non-NaN
element matches and the NaNs sit in the same places.

Two front ends share this module. :func:`run_campaign` (``repro verify
--faults``) faults single-device calls: a corrupted copy of a sealed
container, or one flipped bit in the arrays of its warm plan
(``plan_bit_flip``: the bytes the default engine reads on every call,
which ``verify="checksum"`` checks on every call).
:func:`repro.exec.chaos.run_chaos_campaign` (``repro chaos``) faults
sharded calls. A ``(format, kind)`` pair whose fault does not apply is
listed in :attr:`CampaignReport.skipped` and never counted as injected.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..exec.policy import ExecutionPolicy
from ..formats.base import SparseFormat
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..matrices.generators import banded_random
from .checksums import seal
from .faults import (
    PLAN_FAULT_KIND,
    InjectedFault,
    fault_kinds,
    flip_plan_bit,
    inject_fault,
)

if TYPE_CHECKING:
    from ..kernels.base import SpMVResult

__all__ = [
    "OUTCOMES",
    "Trial",
    "CampaignReport",
    "run_trial",
    "build_campaign_matrix",
    "run_campaign",
    "DEFAULT_FORMATS",
]

DEFAULT_FORMATS: Tuple[str, ...] = ("bro_ell", "bro_coo", "bro_hyb")

OUTCOMES: Tuple[str, ...] = (
    "recovered", "unaffected", "detected", "silent", "untyped")


@dataclass
class Trial:
    """One injected fault and its outcome (one of :data:`OUTCOMES`)."""

    format_name: str
    kind: str
    target: str  #: where the fault landed
    outcome: str
    detail: Optional[str] = None  #: the typed error, or why it failed
    fallback_used: bool = False
    retries: int = 0
    worker_deaths: int = 0
    shard_reassignments: int = 0

    def to_dict(self) -> Dict[str, object]:
        doc = asdict(self)
        doc["format"] = doc.pop("format_name")
        return doc


def _tally(outcome: str) -> property:
    return property(
        lambda self: sum(t.outcome == outcome for t in self.trials),
        doc=f"Trials whose outcome is ``{outcome!r}``.",
    )


@dataclass
class CampaignReport:
    """The trials of one campaign; ``clean`` is the contract gate."""

    trials: List[Trial] = field(default_factory=list)
    #: ``(format, kind)`` pairs not run because the fault does not apply.
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    #: The front end's settings (seed, ...), echoed by :meth:`to_dict`.
    settings: Dict[str, object] = field(default_factory=dict)

    recovered = _tally("recovered")
    unaffected = _tally("unaffected")
    detected = _tally("detected")
    silent = _tally("silent")
    untyped = _tally("untyped")

    @property
    def injected(self) -> int:
        return len(self.trials)

    @property
    def clean(self) -> bool:
        """Zero silent corruptions and zero untyped crashes."""
        return self.silent == 0 and self.untyped == 0

    def rows(self) -> List[Dict[str, object]]:
        """Per-(format, kind) aggregate rows for table rendering."""
        agg: Dict[Tuple[str, str], Dict[str, int]] = {}
        for t in self.trials:
            row = agg.setdefault(
                (t.format_name, t.kind),
                {"injected": 0, **{outcome: 0 for outcome in OUTCOMES}},
            )
            row["injected"] += 1
            row[t.outcome] += 1
        return [
            {"format": fmt, "fault": kind, **counts}
            for (fmt, kind), counts in sorted(agg.items())
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            **self.settings,
            "injected": self.injected,
            **{outcome: getattr(self, outcome) for outcome in OUTCOMES},
            "clean": self.clean,
            "rows": self.rows(),
            "trials": [t.to_dict() for t in self.trials],
            "skipped": [{"format": fmt, "kind": kind}
                        for fmt, kind in self.skipped],
        }


def _bit_identical(got: np.ndarray, want: np.ndarray) -> bool:
    """Every bit of every non-NaN element equal, NaNs in the same places."""
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    nan = np.isnan(want)
    return bool(np.array_equal(np.isnan(got), nan)
                and got[~nan].tobytes() == want[~nan].tobytes())


def run_trial(
    format_name: str,
    kind: str,
    target: str,
    run: Callable[[], SpMVResult],
    reference: np.ndarray,
    fallback_reference: Optional[np.ndarray] = None,
) -> Trial:
    """Run one faulted call and classify it (see the module docstring).

    ``reference`` is the unfaulted product of the call's own matrix and
    ``fallback_reference`` that of its fallback, which a result with
    ``fallback_used`` is compared against.
    """
    trial = Trial(format_name, kind, target, outcome="untyped")
    try:
        result = run()
    except ReproError as exc:
        trial.outcome = "detected"
        trial.detail = f"{type(exc).__name__}: {exc}"
        return trial
    except Exception as exc:  # noqa: BLE001 - the contract check itself
        trial.detail = f"{type(exc).__name__}: {exc}"
        return trial
    # Only a sharded result carries the pool's recovery counters.
    trial.fallback_used = result.fallback_used
    trial.retries = getattr(result, "retries", 0)
    trial.worker_deaths = getattr(result, "worker_deaths", 0)
    trial.shard_reassignments = getattr(result, "shard_reassignments", 0)
    want = (fallback_reference if result.fallback_used
            and fallback_reference is not None else reference)
    if not _bit_identical(result.y, want):
        trial.outcome = "silent"
        trial.detail = "y deviates from its reference"
    elif (trial.fallback_used or trial.retries or trial.worker_deaths
          or trial.shard_reassignments):
        trial.outcome = "recovered"
        trial.detail = result.integrity_error
    else:
        trial.outcome = "unaffected"
    return trial


def build_campaign_matrix(
    format_name: str, seed: int = 0, m: int = 96, n: Optional[int] = None
) -> Tuple[SparseFormat, COOMatrix]:
    """A small sealed BRO matrix plus its pristine COO source.

    Sized so each container has several slices/intervals (faults can land
    in interior metadata, not just the first block) while keeping a single
    injection cheap enough for 500+ fault campaigns in unit tests.
    """
    coo = banded_random(m, 8.0, 3.0, bandwidth=max(16, m // 3), seed=seed, n=n)
    if format_name == "bro_ell":
        from ..core.bro_ell import BROELLMatrix

        mat: SparseFormat = BROELLMatrix.from_coo(coo, h=16)
    elif format_name == "bro_coo":
        from ..core.bro_coo import BROCOOMatrix

        mat = BROCOOMatrix.from_coo(coo, interval_size=64)
    elif format_name == "bro_hyb":
        from ..core.bro_hyb import BROHYBMatrix

        mat = BROHYBMatrix.from_coo(coo, h=16, interval_size=64)
    else:
        raise ReproError(f"campaign does not support format {format_name!r}")
    return seal(mat), coo


def _faulted_spmv(
    injected: InjectedFault, x: np.ndarray, device: str, policy: ExecutionPolicy
) -> SpMVResult:
    from ..kernels.dispatch import run_spmv  # deferred: avoids an import cycle

    if injected.matrix is None:
        raise injected.build_error  # construction-time detection
    return run_spmv(injected.matrix, x, device, policy=policy)


def run_campaign(
    formats: Sequence[str] = DEFAULT_FORMATS,
    n_faults: int = 500,
    seed: int = 0,
    device: str = "k20",
    verify: object = True,
) -> CampaignReport:
    """Inject ``n_faults`` faults round-robin across ``formats``.

    Each fault is one of the format's container kinds or, as one more
    kind drawn with equal odds, a plan-array fault
    (:data:`~repro.integrity.faults.PLAN_FAULT_KIND`). A container fault
    corrupts a fresh deep copy of a sealed container; a plan fault warms
    the sealed container's plan and flips one bit of one of its replay
    arrays. Either is then dispatched through
    :func:`repro.kernels.dispatch.run_spmv` with ``verify`` and the
    pristine CSR matrix as fallback, and classified by :func:`run_trial`.

    Every call, the references included, runs under a plan cache of its
    own. A faulted copy keeps its twin's seal, so under a shared cache
    an unverified call would replay whatever plan an earlier call left
    there, and the outcome would depend on what ran before.
    """
    from ..kernels.dispatch import run_spmv  # deferred: avoids an import cycle
    from ..kernels.plancache import PlanCache

    report = CampaignReport(settings={"seed": seed})
    rng = np.random.default_rng(seed)
    fixtures = []
    for i, fmt in enumerate(formats):
        sealed, coo = build_campaign_matrix(fmt, seed=seed + 17 * i)
        x = np.random.default_rng(seed + 101 + i).standard_normal(coo.shape[1])
        fallback = CSRMatrix.from_coo(coo)
        y_ref = run_spmv(sealed, x, device, policy=ExecutionPolicy(
            plan_cache=PlanCache(maxsize=1))).y
        # Dispatch serves a fault with the fallback's reference kernel.
        y_fallback = run_spmv(
            fallback, x, device, policy=ExecutionPolicy(engine="reference")).y
        fixtures.append((fmt, sealed, x, fallback, y_ref, y_fallback))

    for i in range(int(n_faults)):
        fmt, sealed, x, fallback, y_ref, y_fallback = fixtures[i % len(fixtures)]
        cache = PlanCache(maxsize=1)
        policy = ExecutionPolicy(verify=verify, fallback=fallback, plan_cache=cache)
        if int(rng.integers(len(fault_kinds(fmt)) + 1)) == 0:
            # The numpy executor keeps a corrupted replay in bounds (the
            # gather clips, the row scatter raises), so an unverified
            # campaign reports the fault instead of crashing in a
            # compiled loop, which trusts the indices checked at build.
            policy = policy.with_(compute_backend="numpy")
            run_spmv(sealed, x, device, policy=policy)  # warm the plan
            kind, target = PLAN_FAULT_KIND, flip_plan_bit(
                cache.get_or_build(sealed, device, backend="numpy"), rng)
            run = partial(run_spmv, sealed, x, device, policy=policy)
        else:
            injected = inject_fault(sealed, rng)
            kind, target = injected.spec.kind, injected.spec.target
            run = partial(_faulted_spmv, injected, x, device, policy)
        report.trials.append(run_trial(fmt, kind, target, run, y_ref, y_fallback))
    return report
