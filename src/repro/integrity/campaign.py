"""Seeded fault-injection campaigns over the BRO formats.

The campaign's contract is *zero silent corruption*: every injected fault
must either be detected as a typed :class:`~repro.errors.ReproError`
(at construction, during verification, or during decode) or be recovered
transparently by the CSR fallback with a result that matches the dense
reference to machine precision. A fault that leaves the output unchanged
*and* undetected is counted as ``benign`` (e.g. the injector flipped state
that the kernel provably never reads); a wrong result with no error is
``silent`` — the failure class this subsystem exists to eliminate.

Besides the container faults, the campaign flips bits in the arrays of a
warm prepared plan (``plan_bit_flip``): those are the bytes the default
engine reads on every call, and ``verify="checksum"`` checks them on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..exec.policy import ExecutionPolicy
from ..formats.base import SparseFormat
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..matrices.generators import banded_random
from .checksums import seal
from .faults import PLAN_FAULT_KIND, fault_kinds, flip_plan_bit, inject_fault

__all__ = [
    "FaultRecord",
    "CampaignReport",
    "build_campaign_matrix",
    "run_campaign",
    "DEFAULT_FORMATS",
]

DEFAULT_FORMATS: Tuple[str, ...] = ("bro_ell", "bro_coo", "bro_hyb")

#: Tolerance for "matches the dense reference": different summation orders
#: (CSR reduceat vs dense matmul) differ only by rounding at this scale.
_RTOL = 1e-9
_ATOL = 1e-12


@dataclass
class FaultRecord:
    """Outcome of one injected fault."""

    format_name: str
    kind: str
    target: str
    detected: bool  #: a typed ReproError was raised somewhere on the path
    recovered: bool  #: fallback kernel served a reference-matching result
    benign: bool  #: undetected but the output still matched the reference
    silent: bool  #: undetected AND wrong — a contract violation
    stage: str  #: "build" | "dispatch" | "none"
    error: Optional[str] = None


@dataclass
class CampaignReport:
    """Aggregated outcome of a fault-injection campaign."""

    records: List[FaultRecord] = field(default_factory=list)

    @property
    def injected(self) -> int:
        return len(self.records)

    @property
    def detected(self) -> int:
        return sum(r.detected for r in self.records)

    @property
    def recovered(self) -> int:
        return sum(r.recovered for r in self.records)

    @property
    def benign(self) -> int:
        return sum(r.benign for r in self.records)

    @property
    def silent(self) -> int:
        return sum(r.silent for r in self.records)

    @property
    def clean(self) -> bool:
        """True when not a single injected fault escaped silently."""
        return self.silent == 0

    def silent_records(self) -> List[FaultRecord]:
        return [r for r in self.records if r.silent]

    def rows(self) -> List[Dict[str, object]]:
        """Per-(format, kind) aggregate rows for table rendering."""
        agg: Dict[Tuple[str, str], Dict[str, int]] = {}
        for r in self.records:
            row = agg.setdefault(
                (r.format_name, r.kind),
                {"injected": 0, "detected": 0, "recovered": 0, "benign": 0, "silent": 0},
            )
            row["injected"] += 1
            row["detected"] += int(r.detected)
            row["recovered"] += int(r.recovered)
            row["benign"] += int(r.benign)
            row["silent"] += int(r.silent)
        return [
            {"format": fmt, "fault": kind, **counts}
            for (fmt, kind), counts in sorted(agg.items())
        ]


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


def _dispatch_record(
    fmt: str,
    kind: str,
    target: str,
    matrix: SparseFormat,
    x: np.ndarray,
    y_ref: np.ndarray,
    device: str,
    policy: ExecutionPolicy,
) -> FaultRecord:
    """Dispatch one faulted matrix and classify it against the reference."""
    from ..kernels.dispatch import run_spmv  # deferred: avoids an import cycle

    try:
        result = run_spmv(matrix, x, device, policy=policy)
    except ReproError as exc:
        return FaultRecord(
            fmt, kind, target, detected=True, recovered=False, benign=False,
            silent=False, stage="dispatch", error=str(exc),
        )
    correct = bool(
        result.y.shape == y_ref.shape
        and np.allclose(result.y, y_ref, rtol=_RTOL, atol=_ATOL)
    )
    detected = result.fault_detected
    return FaultRecord(
        fmt,
        kind,
        target,
        detected=detected,
        recovered=detected and result.fallback_used and correct,
        benign=not detected and correct,
        # The caller sees no exception on this path, so ANY wrong
        # result — detected internally or not — escaped silently.
        silent=not correct,
        stage="dispatch" if detected else "none",
        error=result.integrity_error,
    )


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
    the sealed container's plan in a private cache and flips one bit of
    one of its replay arrays. Either is then dispatched through
    :func:`repro.kernels.dispatch.run_spmv` with ``verify`` and the
    pristine CSR matrix as fallback, and the outcome is classified
    against the dense reference product.
    """
    from ..kernels.dispatch import run_spmv  # deferred: avoids an import cycle
    from ..kernels.plancache import PlanCache

    report = CampaignReport()
    rng = np.random.default_rng(seed)
    fixtures = []
    for i, fmt in enumerate(formats):
        sealed, coo = build_campaign_matrix(fmt, seed=seed + 17 * i)
        x = np.random.default_rng(seed + 101 + i).standard_normal(coo.shape[1])
        y_ref = coo.to_dense() @ x
        fallback = CSRMatrix.from_coo(coo)
        fixtures.append((fmt, sealed, x, y_ref, fallback))

    for i in range(int(n_faults)):
        fmt, sealed, x, y_ref, fallback = fixtures[i % len(fixtures)]
        policy = ExecutionPolicy(verify=verify, fallback=fallback)
        if int(rng.integers(len(fault_kinds(fmt)) + 1)) == 0:
            # The numpy executor keeps a corrupted replay in bounds (the
            # gather clips, the row scatter raises), so an unverified
            # campaign reports the fault instead of crashing in a
            # compiled loop, which trusts the indices checked at build.
            cache = PlanCache(maxsize=1)
            policy = policy.with_(plan_cache=cache, compute_backend="numpy")
            run_spmv(sealed, x, device, policy=policy)  # warm the plan
            target = flip_plan_bit(
                cache.get_or_build(sealed, device, backend="numpy"), rng)
            report.records.append(_dispatch_record(
                fmt, PLAN_FAULT_KIND, target, sealed, x, y_ref, device, policy))
            continue
        injected = inject_fault(sealed, rng)
        if injected.matrix is None:
            report.records.append(
                FaultRecord(
                    fmt,
                    injected.spec.kind,
                    injected.spec.target,
                    detected=True,
                    recovered=False,
                    benign=False,
                    silent=False,
                    stage="build",
                    error=str(injected.build_error),
                )
            )
            continue
        report.records.append(_dispatch_record(
            fmt, injected.spec.kind, injected.spec.target, injected.matrix,
            x, y_ref, device, policy))
    return report
