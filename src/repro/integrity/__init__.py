"""End-to-end integrity layer: checksums, validators, faults, campaigns.

The BRO formats trade redundancy for bandwidth, so a single flipped bit in
a packed column-delta stream silently corrupts every subsequent index of
that row slice. This package closes that hole end to end:

* :mod:`~repro.integrity.checksums` — CRC32 headers over every device
  array of a container (:func:`seal` / :func:`verify_integrity`);
* :mod:`~repro.integrity.validators` — fast structural validators that
  need no prior seal (:func:`validate_structure`);
* :mod:`~repro.integrity.faults` — deterministic fault injectors for
  packed streams, widths, metadata, values and on-disk archives;
* :mod:`~repro.integrity.campaign` — the one trial classifier and report
  behind both seeded fault campaigns (``repro verify --faults`` and
  ``repro chaos``), proving the *zero silent corruption* contract;
* :mod:`~repro.integrity.counters` — per-process detection/fallback
  counters surfaced on every verified :class:`~repro.kernels.base.SpMVResult`.
"""

from .campaign import (
    DEFAULT_FORMATS,
    CampaignReport,
    Trial,
    build_campaign_matrix,
    run_campaign,
)
from .checksums import (
    IntegrityHeader,
    array_crc,
    compute_header,
    get_header,
    is_sealed,
    seal,
    verify_integrity,
)
from .counters import COUNTERS, IntegrityCounters, IntegritySnapshot
from .faults import (
    ARCHIVE_FAULT_KINDS,
    PLAN_FAULT_KIND,
    FaultSpec,
    InjectedFault,
    corrupt_archive,
    fault_kinds,
    flip_plan_bit,
    inject_fault,
)
from .validators import structural_validators, validate_structure, verify_container

__all__ = [
    # checksums
    "array_crc",
    "IntegrityHeader",
    "compute_header",
    "seal",
    "is_sealed",
    "get_header",
    "verify_integrity",
    # validators
    "validate_structure",
    "structural_validators",
    "verify_container",
    # counters
    "COUNTERS",
    "IntegrityCounters",
    "IntegritySnapshot",
    # faults
    "FaultSpec",
    "InjectedFault",
    "fault_kinds",
    "flip_plan_bit",
    "inject_fault",
    "corrupt_archive",
    "ARCHIVE_FAULT_KINDS",
    "PLAN_FAULT_KIND",
    # campaign
    "Trial",
    "CampaignReport",
    "build_campaign_matrix",
    "run_campaign",
    "DEFAULT_FORMATS",
]
