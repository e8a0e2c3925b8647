"""Kernel interface and result record.

Kernel registration lives in the unified capability registry
(:mod:`repro.registry`); :func:`register_kernel` binds a kernel class to
its format's :class:`~repro.registry.FormatSpec`; look kernels up with
:func:`repro.registry.kernel_for` / :func:`repro.registry.kernel_formats`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Type

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..integrity.counters import IntegritySnapshot

from .. import registry as _registry
from ..errors import KernelError, ValidationError
from ..formats.base import SparseFormat
from ..gpu.counters import KernelCounters
from ..gpu.device import DeviceSpec
from ..gpu.timing import TimingBreakdown, predict
from ..telemetry import metrics as _metrics
from ..telemetry import tracer as _tracer

__all__ = [
    "SpMVResult",
    "SpMVKernel",
    "register_kernel",
]


def register_kernel(cls: Type["SpMVKernel"]) -> Type["SpMVKernel"]:
    """Class decorator binding a kernel to its format's capability record."""
    name = getattr(cls, "format_name", None)
    if not name:
        raise KernelError(f"{cls.__name__} does not define format_name")
    _registry.bind_kernel(name, cls)
    return cls


@dataclass
class SpMVResult:
    """Output of one simulated SpMV execution.

    The integrity fields are populated by the verified dispatch path
    (:func:`repro.kernels.dispatch.run_spmv` with ``verify``/``fallback``):
    ``fault_detected`` records that a typed integrity fault was caught,
    ``fallback_used`` that the result came from the reference fallback
    kernel instead of the requested format's kernel, and
    ``integrity_counters`` snapshots the per-process detection/fallback
    totals at the time the result was produced.
    """

    y: np.ndarray
    counters: KernelCounters
    device: DeviceSpec
    fault_detected: bool = False
    fallback_used: bool = False
    integrity_error: Optional[str] = None
    integrity_counters: Optional["IntegritySnapshot"] = None
    #: ``timing.time`` as the producer already knew it — a plan replay
    #: sets its per-(plan, k) memo — so :class:`~repro.pipeline.Session`
    #: accumulates device time without re-running the timing model.
    #: ``None`` when unknown.
    _time: Optional[float] = field(default=None, repr=False, compare=False)

    @property
    def timing(self) -> TimingBreakdown:
        """Predicted timing of the run (lazy; pure function of counters)."""
        return predict(self.counters, self.device)

    @property
    def gflops(self) -> float:
        """Predicted useful throughput in GFlop/s."""
        return self.timing.gflops


class SpMVKernel(ABC):
    """A simulated GPU SpMV kernel for one storage format.

    Subclasses implement :meth:`_execute`; the public :meth:`run` wraps it
    with the telemetry layer — a ``kernel.<format>`` span carrying the
    launch's :class:`KernelCounters` and timing-model attribution, plus
    per-format metric emission into the active
    :class:`~repro.telemetry.metrics.MetricsRegistry`. With telemetry
    disabled (the default), ``run`` falls straight through to
    ``_execute`` without allocating anything, so results and performance
    are identical to an uninstrumented kernel.
    """

    #: format this kernel executes (matches ``SparseFormat.format_name``).
    format_name: str = ""

    def run(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        """Execute ``y = A @ x`` on the simulated device."""
        tracer = _tracer.get_tracer()
        if tracer is None and not _metrics.collecting():
            return self._execute(matrix, x, device)

        if tracer is not None:
            with tracer.start(
                f"kernel.{self.format_name}",
                "kernel",
                {"format": self.format_name, "device": device.name},
            ) as sp:
                result = self._execute(matrix, x, device)
                sp.attach_counters(result.counters)
                try:
                    sp.attach_timing(result.timing)
                except ValidationError:  # pragma: no cover - defensive
                    pass
        else:
            result = self._execute(matrix, x, device)
        _metrics.record_kernel(self.format_name, device.name, result.counters)
        return result

    @abstractmethod
    def _execute(
        self, matrix: SparseFormat, x: np.ndarray, device: DeviceSpec
    ) -> SpMVResult:
        """Format-specific simulation; implemented by each kernel."""

    def _check(self, matrix: SparseFormat, expected_type: type) -> None:
        if not isinstance(matrix, expected_type):
            raise KernelError(
                f"{type(self).__name__} needs a {expected_type.__name__}, "
                f"got {type(matrix).__name__}"
            )
