"""Linear operators over stored sparse formats.

:class:`FormatOperator` applies the matrix with the format's reference
``spmv``. :class:`SimulatedOperator` routes every application through a
:class:`~repro.pipeline.Session` — and therefore through the simulated GPU
kernel and the dispatch integrity boundary — accumulating the *predicted
device time*, letting solver examples report how much faster an iterative
solve would run with a BRO format — the paper's motivating use-case.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exec.policy import ExecutionPolicy
from ..formats.base import SparseFormat
from ..gpu.device import DeviceSpec
from ..pipeline import Session

__all__ = ["FormatOperator", "SimulatedOperator"]


class FormatOperator:
    """Callable ``y = A @ x`` over a stored format (host reference path)."""

    def __init__(self, matrix: SparseFormat) -> None:
        self.matrix = matrix
        self.shape = matrix.shape
        self.spmv_calls = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.spmv_calls += 1
        return self.matrix.spmv(x)


class SimulatedOperator(FormatOperator):
    """Operator that executes on the simulated GPU and tracks device time.

    A thin callable facade over a single-matrix
    :class:`~repro.pipeline.Session`: every application goes through
    :func:`~repro.kernels.dispatch.run_spmv` — the integrity boundary — so
    operator-driven solves honor the same ``verify``/``fallback``
    protections as direct dispatch, and the dispatch span shows up in
    traces. Plannable formats replay a prepared plan by default: the
    first call builds (or fetches) it from the policy's ``plan_cache``
    (the process-wide one when unset) and subsequent iterations replay
    it, which is what makes a many-iteration CG/BiCGSTAB solve fast in
    host wall-clock.
    Pass ``policy=ExecutionPolicy(engine="reference")`` to force the
    stepwise kernels, or ``devices=N`` in the policy to shard the solve
    across simulated devices (``backend="process"`` for the
    fault-tolerant worker pool).
    """

    def __init__(
        self,
        matrix: SparseFormat,
        device: DeviceSpec | str = "k20",
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        super().__init__(matrix)
        self.session = Session(device, policy=policy).use(matrix)

    @property
    def device(self) -> DeviceSpec:
        return self.session.device

    @property
    def device_time(self) -> float:
        """Accumulated predicted seconds in SpMV."""
        return self.session.device_time

    @property
    def dram_bytes(self) -> int:
        """Accumulated predicted DRAM traffic."""
        return self.session.dram_bytes

    @property
    def fallbacks_used(self) -> int:
        """Applications served by the fallback matrix."""
        return self.session.fallbacks_used

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.spmv_calls += 1
        return self.session.run(x).y
