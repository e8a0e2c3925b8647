"""The end-to-end pipeline session: one object, the whole paper dataflow.

The library's steps — generate/load a matrix, reorder its rows (§3.4),
convert it into a registered format, seal it, persist it as a ``.brx``
container, prepare an execution plan and run SpMV/SpMM — were previously
wired together ad hoc by every caller (CLI subcommands, the benchmark
harness, the solver operators). :class:`Session` is the one place that
wiring lives now.

A session is a small state machine over ``(source COO, current container,
device, plan cache)`` with chainable steps::

    from repro.pipeline import Session

    y = (
        Session(device="k20")
        .load("qcd", scale=0.05)
        .reorder("bar")
        .convert("bro_ell", h=64)
        .seal()
        .prepare()
        .run(x)
        .y
    )

Persistence round-trips through the same object::

    Session(...).load("qcd").convert("bro_ell").seal().save("qcd.brx")
    sess = Session.open("qcd.brx")      # seal intact, plan cache warm-keyed

Every step resolves capabilities through :mod:`repro.registry` — which
formats convert with which keywords, which have plan builders, which
serialize — so a format registered in one place works through the whole
pipeline with no session changes. Execution goes through
:func:`repro.kernels.dispatch.run_spmv` / ``run_spmm``, the integrity
boundary, so sessions honor ``verify`` levels and graceful fallback
exactly like direct dispatch.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from . import registry as _registry
from .errors import ReproError, ValidationError
from .exec.policy import ExecutionPolicy
from .formats.base import SparseFormat
from .formats.conversion import convert as _convert
from .formats.coo import COOMatrix
from .gpu.device import DeviceSpec, get_device
from .integrity.checksums import get_header, is_sealed, seal as _seal
from .kernels.base import SpMVResult
from .kernels.dispatch import run_spmm, run_spmv
from .kernels.plan import SpMVPlan
from .kernels.plancache import PlanCache, cache_for

__all__ = ["Session"]

#: Reordering methods a session can apply, resolved lazily so importing
#: the pipeline does not pull in every permutation algorithm.
_REORDERINGS = ("bar", "rcm", "amd", "rowsort", "identity")


def _permutation_fn(method: str) -> Callable[..., np.ndarray]:
    from . import reorder

    table: Dict[str, Callable[..., np.ndarray]] = {
        "bar": reorder.bar_permutation,
        "rcm": reorder.rcm_permutation,
        "amd": reorder.amd_permutation,
        "rowsort": reorder.rowsort_permutation,
        "identity": lambda coo, **kw: reorder.identity_permutation(coo.shape[0]),
    }
    if method not in table:
        raise ValidationError(
            f"unknown reordering {method!r}; choose from {_REORDERINGS}"
        )
    return table[method]


class Session:
    """A fluent pipeline over one matrix: load → reorder → convert → seal
    → save/open → prepare → execute.

    Parameters
    ----------
    device:
        Simulated device to execute on (spec or registry key).
    policy:
        The session's default :class:`~repro.exec.policy.ExecutionPolicy`
        — verification level, fallback container, engine selector, plan
        cache and multi-device sharding, exactly as accepted by
        :func:`~repro.kernels.dispatch.run_spmv`. Without an explicit
        plan cache, plans come from the process-wide
        :data:`~repro.kernels.plancache.PLAN_CACHE`.

    Mutating steps return ``self`` so pipelines chain; execution steps
    return the :class:`~repro.kernels.base.SpMVResult`. The session
    accumulates ``spmv_calls``, ``device_time``, ``dram_bytes`` and
    ``fallbacks_used`` across executions.
    """

    def __init__(
        self,
        device: DeviceSpec | str = "k20",
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.policy = policy if policy is not None else ExecutionPolicy()
        self._source: Optional[COOMatrix] = None
        self._matrix: Optional[SparseFormat] = None
        self._permutation: Optional[np.ndarray] = None
        self.last_result: Optional[SpMVResult] = None
        self.spmv_calls = 0
        self.device_time = 0.0  #: accumulated predicted seconds in SpMV
        self.dram_bytes = 0  #: accumulated predicted DRAM traffic
        self.fallbacks_used = 0  #: executions served by the fallback matrix
        self._tuner = None  #: OnlineTuner attached by autotune(), if any

    @property
    def plan_cache(self) -> Optional[PlanCache]:
        """The cache this session's plans come from: the policy's, else
        the process-wide one (``None`` on the reference engine)."""
        if self.policy.engine == "reference":
            return None
        return cache_for(self.policy)

    # -- state ----------------------------------------------------------
    @property
    def matrix(self) -> SparseFormat:
        """The current container (raises until a matrix is loaded)."""
        if self._matrix is None:
            raise ReproError(
                "session holds no matrix yet; call load()/use()/Session.open()"
            )
        return self._matrix

    @property
    def source(self) -> COOMatrix:
        """The COO the pipeline started from (derived lazily if opened)."""
        if self._source is None:
            self._source = self.matrix.to_coo()
        return self._source

    @property
    def format_name(self) -> str:
        return self.matrix.format_name

    @property
    def permutation(self) -> Optional[np.ndarray]:
        """The row permutation applied by :meth:`reorder`, if any."""
        return self._permutation

    @property
    def sealed(self) -> bool:
        return self._matrix is not None and is_sealed(self._matrix)

    @property
    def fingerprint(self):
        """Sealed content address (``None`` unsealed) — the plan-cache key."""
        from .serialize import content_fingerprint

        return content_fingerprint(self.matrix)

    # -- ingestion ------------------------------------------------------
    def load(
        self,
        spec: Union[str, os.PathLike],
        *,
        scale: float = 1.0,
        seed: Optional[int] = None,
    ) -> "Session":
        """Load a matrix by Table 2 name, ``.mtx`` path or ``.brx`` path."""
        text = os.fspath(spec)
        from .matrices.io import read_matrix_market
        from .matrices.suite import TABLE2, generate

        if text in TABLE2:
            coo = generate(text, scale=scale, seed=seed)
        elif text.endswith(".brx"):
            return self.open_into(text)
        elif text.endswith(".mtx"):
            coo = read_matrix_market(text)
        else:
            raise ReproError(
                f"{text!r} is neither a Table 2 matrix name nor a "
                f".mtx/.brx path; known names: {', '.join(sorted(TABLE2))}"
            )
        return self.use(coo)

    def use(self, matrix: SparseFormat) -> "Session":
        """Adopt an existing container as the session's matrix."""
        self._matrix = matrix
        self._source = matrix if isinstance(matrix, COOMatrix) else None
        self._permutation = None
        return self

    # -- transforms -----------------------------------------------------
    def reorder(self, method: str = "bar", **kwargs: Any) -> "Session":
        """Permute the rows of the *source* matrix (paper §3.4).

        Must run before :meth:`convert`; the computed permutation stays
        available as :attr:`permutation` so callers can un-permute
        products (``y_original[perm[i]] == y_reordered[i]``).
        """
        from .reorder import apply_reordering

        if self._matrix is not None and not isinstance(self._matrix, COOMatrix):
            raise ReproError(
                "reorder() permutes the source COO; call it before convert()"
            )
        perm = _permutation_fn(method)(self.source, **kwargs)
        self._source = apply_reordering(self.source, perm)
        self._matrix = self._source
        self._permutation = perm
        return self

    def convert(self, target: str, **kwargs: Any) -> "Session":
        """Convert the current matrix to a registered format.

        Keywords override the format's registry-declared conversion
        defaults; unknown ones raise ``FormatError`` naming the valid set.
        """
        self._matrix = _convert(self.matrix, target, **kwargs)
        return self

    def seal(self) -> "Session":
        """Attach the CRC32 integrity header to the current container."""
        _seal(self.matrix)
        return self

    def with_fallback(self, target: str = "csr", **kwargs: Any) -> "Session":
        """Build a trusted fallback container from the session's source."""
        self.policy = self.policy.with_(
            fallback=_convert(self.source, target, **kwargs)
        )
        return self

    # -- persistence ----------------------------------------------------
    def save(self, path: Union[str, os.PathLike]) -> "Session":
        """Write the current container to a versioned ``.brx`` file."""
        from .serialize import save_container

        save_container(self.matrix, path)
        return self

    def open_into(self, path: Union[str, os.PathLike]) -> "Session":
        """Load a ``.brx`` container into *this* session: memory-mapped,
        its stored seal verified against the loaded bytes."""
        from .serialize import load_container

        return self.use(load_container(path))

    @classmethod
    def open(
        cls,
        path: Union[str, os.PathLike],
        device: DeviceSpec | str = "k20",
        **kwargs: Any,
    ) -> "Session":
        """Open a saved ``.brx`` container as a fresh session.

        The stored integrity seal is verified and reattached, so a sealed
        container's first :meth:`prepare` is a content hit in the plan
        cache when the original object's plan is still resident.
        """
        return cls(device, **kwargs).open_into(path)

    # -- execution ------------------------------------------------------
    def prepare(self) -> "Session":
        """Warm the plan cache for the current container (no-op when the
        format has no plan builder or the session runs the reference
        engine)."""
        if self.plan_cache is not None and _registry.has_planner(
            self.matrix.format_name
        ):
            self.plan_cache.get_or_build(
                self.matrix, self.device,
                backend=self.policy.compute_backend,
            )
        return self

    def plan(self) -> Optional[SpMVPlan]:
        """The cached plan for the current container, building if needed."""
        if self.plan_cache is None or not _registry.has_planner(
            self.matrix.format_name
        ):
            return None
        return self.plan_cache.get_or_build(
            self.matrix, self.device, backend=self.policy.compute_backend
        )

    def autotune(self, config=None) -> "Session":
        """Attach an online autotuner (:mod:`repro.tuner.online`).

        Every subsequent :meth:`run` call feeds the
        tuner; after each ``config.interval`` calls it re-scores the
        advisor's candidate grid against the measured throughput and
        re-plans this session in place when the predicted win clears the
        hysteresis threshold. Calling again replaces the tuner (fresh
        window and retune budget); ``detach_tuner()`` removes it.
        """
        from .tuner.online import OnlineTuner, RetuneConfig

        if config is None:
            config = RetuneConfig()
        self._tuner = OnlineTuner(self, config)
        return self

    def detach_tuner(self) -> "Session":
        """Remove the online autotuner (results stop being observed)."""
        self._tuner = None
        return self

    @property
    def tuner(self):
        """The attached :class:`~repro.tuner.online.OnlineTuner`, if any."""
        return self._tuner

    def _record(self, result: SpMVResult) -> SpMVResult:
        self.spmv_calls += 1
        if result.fallback_used:
            self.fallbacks_used += 1
        t = result._time
        self.device_time += t if t is not None else result.timing.time
        self.dram_bytes += result.counters.dram_bytes
        self.last_result = result
        if self._tuner is not None:
            self._tuner.observe(result)
        return result

    def _call_policy(self, policy: Optional[ExecutionPolicy]) -> ExecutionPolicy:
        """The effective policy of one run call: ``policy=`` replaces the
        session default outright, except that a missing plan cache
        inherits the session's."""
        if policy is None:
            return self.policy
        if policy.plan_cache is None:
            policy = policy.with_(plan_cache=self.policy.plan_cache)
        return policy

    def run(
        self,
        x: np.ndarray,
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> SpMVResult:
        """Execute ``y = A @ x`` — the one entry point for both shapes.

        A 1-D ``x`` runs a single SpMV; a 2-D ``(n, k)`` block runs one
        multi-RHS SpMM whose column ``j`` is bit-identical to the
        single-vector run of ``x[:, j]``. Both shapes return the same
        typed :class:`~repro.kernels.base.SpMVResult` and hit the same
        dispatch/integrity boundary, so ``policy=`` behaves identically.
        """
        x = np.asarray(x)
        if x.ndim == 1:
            runner = run_spmv
        elif x.ndim == 2:
            runner = run_spmm
        else:
            raise ValidationError(
                f"Session.run takes a 1-D vector or a (n, k) batch, "
                f"got ndim={x.ndim}"
            )
        return self._record(
            runner(
                self.matrix, x, self.device,
                policy=self._call_policy(policy),
            )
        )

    # -- introspection --------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """A JSON-able snapshot of the session's state and counters."""
        spec = (
            _registry.get_spec(self._matrix.format_name)
            if self._matrix is not None
            else None
        )
        header = get_header(self._matrix) if self._matrix is not None else None
        return {
            "format": spec.name if spec else None,
            "shape": list(self._matrix.shape) if self._matrix is not None else None,
            "nnz": int(self._matrix.nnz) if self._matrix is not None else None,
            "device": self.device.name,
            "engine": self.policy.engine,
            "compute_backend": self.policy.compute_backend,
            "devices": self.policy.devices,
            "sealed": header is not None,
            "reordered": self._permutation is not None,
            "plannable": bool(spec and _registry.has_planner(spec.name)),
            "serializable": bool(spec and spec.has_serializer),
            "spmv_calls": self.spmv_calls,
            "device_time": self.device_time,
            "dram_bytes": int(self.dram_bytes),
            "fallbacks_used": self.fallbacks_used,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            f"{self._matrix.format_name} {self._matrix.shape}"
            if self._matrix is not None
            else "empty"
        )
        return f"Session({state}, device={self.device.name!r})"
