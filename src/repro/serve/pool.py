"""The server's matrix inventory: sealed containers + one warm PlanCache.

A :class:`MatrixPool` owns the set of matrices a server is willing to
multiply by. Every entry is a sealed container (sealing is applied on
admission when the format supports it), so the pool's shared
:class:`~repro.kernels.plancache.PlanCache` warm-starts by content
fingerprint: a matrix loaded from a ``.brx`` file hits the plan built
for its twin object, and a re-started server re-pays only the decode,
never per-request.

Entries arrive three ways and behave identically afterwards::

    pool = MatrixPool(device="k20")
    pool.add("qcd", matrix)                 # an existing container
    pool.load("web", "crawl.brx")           # a sealed .brx file (verified)
    pool.load_suite("cant", scale=0.05,     # generate + convert + seal
                    format="bro_ell", h=256)
    pool.warm()                             # build every plan up front

The pool is thread-safe: the asyncio server reads it from the event
loop while executor threads resolve plans through the shared cache, and
``repro serve`` may load matrices while requests are in flight.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import registry as _registry
from ..errors import ReproError, ServeError
from ..formats.base import SparseFormat
from ..formats.conversion import convert as _convert
from ..gpu.device import DeviceSpec, get_device
from ..integrity.checksums import is_sealed, seal as _seal
from ..kernels.plancache import PlanCache

__all__ = ["MatrixPool", "PoolEntry"]


@dataclass(frozen=True)
class PoolEntry:
    """One pooled matrix and its JSON-able description."""

    name: str
    matrix: SparseFormat

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "format": self.matrix.format_name,
            "shape": list(self.matrix.shape),
            "nnz": int(self.matrix.nnz),
            "sealed": is_sealed(self.matrix),
            "plannable": _registry.has_planner(self.matrix.format_name),
        }


class MatrixPool:
    """Named, sealed containers sharing one prepared-plan cache."""

    def __init__(
        self,
        device: Union[DeviceSpec, str] = "k20",
        *,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._entries: Dict[str, PoolEntry] = {}
        self._lock = threading.Lock()

    # -- admission ------------------------------------------------------
    def add(self, name: str, matrix: SparseFormat) -> PoolEntry:
        """Adopt an existing container under ``name`` (sealed on entry
        when the format supports integrity extraction)."""
        if not name:
            raise ServeError("pool entries need a non-empty name")
        if not is_sealed(matrix):
            try:
                _seal(matrix)
            except ReproError:
                pass  # format without an integrity extractor: pool unsealed
        entry = PoolEntry(name=name, matrix=matrix)
        with self._lock:
            if name in self._entries:
                raise ServeError(
                    f"pool already holds a matrix named {name!r}; "
                    f"remove() it first to replace"
                )
            self._entries[name] = entry
        return entry

    def load(self, name: str, path: Union[str, os.PathLike]) -> PoolEntry:
        """Load a sealed ``.brx`` container, memory-mapped (seal verified
        on load)."""
        from ..serialize import load_container

        return self.add(name, load_container(path))

    def load_suite(
        self,
        name: str,
        *,
        scale: float = 0.05,
        format: str = "bro_ell",
        seed: Optional[int] = None,
        **convert_kwargs: Any,
    ) -> PoolEntry:
        """Generate a Table 2 matrix, convert it and pool it sealed."""
        from ..matrices.suite import generate

        coo = generate(name, scale=scale, seed=seed)
        return self.add(name, _convert(coo, format, **convert_kwargs))

    def remove(self, name: str) -> None:
        """Drop an entry (its cached plans are invalidated)."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise ServeError(f"pool holds no matrix named {name!r}")
        self.plan_cache.invalidate(entry.matrix)

    # -- lookup ---------------------------------------------------------
    def get(self, name: str) -> SparseFormat:
        """The container registered under ``name`` (typed error if absent)."""
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ServeError(
                f"unknown matrix {name!r}; pooled: "
                f"{', '.join(self.names()) or '(empty)'}"
            )
        return entry.matrix

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- warm-up --------------------------------------------------------
    def warm(self) -> int:
        """Build the ``"auto"`` plan of every plannable entry now (what
        the default server policy replays); returns how many plans were
        ensured. Idempotent: warm plans are cache hits."""
        warmed = 0
        for entry in self.entries():
            if _registry.has_planner(entry.matrix.format_name):
                self.plan_cache.get_or_build(entry.matrix, self.device)
                warmed += 1
        return warmed

    def entries(self) -> List[PoolEntry]:
        with self._lock:
            return [self._entries[k] for k in sorted(self._entries)]

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-able inventory (the ``list`` op's payload)."""
        return [e.describe() for e in self.entries()]
