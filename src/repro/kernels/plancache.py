"""Bounded LRU cache of prepared SpMV plans, keyed by container identity.

A plan is valid only for the exact bytes it decoded, so cache entries are
keyed by ``(id(matrix), format_name, device, backend)`` and guarded by the
integrity layer's CRC32 fingerprint: each entry remembers the header
token the container carried when its plan was built, and a lookup whose
current token differs — the container was re-sealed after mutation —
invalidates the stale plan and rebuilds. Entries hold a strong reference
to their matrix, so a cached ``id`` can never be recycled to a different
object while the entry lives.

Sealed containers also participate in a **content index**: the
fingerprint token doubles as a content address, so a *different* object
with the same sealed bytes — typically a container just loaded from a
``.brx`` file (:mod:`repro.serialize`) — warm-hits the cache instead of
rebuilding the plan. Content hits count as ``hits`` (plus a separate
``content_hits`` stat) and alias the plan under the new object's
identity key, so subsequent lookups are ordinary identity hits.

The index files a plan under the CRC of the bytes it was built from
(one pass per build), never under the header its container carries, so
a corrupted copy still wearing its twin's seal cannot poison the twin.

Validation levels per lookup:

* ``"none"`` — trust the key; no fingerprint comparison.
* ``"header"`` (default) — compare the *attached* header token; catches
  every mutate-then-reseal cycle at the cost of one attribute read.
* ``"full"`` — recompute the CRC32 header from the current array bytes
  and compare; also catches silent (unsealed) mutation, at O(bytes) cost.

Unsealed containers cache fine (token ``None``) but then only ``"full"``
can detect mutation — seal containers you intend to mutate.

Container verification (the ``verify`` argument, an
``ExecutionPolicy.verify`` level) runs when the cache reads a container:
before :func:`~repro.kernels.plan.prepare` on a miss or an invalidation,
and before a content hit is aliased to a new object, whose bytes were
never checked. Each entry records the strongest level its container
passed; a lookup asking for a stronger one runs the check once and
upgrades the record. Dropping an entry drops its record, so a rebuild
always re-verifies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple, Union

from ..formats.base import SparseFormat
from ..gpu.device import DeviceSpec, get_device
from ..integrity.checksums import IntegrityHeader, compute_header, get_header
from ..integrity.validators import verify_container, verify_rank
from ..telemetry import metrics as _metrics
from . import backends as _backends
from .plan import SpMVPlan, prepare

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.policy import ExecutionPolicy

__all__ = ["PlanCache", "PLAN_CACHE", "cache_for", "fingerprint_token"]

#: (id(matrix), format_name, device_name, executor backend). The backend
#: is part of the key so a plan built for one executor is never served to
#: another — they replay with different machinery (and a scipy plan
#: stores its lanes row-major) even though their results are bit-identical.
_Key = Tuple[int, str, str, str]
_Token = Optional[Tuple[str, int, Tuple[Tuple[str, int], ...]]]


class _Entry(NamedTuple):
    plan: SpMVPlan
    token: _Token  #: fingerprint the container carried at build
    anchor: SparseFormat  #: keeps id(key) alive
    verified: object  #: strongest verify level the container passed


def fingerprint_token(header: Optional[IntegrityHeader]) -> _Token:
    """Hashable identity token of an integrity header (``None`` if unsealed).

    Headers are immutable values, so the token is built once per header
    and kept on it: every warm lookup asks for it, and sorting the field
    CRCs (one per slice stream for BRO formats) dominated a cache hit.
    """
    if header is None:
        return None
    token = header.__dict__.get("_token")
    if token is None:
        token = (
            header.format_name,
            header.meta_crc,
            tuple(sorted(header.field_crcs.items())),
        )
        object.__setattr__(header, "_token", token)
    return token


class PlanCache:
    """Thread-safe bounded LRU cache of :class:`SpMVPlan` objects."""

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[_Key, _Entry]" = OrderedDict()
        #: content index: fingerprint + device + backend -> newest identity key
        self._by_token: Dict[Tuple[_Token, str, str], _Key] = {}
        self._lock = threading.Lock()
        #: single-flight latches: key -> Event set when its build finishes
        self._building: Dict[_Key, threading.Event] = {}
        self._stats = {
            "hits": 0,
            "misses": 0,
            "builds": 0,
            "evictions": 0,
            "invalidations": 0,
            "content_hits": 0,
            "single_flight_waits": 0,
            "container_checks": 0,
        }

    # -- internal -------------------------------------------------------
    @staticmethod
    def _key(matrix: SparseFormat, device: DeviceSpec, backend: str) -> _Key:
        return (id(matrix), matrix.format_name, device.name, backend)

    def _current_token(self, matrix: SparseFormat, validate: str) -> _Token:
        if validate == "full":
            return fingerprint_token(compute_header(matrix))
        return fingerprint_token(get_header(matrix))

    def _bump(self, event: str, count: int = 1) -> None:
        self._stats[event] += count
        _metrics.record_plan_cache(event, count)

    def _insert(self, key: _Key, entry: _Entry, content: _Token) -> None:
        """Insert/refresh an entry, index its ``content`` token, enforce the bound."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if content is not None:
            self._by_token[(content, key[2], key[3])] = key
        while len(self._entries) > self.maxsize:
            old_key, _ = self._entries.popitem(last=False)
            self._unindex(old_key)
            self._bump("evictions")

    def _remove(self, key: _Key) -> None:
        del self._entries[key]
        self._unindex(key)

    def _unindex(self, key: _Key) -> None:
        """Drop content-index pointers at ``key`` (if still pointing there)."""
        for tkey, k in list(self._by_token.items()):
            if k == key:
                del self._by_token[tkey]

    def _content_lookup(
        self, token: _Token, device_name: str, backend: str
    ) -> Optional[_Entry]:
        if token is None:
            return None
        key = self._by_token.get((token, device_name, backend))
        if key is None:
            return None
        return self._entries.get(key)

    def _verify(self, matrix: SparseFormat, verify: object) -> None:
        """Run the container check of ``verify`` (outside the lock)."""
        if verify is False:
            return
        with self._lock:
            self._bump("container_checks")
        verify_container(matrix, verify)

    # -- public API -----------------------------------------------------
    def get_or_build(
        self,
        matrix: SparseFormat,
        device: Union[DeviceSpec, str] = "k20",
        *,
        validate: str = "header",
        backend: str = "auto",
        verify: object = False,
    ) -> SpMVPlan:
        """Return a cached plan for ``(matrix, device)``, building on miss.

        ``validate`` selects the staleness check (see module docstring).
        ``backend`` is a ``compute_backend`` request (``"auto"`` or
        ``"numpy"``), resolved to a concrete executor backend *once*
        here and keyed by that executor, so ``"numpy"`` and an ``"auto"``
        that resolves to ``"numpy"`` share an entry. An identity miss with a sealed container
        falls through to the content index before building: equal
        fingerprints mean equal bytes, so a plan built for a twin object
        replays bit-identically. ``verify`` is the level the container
        must have passed (see module docstring); a failed check raises
        its typed error and caches nothing.
        """
        if validate not in ("none", "header", "full"):
            raise ValueError(f"unknown validate level {validate!r}")
        if isinstance(device, str):
            device = get_device(device)
        resolved = _backends.resolve_backend(backend)
        key = self._key(matrix, device, resolved)
        rank = verify_rank(verify)

        while True:
            token: _Token = None
            latch: Optional[threading.Event] = None
            found: Optional[_Entry] = None
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    if validate != "none":
                        token = self._current_token(matrix, validate)
                    if validate == "none" or entry.token == token:
                        self._entries.move_to_end(key)
                        self._bump("hits")
                        if verify_rank(entry.verified) >= rank:
                            return entry.plan
                        found = entry
                    else:
                        # Fingerprint changed under us: the container was
                        # mutated (and re-sealed, for "header"); the plan
                        # is stale.
                        self._remove(key)
                        self._bump("invalidations")
                else:
                    if validate != "none":
                        token = self._current_token(matrix, validate)
                    found = self._content_lookup(token, device.name, resolved)
                if found is None:
                    # Miss. Single-flight: the first caller claims the
                    # build latch; everyone else waits on it and
                    # re-resolves.
                    latch = self._building.get(key)
                    if latch is None:
                        self._building[key] = threading.Event()
                        self._bump("misses")
                    else:
                        self._bump("single_flight_waits")
            if found is not None:
                # A hit whose container has not passed this level yet,
                # or a twin's plan for an object whose bytes were never
                # checked: verify this object, then record the level.
                self._verify(matrix, verify)
                with self._lock:
                    if entry is None:
                        # Same sealed bytes under a different object
                        # identity (e.g. freshly deserialized): alias the
                        # plan under this object's key so the next lookup
                        # is an identity hit, and anchor the new matrix
                        # so its id stays live.
                        self._insert(
                            key, _Entry(found.plan, token, matrix, verify), token
                        )
                        self._bump("hits")
                        self._bump("content_hits")
                    elif self._entries.get(key) is entry:
                        self._entries[key] = entry._replace(verified=verify)
                return found.plan
            if latch is not None:
                # Another thread is building this exact key. Wait for it,
                # then loop: the re-lookup is an ordinary hit, or — if
                # the builder failed — this thread claims the latch and
                # becomes the next builder.
                latch.wait()
                continue
            break

        # Build outside the lock — builds are the expensive part and must
        # not serialize unrelated lookups. The latch guarantees exactly
        # one build per key: concurrent same-key callers block above
        # until this build lands (or fails, releasing the claim).
        try:
            self._verify(matrix, verify)
            # Index under the bytes' own token: a mutated copy may still
            # carry its pristine twin's header.
            sealed = get_header(matrix) is not None
            content = token if validate == "full" else (
                fingerprint_token(compute_header(matrix)) if sealed else None)
            plan = prepare(matrix, device, backend=resolved)
            with self._lock:
                self._bump("builds")
                self._insert(key, _Entry(plan, token, matrix, verify), content)
        finally:
            with self._lock:
                done = self._building.pop(key, None)
            if done is not None:
                done.set()
        return plan

    def discard(self, plan: SpMVPlan) -> int:
        """Drop every entry serving ``plan`` (its own and its aliases);
        return count. Used when the plan's arrays fail their checksum."""
        with self._lock:
            doomed = [k for k, e in self._entries.items() if e.plan is plan]
            for k in doomed:
                self._remove(k)
            if doomed:
                self._bump("invalidations", len(doomed))
        return len(doomed)

    def invalidate(self, matrix: SparseFormat) -> int:
        """Drop every cached plan for ``matrix`` (all devices); return count."""
        mid = id(matrix)
        with self._lock:
            doomed = [k for k in self._entries if k[0] == mid]
            for k in doomed:
                self._remove(k)
            if doomed:
                self._bump("invalidations", len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry and reset the LRU order (stats are kept)."""
        with self._lock:
            self._entries.clear()
            self._by_token.clear()

    def stats(self) -> Dict[str, int]:
        """Copy of the lifetime hit/miss/build/eviction/invalidation counts."""
        with self._lock:
            return dict(self._stats)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, matrix: object) -> bool:
        if not isinstance(matrix, SparseFormat):
            return False
        mid = id(matrix)
        with self._lock:
            return any(k[0] == mid for k in self._entries)


#: Process-wide default cache: ``run_spmv``/``run_spmm`` (and so
#: ``Session``, ``SimulatedOperator`` and the shard workers) build and
#: reuse plans here whenever the policy names no ``plan_cache``.
PLAN_CACHE = PlanCache()


def cache_for(policy: "ExecutionPolicy") -> PlanCache:
    """The cache a policy's plans come from: its own, else :data:`PLAN_CACHE`."""
    return policy.plan_cache if policy.plan_cache is not None else PLAN_CACHE
