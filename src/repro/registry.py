"""Unified format-capability registry — the single source of truth.

Every per-format capability of the library hangs off one
:class:`FormatSpec` record here: the container class and its
``from_coo`` conversion defaults, the reference simulated kernel, the
prepared-plan builder, the per-block tracer, the tuner cost profile, the
structural validator and the integrity field extractor, plus (implied by
the container) the ``.brx`` serializer. The dispatchers
(:mod:`repro.kernels.dispatch`), the plan engine, the CLI, the bench
harness and the profiler all resolve formats through this module instead
of keeping their own dicts or ``if``/``elif`` chains.

A format can declare everything at its definition site::

    @register_format(
        default_kwargs={"h": 256},
        kernel=MyKernel,
        planner=plan_my_format,
        validator=validate_my_format,
        integrity_fields=fields_my_format,
        tuner=TunerProfile(candidate=True, sweep_h=True),
    )
    class MyMatrix(SparseFormat):
        format_name = "my_format"

or — as the built-in formats do, because the kernels live in modules
that import the formats — attach capabilities later with the ``bind_*``
hooks. Both paths land on the same record; lookups are identical.
A planner is called as ``planner(matrix, device, executor)`` and builds
its plan for that concrete executor (``"numpy"``, ``"jit"``, ``"scipy"``).

This module imports only :mod:`repro.errors`, so every layer of the
library can import it without cycles. Capability providers that live in
optional layers (kernels, tracers) are imported lazily on first lookup.
"""

from __future__ import annotations

import importlib
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import FormatError, KernelError

__all__ = [
    "FormatSpec",
    "TunerProfile",
    "BlockTracer",
    "register_format",
    "unregister_format",
    "get_spec",
    "find_spec",
    "iter_specs",
    "available_formats",
    "bind_kernel",
    "bind_planner",
    "bind_validator",
    "bind_integrity_fields",
    "bind_tracer",
    "bind_tuner",
    "kernel_for",
    "kernel_formats",
    "planner_for",
    "has_planner",
    "plannable_formats",
    "validator_for",
    "integrity_fields_for",
    "tracer_for",
    "tuner_profile_for",
    "serializable_formats",
    "conversion_kwargs",
    "capability_matrix",
]


@dataclass(frozen=True)
class TunerProfile:
    """How the tuner/advisor treats a format.

    ``candidate`` puts the format in the advisor's default candidate set;
    ``sweep_h`` makes the advisor sweep the slice height ``h``;
    ``dense_family`` marks dense-padded ELL-family storage that is
    skipped outright when the matrix's max/mean row-length ratio makes
    the padded arrays absurd.
    """

    candidate: bool = True
    sweep_h: bool = False
    dense_family: bool = False


@dataclass(frozen=True)
class BlockTracer:
    """Per-block profile capability (``spmv --trace`` / ``profile``).

    ``header()`` returns the column-header line; ``rows(matrix, device)``
    returns trace records each exposing ``.row()``.
    """

    title: str
    header: Callable[[], str]
    rows: Callable[[Any, Any], List[Any]]


@dataclass
class FormatSpec:
    """One format's complete capability record."""

    name: str
    container: Optional[type] = None
    default_kwargs: Dict[str, Any] = field(default_factory=dict)
    kernel: Optional[type] = None
    planner: Optional[Callable[[Any, Any, str], Any]] = None
    validator: Optional[Callable[[Any, bool], None]] = None
    integrity_fields: Optional[Callable[[Any], Tuple[Dict[str, Any], Tuple]]] = None
    tracer: Optional[BlockTracer] = None
    tuner: Optional[TunerProfile] = None
    #: BROCodec delta policy the container's index stream runs through
    #: ("columns", "lanes", "columns+lanes"), or ``None`` for formats that
    #: store indices uncompressed.
    codec: Optional[str] = None

    # -- conversion ----------------------------------------------------
    def accepts(self, key: str) -> bool:
        """Whether ``from_coo`` takes keyword ``key`` (per the declaration)."""
        return key in self.default_kwargs

    def conversion_kwargs(self, **overrides: Any) -> Dict[str, Any]:
        """Declared defaults merged with ``overrides``.

        Raises :class:`FormatError` on keywords the format did not
        declare — the registry, not each call site, knows what a
        converter takes.
        """
        unknown = sorted(set(overrides) - set(self.default_kwargs))
        if unknown:
            raise FormatError(
                f"format {self.name!r} does not accept conversion "
                f"keyword(s) {unknown}; declared: "
                f"{sorted(self.default_kwargs)}"
            )
        merged = dict(self.default_kwargs)
        merged.update(overrides)
        return merged

    # -- capability predicates -----------------------------------------
    @property
    def has_serializer(self) -> bool:
        """Whether the container implements ``to_state``/``from_state``."""
        if self.container is None:
            return False
        fn = getattr(self.container, "to_state", None)
        return fn is not None and not getattr(fn, "__serializer_stub__", False)

    def capabilities(self) -> Dict[str, bool]:
        """Boolean capability map (the ``repro formats`` matrix row)."""
        return {
            "container": self.container is not None,
            "kernel": self.kernel is not None,
            "planner": self.planner is not None,
            "tracer": self.tracer is not None,
            "tuner": self.tuner is not None,
            "validator": self.validator is not None,
            "integrity": self.integrity_fields is not None,
            "serializer": self.has_serializer,
            "codec": self.codec is not None,
        }


# ---------------------------------------------------------------------------
# Registry state
# ---------------------------------------------------------------------------

_SPECS: Dict[str, FormatSpec] = {}
_LOCK = threading.RLock()

#: Modules that provide late-bound capabilities, imported on first miss.
_CAPABILITY_MODULES = {
    "kernel": "repro.kernels",
    "planner": "repro.kernels",
    "tracer": "repro.gpu.trace",
    "validator": "repro.integrity.validators",
    "integrity_fields": "repro.integrity.checksums",
}
_LOADED_MODULES: set = set()


def _slot(name: str) -> FormatSpec:
    """Get or create the (possibly container-less) spec for ``name``."""
    spec = _SPECS.get(name)
    if spec is None:
        spec = FormatSpec(name=name)
        _SPECS[name] = spec
    return spec


def _ensure_loaded(capability: str) -> None:
    """Import the module that late-binds ``capability`` providers."""
    module = _CAPABILITY_MODULES.get(capability)
    if module is None or module in _LOADED_MODULES:
        return
    _LOADED_MODULES.add(module)
    try:
        importlib.import_module(module)
    except ImportError:  # pragma: no cover - partial installs
        pass


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def register_format(
    cls: Optional[type] = None,
    *,
    default_kwargs: Optional[Dict[str, Any]] = None,
    kernel: Optional[type] = None,
    planner: Optional[Callable] = None,
    validator: Optional[Callable] = None,
    integrity_fields: Optional[Callable] = None,
    tracer: Optional[BlockTracer] = None,
    tuner: Optional[TunerProfile] = None,
    codec: Optional[str] = None,
):
    """Class decorator registering a format and its capabilities.

    Usable bare (``@register_format``) or with keywords declaring every
    capability at the definition site. The class must define a non-empty
    ``format_name``; registering the same name twice is an error.
    """

    def decorate(klass: type) -> type:
        name = getattr(klass, "format_name", None)
        if not name:
            raise FormatError(f"{klass.__name__} does not define format_name")
        with _LOCK:
            spec = _SPECS.get(name)
            if spec is not None and spec.container is not None:
                raise FormatError(f"format {name!r} registered twice")
            spec = _slot(name)
            spec.container = klass
            if default_kwargs:
                spec.default_kwargs = dict(default_kwargs)
            if kernel is not None:
                _bind(name, "kernel", kernel, KernelError)
            if planner is not None:
                _bind(name, "planner", planner, KernelError)
            if validator is not None:
                _bind(name, "validator", validator, FormatError)
            if integrity_fields is not None:
                _bind(name, "integrity_fields", integrity_fields, FormatError)
            if tracer is not None:
                _bind(name, "tracer", tracer, FormatError)
            if tuner is not None:
                _bind(name, "tuner", tuner, FormatError)
            if codec is not None:
                spec.codec = codec
        return klass

    if cls is not None:
        return decorate(cls)
    return decorate


def unregister_format(name: str) -> None:
    """Remove a format's record entirely (test/plugin teardown hook)."""
    with _LOCK:
        _SPECS.pop(name, None)


def _bind(name: str, capability: str, value: Any, error: type) -> None:
    with _LOCK:
        spec = _slot(name)
        if getattr(spec, capability) is not None:
            what = "kernel for format" if capability == "kernel" else (
                f"{capability.replace('_', ' ')} for format"
            )
            raise error(f"{what} {name!r} registered twice")
        setattr(spec, capability, value)


def bind_kernel(name: str, kernel_cls: type) -> None:
    """Attach a simulated-kernel class to a format name."""
    _bind(name, "kernel", kernel_cls, KernelError)


def bind_planner(name: str, builder: Callable) -> None:
    """Attach a prepared-plan builder to a format name."""
    _bind(name, "planner", builder, KernelError)


def bind_validator(name: str, validator: Callable) -> None:
    """Attach a structural validator to a format name."""
    _bind(name, "validator", validator, FormatError)


def bind_integrity_fields(name: str, extractor: Callable) -> None:
    """Attach an integrity field extractor to a format name."""
    _bind(name, "integrity_fields", extractor, FormatError)


def bind_tracer(name: str, tracer: BlockTracer) -> None:
    """Attach a per-block tracer to a format name."""
    _bind(name, "tracer", tracer, FormatError)


def bind_tuner(name: str, profile: TunerProfile) -> None:
    """Attach a tuner cost profile to a format name."""
    _bind(name, "tuner", profile, FormatError)


# ---------------------------------------------------------------------------
# Lookups
# ---------------------------------------------------------------------------


def find_spec(name: str) -> Optional[FormatSpec]:
    """The spec for ``name`` if a container is registered, else ``None``."""
    spec = _SPECS.get(name)
    if spec is None or spec.container is None:
        return None
    return spec


def get_spec(name: str) -> FormatSpec:
    """The spec for ``name``; raises :class:`FormatError` when unknown."""
    spec = find_spec(name)
    if spec is None:
        raise FormatError(
            f"unknown format {name!r}; available: {list(available_formats())}"
        )
    return spec


def iter_specs() -> Tuple[FormatSpec, ...]:
    """All container-backed specs, sorted by format name."""
    with _LOCK:
        return tuple(
            _SPECS[k] for k in sorted(_SPECS) if _SPECS[k].container is not None
        )


def available_formats() -> Tuple[str, ...]:
    """Names of all registered formats, sorted."""
    return tuple(s.name for s in iter_specs())


def kernel_for(name: str):
    """Instantiate the kernel registered for a format name."""
    spec = _SPECS.get(name)
    if spec is None or spec.kernel is None:
        _ensure_loaded("kernel")
        spec = _SPECS.get(name)
    if spec is None or spec.kernel is None:
        raise KernelError(
            f"no kernel for format {name!r}; available: {list(kernel_formats())}"
        )
    return spec.kernel()


def kernel_formats() -> Tuple[str, ...]:
    """Format names that have a simulated kernel."""
    _ensure_loaded("kernel")
    with _LOCK:
        return tuple(k for k in sorted(_SPECS) if _SPECS[k].kernel is not None)


def planner_for(name: str) -> Optional[Callable]:
    """The prepared-plan builder for a format name, or ``None``."""
    spec = _SPECS.get(name)
    if spec is None or spec.planner is None:
        _ensure_loaded("planner")
        spec = _SPECS.get(name)
    return spec.planner if spec is not None else None


def has_planner(name: str) -> bool:
    """Whether the prepared-plan engine supports the format."""
    return planner_for(name) is not None


def plannable_formats() -> Tuple[str, ...]:
    """Format names with a prepared-plan builder."""
    _ensure_loaded("planner")
    with _LOCK:
        return tuple(k for k in sorted(_SPECS) if _SPECS[k].planner is not None)


def validator_for(name: str) -> Optional[Callable]:
    """The structural validator for a format name, or ``None``."""
    spec = _SPECS.get(name)
    if spec is None or spec.validator is None:
        _ensure_loaded("validator")
        spec = _SPECS.get(name)
    return spec.validator if spec is not None else None


def integrity_fields_for(name: str) -> Optional[Callable]:
    """The integrity field extractor for a format name, or ``None``."""
    spec = _SPECS.get(name)
    if spec is None or spec.integrity_fields is None:
        _ensure_loaded("integrity_fields")
        spec = _SPECS.get(name)
    return spec.integrity_fields if spec is not None else None


def tracer_for(name: str) -> Optional[BlockTracer]:
    """The per-block tracer for a format name, or ``None``."""
    spec = _SPECS.get(name)
    if spec is None or spec.tracer is None:
        _ensure_loaded("tracer")
        spec = _SPECS.get(name)
    return spec.tracer if spec is not None else None


def tuner_profile_for(name: str) -> Optional[TunerProfile]:
    """The tuner cost profile for a format name, or ``None``."""
    spec = _SPECS.get(name)
    return spec.tuner if spec is not None else None


def serializable_formats() -> Tuple[str, ...]:
    """Format names whose containers round-trip through ``.brx`` files."""
    return tuple(s.name for s in iter_specs() if s.has_serializer)


def conversion_kwargs(name: str, **overrides: Any) -> Dict[str, Any]:
    """Registry-declared conversion defaults for ``name`` + overrides."""
    return get_spec(name).conversion_kwargs(**overrides)


def capability_matrix() -> List[Dict[str, Any]]:
    """One row per registered format with its capability flags.

    Backs the ``repro formats`` CLI subcommand; forces the lazy
    capability modules so the matrix is complete.
    """
    for capability in _CAPABILITY_MODULES:
        _ensure_loaded(capability)
    rows: List[Dict[str, Any]] = []
    for spec in iter_specs():
        row: Dict[str, Any] = {
            "format": spec.name,
            "container": spec.container.__name__ if spec.container else "",
        }
        caps = spec.capabilities()
        for key in ("kernel", "planner", "tracer", "tuner", "validator",
                    "integrity", "serializer"):
            row[key] = caps[key]
        row["codec"] = spec.codec or ""
        row["default_kwargs"] = dict(spec.default_kwargs)
        rows.append(row)
    return rows
