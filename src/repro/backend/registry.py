"""Backend registry: discovery, lazy construction, and name resolution.

The registry is the single source of truth for which array libraries the
checker stack can run on.  Two backends ship in-tree — the always-present
NumPy reference plus a Torch adapter that constructs lazily and is reported
*unavailable* (not an error) when PyTorch is missing — and out-of-tree code
(tests, downstream users) can :func:`register_backend` additional ones.

Naming rules consumed across the stack:

* ``KNOWN_ARRAY_BACKENDS`` is what CLIs and configs derive their choice lists
  from — never hard-code backend name strings elsewhere;
* :func:`available_array_backends` narrows that to backends whose library is
  importable on this machine (checked via ``importlib.util.find_spec``, so no
  heavyweight import happens just to render ``--help``);
* :func:`get_backend` resolves a name to a cached backend instance.
  ``"auto"`` picks an available *device* backend (Torch, only when it can
  actually reach a CUDA device) and falls back to NumPy, so on a NumPy-only
  host ``get_backend("auto")`` **is** the NumPy backend;
* unknown names raise :class:`ValueError` and known-but-uninstalled names
  raise :class:`~repro.backend.base.BackendUnavailable`, both spelling out
  what is known vs. what is installed.
"""

from __future__ import annotations

import importlib.util
import threading
from typing import Callable, Dict, Optional, Tuple

from repro.backend.base import ArrayBackend, BackendUnavailable

__all__ = [
    "KNOWN_ARRAY_BACKENDS",
    "known_array_backends",
    "register_backend",
    "unregister_backend",
    "available_array_backends",
    "backend_available",
    "resolve_backend_name",
    "get_backend",
]


def _numpy_factory() -> ArrayBackend:
    from repro.backend.numpy_backend import NumpyBackend

    return NumpyBackend()


def _torch_factory() -> ArrayBackend:
    from repro.backend.torch_backend import TorchBackend

    return TorchBackend()


#: name -> (factory, module probed for availability; None = always available)
_FACTORIES: Dict[str, Tuple[Callable[[], ArrayBackend], Optional[str]]] = {
    "numpy": (_numpy_factory, None),
    "torch": (_torch_factory, "torch"),
}
_INSTANCES: Dict[str, ArrayBackend] = {}
#: Names whose factory raised BackendUnavailable (e.g. a library that is
#: installed but cannot initialise here).  Availability reporting
#: downgrades these so a name is never listed as installed after it has
#: demonstrably failed to construct.
_CONSTRUCTION_FAILED: Dict[str, str] = {}
_LOCK = threading.Lock()

#: The in-tree backends, in "auto" preference order after NumPy.  This tuple
#: is intentionally *static* (CLI choice lists, cost models and docs key off
#: it); the live registry — built-ins plus anything added via
#: :func:`register_backend` — is :func:`known_array_backends`.
KNOWN_ARRAY_BACKENDS: Tuple[str, ...] = ("numpy", "torch")


def known_array_backends() -> Tuple[str, ...]:
    """Every backend name the registry can currently build (built-ins first,
    then registration order)."""
    with _LOCK:
        return tuple(_FACTORIES)


def backend_module(name: str) -> Optional[str]:
    """The optional-library module a backend depends on (``None`` = none)."""
    entry = _FACTORIES.get(name)
    return None if entry is None else entry[1]


def _invalidate_dispatch_cache() -> None:
    # Local import: dispatch imports this module, so the dependency must stay
    # one-way at import time.
    from repro.backend.dispatch import clear_dispatch_cache

    clear_dispatch_cache()


def register_backend(
    name: str, factory: Callable[[], ArrayBackend], module: Optional[str] = None
) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``module`` names the import the backend depends on; ``None`` marks it
    always-available.  Replacing an existing name drops its cached instance
    and the type-dispatch cache, so ``backend_of`` cannot keep handing out
    the replaced instance.
    """
    with _LOCK:
        _FACTORIES[name] = (factory, module)
        _INSTANCES.pop(name, None)
        _CONSTRUCTION_FAILED.pop(name, None)
    _invalidate_dispatch_cache()


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for test cleanup)."""
    if name in KNOWN_ARRAY_BACKENDS:
        raise ValueError(f"the in-tree backend {name!r} cannot be unregistered")
    with _LOCK:
        _FACTORIES.pop(name, None)
        _INSTANCES.pop(name, None)
        _CONSTRUCTION_FAILED.pop(name, None)
    _invalidate_dispatch_cache()


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and its library is importable.

    Importability is checked with ``find_spec`` (cheap, no import), which is
    necessary but not always sufficient: a factory may still raise
    :class:`BackendUnavailable` at construction.  A name whose factory has
    already failed that way is reported unavailable from then on, so lists
    self-correct after the first attempt.
    """
    entry = _FACTORIES.get(name)
    if entry is None:
        return False
    with _LOCK:
        if name in _CONSTRUCTION_FAILED:
            return False
    _factory, module = entry
    if module is None:
        return True
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic import state
        return False


def available_array_backends() -> Tuple[str, ...]:
    """Registered backends whose library is importable on this machine."""
    return tuple(name for name in known_array_backends() if backend_available(name))


def _unknown_name_error(name: str) -> ValueError:
    return ValueError(
        f"unknown array backend {name!r}; known backends: "
        f"{', '.join(known_array_backends())} (plus 'auto'); installed here: "
        f"{', '.join(available_array_backends())}"
    )


def resolve_backend_name(name: str) -> str:
    """Canonicalise a backend name without constructing the backend.

    ``"auto"`` resolves to the name :func:`get_backend` would pick.  Raises
    :class:`ValueError` for unknown names and
    :class:`~repro.backend.base.BackendUnavailable` for known names whose
    library is missing — both listing known vs. installed backends.
    """
    if name == "auto":
        return _auto_backend_name()
    if name not in _FACTORIES:
        raise _unknown_name_error(name)
    if not backend_available(name):
        raise BackendUnavailable(
            f"array backend {name!r} is known but its library is not installed; "
            f"installed backends: {', '.join(available_array_backends())}"
        )
    return name


def _device_backend_usable(name: str) -> bool:
    """Whether a device backend can actually reach a device (for ``auto``)."""
    if not backend_available(name):
        return False
    try:
        backend = get_backend(name)
    except BackendUnavailable:  # pragma: no cover - lost a race with uninstall
        return False
    return backend.device_kind != "cpu"


def _auto_backend_name() -> str:
    for name in known_array_backends():
        if name == "numpy":
            continue
        if _device_backend_usable(name):  # pragma: no cover - needs a GPU
            return name
    return "numpy"


def get_backend(name: str = "auto") -> ArrayBackend:
    """Resolve ``name`` to a (cached, shared) :class:`ArrayBackend` instance.

    ``"auto"`` prefers an importable device backend with a reachable GPU and
    otherwise returns the NumPy reference — with only NumPy installed,
    ``get_backend("auto") is get_backend("numpy")``.
    """
    if name == "auto":
        name = _auto_backend_name()
    entry = _FACTORIES.get(name)
    if entry is None:
        raise _unknown_name_error(name)
    with _LOCK:
        instance = _INSTANCES.get(name)
        if instance is None:
            factory, _module = entry
            try:
                instance = factory()
            except BackendUnavailable as exc:
                # Remember the failure so availability reporting stops
                # listing a backend that cannot actually construct here.
                _CONSTRUCTION_FAILED[name] = str(exc)
                raise
            _CONSTRUCTION_FAILED.pop(name, None)
            _INSTANCES[name] = instance
        return instance
