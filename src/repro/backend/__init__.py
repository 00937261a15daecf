"""Pluggable array backends behind the :class:`~repro.nn.attention.SectionContext` seam.

ATTNChecker's headline claim is GPU-resident ABFT with single-digit-percent
overhead; a checker hard-wired to NumPy can never run where that claim lives.
This package is the abstraction that unhooks the checker stack from any one
array library:

``base``
    The :class:`ArrayBackend` protocol (namespace handle ``xp``, adoption /
    export, bit views, memory aliasing, synchronisation, capability flags).
``numpy_backend``
    The always-present host reference — the oracle every adapter is
    byte-compared against.
``torch_backend``
    The device adapter; it imports PyTorch lazily and registers only when
    it is installed, so there is **no new hard dependency**.
``registry``
    ``get_backend("numpy"|"torch"|"auto")``, availability discovery,
    and the name constants CLIs derive their choice lists from.
``dispatch``
    ``backend_of(array)`` / ``namespace_of(array)`` — type-keyed resolution
    the generic kernels use to follow whatever array type a protection
    section produced.

Selection follows the arrays: ``build_model(..., array_backend=...)`` puts
the model substrate on a backend, and the checker's kernels *follow* the
arrays each protection section produces (dispatch), so checksums are
encoded, carried and verified where the model runs, with no host round-trip.
"""

from repro.backend.base import ArrayBackend, BackendCapabilities, BackendUnavailable
from repro.backend.dispatch import backend_of, clear_dispatch_cache, namespace_of
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    KNOWN_ARRAY_BACKENDS,
    available_array_backends,
    backend_available,
    get_backend,
    known_array_backends,
    register_backend,
    resolve_backend_name,
    unregister_backend,
)

__all__ = [
    "ArrayBackend",
    "BackendCapabilities",
    "BackendUnavailable",
    "NumpyBackend",
    "KNOWN_ARRAY_BACKENDS",
    "known_array_backends",
    "available_array_backends",
    "backend_available",
    "get_backend",
    "register_backend",
    "unregister_backend",
    "resolve_backend_name",
    "backend_of",
    "namespace_of",
    "clear_dispatch_cache",
]
