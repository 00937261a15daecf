"""The :class:`ArrayBackend` protocol — the seam every array library plugs into.

The checker stack (:mod:`repro.tensor.ops`, :mod:`repro.core`) is written
against two small surfaces instead of against NumPy directly:

* a **namespace** ``xp`` exposing the NumPy-flavoured array functions the
  kernels use (``matmul``, ``einsum``, ``where``, ``isfinite``, reductions
  with ``axis=``/``keepdims=`` keywords, ...).  For NumPy the namespace *is*
  the :mod:`numpy` module (plus a couple of normalising shims); Torch
  implements the same surface on ``torch`` functions.

  Namespaces *should* additionally accept NumPy's optional ``out=`` keyword
  on ``matmul``, and expose ``empty`` for uninitialised
  buffers — the contract behind the zero-allocation
  :class:`repro.core.workspace.ChecksumWorkspace`.  The contract is
  optional: the workspace helper probes each namespace once and falls back
  to plain allocating calls for namespaces that lack it, so a minimal custom
  namespace stays value-correct, it just forfeits buffer reuse.
* a **backend** object (this protocol) owning everything that is *not* plain
  array math: adoption of foreign data (``asarray``/``from_numpy``), export
  back to host NumPy (``to_numpy``), identity tests (``is_backend_array``),
  raw-bit reinterpretation for the fault injector (``uint_view``), memory
  aliasing queries, device synchronisation, and capability flags.

The split matters for the paper's claims: kernels dispatch through ``xp`` so
checksum encoding, EEC-ABFT detection and correction run **on whatever array
type the protection section produced** — device arrays never round-trip
through host memory on the critical path.  Host transfers happen only at the
backend surface (``to_numpy``/``from_numpy``), which is exactly where the
checkpoint manager hangs its ``xfer/h2d`` / ``xfer/d2h`` timers.

Backends register with :mod:`repro.backend.registry`; adapters for optional
libraries import them lazily so the package has **no hard dependency** beyond
NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "UINT_DTYPE_FOR_FLOAT",
    "BackendCapabilities",
    "BackendUnavailable",
    "ArrayBackend",
]

#: Same-width unsigned-integer dtype per IEEE floating dtype — the shared
#: table behind every NumPy-flavoured backend's :meth:`ArrayBackend.uint_view`
#: (Torch maps to signed widths instead; XOR is bit-identical either way).
UINT_DTYPE_FOR_FLOAT = {
    np.dtype(np.float16): np.uint16,
    np.dtype(np.float32): np.uint32,
    np.dtype(np.float64): np.uint64,
}


class BackendUnavailable(RuntimeError):
    """Requested array backend is known but its library is not importable."""


@dataclass(frozen=True)
class BackendCapabilities:
    """Static capability flags of one array backend.

    Attributes
    ----------
    device_kind:
        ``"cpu"`` for host-resident backends, ``"cuda"`` for device-resident
        ones.  "auto" resolution only picks backends whose kind is not
        ``"cpu"``.
    """

    device_kind: str = "cpu"


class ArrayBackend:
    """Base class / protocol for pluggable array libraries.

    Subclasses must set :attr:`name` and :attr:`xp` and implement the
    conversion and identity methods.  Everything the checker stack calls is
    here; anything array-*math* shaped lives on the namespace ``xp`` instead.
    """

    #: Registry name (``"numpy"``, ``"torch"``).
    name: str = "abstract"
    #: The NumPy-flavoured function namespace kernels dispatch through.
    xp: Any = None

    # -- namespace binding ------------------------------------------------------

    def namespace_for(self, array: Any) -> Any:
        """The function namespace to use for kernels operating on ``array``.

        Defaults to :attr:`xp`.  Backends whose library distinguishes the
        *device* an array lives on (Torch) override this to return a namespace
        whose creation functions (``zeros``/``ones``/``arange``/``full``)
        allocate on **the array's own device** rather than the backend's
        default — so a CPU tensor driven through a CUDA-defaulting backend
        meets CPU-resident checksum weights and report masks, not CUDA ones
        (creation-follows-input).
        """
        return self.xp

    # -- capabilities -----------------------------------------------------------

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities()

    @property
    def device_kind(self) -> str:
        return self.capabilities.device_kind

    def device_info(self) -> str:
        """Human-readable device description (for reports and examples)."""
        return f"{self.name} ({self.device_kind})"

    # -- conversion -------------------------------------------------------------

    def asarray(self, data: Any, dtype: Any = None) -> Any:
        """Adopt ``data`` (host array, nested list, backend array) into the
        backend's array type, avoiding copies when the library allows it."""
        raise NotImplementedError

    def from_numpy(self, array: np.ndarray, dtype: Any = None) -> Any:
        """Adopt a host NumPy array (the h2d direction for device backends)."""
        return self.asarray(array, dtype=dtype)

    def to_numpy(self, array: Any) -> np.ndarray:
        """Export a backend array to host NumPy (the d2h direction)."""
        raise NotImplementedError

    def copy(self, array: Any) -> Any:
        """A defensive deep copy of ``array`` on the backend's device."""
        raise NotImplementedError

    # -- identity / memory ------------------------------------------------------

    def is_backend_array(self, obj: Any) -> bool:
        """Whether ``obj`` is an array this backend operates on natively."""
        raise NotImplementedError

    def shares_memory(self, a: Any, b: Any) -> bool:
        """Whether two backend arrays alias the same buffer (used by EEC-ABFT
        to decide if an in-place correction on a reshaped view must be copied
        back)."""
        raise NotImplementedError

    # -- raw bits ---------------------------------------------------------------

    def uint_view(self, array: Any) -> Any:
        """Reinterpret a floating array as same-width integers, **sharing
        memory** — XORing the view flips bits of the original buffer in place.

        This is what lets :mod:`repro.faults.injector` flip the exponent MSB
        of a device-resident element without a host round-trip.
        """
        raise NotImplementedError

    # -- synchronisation --------------------------------------------------------

    def synchronize(self) -> None:
        """Barrier for asynchronous device work (no-op on host backends).

        Timing code must call this before reading a wall clock so kernel
        launches are not mistaken for kernel executions.
        """

    # -- misc -------------------------------------------------------------------

    def dtype_of(self, array: Any) -> np.dtype:
        """The canonical NumPy dtype describing ``array``'s element type."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayBackend {self.name!r} ({self.device_kind})>"
