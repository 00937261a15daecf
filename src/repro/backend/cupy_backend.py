"""CuPy adapter: the checker kernels on device-resident ``cupy.ndarray``.

CuPy mirrors the NumPy API closely, so — like the NumPy reference — the
namespace is a memoising delegator over the :mod:`cupy` module, patched only
where CuPy diverges (no ``errstate`` context manager, Array-API ``astype``).
The module imports :mod:`cupy` lazily at backend construction; on machines
without CUDA the registry just reports the backend as unavailable.

All encode / carry / detect / correct work stays on the GPU: ``to_numpy``
(``cupy.asnumpy``) and ``from_numpy`` are the only host crossings, and the
checkpoint manager times them under ``xfer/d2h`` / ``xfer/h2d``.

The workspace ``out=`` contract (see :mod:`repro.core.workspace`) mostly
resolves natively: ``cupy.matmul`` accepts ``out=`` and
``cupy.empty`` backs the arena, so steady-state checksum intermediates reuse
device buffers instead of hitting the CUDA memory pool per layer visit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

import numpy as np

from repro.backend.base import (
    UINT_DTYPE_FOR_FLOAT,
    ArrayBackend,
    BackendCapabilities,
    BackendUnavailable,
)

__all__ = ["CupyNamespace", "CupyBackend"]


def _import_cupy():
    try:
        import cupy  # noqa: PLC0415 - lazy by design
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise BackendUnavailable(
            "the 'cupy' array backend requires CuPy (and a CUDA runtime), "
            "which is not installed in this environment"
        ) from exc
    # CuPy being importable does not mean a GPU is reachable (cupy-cuda wheel
    # on a CPU box, missing driver).  Probe now so construction fails with a
    # clean BackendUnavailable — which get_backend("auto") treats as "skip,
    # fall back to NumPy" — instead of the first checksum kernel exploding.
    try:  # pragma: no cover - needs CUDA to take the success path
        if cupy.cuda.runtime.getDeviceCount() < 1:
            raise BackendUnavailable(
                "CuPy is installed but reports no CUDA device"
            )
    except BackendUnavailable:
        raise
    except Exception as exc:
        raise BackendUnavailable(
            f"CuPy is installed but no CUDA device is reachable: {exc}"
        ) from exc
    return cupy


class CupyNamespace:
    """``cupy`` with NumPy-compat shims, memoised like the NumPy namespace."""

    def __init__(self, cupy) -> None:
        self._cupy = cupy
        self.float16 = cupy.float16
        self.float32 = cupy.float32
        self.float64 = cupy.float64
        self.int64 = cupy.int64
        self.bool_ = cupy.bool_

    def astype(self, array: Any, dtype: Any, copy: bool = True):
        return self._cupy.asarray(array).astype(dtype, copy=copy)

    def add_at(self, target: Any, indices: Any, values: Any) -> None:
        """Unbuffered scatter-add (CuPy has no ``ufunc.at``; use ``cupyx``)."""
        import cupyx  # noqa: PLC0415 - ships with cupy, lazy like the rest

        cupyx.scatter_add(target, indices, values)

    @contextmanager
    def errstate(self, **_kwargs) -> Iterator[None]:
        """CuPy device kernels raise no IEEE warnings — a no-op context."""
        yield

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._cupy, name)
        setattr(self, name, value)
        return value


class CupyBackend(ArrayBackend):
    """CUDA-resident CuPy implementation of :class:`ArrayBackend`."""

    name = "cupy"

    def __init__(self, device: Optional[int] = None) -> None:
        cupy = _import_cupy()
        self._cupy = cupy
        self._device_id = 0 if device is None else int(device)
        self.xp = CupyNamespace(cupy)

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(device_kind="cuda")

    def device_info(self) -> str:
        return f"cupy {self._cupy.__version__} (cuda:{self._device_id})"

    # -- conversion -------------------------------------------------------------

    def asarray(self, data: Any, dtype: Any = None):
        return self._cupy.asarray(data, dtype=dtype)

    def to_numpy(self, array: Any) -> np.ndarray:
        return self._cupy.asnumpy(array)

    def copy(self, array: Any):
        return self._cupy.array(array, copy=True)

    # -- identity / memory ------------------------------------------------------

    def is_backend_array(self, obj: Any) -> bool:
        return isinstance(obj, self._cupy.ndarray)

    def shares_memory(self, a: Any, b: Any) -> bool:
        return a.data.ptr == b.data.ptr

    # -- raw bits ---------------------------------------------------------------

    def uint_view(self, array: Any):
        dtype = np.dtype(array.dtype)
        if dtype not in UINT_DTYPE_FOR_FLOAT:
            raise TypeError(f"no integer view for dtype {dtype!r}")
        return array.view(UINT_DTYPE_FOR_FLOAT[dtype])

    # -- synchronisation --------------------------------------------------------

    def synchronize(self) -> None:  # pragma: no cover - needs a GPU
        self._cupy.cuda.get_current_stream().synchronize()

    # -- misc -------------------------------------------------------------------

    def dtype_of(self, array: Any) -> np.dtype:
        return np.dtype(array.dtype)
