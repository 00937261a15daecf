"""The NumPy reference backend — always present, always the oracle.

The namespace is (almost) the :mod:`numpy` module itself: a memoising wrapper
adds the handful of functions the generic kernels need under Array-API-style
names that older NumPy releases lack as module functions (``astype``), and
everything else resolves straight to ``numpy``.  This keeps the NumPy hot
path byte-identical to the historical direct ``np.`` calls — the cross-backend
equivalence tests compare every other adapter against this one.

The workspace ``out=`` contract (see :mod:`repro.core.workspace`) is native
here: ``matmul`` resolves to the NumPy function, which accepts ``out=``
directly, and ``empty`` provides the arena's
uninitialised buffers — computing into a reusable buffer runs the exact same
kernel as allocating afresh, so results stay bitwise identical.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend.base import UINT_DTYPE_FOR_FLOAT, ArrayBackend, BackendCapabilities

__all__ = ["NumpyNamespace", "NumpyBackend"]


class NumpyNamespace:
    """``numpy`` plus normalising shims, with memoised attribute lookup."""

    def __init__(self) -> None:
        # Pre-bind the dtype attributes generic code spells as ``xp.<dtype>``.
        self.float16 = np.float16
        self.float32 = np.float32
        self.float64 = np.float64
        self.int64 = np.int64
        self.bool_ = np.bool_

    @staticmethod
    def astype(array: Any, dtype: Any, copy: bool = True) -> np.ndarray:
        """Array-API style ``astype`` (NumPy < 2.0 has no module function).

        ``asanyarray`` (not ``asarray``) so ndarray *subclasses* — the test
        suite's simulated-foreign arrays — keep their type through a cast.
        """
        return np.asanyarray(array).astype(dtype, copy=copy)

    @staticmethod
    def copy(array: Any) -> np.ndarray:
        """``np.copy`` with ``subok`` so ndarray subclasses survive the copy
        (plain ndarrays are byte-identical to the default)."""
        return np.copy(array, subok=True)

    @staticmethod
    def add_at(target: np.ndarray, indices: Any, values: Any) -> None:
        """Unbuffered scatter-add ``target[indices] += values`` in place.

        The embedding backward's gradient scatter: repeated indices must
        accumulate (``np.add.at`` semantics), which plain fancy-index
        assignment does not do.
        """
        np.add.at(target, indices, values)

    def __getattr__(self, name: str) -> Any:
        value = getattr(np, name)
        setattr(self, name, value)  # memoise: next lookup skips __getattr__
        return value


class NumpyBackend(ArrayBackend):
    """Host-resident reference implementation of :class:`ArrayBackend`."""

    name = "numpy"

    def __init__(self) -> None:
        self.xp = NumpyNamespace()

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(device_kind="cpu")

    def device_info(self) -> str:
        return f"numpy {np.__version__} (cpu)"

    # -- conversion -------------------------------------------------------------

    def asarray(self, data: Any, dtype: Any = None) -> np.ndarray:
        return np.asarray(data, dtype=dtype)

    def to_numpy(self, array: Any) -> np.ndarray:
        return np.asarray(array)

    def copy(self, array: Any) -> np.ndarray:
        # subok keeps ndarray subclasses (simulated-foreign arrays) intact.
        return np.array(array, copy=True, subok=True)

    # -- identity / memory ------------------------------------------------------

    def is_backend_array(self, obj: Any) -> bool:
        return isinstance(obj, np.ndarray)

    def shares_memory(self, a: Any, b: Any) -> bool:
        return bool(np.shares_memory(a, b))

    # -- raw bits ---------------------------------------------------------------

    def uint_view(self, array: np.ndarray) -> np.ndarray:
        dtype = np.dtype(array.dtype)
        if dtype not in UINT_DTYPE_FOR_FLOAT:
            raise TypeError(f"no integer view for dtype {dtype!r}")
        return array.view(UINT_DTYPE_FOR_FLOAT[dtype])

    # -- misc -------------------------------------------------------------------

    def dtype_of(self, array: Any) -> np.dtype:
        if isinstance(array, np.ndarray):
            return array.dtype
        return np.dtype(np.asarray(array).dtype)
