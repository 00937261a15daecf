"""PyTorch adapter: the checker kernels on ``torch.Tensor`` buffers.

Torch's function surface is close to NumPy's but not identical (``dim`` vs
``axis``, ``clamp`` vs ``clip``, tuple-returning ``max``, unbiased ``var``
by default, no ``errstate``), so unlike the NumPy namespace this one is
written out explicitly: every function the generic kernels dispatch to is a
small normalising wrapper with NumPy semantics.  Each namespace instance is
additionally bound to **one device**: creation functions (``zeros``/``ones``/
``arange``/``full``) allocate there, and :meth:`TorchBackend.namespace_for`
hands kernels the namespace of their *input's* device, so creation follows
input instead of silently landing on the backend's default device.  Notable
pins:

* reductions take ``axis=`` / ``keepdims=`` keywords and ``var`` uses
  ``correction=0`` (NumPy's biased estimator) — silently inheriting Torch's
  Bessel correction would shift layer-norm statistics and checksum
  tolerances;
* ``rint`` maps to ``torch.round`` (both round half to even, which the
  EEC-ABFT index location relies on);
* ``argmax`` casts boolean masks to ``uint8`` first (Torch refuses bool);
* ``nonzero`` returns the NumPy-style tuple of index vectors.

The module imports :mod:`torch` lazily at backend construction; when Torch is
absent the registry simply reports the backend as unavailable — no hard
dependency is introduced.

On CPU devices ``from_numpy``/``to_numpy`` alias host memory (zero-copy); on
CUDA devices they are real PCIe transfers, which is why the checkpoint manager
wraps them in ``xfer/*`` timers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

import numpy as np

from repro.backend.base import ArrayBackend, BackendCapabilities, BackendUnavailable

__all__ = ["TorchNamespace", "TorchBackend"]


def _import_torch():
    try:
        import torch  # noqa: PLC0415 - lazy by design
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise BackendUnavailable(
            "the 'torch' array backend requires PyTorch, which is not "
            "installed in this environment"
        ) from exc
    return torch


class TorchNamespace:
    """NumPy-semantics function namespace implemented on ``torch``."""

    def __init__(self, torch, device) -> None:
        self._torch = torch
        self._device = device
        self.float16 = torch.float16
        self.float32 = torch.float32
        self.float64 = torch.float64
        self.int64 = torch.int64
        self.bool_ = torch.bool

    # -- creation ---------------------------------------------------------------

    def asarray(self, data: Any, dtype: Any = None):
        # An existing tensor is never moved between devices here — kernels
        # follow their inputs, and silently migrating a CPU tensor to the
        # backend's default CUDA device would detach in-place repairs from
        # the caller's buffer.  Only non-tensor data adopts onto the default
        # device.
        if self._torch.is_tensor(data):
            return data if dtype is None or data.dtype == dtype else data.to(dtype)
        return self._torch.as_tensor(data, dtype=dtype, device=self._device)

    def zeros(self, shape, dtype: Any = None):
        return self._torch.zeros(shape, dtype=dtype, device=self._device)

    def ones(self, shape, dtype: Any = None):
        return self._torch.ones(shape, dtype=dtype, device=self._device)

    def full(self, shape, fill_value, dtype: Any = None):
        return self._torch.full(shape, fill_value, dtype=dtype, device=self._device)

    def arange(self, start, stop=None, step=1, dtype: Any = None):
        if stop is None:
            start, stop = 0, start
        return self._torch.arange(start, stop, step, dtype=dtype, device=self._device)

    def empty(self, shape, dtype: Any = None):
        """Uninitialised buffer (the :class:`ChecksumWorkspace` allocator)."""
        return self._torch.empty(shape, dtype=dtype, device=self._device)

    # -- dtype / copy -----------------------------------------------------------

    def astype(self, array, dtype, copy: bool = True):
        array = self.asarray(array)
        if array.dtype == dtype:
            return array.clone() if copy else array
        return array.to(dtype)

    def copy(self, array):
        return array.clone()

    # -- like-creation (creation follows input by construction) -----------------

    def zeros_like(self, array, dtype: Any = None):
        return self._torch.zeros_like(array, dtype=dtype)

    def ones_like(self, array, dtype: Any = None):
        return self._torch.ones_like(array, dtype=dtype)

    # -- shape ------------------------------------------------------------------

    def reshape(self, array, shape):
        return array.reshape(shape)

    def stack(self, arrays, axis: int = 0):
        return self._torch.stack(list(arrays), dim=axis)

    def concatenate(self, arrays, axis: int = 0):
        return self._torch.cat(list(arrays), dim=axis)

    def moveaxis(self, array, source, destination):
        return self._torch.movedim(array, source, destination)

    def swapaxes(self, array, axis1, axis2):
        return self._torch.swapaxes(array, axis1, axis2)

    def transpose(self, array, axes=None):
        if axes is None:
            axes = tuple(reversed(range(array.dim())))
        return array.permute(tuple(int(a) for a in axes))

    def broadcast_to(self, array, shape):
        return self._torch.broadcast_to(array, tuple(int(s) for s in shape))

    def expand_dims(self, array, axis):
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        # NumPy inserts all axes relative to the *output* rank, smallest first.
        out_ndim = array.dim() + len(axes)
        axes = sorted(a % out_ndim for a in axes)
        for a in axes:
            array = array.unsqueeze(a)
        return array

    # -- math -------------------------------------------------------------------

    def _promote(self, *tensors):
        """NumPy-style operand reconciliation for ops Torch wants homogeneous.

        Torch's elementwise arithmetic promotes mixed dtypes, but ``matmul``/
        ``einsum``/``dot`` require matching operand dtypes; NumPy promotes
        everywhere.  The checksum chain relies on that (float64 carried
        checksums multiply float32 activations), so promote explicitly here.

        Devices are reconciled too: the backend pins one default device for
        *creation*, but dispatch is type-keyed, so a CPU tensor fed through a
        CUDA-defaulting backend would otherwise collide with device-resident
        checksum weights.  When devices differ, everything moves to the
        largest operand's device — the data stays put, the small weight
        vectors migrate.
        """
        dtypes = {t.dtype for t in tensors}
        if len(dtypes) > 1:
            target = tensors[0].dtype
            for tensor in tensors[1:]:
                target = self._torch.promote_types(target, tensor.dtype)
            tensors = tuple(t.to(target) for t in tensors)
        devices = {t.device for t in tensors}
        if len(devices) > 1:  # pragma: no cover - needs a CUDA device
            anchor = max(tensors, key=lambda t: t.numel()).device
            tensors = tuple(t.to(anchor) for t in tensors)
        return tensors

    def matmul(self, a, b, out: Any = None):
        # out= follows the workspace contract; operands still promote first,
        # so the buffer must be of the promoted dtype (float64 for the
        # checksum chain, which is the only caller that passes out=).
        a, b = self._promote(a, b)
        if out is None:
            return self._torch.matmul(a, b)
        return self._torch.matmul(a, b, out=out)

    def einsum(self, equation, *operands):
        return self._torch.einsum(equation, *self._promote(*operands))

    def dot(self, a, b):
        a, b = self._promote(self.asarray(a), self.asarray(b))
        return self._torch.dot(a, b)

    def exp(self, array):
        return self._torch.exp(array)

    def log(self, array):
        return self._torch.log(array)

    def sqrt(self, array):
        return self._torch.sqrt(self.asarray(array))

    def tanh(self, array):
        return self._torch.tanh(array)

    def abs(self, array):
        return self._torch.abs(array)

    def sign(self, array):
        return self._torch.sign(array)

    def rint(self, array):
        # torch.round rounds half to even, matching numpy.rint exactly.
        return self._torch.round(array)

    def clip(self, array, a_min=None, a_max=None):
        return self._torch.clamp(array, min=a_min, max=a_max)

    def maximum(self, a, b):
        a, b = self._pair(a, b)
        return self._torch.maximum(a, b)

    def minimum(self, a, b):
        a, b = self._pair(a, b)
        return self._torch.minimum(a, b)

    def _pair(self, a, b):
        """Coerce python scalars so binary torch ops accept the pair."""
        if not self._torch.is_tensor(a):
            a = self._torch.as_tensor(a, dtype=b.dtype, device=b.device)
        if not self._torch.is_tensor(b):
            b = self._torch.as_tensor(b, dtype=a.dtype, device=a.device)
        return a, b

    # -- reductions -------------------------------------------------------------

    @staticmethod
    def _keep_full_dims(out, array, keepdims: bool):
        """NumPy's ``keepdims=True`` with ``axis=None``: all axes become 1."""
        return out.reshape((1,) * array.dim()) if keepdims else out

    def sum(self, array, axis=None, dtype: Any = None, keepdims: bool = False):
        if axis is None:
            return self._keep_full_dims(self._torch.sum(array, dtype=dtype), array, keepdims)
        return self._torch.sum(array, dim=axis, keepdim=keepdims, dtype=dtype)

    def mean(self, array, axis=None, keepdims: bool = False):
        if axis is None:
            return self._keep_full_dims(self._torch.mean(array), array, keepdims)
        return self._torch.mean(array, dim=axis, keepdim=keepdims)

    def var(self, array, axis=None, keepdims: bool = False):
        # correction=0 reproduces NumPy's biased variance, not Torch's default.
        if axis is None:
            return self._keep_full_dims(self._torch.var(array, correction=0), array, keepdims)
        return self._torch.var(array, dim=axis, keepdim=keepdims, correction=0)

    def max(self, array, axis=None, keepdims: bool = False):
        if axis is None:
            return self._keep_full_dims(self._torch.max(array), array, keepdims)
        return self._torch.amax(array, dim=axis, keepdim=keepdims)

    def min(self, array, axis=None, keepdims: bool = False):
        if axis is None:
            return self._keep_full_dims(self._torch.min(array), array, keepdims)
        return self._torch.amin(array, dim=axis, keepdim=keepdims)

    def argmax(self, array, axis=None):
        if array.dtype == self._torch.bool:
            array = array.to(self._torch.uint8)
        if axis is None:
            return self._torch.argmax(array)
        return self._torch.argmax(array, dim=axis)

    def any(self, array, axis=None, keepdims: bool = False):
        if axis is None:
            return self._keep_full_dims(self._torch.any(array), array, keepdims)
        return self._torch.any(array, dim=axis, keepdim=keepdims)

    def all(self, array, axis=None, keepdims: bool = False):
        if axis is None:
            return self._keep_full_dims(self._torch.all(array), array, keepdims)
        return self._torch.all(array, dim=axis, keepdim=keepdims)

    # -- logic / selection ------------------------------------------------------

    def isfinite(self, array):
        return self._torch.isfinite(array)

    def isnan(self, array):
        return self._torch.isnan(array)

    def isinf(self, array):
        return self._torch.isinf(array)

    def where(self, condition, x=None, y=None):
        if x is None and y is None:
            return self._torch.where(condition)
        x, y = self._pair(x, y)
        return self._torch.where(condition, x, y)

    def nonzero(self, array):
        return self._torch.where(array != 0) if array.dtype != self._torch.bool \
            else self._torch.where(array)

    def allclose(self, a, b, rtol: float = 1e-5, atol: float = 1e-8):
        a, b = self._pair(a, b)
        if a.dtype != b.dtype:
            b = b.to(a.dtype)
        return bool(self._torch.allclose(a, b, rtol=rtol, atol=atol))

    def put_along_axis(self, array, indices, values, axis: int):
        array.scatter_(axis, indices.to(self._torch.int64), values)

    def add_at(self, target, indices, values) -> None:
        """Unbuffered scatter-add along the leading axis (``np.add.at``).

        The autograd embedding backward only scatters row gradients into a
        2-D table, so leading-axis ``index_add_`` covers the generic kernels'
        use; repeated indices accumulate, matching NumPy exactly.
        """
        indices = self.asarray(indices).to(self._torch.int64)
        target.index_add_(0, indices, self.asarray(values).to(target.dtype))

    # -- numerics context -------------------------------------------------------

    @contextmanager
    def errstate(self, **_kwargs) -> Iterator[None]:
        """Torch emits no IEEE warnings for inf/nan arithmetic — a no-op."""
        yield


_TORCH_TO_NUMPY_DTYPE = {
    "torch.float16": np.float16,
    "torch.float32": np.float32,
    "torch.float64": np.float64,
    "torch.int64": np.int64,
    "torch.int32": np.int32,
    "torch.bool": np.bool_,
}


class TorchBackend(ArrayBackend):
    """Device-aware Torch implementation of :class:`ArrayBackend`.

    ``device=None`` selects CUDA when Torch reports an available GPU and CPU
    otherwise, so the same configuration string (``array_backend="torch"``)
    is portable between a CUDA box and the CPU-only CI job.
    """

    name = "torch"

    def __init__(self, device: Optional[str] = None) -> None:
        torch = _import_torch()
        self._torch = torch
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self.device = torch.device(device)
        self.xp = TorchNamespace(torch, self.device)
        self._namespaces = {self.device: self.xp}

    def namespace_for(self, array):
        """A namespace whose creation functions allocate on ``array``'s device.

        This is the creation-follows-input rule: ``asarray`` never migrates an
        existing tensor and GEMM/einsum operands device-reconcile, but checksum
        weights and report masks are *created* inside the kernels — binding the
        namespace to the input's device keeps a CPU tensor driven through a
        CUDA-defaulting backend entirely on CPU (and vice versa).
        """
        device = array.device
        namespace = self._namespaces.get(device)
        if namespace is None:
            namespace = TorchNamespace(self._torch, device)
            self._namespaces[device] = namespace
        return namespace

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            device_kind=self.device.type if self.device.type == "cuda" else "cpu",
        )

    def device_info(self) -> str:
        return f"torch {self._torch.__version__} ({self.device})"

    # -- conversion -------------------------------------------------------------

    def asarray(self, data: Any, dtype: Any = None):
        return self._torch.as_tensor(data, dtype=dtype, device=self.device)

    def to_numpy(self, array: Any) -> np.ndarray:
        return array.detach().cpu().numpy()

    def copy(self, array: Any):
        return array.clone()

    # -- identity / memory ------------------------------------------------------

    def is_backend_array(self, obj: Any) -> bool:
        return self._torch.is_tensor(obj)

    def shares_memory(self, a: Any, b: Any) -> bool:
        # Start-pointer equality is sufficient for the checker's use (a
        # reshape either returned a view at the same offset or a fresh copy).
        return a.data_ptr() == b.data_ptr()

    # -- raw bits ---------------------------------------------------------------

    def uint_view(self, array: Any):
        """Signed same-width integer view (XOR semantics are bit-identical)."""
        torch = self._torch
        views = {torch.float16: torch.int16, torch.float32: torch.int32,
                 torch.float64: torch.int64}
        if array.dtype not in views:
            raise TypeError(f"no integer view for dtype {array.dtype!r}")
        return array.view(views[array.dtype])

    # -- synchronisation --------------------------------------------------------

    def synchronize(self) -> None:
        if self.device.type == "cuda":  # pragma: no cover - needs a GPU
            self._torch.cuda.synchronize(self.device)

    # -- misc -------------------------------------------------------------------

    def dtype_of(self, array: Any) -> np.dtype:
        try:
            return np.dtype(_TORCH_TO_NUMPY_DTYPE[str(array.dtype)])
        except KeyError as exc:
            raise TypeError(f"unmapped torch dtype {array.dtype!r}") from exc
