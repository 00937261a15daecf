"""A small reverse-mode automatic differentiation engine on NumPy.

The engine provides everything the transformer models in :mod:`repro.models`
need — and nothing more:

* :class:`Tensor` wraps a NumPy array and records the operation that
  produced it (its parents plus a backward closure).
* :func:`Tensor.backward` runs a topological sort of the recorded DAG and
  accumulates gradients into every tensor with ``requires_grad=True``.
* A library of differentiable operations (GEMM, softmax, GELU, layer norm,
  embedding lookup, dropout, reshaping) built on the pure array kernels in
  :mod:`repro.tensor.ops`.

Every operation executes the identical op sequence of the historical engine,
so results are byte-identical to earlier releases (pinned by the seed-output
goldens in the test suite).

Inference: :func:`no_grad`
--------------------------
Inside ``with no_grad():`` operation results record no parents and no
backward closure, whatever their inputs' ``requires_grad``: nothing can
back-propagate through them, and every intermediate array is freed as soon
as the forward code drops it instead of living on in the closures of a tape
that nothing walks.  The values are bit-identical to a grad-mode forward —
only the bookkeeping is skipped.  The switch is thread-local, because the
data-parallel trainer runs its ranks on threads: a thread started inside the
block still records its graph.  The forward-only callers run under it:
:meth:`repro.serving.ServingEngine.run`, :meth:`repro.training.Trainer.evaluate`,
the propagation study's forward passes and the detection/correction
campaign's.

ABFT / fault-injection integration
----------------------------------
:func:`matmul` accepts a ``forward_hook``: a callable receiving the raw GEMM
output array and returning the (possibly modified) array to use as the
operation result.  The backward pass of a matrix multiplication does not
depend on its output, so hooks may freely corrupt (fault injection) and repair
(ABFT correction) the forward value without invalidating gradients — this
mirrors how the paper instruments the CUDA GEMMs at the operation boundary.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import ops

__all__ = [
    "Tensor",
    "GradHookHandle",
    "tensor",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "softmax",
    "log_softmax",
    "gelu",
    "tanh",
    "layer_norm",
    "dropout",
    "embedding",
    "reshape",
    "transpose",
    "split_heads",
    "merge_heads",
    "sum",
    "mean",
    "cross_entropy_loss",
    "no_grad",
]

ArrayLike = Union[float, int, np.ndarray, "Tensor", Any]


class _GradMode(threading.local):
    """Per-thread recording switch read by every operation result."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Run the block without recording an autograd graph (inference).

    Results of operations inside it have no parents and no backward closure;
    their values equal grad-mode results bit for bit.  The previous state is
    restored on exit, also when the block raises, so blocks nest.  Only the
    calling thread is affected.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Tensor:
    """A NumPy array with an autograd tape.

    Parameters
    ----------
    data:
        Array data.  Non-floating input is cast to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    parents:
        The tensors this one was computed from (internal).
    backward_fn:
        Closure mapping the output gradient to a tuple of parent gradients
        (internal).
    name:
        Optional human-readable tag used in error messages and by the fault
        tracer to identify matrices (e.g. ``"Q"``, ``"AS"``).
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward_fn",
        "_post_accumulate_grad_hooks",
        "name",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[Any], Tuple[Optional[Any], ...]]] = None,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = data if isinstance(data, np.ndarray) else np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data: Any = arr
        self.grad: Optional[Any] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = tuple(parents)
        self._backward_fn = backward_fn
        self._post_accumulate_grad_hooks: Optional[List[Callable[["Tensor"], None]]] = None
        self.name = name

    # -- basic protocol -----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def ndim(self) -> int:
        return len(self.data.shape)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return int(np.prod(self.data.shape, dtype=np.int64))

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        self.grad = None

    def register_post_accumulate_grad_hook(
        self, hook: Callable[["Tensor"], None]
    ) -> "GradHookHandle":
        """Register ``hook(tensor)`` to fire when this leaf's gradient lands.

        During :meth:`backward`, each reachable leaf with
        ``requires_grad=True`` accumulates its gradient exactly once (the
        graph walk pops every node a single time), and the hooks fire
        immediately after that accumulation — while backprop continues on
        nodes earlier in the graph.  This is the gradient-readiness seam the
        overlapped data-parallel trainer uses to launch a bucket's protected
        all-reduce the moment its last member gradient is complete.

        Hooks fire only on leaves the backward pass actually reached, in
        graph (reverse-topological) order.  Returns a removable handle.
        """
        if self._backward_fn is not None:
            raise ValueError(
                "post-accumulate gradient hooks only apply to leaf tensors"
            )
        if self._post_accumulate_grad_hooks is None:
            self._post_accumulate_grad_hooks = []
        self._post_accumulate_grad_hooks.append(hook)
        return GradHookHandle(self, hook)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # -- graph construction helpers ------------------------------------------

    @staticmethod
    def _wrap(value: ArrayLike) -> "Tensor":
        """Wrap a raw operand (scalar or array) as a float64 constant."""
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=np.float64))

    def _make_child(
        self,
        data: Any,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[Any], Tuple[Optional[Any], ...]],
        name: Optional[str] = None,
    ) -> "Tensor":
        """The result of an operation whose first operand is ``self``.

        It records ``parents`` and ``backward_fn`` only when some parent
        requires grad and :func:`no_grad` is not active.
        """
        if _grad_mode.enabled:
            for parent in parents:
                if parent.requires_grad:
                    return Tensor(data, True, parents, backward_fn, name)
        return Tensor(data, False, (), None, name)

    # -- operators -----------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return sub(Tensor._wrap(other), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return div(Tensor._wrap(other), self)

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return matmul(self, other)

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, *axes: int) -> "Tensor":
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    # -- backward ------------------------------------------------------------

    def backward(self, grad: Optional[Any] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (appropriate for scalar losses).
        Gradients accumulate (+=) into every reachable tensor with
        ``requires_grad=True``, matching the PyTorch convention so gradient
        accumulation across micro-batches works naturally.
        """
        grad = np.ones_like(self.data) if grad is None else np.asarray(grad)
        dtype = self.dtype
        target = dtype if np.issubdtype(dtype, np.floating) else np.dtype(np.float64)
        if grad.dtype != target:
            grad = grad.astype(target, copy=False)
        if tuple(grad.shape) != self.shape:
            raise ValueError(
                f"gradient shape {tuple(grad.shape)} does not match tensor shape {self.shape}"
            )

        # Depth-first post-order of the graph, parents in recorded order.
        # An explicit stack, not a recursive closure: a closure that calls
        # itself is a reference cycle, which would keep ``topo`` (the whole
        # graph) alive after backward until the cyclic garbage collector ran.
        topo: List[Tensor] = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                stack.pop()
                topo.append(node)

        grads = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward_fn is None:
                # Leaf tensor: accumulate.  Each node is popped exactly once
                # per backward, so the gradient is final here and the
                # post-accumulate hooks may act on it while earlier layers
                # are still back-propagating.
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                if node._post_accumulate_grad_hooks:
                    for hook in tuple(node._post_accumulate_grad_hooks):
                        hook(node)
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad


class GradHookHandle:
    """Removable registration of a post-accumulate gradient hook."""

    __slots__ = ("_tensor", "_hook")

    def __init__(self, tensor: Tensor, hook: Callable[[Tensor], None]) -> None:
        self._tensor = tensor
        self._hook = hook

    def remove(self) -> None:
        """Unregister the hook; safe to call more than once."""
        hooks = self._tensor._post_accumulate_grad_hooks
        if hooks is not None and self._hook in hooks:
            hooks.remove(self._hook)


def tensor(data: ArrayLike, requires_grad: bool = False, name: Optional[str] = None) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad, name=name)


# ---------------------------------------------------------------------------
# Elementwise binary operations
# ---------------------------------------------------------------------------

def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise addition with broadcasting."""
    a, b = Tensor._wrap(a), Tensor._wrap(b)
    out = a.data + b.data

    def backward(grad):
        return ops.unbroadcast(grad, a.shape), ops.unbroadcast(grad, b.shape)

    return a._make_child(out, (a, b), backward)


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise subtraction with broadcasting."""
    a, b = Tensor._wrap(a), Tensor._wrap(b)
    out = a.data - b.data

    def backward(grad):
        return ops.unbroadcast(grad, a.shape), ops.unbroadcast(-grad, b.shape)

    return a._make_child(out, (a, b), backward)


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise multiplication with broadcasting."""
    a, b = Tensor._wrap(a), Tensor._wrap(b)
    out = a.data * b.data

    def backward(grad):
        return (
            ops.unbroadcast(grad * b.data, a.shape),
            ops.unbroadcast(grad * a.data, b.shape),
        )

    return a._make_child(out, (a, b), backward)


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise division with broadcasting."""
    a, b = Tensor._wrap(a), Tensor._wrap(b)
    out = a.data / b.data

    def backward(grad):
        return (
            ops.unbroadcast(grad / b.data, a.shape),
            ops.unbroadcast(-grad * a.data / (b.data**2), b.shape),
        )

    return a._make_child(out, (a, b), backward)


# ---------------------------------------------------------------------------
# GEMM
# ---------------------------------------------------------------------------

def matmul(
    a: ArrayLike,
    b: ArrayLike,
    forward_hook: Optional[Callable[[Any], Any]] = None,
    name: Optional[str] = None,
) -> Tensor:
    """Batched matrix multiplication ``a @ b`` with an optional forward hook.

    The hook receives the raw output array and must return the array to use
    as the operation's forward value.  Fault injectors corrupt the output
    here, and the ABFT executor detects/corrects it here — both without
    touching gradient computation, because the matmul backward only needs the
    *inputs*.
    """
    a, b = Tensor._wrap(a), Tensor._wrap(b)
    out = ops.batched_matmul(a.data, b.data)
    if forward_hook is not None:
        out = forward_hook(out)

    def backward(grad):
        return ops.matmul_backward(grad, a.data, b.data)

    return a._make_child(out, (a, b), backward, name=name)


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------

def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Differentiable softmax along ``axis``."""
    x = Tensor._wrap(x)
    out = ops.softmax(x.data, axis=axis)

    def backward(grad):
        return (ops.softmax_backward(grad, out, axis=axis),)

    return x._make_child(out, (x,), backward)


def log_softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Differentiable log-softmax along ``axis``."""
    x = Tensor._wrap(x)
    out = ops.log_softmax(x.data, axis=axis)

    def backward(grad):
        return (ops.log_softmax_backward(grad, out, axis=axis),)

    return x._make_child(out, (x,), backward)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def gelu(x: ArrayLike) -> Tensor:
    """Differentiable GELU (tanh approximation)."""
    x = Tensor._wrap(x)
    out, t = ops.gelu(x.data)

    def backward(grad):
        return (ops.gelu_backward(grad, x.data, t),)

    return x._make_child(out, (x,), backward)


def tanh(x: ArrayLike) -> Tensor:
    """Differentiable tanh."""
    x = Tensor._wrap(x)
    out = ops.tanh(x.data)

    def backward(grad):
        return (ops.tanh_backward(grad, out),)

    return x._make_child(out, (x,), backward)


# ---------------------------------------------------------------------------
# Normalisation / regularisation
# ---------------------------------------------------------------------------

def layer_norm(x: ArrayLike, gamma: ArrayLike, beta: ArrayLike, eps: float = 1e-5) -> Tensor:
    """Differentiable layer normalisation over the last axis."""
    x = Tensor._wrap(x)
    gamma = Tensor._wrap(gamma)
    beta = Tensor._wrap(beta)
    out, x_hat, inv_std = ops.layer_norm(x.data, gamma.data, beta.data, eps=eps)

    def backward(grad):
        dx, dgamma, dbeta = ops.layer_norm_backward(grad, x_hat, inv_std, gamma.data)
        return dx, dgamma, dbeta

    return x._make_child(out, (x, gamma, beta), backward)


def dropout(x: ArrayLike, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Differentiable inverted dropout.

    In eval mode (``training=False``) or with ``p == 0`` this is the identity.
    The mask is drawn from ``rng``.
    """
    x = Tensor._wrap(x)
    if not training or p == 0.0:
        return x
    mask = ops.dropout_mask(x.shape, p, rng)
    out = x.data * mask

    def backward(grad):
        return (grad * mask,)

    return x._make_child(out, (x,), backward)


# ---------------------------------------------------------------------------
# Embedding lookup
# ---------------------------------------------------------------------------

def embedding(weight: ArrayLike, indices: Any) -> Tensor:
    """Differentiable embedding lookup ``weight[indices]``.

    ``indices`` is a plain integer array (no gradient flows into it).  The
    gradient w.r.t. ``weight`` scatters the output gradient back to the
    looked-up rows.
    """
    weight = Tensor._wrap(weight)
    idx = np.asarray(indices)
    out = weight.data[idx]

    def backward(grad):
        dw = np.zeros_like(weight.data)
        # Unbuffered scatter-add: repeated ids accumulate.
        np.add.at(dw, idx.reshape(-1), grad.reshape(-1, weight.data.shape[-1]))
        return (dw,)

    return weight._make_child(out, (weight,), backward)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

def reshape(x: ArrayLike, shape: Sequence[int]) -> Tensor:
    """Differentiable reshape."""
    x = Tensor._wrap(x)
    original = x.shape
    out = x.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(original),)

    return x._make_child(out, (x,), backward)


def transpose(x: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Differentiable transpose / axis permutation."""
    x = Tensor._wrap(x)
    out = np.transpose(x.data, axes)

    def backward(grad):
        inverse = None if axes is None else tuple(int(i) for i in np.argsort(axes))
        return (np.transpose(grad, inverse),)

    return x._make_child(out, (x,), backward)


def split_heads(x: ArrayLike, num_heads: int) -> Tensor:
    """Reshape ``(B, S, D)`` into ``(B, H, S, D/H)`` for multi-head attention."""
    x = Tensor._wrap(x)
    b, s, d = x.shape
    if d % num_heads:
        raise ValueError(f"hidden size {d} not divisible by num_heads {num_heads}")
    return transpose(reshape(x, (b, s, num_heads, d // num_heads)), (0, 2, 1, 3))


def merge_heads(x: ArrayLike) -> Tensor:
    """Inverse of :func:`split_heads`: ``(B, H, S, Dh)`` back to ``(B, S, H*Dh)``."""
    x = Tensor._wrap(x)
    b, h, s, dh = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, s, h * dh))


# ---------------------------------------------------------------------------
# Reductions / losses
# ---------------------------------------------------------------------------

def sum(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Differentiable sum reduction."""
    x = Tensor._wrap(x)
    out = np.sum(x.data, axis=axis, keepdims=keepdims)

    def backward(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.copy(np.broadcast_to(g, x.shape)),)

    return x._make_child(np.asarray(out), (x,), backward)


def mean(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Differentiable mean reduction."""
    x = Tensor._wrap(x)
    out = np.mean(x.data, axis=axis, keepdims=keepdims)
    if axis is None:
        count = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([x.shape[a] for a in axes]))

    def backward(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.copy(np.broadcast_to(g, x.shape)) / count,)

    return x._make_child(np.asarray(out), (x,), backward)


def cross_entropy_loss(logits: ArrayLike, labels: Any) -> Tensor:
    """Mean cross-entropy loss of ``logits`` (N, C) against int ``labels`` (N,).

    Implemented as a fused op (softmax + NLL) with the classic analytic
    gradient ``(softmax - onehot)/N`` for numerical stability.
    """
    logits = Tensor._wrap(logits)
    labels = np.asarray(labels)
    loss_value = ops.cross_entropy(logits.data, labels)

    def backward(grad):
        g = float(np.asarray(grad))
        return (g * ops.cross_entropy_backward(logits.data, labels),)

    return logits._make_child(np.asarray(loss_value), (logits,), backward, name="loss")
