"""Stateless vectorised array kernels and their analytical gradients.

Every function here is a *pure* NumPy array kernel: no global state and no
autograd bookkeeping.  The autograd engine (:mod:`repro.tensor.autograd`) composes
these kernels into differentiable operations; the fault-injection and ABFT
machinery calls them directly on raw arrays.

Following the HPC-Python guides, every kernel is expressed with broadcasting
and whole-array operations — there are no Python-level loops over matrix
elements anywhere in this module.  Each kernel executes the exact operation
sequence of the historical pure-NumPy implementation, so
results are bit-identical to earlier releases — except GELU: its cube is
``x * x * x``, as a libm ``pow`` per element took half a training step
(last bits differ; INF/NaN outcomes do not).
"""

from __future__ import annotations

import math
from typing import Any, Tuple

import numpy as np

__all__ = [
    "batched_matmul",
    "matmul_backward",
    "softmax",
    "softmax_backward",
    "log_softmax",
    "log_softmax_backward",
    "gelu",
    "gelu_backward",
    "tanh",
    "tanh_backward",
    "layer_norm",
    "layer_norm_backward",
    "dropout_mask",
    "cross_entropy",
    "cross_entropy_backward",
    "unbroadcast",
]


# ---------------------------------------------------------------------------
# GEMM
# ---------------------------------------------------------------------------

def batched_matmul(a: Any, b: Any) -> Any:
    """Batched matrix multiplication ``a @ b`` with NumPy-style broadcasting.

    Shapes follow the ``matmul`` convention: the last two axes are the matrix
    dimensions and all leading axes broadcast.  This is the single kernel
    underlying all six GEMMs of the attention mechanism (Figure 1 of the
    paper), dispatched to NumPy's BLAS.
    """
    return np.matmul(a, b)


def matmul_backward(
    grad_out: Any, a: Any, b: Any
) -> Tuple[Any, Any]:
    """Gradients of ``c = a @ b`` w.r.t. ``a`` and ``b``.

    ``grad_a = grad_out @ b^T`` and ``grad_b = a^T @ grad_out``; broadcasting
    over leading batch axes is undone by summing (:func:`unbroadcast`).
    """
    grad_a = np.matmul(grad_out, np.swapaxes(b, -1, -2))
    grad_b = np.matmul(np.swapaxes(a, -1, -2), grad_out)
    return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)


def unbroadcast(grad: Any, shape: Tuple[int, ...]) -> Any:
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting.

    Sums over axes that were added or expanded by broadcasting.  Needed by
    every binary operation's backward pass.
    """
    shape = tuple(shape)
    if tuple(grad.shape) == shape:
        return grad
    # Sum over leading axes that broadcasting added.
    while grad.ndim > len(shape):
        grad = np.sum(grad, axis=0)
    # Sum over axes that were size-1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = np.sum(grad, axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------

def softmax(x: Any, axis: int = -1) -> Any:
    """Numerically-stable softmax along ``axis``.

    NaN inputs propagate to NaN outputs (IEEE semantics); INF inputs produce
    the usual one-hot-at-infinity behaviour.  This matters for the error
    propagation study: the paper's Table 2 shows INF in the attention score
    becoming NaN after softmax (because ``inf - inf`` appears in the shifted
    exponent), and this kernel reproduces exactly that behaviour.
    """
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    del shifted  # in-place from here: one (B, H, S, S) temporary at a time
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def softmax_backward(grad_out: Any, out: Any, axis: int = -1) -> Any:
    """Backward pass of softmax given its output ``out``."""
    dot = np.sum(grad_out * out, axis=axis, keepdims=True)
    return out * (grad_out - dot)


def log_softmax(x: Any, axis: int = -1) -> Any:
    """Numerically-stable ``log(softmax(x))``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def log_softmax_backward(grad_out: Any, out: Any, axis: int = -1) -> Any:
    """Backward pass of log-softmax given its output ``out`` (= log p)."""
    softmax_out = np.exp(out)
    return grad_out - softmax_out * np.sum(grad_out, axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Any) -> Tuple[Any, Any]:
    """GELU (tanh approximation, as in BERT/GPT-2); returns ``(out, tanh(u))``.

    Rounds like ``0.5 * x * (1.0 + tanh(c * (x + 0.044715 * (x * x * x))))``.
    """
    u = x * x
    u *= x
    u *= 0.044715
    u += x
    u *= _GELU_C
    t = np.tanh(u)
    del u  # freed before out and 1.0 + t exist: one array less at peak
    out = 0.5 * x
    out *= 1.0 + t
    return out, t


def gelu_backward(grad_out: Any, x: Any, t: Any) -> Any:
    """Analytical gradient of GELU, reusing the ``t`` that :func:`gelu` returned.

    Rounds like ``grad_out * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du_dx)``.
    """
    du_dx = x * x
    du_dx *= 3 * 0.044715
    du_dx += 1.0
    du_dx *= _GELU_C
    slope = -t  # -(t * t) + 1.0 rounds like 1.0 - t * t
    slope *= t
    slope += 1.0
    slope *= 0.5 * x
    slope *= du_dx
    dgelu = 1.0 + t
    dgelu *= 0.5
    dgelu += slope
    return grad_out * dgelu


def tanh(x: Any) -> Any:
    """Hyperbolic tangent."""
    return np.tanh(x)


def tanh_backward(grad_out: Any, out: Any) -> Any:
    """Gradient of tanh given its output."""
    return grad_out * (1.0 - out**2)


# ---------------------------------------------------------------------------
# Layer normalisation
# ---------------------------------------------------------------------------

def layer_norm(
    x: Any,
    gamma: Any,
    beta: Any,
    eps: float = 1e-5,
) -> Tuple[Any, Any, Any]:
    """Layer normalisation over the last axis.

    Returns ``(out, x_hat, inv_std)`` where the last two are cached for the
    backward pass.  Uses the biased variance (NumPy's default).
    """
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    # In place, so no intermediate (B, S, D) array outlives its line.
    x_hat = x - mean
    x_hat *= inv_std
    out = gamma * x_hat
    out += beta
    return out, x_hat, inv_std


def layer_norm_backward(
    grad_out: Any,
    x_hat: Any,
    inv_std: Any,
    gamma: Any,
) -> Tuple[Any, Any, Any]:
    """Gradients of layer norm w.r.t. input, gamma and beta."""
    d = x_hat.shape[-1]
    dgamma_axes = tuple(range(x_hat.ndim - 1))
    dgamma = np.sum(grad_out * x_hat, axis=dgamma_axes)
    dbeta = np.sum(grad_out, axis=dgamma_axes)
    dxhat = grad_out * gamma
    dx = (
        inv_std
        / d
        * (
            d * dxhat
            - np.sum(dxhat, axis=-1, keepdims=True)
            - x_hat * np.sum(dxhat * x_hat, axis=-1, keepdims=True)
        )
    )
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# Dropout / losses / misc
# ---------------------------------------------------------------------------

def dropout_mask(shape: Tuple[int, ...], p: float, rng: np.random.Generator) -> Any:
    """Inverted-dropout mask: zeros with probability ``p``, else ``1/(1-p)``.

    The mask is drawn from the caller's ``rng``, so runs are reproducible.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        mask = np.ones(shape, dtype=np.float64)
    else:
        keep = rng.random(shape) >= p
        mask = keep.astype(np.float64) / (1.0 - p)
    return mask


def cross_entropy(logits: Any, labels: Any) -> float:
    """Mean cross-entropy of ``logits`` (N, C) against integer ``labels`` (N,).

    Returns NaN if the logits contain NaN — this is precisely the
    "non-trainable state" signal the paper's vulnerability study keys on.
    """
    logp = log_softmax(logits, axis=-1)
    n = logits.shape[0]
    picked = logp[np.arange(n), np.asarray(labels)]
    return float(-np.mean(picked))


def cross_entropy_backward(logits: Any, labels: Any) -> Any:
    """Gradient of mean cross-entropy w.r.t. the logits."""
    n = logits.shape[0]
    p = softmax(logits, axis=-1)
    grad = np.copy(p)
    grad[np.arange(n), np.asarray(labels)] -= 1.0
    return grad / n
