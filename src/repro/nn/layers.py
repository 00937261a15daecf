"""Standard layers: Linear, LayerNorm, Embedding, Dropout, activations.

Every parameterised layer takes an optional ``backend``
(:class:`repro.backend.ArrayBackend`): weights are initialised on the host
(seed-reproducible regardless of compute library) and adopted into the
backend's array type once, at construction — after that the layer's forward,
backward and update run natively on that backend.  ``backend=None`` keeps the
historical pure-NumPy substrate, byte for byte.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.backend import ArrayBackend
from repro.nn.module import Module, Parameter
from repro.tensor import autograd as ag
from repro.tensor import init as tinit

__all__ = [
    "Linear",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "GELUActivation",
    "TanhActivation",
]


class Linear(Module):
    """Affine transform ``y = x W + b`` with weight shape ``(in, out)``.

    The weight layout intentionally matches the paper's GEMM orientation
    (activations times a parameter matrix, e.g. ``X x W_Q``), so the attention
    module can hand the raw weight matrix straight to the ABFT checksum
    encoder without transposition.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
        init_std: float = 0.02,
        backend: Optional[ArrayBackend] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            tinit.adopt(tinit.normal_init((in_features, out_features), rng, std=init_std), backend),
            name="weight", backend=backend,
        )
        self.bias = Parameter(
            tinit.adopt(tinit.zeros_init((out_features,)), backend),
            name="bias", backend=backend,
        ) if bias else None

    def forward(self, x: ag.Tensor) -> ag.Tensor:
        out = ag.matmul(x, self.weight)
        if self.bias is not None:
            out = ag.add(out, self.bias)
        return out


class LayerNorm(Module):
    """Layer normalisation over the last dimension with learnable affine."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5,
                 backend: Optional[ArrayBackend] = None) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(
            tinit.adopt(np.ones(normalized_shape), backend), name="weight", backend=backend,
        )
        self.bias = Parameter(
            tinit.adopt(np.zeros(normalized_shape), backend), name="bias", backend=backend,
        )

    def forward(self, x: ag.Tensor) -> ag.Tensor:
        return ag.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Embedding(Module):
    """Token / position embedding table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        init_std: float = 0.02,
        backend: Optional[ArrayBackend] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            tinit.adopt(tinit.normal_init((num_embeddings, embedding_dim), rng, std=init_std), backend),
            name="weight", backend=backend,
        )

    def forward(self, indices: Any) -> ag.Tensor:
        # Host index arrays adopt into the weight's backend inside the lookup
        # (the h2d crossing of the input batch); native index arrays pass
        # straight through — after the same integer coercion the host path
        # has always applied.
        backend = self.weight.backend
        if backend.is_backend_array(indices):
            if not np.issubdtype(backend.dtype_of(indices), np.integer):
                xp = backend.namespace_for(indices)
                indices = xp.astype(indices, xp.int64, copy=False)
            return ag.embedding(self.weight, indices)
        return ag.embedding(self.weight, np.asarray(indices, dtype=np.int64))


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    The mask is drawn on the host from ``rng`` (reproducible across array
    backends) and adopted into the input's backend by the dropout kernel.
    """

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: ag.Tensor) -> ag.Tensor:
        return ag.dropout(x, self.p, self.rng, training=self.training)


class GELUActivation(Module):
    """GELU activation module."""

    def forward(self, x: ag.Tensor) -> ag.Tensor:
        return ag.gelu(x)


class TanhActivation(Module):
    """Tanh activation module (used by the BERT pooler)."""

    def forward(self, x: ag.Tensor) -> ag.Tensor:
        return ag.tanh(x)
