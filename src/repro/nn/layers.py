"""Standard layers: Linear, LayerNorm, Embedding, Dropout, activations.

Weights are drawn from the caller's ``rng``, so a seed reproduces a model
byte for byte.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

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
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            tinit.normal_init((in_features, out_features), rng, std=init_std), name="weight"
        )
        self.bias = Parameter(
            tinit.zeros_init((out_features,)), name="bias"
        ) if bias else None

    def forward(self, x: ag.Tensor) -> ag.Tensor:
        out = ag.matmul(x, self.weight)
        if self.bias is not None:
            out = ag.add(out, self.bias)
        return out


class LayerNorm(Module):
    """Layer normalisation over the last dimension with learnable affine."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape), name="weight")
        self.bias = Parameter(np.zeros(normalized_shape), name="bias")

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
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            tinit.normal_init((num_embeddings, embedding_dim), rng, std=init_std), name="weight"
        )

    def forward(self, indices: Any) -> ag.Tensor:
        return ag.embedding(self.weight, np.asarray(indices, dtype=np.int64))


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    The mask is drawn from ``rng``.
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
