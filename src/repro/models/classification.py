"""Shared pieces of the sequence-classification models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.backend import ArrayBackend
from repro.models.config import ModelConfig
from repro.nn.attention import (
    AttentionHooks,
    InstrumentedBlock,
    LayerKVCache,
    MultiHeadAttention,
)
from repro.nn.layers import Dropout, Linear, TanhActivation
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.tensor import autograd as ag

__all__ = [
    "SequenceClassifierOutput",
    "ClassificationHead",
    "SequenceClassificationModel",
    "CausalDecodingMixin",
]


@dataclass
class SequenceClassifierOutput:
    """Return value of every model's forward pass.

    Attributes
    ----------
    logits:
        Classification logits tensor of shape ``(batch, num_labels)``.
    loss:
        Scalar loss tensor when labels were provided, else ``None``.
    hidden_states:
        Final hidden states ``(batch, seq, hidden)``.
    """

    logits: ag.Tensor
    loss: Optional[ag.Tensor] = None
    hidden_states: Optional[ag.Tensor] = None

    @property
    def loss_value(self) -> Optional[float]:
        """The loss as a Python float (NaN signals a non-trainable state)."""
        return None if self.loss is None else float(self.loss.data)


class ClassificationHead(Module):
    """Pooler + classifier used by the encoder models (BERT / RoBERTa)."""

    def __init__(self, hidden_size: int, num_labels: int, dropout_p: float,
                 rng: np.random.Generator, backend: Optional[ArrayBackend] = None) -> None:
        super().__init__()
        self.dense = Linear(hidden_size, hidden_size, rng=rng, backend=backend)
        self.activation = TanhActivation()
        self.dropout = Dropout(dropout_p, rng=rng)
        self.out_proj = Linear(hidden_size, num_labels, rng=rng, backend=backend)

    def forward(self, pooled: ag.Tensor) -> ag.Tensor:
        return self.out_proj(self.dropout(self.activation(self.dense(pooled))))


class CausalDecodingMixin:
    """KV-cached autoregressive decoding for the causal decoder models.

    Mixed into GPT-2 / GPT-Neo (pre-LN decoders exposing
    ``token_embeddings`` / ``position_embeddings`` / ``embedding_dropout`` /
    ``layers`` / ``final_norm`` / ``score``).  The serving path treats the
    ``score`` head as the generation head: greedy argmax over its
    ``num_labels`` outputs, which are valid next-token ids whenever
    ``num_labels <= vocab_size`` (the serving harness builds its models that
    way).  Position ids are absolute indices into the (left-)padded batch
    layout — exactly the ``arange`` positions the full-sequence
    :meth:`SequenceClassificationModel.encode` uses, so a decode of token
    ``t`` is numerically identical to re-running the full prefix forward.
    """

    def new_kv_caches(self, batch_size: int, max_len: Optional[int] = None) -> List[LayerKVCache]:
        """One empty per-layer KV cache, allocated on the model's backend."""
        config = self.config
        length = int(max_len) if max_len is not None else config.max_seq_len
        backend = self.array_backend
        xp = backend.xp if backend is not None else np
        return [
            LayerKVCache(batch_size, config.num_heads, config.head_dim, length, xp)
            for _ in self.layers
        ]

    def _embed(self, input_ids: np.ndarray, positions: np.ndarray) -> ag.Tensor:
        hidden = ag.add(self.token_embeddings(input_ids), self.position_embeddings(positions))
        return self.embedding_dropout(hidden)

    def prefill(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray],
        kv_caches: List[LayerKVCache],
    ) -> ag.Tensor:
        """Full-prompt forward that seeds ``kv_caches``; returns ``(B, S, D)``."""
        if len(kv_caches) != len(self.layers):
            raise ValueError(
                f"got {len(kv_caches)} KV caches for {len(self.layers)} layers"
            )
        input_ids = np.asarray(input_ids, dtype=np.int64)
        batch, seq_len = (int(s) for s in input_ids.shape)
        positions = np.broadcast_to(np.arange(seq_len), (batch, seq_len))
        hidden = self._embed(input_ids, positions)
        for layer, cache in zip(self.layers, kv_caches):
            hidden = layer(hidden, attention_mask=attention_mask, kv_cache=cache)
        return self.final_norm(hidden)

    def decode_step(
        self,
        input_ids: np.ndarray,
        kv_caches: List[LayerKVCache],
        attention_mask: Optional[np.ndarray] = None,
    ) -> ag.Tensor:
        """Decode one token per sequence against populated caches.

        ``input_ids`` is ``(B, 1)``; ``attention_mask`` covers the whole
        padded layout (``(B, max_len)``, 1s for positions not yet decoded)
        and must be the *same array object* every step so the attention
        layer's decode-mask cache hits.  Returns final hidden states
        ``(B, 1, D)``.
        """
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if input_ids.ndim != 2 or input_ids.shape[-1] != 1:
            raise ValueError(f"decode_step expects (batch, 1) ids, got {input_ids.shape}")
        batch = int(input_ids.shape[0])
        position = kv_caches[0].length  # 0-based index of the token being decoded
        positions = np.full((batch, 1), position, dtype=np.int64)
        hidden = self._embed(input_ids, positions)
        for layer, cache in zip(self.layers, kv_caches):
            hidden = layer(hidden, attention_mask=attention_mask, kv_cache=cache)
        return self.final_norm(hidden)

    def lm_logits(self, hidden: ag.Tensor) -> ag.Tensor:
        """Generation logits of the ``score`` head over ``hidden`` states."""
        return self.score(hidden)


class SequenceClassificationModel(Module):
    """Base class providing hook plumbing and the loss head.

    Subclasses implement :meth:`encode` returning final hidden states; this
    base class handles pooling, classification and loss computation, and the
    uniform interface the trainer / fault-injection campaigns rely on:

    * :meth:`attention_layers` — every :class:`MultiHeadAttention` in order;
    * :meth:`set_attention_hooks` — attach one hook object to every
      instrumented block (attention *and* feed-forward; a hook that only
      cares about attention simply ignores the FFN callbacks).

    ``array_backend`` is the :class:`~repro.backend.ArrayBackend` the model's
    parameters live on (``None`` = the NumPy substrate); subclasses thread it
    into every layer so forward, backward and the optimiser update all run on
    that backend.
    """

    def __init__(self, config: ModelConfig,
                 array_backend: Optional[ArrayBackend] = None) -> None:
        super().__init__()
        self.config = config
        self.array_backend = array_backend
        self.loss_fn = CrossEntropyLoss()

    # -- attention instrumentation ------------------------------------------------

    def attention_layers(self) -> List[MultiHeadAttention]:
        """All attention modules of the model, in layer order."""
        return [m for _, m in self.named_modules() if isinstance(m, MultiHeadAttention)]

    def set_attention_hooks(self, hooks: Optional[AttentionHooks]) -> None:
        """Attach ``hooks`` to every instrumented block (``None`` detaches).

        Both the attention and the feed-forward modules receive the same
        hook object; blocks outside a checker's ``protect_scope`` dispatch
        to no-op callbacks, so attention-only configurations behave exactly
        as before the FFN was instrumented.
        """
        for _, module in self.named_modules():
            if isinstance(module, InstrumentedBlock):
                module.set_hooks(hooks)

    # -- forward interface ---------------------------------------------------------

    def encode(
        self, input_ids: np.ndarray, attention_mask: Optional[np.ndarray]
    ) -> ag.Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def pool(self, hidden: ag.Tensor, attention_mask: Optional[np.ndarray]) -> ag.Tensor:
        """Reduce ``(B, S, D)`` hidden states to ``(B, D)`` (family-specific)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def classify(self, pooled: ag.Tensor) -> ag.Tensor:
        raise NotImplementedError  # pragma: no cover - abstract

    def forward(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
    ) -> SequenceClassifierOutput:
        backend = self.array_backend
        if backend is not None and backend.is_backend_array(input_ids):
            # Native token ids stay put, but must still be integer (owning the
            # array type says nothing about the dtype).
            if not np.issubdtype(backend.dtype_of(input_ids), np.integer):
                xp = backend.namespace_for(input_ids)
                input_ids = xp.astype(input_ids, xp.int64, copy=False)
        else:
            input_ids = np.asarray(input_ids, dtype=np.int64)
        hidden = self.encode(input_ids, attention_mask)
        pooled = self.pool(hidden, attention_mask)
        logits = self.classify(pooled)
        loss = None
        if labels is not None:
            loss = self.loss_fn(logits, labels)
        return SequenceClassifierOutput(logits=logits, loss=loss, hidden_states=hidden)
