"""One sequence-classification model for the four families of the paper.

BERT, RoBERTa, GPT-2 and GPT-Neo share one :class:`SequenceClassificationModel`
that reads every difference from its :class:`~repro.models.config.ModelConfig`:

* ``norm_style`` — ``"post_ln"`` (BERT, RoBERTa) normalises the embeddings
  and classifies the first token (``[CLS]`` / ``<s>``) through a pooler
  :class:`ClassificationHead`; ``"pre_ln"`` (GPT-2, GPT-Neo) normalises the
  last layer's output and classifies the last non-padding token with a
  linear ``score`` head, as HuggingFace's ``GPT2ForSequenceClassification``
  used by the paper does;
* ``causal`` — autoregressive attention, and with it KV-cached serving;
* ``family == "bert"`` — learned token-type (segment) embeddings, which
  RoBERTa drops;
* :meth:`~repro.models.config.ModelConfig.layer_uses_local_attention` —
  GPT-Neo's local-attention window on every other layer, which changes the
  attention-score sparsity and so the fault-propagation footprint of the
  ``qk`` / ``apv`` GEMMs in those layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.models.config import ModelConfig
from repro.nn.attention import (
    AttentionHooks,
    InstrumentedBlock,
    LayerKVCache,
    MultiHeadAttention,
)
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, TanhActivation
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module, ModuleList
from repro.nn.transformer import TransformerLayer
from repro.tensor import autograd as ag

__all__ = [
    "SequenceClassifierOutput",
    "ClassificationHead",
    "SequenceClassificationModel",
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
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.dense = Linear(hidden_size, hidden_size, rng=rng)
        self.activation = TanhActivation()
        self.dropout = Dropout(dropout_p, rng=rng)
        self.out_proj = Linear(hidden_size, num_labels, rng=rng)

    def forward(self, pooled: ag.Tensor) -> ag.Tensor:
        return self.out_proj(self.dropout(self.activation(self.dense(pooled))))


class SequenceClassificationModel(Module):
    """Transformer encoder or decoder with a sequence-classification head.

    The architecture follows ``config`` as the module docstring describes.
    Submodules are built in one fixed order (embeddings, layers, head), so
    a seed draws the same initial weights on every run and the parameter
    names, which are the state-dict keys, are stable.

    One :meth:`encode` serves training, prefill and decode; the KV caches,
    when given, pick the phase.  The uniform interface the trainer, the
    fault-injection campaigns and the serving engine rely on:

    * :meth:`attention_layers` — every :class:`MultiHeadAttention` in order;
    * :meth:`set_attention_hooks` — attach one hook object to every
      instrumented block (attention *and* feed-forward; a hook that only
      cares about attention simply ignores the FFN callbacks);
    * :meth:`new_kv_caches` / :meth:`prefill` / :meth:`decode_step` /
      :meth:`lm_logits` — KV-cached generation for the causal pre-LN
      decoders (GPT-2, GPT-Neo).  The ``score`` head serves as the generation
      head: greedy argmax over its ``num_labels`` outputs, which are valid
      next-token ids whenever ``num_labels <= vocab_size``.
    """

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = config
        self.loss_fn = CrossEntropyLoss()
        rng = rng if rng is not None else np.random.default_rng(0)
        d = config.hidden_size
        post_ln = config.norm_style == "post_ln"

        self.token_embeddings = Embedding(config.vocab_size, d, rng=rng)
        self.position_embeddings = Embedding(config.max_seq_len, d, rng=rng)
        if config.family == "bert":
            self.token_type_embeddings = Embedding(
                config.type_vocab_size, d, rng=rng
            )
        if post_ln:
            self.embedding_norm = LayerNorm(d)
        self.embedding_dropout = Dropout(config.dropout, rng=rng)

        self.layers = ModuleList(
            [
                TransformerLayer(
                    hidden_size=d,
                    num_heads=config.num_heads,
                    intermediate_size=config.intermediate_size,
                    dropout_p=config.dropout,
                    norm_style=config.norm_style,
                    causal=config.causal,
                    local_window=(
                        config.local_attention_window
                        if config.layer_uses_local_attention(i)
                        else None
                    ),
                    layer_index=i,
                    rng=rng,
                )
                for i in range(config.num_layers)
            ]
        )
        if post_ln:
            self.head = ClassificationHead(
                d, config.num_labels, config.dropout, rng
            )
        else:
            self.final_norm = LayerNorm(d)
            self.score = Linear(d, config.num_labels, rng=rng, bias=False)

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
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray],
        kv_caches: Optional[List[LayerKVCache]] = None,
    ) -> ag.Tensor:
        """Final hidden states ``(B, S, D)`` of ``input_ids``.

        Without ``kv_caches`` this is the full-sequence pass of training and
        evaluation.  With them, every layer reads and extends its cache —
        prefill while the caches are empty, decode after — and position ids
        continue from the cached length: absolute indices into the
        (left-)padded batch layout, exactly the positions the full-sequence
        pass uses, so decoding token ``t`` is numerically identical to
        re-running the whole prefix.
        """
        input_ids = np.asarray(input_ids, dtype=np.int64)
        config = self.config
        batch, seq_len = (int(s) for s in input_ids.shape)
        if kv_caches is None:
            start = 0
            kv_caches = [None] * config.num_layers
        elif len(kv_caches) != config.num_layers:
            raise ValueError(f"got {len(kv_caches)} KV caches for {config.num_layers} layers")
        else:
            start = kv_caches[0].length
        positions = np.broadcast_to(np.arange(start, start + seq_len), (batch, seq_len))

        hidden = ag.add(self.token_embeddings(input_ids), self.position_embeddings(positions))
        if config.family == "bert":
            token_types = np.zeros((batch, seq_len), dtype=np.int64)
            hidden = ag.add(hidden, self.token_type_embeddings(token_types))
        if config.norm_style == "post_ln":
            hidden = self.embedding_norm(hidden)
        hidden = self.embedding_dropout(hidden)
        for layer, cache in zip(self.layers, kv_caches):
            hidden = layer(hidden, attention_mask=attention_mask, kv_cache=cache)
        if config.norm_style == "pre_ln":
            hidden = self.final_norm(hidden)
        return hidden

    def pool(self, hidden: ag.Tensor, attention_mask: Optional[np.ndarray]) -> ag.Tensor:
        """Reduce ``(B, S, D)`` hidden states to ``(B, D)``.

        Post-LN encoders take the first token, pre-LN decoders the last
        non-padding token of each sequence.  The pick is a differentiable
        one-hot contraction, so the autograd graph needs no indexing op.
        """
        batch, seq_len, d = hidden.shape
        if self.config.norm_style == "post_ln":
            selector = np.zeros((seq_len, 1))
            selector[0, 0] = 1.0
        else:
            if attention_mask is None:
                last_index = np.full(batch, seq_len - 1, dtype=np.int64)
            else:
                lengths = np.asarray(attention_mask).sum(axis=-1).astype(np.int64)
                last_index = np.clip(lengths - 1, 0, seq_len - 1)
            selector = np.zeros((batch, seq_len, 1))
            selector[np.arange(batch), last_index, 0] = 1.0
        # (B, S, D) -> (B, D, S) @ selector -> (B, D, 1) -> (B, D)
        picked = ag.matmul(ag.transpose(hidden, (0, 2, 1)), selector)
        return ag.reshape(picked, (batch, d))

    def forward(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
    ) -> SequenceClassifierOutput:
        hidden = self.encode(input_ids, attention_mask)
        pooled = self.pool(hidden, attention_mask)
        if self.config.norm_style == "post_ln":
            logits = self.head(pooled)
        else:
            logits = self.score(pooled)
        loss = None
        if labels is not None:
            loss = self.loss_fn(logits, labels)
        return SequenceClassifierOutput(logits=logits, loss=loss, hidden_states=hidden)

    # -- KV-cached generation (causal models) ---------------------------------------

    def new_kv_caches(self, batch_size: int, max_len: Optional[int] = None) -> List[LayerKVCache]:
        """One empty per-layer KV cache."""
        config = self.config
        length = int(max_len) if max_len is not None else config.max_seq_len
        return [
            LayerKVCache(batch_size, config.num_heads, config.head_dim, length)
            for _ in self.layers
        ]

    def prefill(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray],
        kv_caches: List[LayerKVCache],
    ) -> ag.Tensor:
        """Full-prompt forward that seeds ``kv_caches``; returns ``(B, S, D)``."""
        return self.encode(input_ids, attention_mask, kv_caches)

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
        shape = np.shape(input_ids)
        if len(shape) != 2 or shape[-1] != 1:
            raise ValueError(f"decode_step expects (batch, 1) ids, got {shape}")
        return self.encode(input_ids, attention_mask, kv_caches)

    def lm_logits(self, hidden: ag.Tensor) -> ag.Tensor:
        """Generation logits of the ``score`` head over ``hidden`` states."""
        return self.score(hidden)
