"""Transformer building blocks: feed-forward network and full layers.

Two residual arrangements are supported, covering the four LLM families the
paper evaluates:

* ``post_ln`` (BERT / RoBERTa): ``LN(x + SubLayer(x))``
* ``pre_ln``  (GPT-2 / GPT-Neo): ``x + SubLayer(LN(x))``

:class:`FeedForward` is an :class:`~repro.nn.attention.InstrumentedBlock`,
like attention.  :meth:`TransformerLayer.forward` serves training, prefill
and decode, taking the phase from the KV cache.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.hooks import FeedForwardOp
from repro.nn.attention import InstrumentedBlock, LayerKVCache, MultiHeadAttention, phase_of
from repro.nn.layers import Dropout, GELUActivation, LayerNorm, Linear
from repro.nn.module import Module
from repro.tensor import autograd as ag

__all__ = ["FeedForward", "TransformerLayer"]


class FeedForward(InstrumentedBlock):
    """Position-wise feed-forward network (Linear -> GELU -> Linear).

    Both GEMMs, ``x·W_up`` and ``h·W_down``, go through the shared hooked
    GEMM and end a protection section (``FF1`` / ``FF2``; GELU between them
    is nonlinear, so no checksum can be carried across).  The block pass is
    announced as ``"ffn"``.  The bias adds run outside the sections, like
    attention's output-projection bias; with no hooks the arithmetic is that
    of two :class:`~repro.nn.Linear` layers.

    Decode uses the same instrumentation with ``phase="decode"``: the FFN
    has no cross-token state, so one decoded token is the training algebra
    at sequence length 1 — O(1) per token with no incremental cache.
    """

    def __init__(
        self,
        hidden_size: int,
        intermediate_size: int,
        dropout_p: float = 0.0,
        layer_index: int = 0,
        num_heads: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        # FFN GEMMs report the layer's attention geometry unchanged (no FFN
        # checksum op reads it).
        super().__init__(hidden_size, num_heads, layer_index)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.intermediate_size = intermediate_size
        self.fc_in = Linear(hidden_size, intermediate_size, rng=rng)
        self.act = GELUActivation()
        self.fc_out = Linear(intermediate_size, hidden_size, rng=rng)
        self.dropout = Dropout(dropout_p, rng=rng)

    def forward(self, x: ag.Tensor, phase: str = "train") -> ag.Tensor:
        hooks = self.hooks
        self._step += 1
        step = self._step
        if hooks is not None:
            hooks.on_block_start("ffn", self.layer_index, step)
        h_raw = self._instrumented_matmul(
            x, self.fc_in.weight, FeedForwardOp.UP,
            section_operands={"x": x.data, "w_up": self.fc_in.weight.data}, phase=phase,
        )
        if self.fc_in.bias is not None:
            h_raw = ag.add(h_raw, self.fc_in.bias)
        h = self.act(h_raw)
        out = self._instrumented_matmul(
            h, self.fc_out.weight, FeedForwardOp.DOWN,
            section_operands={"h": h.data, "w_down": self.fc_out.weight.data}, phase=phase,
        )
        if self.fc_out.bias is not None:
            out = ag.add(out, self.fc_out.bias)
        out = self.dropout(out)
        if hooks is not None:
            hooks.on_block_end("ffn", self.layer_index, step)
        return out


class TransformerLayer(Module):
    """One transformer layer: attention + feed-forward with residuals.

    Parameters
    ----------
    norm_style:
        ``"post_ln"`` (BERT-like) or ``"pre_ln"`` (GPT-like).
    causal / local_window:
        Forwarded to :class:`MultiHeadAttention`.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        intermediate_size: int,
        dropout_p: float = 0.0,
        norm_style: str = "post_ln",
        causal: bool = False,
        local_window: Optional[int] = None,
        layer_index: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if norm_style not in ("post_ln", "pre_ln"):
            raise ValueError(f"unknown norm_style {norm_style!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.norm_style = norm_style
        self.attention = MultiHeadAttention(
            hidden_size,
            num_heads,
            dropout_p=dropout_p,
            layer_index=layer_index,
            causal=causal,
            local_window=local_window,
            rng=rng,
        )
        self.attn_norm = LayerNorm(hidden_size)
        self.ffn = FeedForward(
            hidden_size, intermediate_size, dropout_p=dropout_p,
            layer_index=layer_index, num_heads=num_heads, rng=rng,
        )
        self.ffn_norm = LayerNorm(hidden_size)
        self.dropout = Dropout(dropout_p, rng=rng)

    def forward(
        self,
        x: ag.Tensor,
        attention_mask: Optional[np.ndarray] = None,
        kv_cache: Optional[LayerKVCache] = None,
    ) -> ag.Tensor:
        """Run the layer on ``x``; ``kv_cache`` selects prefill or decode
        exactly as in :meth:`MultiHeadAttention.forward`."""
        if self.norm_style == "post_ln":
            if kv_cache is not None:
                raise ValueError(
                    "KV-cached decoding requires a causal (pre-LN) layer; "
                    "post-LN encoder layers have no decode path"
                )
            attn_out = self.attention(x, attention_mask=attention_mask)
            x = self.attn_norm(ag.add(x, self.dropout(attn_out)))
            ffn_out = self.ffn(x)
            x = self.ffn_norm(ag.add(x, ffn_out))
            return x
        # pre-LN (GPT-2 / GPT-Neo).  The phase is read before attention
        # appends this pass's K/V rows to the cache.
        phase = phase_of(kv_cache)
        attn_out = self.attention(
            self.attn_norm(x), attention_mask=attention_mask, kv_cache=kv_cache
        )
        x = ag.add(x, self.dropout(attn_out))
        ffn_out = self.ffn(self.ffn_norm(x), phase=phase)
        x = ag.add(x, ffn_out)
        return x
