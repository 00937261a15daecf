"""Model configuration objects.

A :class:`ModelConfig` fully determines an architecture: family, width, depth,
attention geometry and classification head.  The registry
(:mod:`repro.models.registry`) provides named configs in two sizes — ``tiny``
(runnable on CPU in milliseconds) and ``paper`` (the published dimensions,
used by the analytical performance model).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["ModelConfig"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters for one model.

    Attributes
    ----------
    name:
        Registry name, e.g. ``"bert-base"``.
    family:
        One of ``"bert"``, ``"roberta"``, ``"gpt2"``, ``"gpt-neo"``.
    vocab_size, hidden_size, num_layers, num_heads, intermediate_size:
        The usual transformer dimensions.
    max_seq_len:
        Maximum (and, for the experiments, actual) sequence length.
    num_labels:
        Output classes of the sequence-classification head (MRPC: 2).
    dropout:
        Dropout probability applied to attention probabilities, residuals and
        the classifier.
    norm_style:
        ``"post_ln"`` for encoder models, ``"pre_ln"`` for decoder models.
    causal:
        Whether attention is autoregressive.
    local_attention_window:
        GPT-Neo's local-attention window; ``None`` disables local attention.
    local_attention_every:
        Apply local attention on every ``local_attention_every``-th layer
        (GPT-Neo alternates global / local, i.e. 2).
    """

    name: str
    family: str
    vocab_size: int
    hidden_size: int
    num_layers: int
    num_heads: int
    intermediate_size: int
    max_seq_len: int
    num_labels: int = 2
    dropout: float = 0.1
    norm_style: str = "post_ln"
    causal: bool = False
    local_attention_window: Optional[int] = None
    local_attention_every: int = 2
    type_vocab_size: int = 2

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads:
            raise ValueError(
                f"hidden_size={self.hidden_size} must be divisible by num_heads={self.num_heads}"
            )
        if self.norm_style not in ("post_ln", "pre_ln"):
            raise ValueError(f"invalid norm_style {self.norm_style!r}")
        if self.family not in ("bert", "roberta", "gpt2", "gpt-neo"):
            raise ValueError(f"unknown model family {self.family!r}")

    @property
    def head_dim(self) -> int:
        """Per-head dimension d_k."""
        return self.hidden_size // self.num_heads

    def layer_uses_local_attention(self, layer_index: int) -> bool:
        """Whether layer ``layer_index`` uses GPT-Neo-style local attention."""
        if self.local_attention_window is None:
            return False
        return (layer_index % self.local_attention_every) == 1

    def scaled(self, **overrides) -> "ModelConfig":
        """Return a copy with some fields replaced (used to derive tiny configs)."""
        return replace(self, **overrides)

    # -- parameter / FLOP accounting (used by Table 3 and the perf model) -------

    def attention_parameter_count(self) -> int:
        """Parameters of one attention block (4 projection matrices + biases)."""
        d = self.hidden_size
        return 4 * (d * d + d)

    def layer_parameter_count(self) -> int:
        """Parameters of one transformer layer (attention + FFN + 2 layer norms)."""
        d, i = self.hidden_size, self.intermediate_size
        ffn = d * i + i + i * d + d
        norms = 4 * d
        return self.attention_parameter_count() + ffn + norms

    def parameter_count(self) -> int:
        """Parameters of the model :func:`repro.models.build_model` builds.

        Token and position embeddings (plus token-type embeddings for family
        ``bert`` only), the layers, and by ``norm_style`` either an
        embedding LayerNorm and a pooler head (dense + classifier, both with
        bias; post-LN) or a final LayerNorm and a bias-free ``score``
        (pre-LN).
        """
        d = self.hidden_size
        emb = self.vocab_size * d + self.max_seq_len * d
        if self.family == "bert":
            emb += self.type_vocab_size * d
        norm = 2 * d
        if self.norm_style == "post_ln":
            head = d * d + d + d * self.num_labels + self.num_labels
        else:
            head = d * self.num_labels
        return emb + norm + self.num_layers * self.layer_parameter_count() + head

    def attention_other_flops(self, batch_size: int, seq_len: Optional[int] = None) -> int:
        """Non-GEMM FLOPs in attention (softmax, scaling, bias adds, dropout).

        Softmax over each row of AS costs ~5 FLOPs per element (max, subtract,
        exp, sum, divide); scaling and masking ~2; bias adds ~1 per projected
        element.
        """
        s = seq_len if seq_len is not None else self.max_seq_len
        d = self.hidden_size
        h = self.num_heads
        b = batch_size
        softmax_cost = 7 * b * h * s * s
        bias_cost = 4 * b * s * d
        return softmax_cost + bias_cost
