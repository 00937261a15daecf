"""Model registry: named configurations in ``paper`` and ``tiny`` sizes.

``paper`` configs carry the published dimensions and are consumed by the
analytical workload / performance models (Table 3, Figures 7–12).  ``tiny``
configs shrink width, depth and sequence length so real training steps run in
milliseconds on CPU; they drive the fault-injection, propagation and
training-loss experiments (Tables 2 & 4, Figure 6, Section 5.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.models.classification import SequenceClassificationModel
from repro.models.config import ModelConfig

__all__ = [
    "PAPER_CONFIGS",
    "TINY_CONFIGS",
    "PAPER_MODEL_NAMES",
    "get_config",
    "build_model",
    "list_models",
]

# ---------------------------------------------------------------------------
# Published ("paper") dimensions
# ---------------------------------------------------------------------------

PAPER_CONFIGS: Dict[str, ModelConfig] = {
    "bert-small": ModelConfig(
        name="bert-small", family="bert", vocab_size=30522, hidden_size=512,
        num_layers=4, num_heads=8, intermediate_size=2048, max_seq_len=128,
    ),
    "bert-base": ModelConfig(
        name="bert-base", family="bert", vocab_size=30522, hidden_size=768,
        num_layers=12, num_heads=12, intermediate_size=3072, max_seq_len=128,
    ),
    "bert-large": ModelConfig(
        name="bert-large", family="bert", vocab_size=30522, hidden_size=1024,
        num_layers=24, num_heads=16, intermediate_size=4096, max_seq_len=128,
    ),
    "gpt2": ModelConfig(
        name="gpt2", family="gpt2", vocab_size=50257, hidden_size=768,
        num_layers=12, num_heads=12, intermediate_size=3072, max_seq_len=128,
        norm_style="pre_ln", causal=True,
    ),
    "gpt-neo": ModelConfig(
        name="gpt-neo", family="gpt-neo", vocab_size=50257, hidden_size=768,
        num_layers=12, num_heads=12, intermediate_size=3072, max_seq_len=128,
        norm_style="pre_ln", causal=True, local_attention_window=256,
    ),
    "roberta": ModelConfig(
        name="roberta", family="roberta", vocab_size=50265, hidden_size=768,
        num_layers=12, num_heads=12, intermediate_size=3072, max_seq_len=128,
    ),
}

#: The four models of the main evaluation (Figures 6, 8, 11; Tables 2-4).
PAPER_MODEL_NAMES: List[str] = ["bert-base", "gpt2", "gpt-neo", "roberta"]

#: The six models of the overhead study (Figure 7).
OVERHEAD_MODEL_NAMES: List[str] = [
    "bert-small", "bert-base", "bert-large", "gpt2", "gpt-neo", "roberta",
]

# ---------------------------------------------------------------------------
# Tiny (CPU-trainable) dimensions
# ---------------------------------------------------------------------------


def _tiny(config: ModelConfig, hidden: int, layers: int, heads: int, seq: int) -> ModelConfig:
    return config.scaled(
        vocab_size=512,
        hidden_size=hidden,
        num_layers=layers,
        num_heads=heads,
        intermediate_size=hidden * 4,
        max_seq_len=seq,
        local_attention_window=(8 if config.local_attention_window is not None else None),
    )


TINY_CONFIGS: Dict[str, ModelConfig] = {
    "bert-small": _tiny(PAPER_CONFIGS["bert-small"], hidden=32, layers=2, heads=2, seq=16),
    "bert-base": _tiny(PAPER_CONFIGS["bert-base"], hidden=48, layers=2, heads=4, seq=16),
    "bert-large": _tiny(PAPER_CONFIGS["bert-large"], hidden=64, layers=3, heads=4, seq=16),
    "gpt2": _tiny(PAPER_CONFIGS["gpt2"], hidden=48, layers=2, heads=4, seq=16),
    "gpt-neo": _tiny(PAPER_CONFIGS["gpt-neo"], hidden=48, layers=2, heads=4, seq=16),
    "roberta": _tiny(PAPER_CONFIGS["roberta"], hidden=48, layers=2, heads=4, seq=16),
}


# ---------------------------------------------------------------------------
# Public accessors
# ---------------------------------------------------------------------------


def list_models(size: str = "paper") -> List[str]:
    """Names of all registered models for the given size."""
    table = PAPER_CONFIGS if size == "paper" else TINY_CONFIGS
    return sorted(table)


def get_config(name: str, size: str = "tiny") -> ModelConfig:
    """Look up a named config.

    Parameters
    ----------
    name:
        One of :func:`list_models`.
    size:
        ``"tiny"`` (CPU-trainable) or ``"paper"`` (published dimensions).
    """
    if size == "paper":
        table = PAPER_CONFIGS
    elif size == "tiny":
        table = TINY_CONFIGS
    else:
        raise ValueError(f"unknown size {size!r}; expected 'tiny' or 'paper'")
    if name not in table:
        raise KeyError(f"unknown model {name!r}; known models: {sorted(table)}")
    return table[name]


def build_model(
    name: str,
    size: str = "tiny",
    rng: Optional[np.random.Generator] = None,
    num_labels: Optional[int] = None,
    **overrides,
) -> SequenceClassificationModel:
    """Instantiate a model by name.

    Parameters
    ----------
    name:
        Registry name (``"bert-base"``, ``"gpt2"``, ``"gpt-neo"``,
        ``"roberta"``, ...).
    size:
        ``"tiny"`` or ``"paper"``.
    rng:
        Generator for weight initialisation.
    num_labels:
        Override the classification head width.
    overrides:
        Any other :class:`ModelConfig` field to replace.
    """
    config = get_config(name, size=size)
    updates = dict(overrides)
    if num_labels is not None:
        updates["num_labels"] = num_labels
    if updates:
        config = config.scaled(**updates)
    return SequenceClassificationModel(config, rng=rng)
