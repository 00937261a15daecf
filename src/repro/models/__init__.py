"""LLM model zoo used by the paper's evaluation.

One :class:`SequenceClassificationModel`, built on :mod:`repro.nn`, covers
the four model families; its :class:`ModelConfig` picks the differences:

* **BERT** (small / base / large) — post-LN bidirectional encoder with
  token-type embeddings and a ``[CLS]`` pooler head,
* **RoBERTa** — the BERT architecture without token-type embeddings, with
  RoBERTa hyper-parameters,
* **GPT-2** — pre-LN causal decoder classifying the last token,
* **GPT-Neo** — GPT-2 with local attention on every other layer.

The causal decoders also serve KV-cached generation (``prefill`` /
``decode_step``), through the same forward pass as training.

Each family is available in two sizes:

* ``"tiny"`` — reduced hidden size / depth so fine-tuning steps run in
  milliseconds on CPU.  Used by every experiment that actually trains
  (Tables 2 & 4, Figure 6, detection/correction campaigns).
* ``"paper"`` — the real published dimensions (e.g. BERT-base 768/12/12).
  Used by the analytical workload and performance models (Table 3,
  Figures 7–12), where only FLOP/byte counts matter.
"""

from repro.models.config import ModelConfig
from repro.models.classification import SequenceClassificationModel, SequenceClassifierOutput
from repro.models.registry import (
    PAPER_MODEL_NAMES,
    build_model,
    get_config,
    list_models,
)

__all__ = [
    "ModelConfig",
    "SequenceClassificationModel",
    "SequenceClassifierOutput",
    "build_model",
    "get_config",
    "list_models",
    "PAPER_MODEL_NAMES",
]
