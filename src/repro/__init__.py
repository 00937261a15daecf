"""ATTNChecker reproduction: fault-tolerant attention for LLM training.

This package reproduces *ATTNChecker: Highly-Optimized Fault Tolerant
Attention for Large Language Model Training* (PPoPP 2025) as a pure-Python
library, including every substrate the paper depends on:

* :mod:`repro.tensor` / :mod:`repro.nn` — autograd engine over NumPy
  kernels, and transformer building blocks with instrumented attention;
* :mod:`repro.models` — one model class that its config makes BERT,
  RoBERTa, GPT-2 or GPT-Neo, with one forward pass for training and
  KV-cached serving;
* :mod:`repro.serving` — batched, KV-cached serving with per-request fault
  isolation;
* :mod:`repro.data` / :mod:`repro.training` — synthetic MRPC-style corpus,
  optimisers, trainer, checkpoint/restore baseline;
* :mod:`repro.faults` — fault injection and the one fault-trial harness
  behind the detection, propagation and vulnerability studies (Section 5.2,
  Tables 2 and 4);
* :mod:`repro.core` — **the paper's contribution**: EEC-ABFT, the three
  protection sections, the ATTNChecker hook and the adaptive detection
  frequency optimiser;
* :mod:`repro.perfmodel` — analytical A100 / multi-GPU performance model used
  to regenerate the overhead and scalability figures;
* :mod:`repro.analysis` — workload accounting and report rendering.

Quickstart
----------
>>> import numpy as np
>>> from repro import build_model, FaultHarness, FaultSpec
>>> from repro.data import SyntheticMRPC
>>>
>>> model = build_model("bert-base", size="tiny")
>>> data = SyntheticMRPC(num_examples=32, max_seq_len=model.config.max_seq_len,
...                      vocab_size=model.config.vocab_size)
>>> batch = data.encode(range(8))
>>> trial = FaultHarness(model, batch, "protected").trial(
...     FaultSpec(matrix="AS", error_type="inf"), np.random.default_rng(0))
>>> trial.detected, trial.corrected, trial.matches
(True, True, True)
"""

from repro.core import (
    ABFTThresholds,
    ATTNChecker,
    ATTNCheckerConfig,
    ErrorRates,
    OperationVulnerability,
    optimize_abft_frequencies,
)
from repro.faults import FaultHarness, FaultInjector, FaultSpec
from repro.models import build_model, get_config, list_models
from repro.training import AdamW, CheckpointManager, Trainer, TrainerConfig

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ATTNChecker",
    "ATTNCheckerConfig",
    "ABFTThresholds",
    "ErrorRates",
    "OperationVulnerability",
    "optimize_abft_frequencies",
    "FaultInjector",
    "FaultSpec",
    "FaultHarness",
    "build_model",
    "get_config",
    "list_models",
    "Trainer",
    "TrainerConfig",
    "AdamW",
    "CheckpointManager",
]
