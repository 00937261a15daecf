"""Whole-training-step cost model (per-step overheads of Figures 7, 8, 10).

A training step of a transformer fine-tuning run is priced as:

* per layer: the attention block (from :class:`AttentionCostModel`), the
  feed-forward network (the two GEMMs of the FF1 / FF2 sections of the
  inventory in :mod:`repro.core.sections`, plus GELU), two layer norms and
  the residual adds;
* embeddings and the classification head;
* the optimiser update (AdamW reads the parameter, gradient and two moment
  buffers and writes three of them — a pure bandwidth cost).

Backward is the usual 2x of forward for the dense compute.  The ABFT overhead
of a step is the per-layer ABFT detection-path time times the number of
layers (ABFT protects the forward attention GEMMs; the paper integrates the
checks into the forward kernels only).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.sections import SECTION_REGISTRY
from repro.models.config import ModelConfig
from repro.perfmodel.attention_cost import BACKWARD_MULTIPLIER, AttentionCostModel
from repro.perfmodel.gpu import A100_SPEC, GPUSpec
from repro.perfmodel.kernels import KernelCostModel

__all__ = ["TrainingStepCostModel"]

#: Bytes touched per parameter by one AdamW update (param, grad, m, v reads +
#: param, m, v writes) in fp32.
ADAMW_BYTES_PER_PARAM = 7 * 4


class TrainingStepCostModel:
    """Time model of one full fine-tuning step for one model."""

    def __init__(
        self,
        config: ModelConfig,
        batch_size: int,
        seq_len: Optional[int] = None,
        gpu: GPUSpec = A100_SPEC,
        element_size: int = 4,
    ) -> None:
        self.config = config
        self.batch_size = batch_size
        self.seq_len = seq_len if seq_len is not None else config.max_seq_len
        self.gpu = gpu
        self.element_size = element_size
        self.kernels = KernelCostModel(gpu=gpu, element_size=element_size)
        self.attention = AttentionCostModel(
            config, batch_size, seq_len=self.seq_len, gpu=gpu, element_size=element_size
        )

    # -- components --------------------------------------------------------------------

    def ffn_forward_time(self) -> float:
        """Forward time of one feed-forward block."""
        b, s = self.batch_size, self.seq_len
        k = self.kernels
        geometry = self.attention.geometry
        time = sum(
            k.gemm(*g.dims(geometry))
            for name in ("FF1", "FF2") for g in SECTION_REGISTRY[name].model_gemms
        )
        time += k.elementwise(b * s * self.config.intermediate_size, passes=2.0, flops_per_element=8.0)  # GELU
        return time

    def layer_other_forward_time(self) -> float:
        """Layer norms, residual adds and dropout of one layer."""
        b, s, d = self.batch_size, self.seq_len, self.config.hidden_size
        return self.kernels.elementwise(4 * b * s * d, passes=2.0, flops_per_element=4.0)

    def embedding_and_head_time(self) -> float:
        """Embedding lookups plus the classification head (forward)."""
        b, s, d = self.batch_size, self.seq_len, self.config.hidden_size
        lookup = self.kernels.elementwise(3 * b * s * d, passes=2.0, flops_per_element=0.0)
        head = self.kernels.gemm(b, d, d) + self.kernels.gemm(b, self.config.num_labels, d)
        return lookup + head

    def optimizer_time(self) -> float:
        """AdamW update over every parameter (bandwidth bound)."""
        params = self.config.parameter_count()
        return self.kernels.elementwise(
            params, passes=ADAMW_BYTES_PER_PARAM / self.element_size, flops_per_element=8.0, launches=4
        )

    # -- step time ------------------------------------------------------------------------

    def layer_forward_time(self) -> float:
        return (
            self.attention.attention_forward_time()
            + self.ffn_forward_time()
            + self.layer_other_forward_time()
        )

    def step_time(self) -> float:
        """Time of one unprotected training step (forward + backward + update)."""
        layers = self.config.num_layers
        forward = layers * self.layer_forward_time() + self.embedding_and_head_time()
        return BACKWARD_MULTIPLIER * forward + self.optimizer_time()

    def attention_step_time(self) -> float:
        """Forward + backward time of all attention blocks of the model."""
        return self.config.num_layers * self.attention.attention_step_time()

    # -- ABFT overhead -----------------------------------------------------------------------

    def abft_step_time(
        self, optimized: bool = True, frequencies: Optional[Mapping[str, float]] = None
    ) -> float:
        """ABFT time added to one training step (all layers, forward checks)."""
        return self.config.num_layers * self.attention.abft_time(
            optimized=optimized, frequencies=frequencies
        )

    def step_overhead(
        self, optimized: bool = True, frequencies: Optional[Mapping[str, float]] = None
    ) -> float:
        """Per-step ABFT overhead (the right panels of Figures 7 and 8)."""
        return self.abft_step_time(optimized=optimized, frequencies=frequencies) / self.step_time()

    def attention_overhead(
        self, optimized: bool = True, frequencies: Optional[Mapping[str, float]] = None
    ) -> float:
        """Attention-block ABFT overhead (the left panels of Figures 7 and 8)."""
        return self.abft_step_time(optimized=optimized, frequencies=frequencies) / self.attention_step_time()
