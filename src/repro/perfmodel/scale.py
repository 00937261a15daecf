"""Multi-GPU, multi-billion-parameter scaling model (Figure 12).

Figure 12 simulates training 30B / 60B / 100B-parameter LLMs on 1,024 GPUs
with data parallelism (using the performance-modelling methodology of Lin et
al. 2024) and reports that ATTNChecker's overhead stays essentially constant
(~6.3 %) as the model grows.

The reproduction prices one data-parallel training step as:

* per-GPU compute: the standard ``6 * params * tokens_per_gpu`` FLOPs of a
  transformer training step at a realistic model FLOPs utilisation,
* gradient all-reduce: ring all-reduce moves ``2 (N-1)/N * bytes`` per GPU at
  the interconnect bandwidth, overlapping partially with the backward pass,
* ATTNChecker: the attention-layer ABFT cost from
  :class:`~repro.perfmodel.attention_cost.AttentionCostModel` applied to the
  per-GPU micro-batch, summed over layers.

Because both the attention GEMMs and the ABFT detection path scale linearly
with ``seq_len * hidden`` per layer (at fixed sequence length), their ratio —
and therefore the per-step overhead — is nearly independent of model size,
which is the effect the figure demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.models.config import ModelConfig
from repro.perfmodel.attention_cost import AttentionCostModel
from repro.perfmodel.gpu import A100_SPEC, GPUSpec

__all__ = ["LargeModelSpec", "ScalePoint", "MultiGPUScaleModel", "BILLION_SCALE_MODELS"]

#: Model FLOPs utilisation of a well-tuned large-scale training run.
DEFAULT_MFU = 0.45


@dataclass(frozen=True)
class LargeModelSpec:
    """Architecture of one multi-billion-parameter model."""

    name: str
    hidden_size: int
    num_layers: int
    num_heads: int
    seq_len: int = 2048
    vocab_size: int = 50257

    @property
    def parameter_count(self) -> float:
        """Approximate parameter count: 12 * L * D^2 plus embeddings."""
        return 12.0 * self.num_layers * self.hidden_size**2 + self.vocab_size * self.hidden_size

    def to_model_config(self) -> ModelConfig:
        """Equivalent :class:`ModelConfig` (for the attention cost model)."""
        return ModelConfig(
            name=self.name,
            family="gpt2",
            vocab_size=self.vocab_size,
            hidden_size=self.hidden_size,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            intermediate_size=4 * self.hidden_size,
            max_seq_len=self.seq_len,
            norm_style="pre_ln",
            causal=True,
        )


#: The three model sizes of Figure 12.
BILLION_SCALE_MODELS: Dict[str, LargeModelSpec] = {
    "30B": LargeModelSpec(name="30B", hidden_size=7168, num_layers=48, num_heads=56),
    "60B": LargeModelSpec(name="60B", hidden_size=8192, num_layers=74, num_heads=64),
    "100B": LargeModelSpec(name="100B", hidden_size=10240, num_layers=80, num_heads=80),
}


@dataclass
class ScalePoint:
    """Per-step timing of one (model size, GPU count) configuration."""

    model_name: str
    parameters: float
    num_gpus: int
    compute_seconds: float
    allreduce_seconds: float
    abft_seconds: float

    @property
    def step_seconds(self) -> float:
        """Unprotected step time (all-reduce partially overlapped with backward)."""
        exposed_allreduce = max(0.0, self.allreduce_seconds - 0.5 * self.compute_seconds)
        return self.compute_seconds + exposed_allreduce

    @property
    def abft_overhead(self) -> float:
        """ATTNChecker overhead relative to the unprotected step (Figure 12)."""
        return self.abft_seconds / self.step_seconds


class MultiGPUScaleModel:
    """Data-parallel scaling model for Figure 12.

    Parameters
    ----------
    num_gpus:
        Data-parallel width (1,024 in the paper).
    micro_batch_per_gpu:
        Sequences processed by each GPU per step.
    gpu:
        Device spec (A100 by default).
    mfu:
        Model FLOPs utilisation of the dense compute.
    """

    def __init__(
        self,
        num_gpus: int = 1024,
        micro_batch_per_gpu: int = 2,
        gpu: GPUSpec = A100_SPEC,
        mfu: float = DEFAULT_MFU,
        grad_element_size: int = 2,
    ) -> None:
        if num_gpus <= 0 or micro_batch_per_gpu <= 0:
            raise ValueError("num_gpus and micro_batch_per_gpu must be positive")
        if not 0 < mfu <= 1:
            raise ValueError("mfu must lie in (0, 1]")
        self.num_gpus = num_gpus
        self.micro_batch_per_gpu = micro_batch_per_gpu
        self.gpu = gpu
        self.mfu = mfu
        self.grad_element_size = grad_element_size

    def evaluate(self, spec: LargeModelSpec) -> ScalePoint:
        """Price one training step of ``spec`` on the configured cluster."""
        params = spec.parameter_count
        tokens_per_gpu = self.micro_batch_per_gpu * spec.seq_len
        compute_flops = 6.0 * params * tokens_per_gpu
        compute_seconds = compute_flops / (self.gpu.peak_flops * self.mfu)

        grad_bytes = params * self.grad_element_size
        allreduce_bytes = 2.0 * (self.num_gpus - 1) / self.num_gpus * grad_bytes
        allreduce_seconds = allreduce_bytes / self.gpu.interconnect_bandwidth

        attention = AttentionCostModel(
            spec.to_model_config(), batch_size=self.micro_batch_per_gpu, seq_len=spec.seq_len, gpu=self.gpu
        )
        abft_seconds = spec.num_layers * attention.abft_time(optimized=True)

        return ScalePoint(
            model_name=spec.name,
            parameters=params,
            num_gpus=self.num_gpus,
            compute_seconds=compute_seconds,
            allreduce_seconds=allreduce_seconds,
            abft_seconds=abft_seconds,
        )

    def sweep(self, specs: Optional[Sequence[LargeModelSpec]] = None) -> List[ScalePoint]:
        """Evaluate all (or the default 30B/60B/100B) model sizes."""
        specs = specs if specs is not None else list(BILLION_SCALE_MODELS.values())
        return [self.evaluate(spec) for spec in specs]
