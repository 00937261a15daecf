"""Attention workload accounting (Table 3).

Table 3 of the paper reports that matrix multiplications account for more
than 99 % of the attention mechanism's computation across the four evaluated
LLMs — the observation that justifies focusing ABFT on the GEMMs.  This
module derives the same ratios from first-principles FLOP counting on the
published model dimensions: the GEMM FLOPs of the protected-GEMM inventory
(:class:`repro.core.sections.SectionCostModel`) against the non-GEMM work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.sections import SectionCostModel
from repro.models.config import ModelConfig
from repro.models.registry import get_config

__all__ = ["WorkloadBreakdown", "attention_workload", "gemm_ratio_table"]


@dataclass(frozen=True)
class WorkloadBreakdown:
    """FLOP breakdown of one model's attention mechanism."""

    model_name: str
    gemm_flops: float
    other_flops: float

    @property
    def total_flops(self) -> float:
        return self.gemm_flops + self.other_flops

    @property
    def gemm_ratio(self) -> float:
        """Fraction of attention FLOPs spent in GEMMs (the Table-3 number)."""
        return self.gemm_flops / self.total_flops if self.total_flops else float("nan")


def attention_workload(
    config: ModelConfig, batch_size: int = 8, seq_len: Optional[int] = None
) -> WorkloadBreakdown:
    """Compute the GEMM / non-GEMM FLOP split of one attention layer."""
    gemm = sum(SectionCostModel(config, batch_size, seq_len).operation_flops().values())
    other = config.attention_other_flops(batch_size, seq_len)
    return WorkloadBreakdown(model_name=config.name, gemm_flops=float(gemm), other_flops=float(other))


def gemm_ratio_table(
    model_names: Sequence[str] = ("bert-base", "gpt2", "gpt-neo", "roberta"),
    batch_size: int = 8,
    seq_len: Optional[int] = None,
    size: str = "paper",
) -> Dict[str, WorkloadBreakdown]:
    """GEMM workload ratios for the models of Table 3."""
    table: Dict[str, WorkloadBreakdown] = {}
    for name in model_names:
        config = get_config(name, size=size)
        table[name] = attention_workload(config, batch_size=batch_size, seq_len=seq_len)
    return table
