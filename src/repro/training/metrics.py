"""Training metrics containers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["StepResult", "TrainingMetrics"]


@dataclass
class StepResult:
    """Outcome of one training step."""

    step: int
    loss: float
    step_seconds: float
    attention_seconds: float
    #: Checker time spent in this step (``ATTNChecker.overhead_seconds``).
    abft_seconds: float = 0.0
    corrections: int = 0
    detections: int = 0
    restored_from_checkpoint: bool = False

    @property
    def non_trainable(self) -> bool:
        """Whether this step left training in a non-trainable state (NaN loss)."""
        return math.isnan(self.loss)


@dataclass
class TrainingMetrics:
    """Accumulates per-step results and provides epoch-level summaries."""

    steps: List[StepResult] = field(default_factory=list)
    epoch_boundaries: List[int] = field(default_factory=list)

    def record(self, result: StepResult) -> None:
        self.steps.append(result)

    def end_epoch(self) -> None:
        self.epoch_boundaries.append(len(self.steps))

    # -- loss summaries -------------------------------------------------------------

    def losses(self) -> List[float]:
        return [s.loss for s in self.steps]

    def epoch_losses(self) -> List[float]:
        """Mean finite loss per epoch (the series plotted in Figure 6)."""
        result = []
        start = 0
        boundaries = self.epoch_boundaries or [len(self.steps)]
        for end in boundaries:
            chunk = [s.loss for s in self.steps[start:end] if not math.isnan(s.loss)]
            result.append(float(np.mean(chunk)) if chunk else float("nan"))
            start = end
        return result

    def num_non_trainable(self) -> int:
        return sum(1 for s in self.steps if s.non_trainable)

    # -- timing summaries --------------------------------------------------------------

    def total_step_seconds(self) -> float:
        return sum(s.step_seconds for s in self.steps)

    def total_attention_seconds(self) -> float:
        return sum(s.attention_seconds for s in self.steps)

    def total_abft_seconds(self) -> float:
        return sum(s.abft_seconds for s in self.steps)

    def mean_step_seconds(self) -> float:
        return self.total_step_seconds() / len(self.steps) if self.steps else 0.0

    def total_corrections(self) -> int:
        return sum(s.corrections for s in self.steps)

    def total_detections(self) -> int:
        return sum(s.detections for s in self.steps)

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_steps": len(self.steps),
            "mean_loss": float(np.nanmean(self.losses())) if self.steps else float("nan"),
            "mean_step_seconds": self.mean_step_seconds(),
            "total_attention_seconds": self.total_attention_seconds(),
            "total_abft_seconds": self.total_abft_seconds(),
            "non_trainable_steps": self.num_non_trainable(),
            "corrections": self.total_corrections(),
        }
