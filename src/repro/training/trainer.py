"""Training loop with fault-tolerance instrumentation.

:class:`Trainer` fine-tunes a sequence-classification model and exposes the
measurements the paper's evaluation is built on:

* per-step loss and the non-trainable-state signal (NaN loss),
* wall-clock time of the attention blocks and of the whole step,
* ABFT time (when an :class:`repro.core.ATTNChecker` is attached),
* optional per-step checkpointing with restore-on-NaN — the baseline recovery
  strategy of Figure 11.

Fault injectors and the ATTNChecker are both
:class:`repro.nn.AttentionHooks`; the trainer composes them (injector first,
checker second) and attaches them to every attention layer of the model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.attention_checker import ATTNChecker
from repro.nn.attention import AttentionHooks, ComposedHooks
from repro.nn.module import Module
from repro.training.checkpoint import CheckpointManager
from repro.training.metrics import StepResult, TrainingMetrics
from repro.training.optimizer import AdamW, Optimizer
from repro.tensor.autograd import no_grad
from repro.utils.logging import get_logger

__all__ = [
    "TrainerConfig",
    "Trainer",
    "AttentionTimingHooks",
    "clip_gradients",
]

logger = get_logger("training.trainer")

class AttentionTimingHooks(AttentionHooks):
    """Measures wall-clock time spent inside attention forward passes."""

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.calls = 0
        self._starts: Dict[int, float] = {}

    def on_block_start(self, block: str, layer_index: int, step: int) -> None:
        if block == "attention":
            self._starts[layer_index] = time.perf_counter()

    def on_block_end(self, block: str, layer_index: int, step: int) -> None:
        if block != "attention":
            return
        start = self._starts.pop(layer_index, None)
        if start is not None:
            self.total_seconds += time.perf_counter() - start
            self.calls += 1

    def reset(self) -> None:
        self.total_seconds = 0.0
        self.calls = 0
        self._starts.clear()


def clip_gradients(model: Module, max_norm: float) -> float:
    """Clip the global gradient norm to ``max_norm``; returns the pre-clip norm.

    Non-finite gradients are left untouched so a genuinely corrupted backward
    pass still surfaces as a non-trainable state rather than being silently
    zeroed — matching how real training stacks hit NaN losses.
    """
    grads = [p.grad for p in model.parameters() if p.grad is not None]
    if not grads:
        return 0.0
    total = 0.0
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        return norm
    if norm > max_norm > 0:
        scale = max_norm / (norm + 1e-12)
        for p in model.parameters():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


@dataclass
class TrainerConfig:
    """Trainer hyper-parameters.

    Attributes
    ----------
    learning_rate, weight_decay, max_grad_norm:
        AdamW settings (defaults follow GLUE fine-tuning practice).
    checkpoint_every:
        Save a checkpoint every N steps (0 disables checkpointing).  The
        paper's baseline checkpoints every step.
    restore_on_non_trainable:
        When a step produces a NaN loss (or NaN weights), restore the latest
        checkpoint and re-execute the step — the checkpoint/restore recovery
        of Figure 11.
    max_retries_per_step:
        Safety bound on how many times a step is re-executed after restores.
    """

    learning_rate: float = 5e-4
    weight_decay: float = 0.01
    max_grad_norm: float = 1.0
    checkpoint_every: int = 0
    restore_on_non_trainable: bool = False
    max_retries_per_step: int = 2
    log_every: int = 0


class Trainer:
    """Fine-tuning loop with instrumentation hooks.

    Parameters
    ----------
    model:
        Any :class:`repro.models.classification.SequenceClassificationModel`.
    optimizer:
        Defaults to AdamW with the config's learning rate.
    checker:
        Optional :class:`ATTNChecker`; its per-section detection statistics
        and ABFT timers are folded into the step results.
    fault_hooks:
        Optional additional hooks (e.g. a fault injector) that run *before*
        the checker, mimicking a fault striking during the GEMM.
    checkpoints:
        Optional checkpoint manager implementing the recovery baseline.
    """

    def __init__(
        self,
        model,
        config: Optional[TrainerConfig] = None,
        optimizer: Optional[Optimizer] = None,
        checker: Optional[ATTNChecker] = None,
        fault_hooks: Optional[Sequence[AttentionHooks]] = None,
        checkpoints: Optional[CheckpointManager] = None,
    ) -> None:
        self.model = model
        self.config = config or TrainerConfig()
        self.optimizer = optimizer or AdamW(
            model.parameters(), lr=self.config.learning_rate, weight_decay=self.config.weight_decay
        )
        self.checker = checker
        self.checkpoints = checkpoints
        self.metrics = TrainingMetrics()
        self.attention_timer = AttentionTimingHooks()
        self.global_step = 0

        hooks: List[AttentionHooks] = [self.attention_timer]
        if fault_hooks:
            hooks.extend(fault_hooks)
        if checker is not None:
            hooks.append(checker)
        self._hooks = ComposedHooks(hooks)
        self.model.set_attention_hooks(self._hooks)

    # -- single step -----------------------------------------------------------------

    def _forward_backward(self, batch: Dict[str, np.ndarray]) -> float:
        self.model.zero_grad()
        output = self.model(
            batch["input_ids"],
            attention_mask=batch.get("attention_mask"),
            labels=batch["labels"],
        )
        loss_value = output.loss_value
        if math.isfinite(loss_value):
            output.loss.backward()
            clip_gradients(self.model, self.config.max_grad_norm)
            self.optimizer.step()
        return loss_value

    def _weights_healthy(self) -> bool:
        return all(
            bool(np.all(np.isfinite(p.data))) for p in self.model.parameters()
        )

    def train_step(self, batch: Dict[str, np.ndarray]) -> StepResult:
        """Run one optimisation step on ``batch`` and record its metrics."""
        self.global_step += 1
        attention_before = self.attention_timer.total_seconds
        abft_before = self.checker.overhead_seconds() if self.checker else 0.0
        corrections_before = self.checker.stats.total_corrections if self.checker else 0
        detections_before = self.checker.stats.total_detections if self.checker else 0

        restored = False
        start = time.perf_counter()
        loss_value = self._forward_backward(batch)

        non_trainable = math.isnan(loss_value) or not self._weights_healthy()
        if non_trainable and self.config.restore_on_non_trainable and self.checkpoints and self.checkpoints.latest:
            retries = 0
            while non_trainable and retries < self.config.max_retries_per_step:
                retries += 1
                self.checkpoints.restore(self.model, self.optimizer)
                restored = True
                loss_value = self._forward_backward(batch)
                non_trainable = math.isnan(loss_value) or not self._weights_healthy()

        if self.config.checkpoint_every and self.global_step % self.config.checkpoint_every == 0:
            self.checkpoints = self.checkpoints or CheckpointManager()
            self.checkpoints.save(self.global_step, self.model, self.optimizer)
        elapsed = time.perf_counter() - start

        result = StepResult(
            step=self.global_step,
            loss=loss_value,
            step_seconds=elapsed,
            attention_seconds=self.attention_timer.total_seconds - attention_before,
            abft_seconds=(self.checker.overhead_seconds() - abft_before) if self.checker else 0.0,
            corrections=(self.checker.stats.total_corrections - corrections_before) if self.checker else 0,
            detections=(self.checker.stats.total_detections - detections_before) if self.checker else 0,
            restored_from_checkpoint=restored,
        )
        self.metrics.record(result)
        if self.config.log_every and self.global_step % self.config.log_every == 0:
            logger.info("step %d loss %.4f (%.1f ms)", self.global_step, loss_value, elapsed * 1e3)
        return result

    # -- epochs ----------------------------------------------------------------------

    def train(self, batches: Iterable[Dict[str, np.ndarray]], epochs: int = 1) -> TrainingMetrics:
        """Train for ``epochs`` passes over ``batches`` (a reusable iterable)."""
        batch_list = list(batches)
        if not batch_list:
            raise ValueError("no batches provided")
        self.model.train()
        for _ in range(epochs):
            for batch in batch_list:
                self.train_step(batch)
            self.metrics.end_epoch()
        return self.metrics

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, batches: Iterable[Dict[str, np.ndarray]]) -> Dict[str, float]:
        """Compute mean loss and accuracy without updating weights.

        Nothing is back-propagated, so the forwards record no autograd graph
        (:func:`~repro.tensor.autograd.no_grad`).
        """
        self.model.eval()
        losses: List[float] = []
        correct = 0
        total = 0
        with no_grad():
            for batch in batches:
                output = self.model(
                    batch["input_ids"],
                    attention_mask=batch.get("attention_mask"),
                    labels=batch["labels"],
                )
                losses.append(output.loss_value)
                predictions = np.argmax(output.logits.data, axis=-1)
                correct += int((predictions == batch["labels"]).sum())
                total += len(batch["labels"])
        self.model.train()
        return {
            "loss": float(np.nanmean(losses)) if losses else float("nan"),
            "accuracy": correct / total if total else float("nan"),
        }
