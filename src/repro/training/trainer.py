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

With an *async-verification* checker (``async_verification=True``) the
trainer additionally implements the bounded-staleness recovery policy: each
``train_step`` submits the step's checksum snapshot and harvests completed
verification results, and when a harvested boundary verified dirty *after*
its values were consumed (a ``stale`` outcome), ``TrainerConfig.stale_policy``
decides whether to record it, re-execute the step (checkpoint-free recovery —
a transient fault does not recur on re-execution), or abort by raising
:class:`StaleDetectionAbort`.  :meth:`Trainer.drain_verifications` is the
end-of-run barrier that waits out in-flight verification work and folds
late-arriving counters into the last recorded step.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import backend_of, namespace_of
from repro.core.attention_checker import ATTNChecker
from repro.core.engine import SectionOutcome
from repro.nn.attention import AttentionHooks, ComposedHooks
from repro.nn.module import Module
from repro.training.checkpoint import CheckpointManager
from repro.training.metrics import StepResult, TrainingMetrics
from repro.training.optimizer import AdamW, Optimizer
from repro.utils.logging import get_logger

__all__ = [
    "STALE_POLICIES",
    "StaleDetectionAbort",
    "TrainerConfig",
    "Trainer",
    "AttentionTimingHooks",
    "clip_gradients",
]

logger = get_logger("training.trainer")

#: Recovery policies for stale dirty verifications (async checkers).
STALE_POLICIES = ("record", "reexecute", "abort")


class StaleDetectionAbort(RuntimeError):
    """Raised by ``stale_policy="abort"`` when an asynchronously verified
    boundary turns out dirty after its values were already consumed."""


def _count_stale_dirty(outcomes: Sequence[SectionOutcome]) -> int:
    """Stale outcomes whose verification found the boundary dirty — the
    outcomes the trainer's staleness policy acts on."""
    return sum(
        1 for o in outcomes
        if o.stale and o.report is not None and o.report.detected > 0
    )


class AttentionTimingHooks(AttentionHooks):
    """Measures wall-clock time spent inside attention forward passes."""

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.calls = 0
        self._starts: Dict[int, float] = {}

    def on_attention_start(self, layer_index: int, step: int) -> None:
        self._starts[layer_index] = time.perf_counter()

    def on_attention_end(self, layer_index: int, step: int) -> None:
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
    zeroed — matching how real training stacks hit NaN losses.  The square
    sums run on each gradient's owning backend; only the accumulated scalar
    crosses to the host.
    """
    grads = [p.grad for p in model.parameters() if p.grad is not None]
    if not grads:
        return 0.0
    total = 0.0
    for g in grads:
        xp = namespace_of(g)
        total += float(xp.sum(xp.astype(g, xp.float64) ** 2))
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
        Safety bound on how many times a step is re-executed after restores
        (shared with the stale re-execution policy).
    stale_policy:
        What to do when an async checker reports a *stale* dirty boundary —
        a fault detected only after the producing step's values were
        consumed (bounded by the checker's ``max_pending_steps``):

        * ``"record"`` (default) — count it in the step result and continue;
        * ``"reexecute"`` — checkpoint-free recovery: settle all in-flight
          verifications, restore the in-memory snapshot taken before the
          *oldest* step still inside the staleness window (guaranteed to
          predate the fault), and re-execute the current batch from that
          clean state (transient faults do not recur).  The snapshots are
          plain in-memory state-dict copies held in a deque of length
          ``max_pending_steps + 1`` — no checkpoint manager, no disk.
          Clean intermediate updates inside the window are discarded; that
          is the price of the staleness bound.  Bounded by
          ``max_retries_per_step``.
        * ``"abort"`` — raise :class:`StaleDetectionAbort` so the caller can
          stop the run.  The abort is raised at the step where the stale
          verdict *surfaced*; the fault itself occurred within the previous
          ``max_pending_steps`` steps.
    """

    learning_rate: float = 5e-4
    weight_decay: float = 0.01
    max_grad_norm: float = 1.0
    checkpoint_every: int = 0
    restore_on_non_trainable: bool = False
    max_retries_per_step: int = 2
    log_every: int = 0
    stale_policy: str = "record"

    def __post_init__(self) -> None:
        if self.stale_policy not in STALE_POLICIES:
            raise ValueError(
                f"unknown stale_policy {self.stale_policy!r}; expected one of {STALE_POLICIES}"
            )


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
        # Rollback window for the stale re-execution policy: in-memory
        # (step, model_state, optimizer_state) snapshots, oldest first.
        # State dicts are backend-native, so a device-resident model's
        # rollback window stays on the device.
        self._stale_snapshots: Deque[Tuple[int, Dict[str, object], Dict[str, object]]] = deque()

    @property
    def model_array_backend(self) -> str:
        """Name of the array backend the model substrate's parameters live on
        (``"numpy"`` for the historical pure-NumPy substrate)."""
        backend = getattr(self.model, "array_backend", None)
        return "numpy" if backend is None else backend.name

    def _stale_snapshot_window(self) -> int:
        """Snapshots to retain for stale rollback (0 disables snapshotting)."""
        if (
            self.checker is not None
            and self.checker.config.async_verification
            and self.config.stale_policy == "reexecute"
        ):
            return self.checker.config.max_pending_steps + 1
        return 0

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
            bool(p.xp.all(p.xp.isfinite(p.data))) for p in self.model.parameters()
        )

    def _rollback_to_clean_state(self) -> bool:
        """Restore the oldest retained stale-window snapshot (pre-fault).

        Re-seeds the window with the restored clean state, so a stale verdict
        on a re-executed pass (or on the next few steps) still finds a
        pre-fault snapshot.  Returns ``False`` when no snapshot exists.

        Snapshots carry the optimiser's float64 moment checksums, so an
        AdamW restore re-derives and compares them — a snapshot whose moment
        slots were poisoned while parked in the rollback window raises
        :class:`repro.training.optimizer.OptimizerStateCorruption` here
        instead of being silently reinstalled.
        """
        if not self._stale_snapshots:
            return False
        _, model_state, optimizer_state = self._stale_snapshots[0]
        self.model.load_state_dict(model_state)
        self.optimizer.load_state_dict(optimizer_state)
        self._stale_snapshots.clear()
        self._stale_snapshots.append(
            (self.global_step, self.model.state_dict(), self.optimizer.state_dict())
        )
        return True

    def _end_step_verifications(self) -> int:
        """Close the step's checker work; count stale dirty boundaries.

        For an async checker, submits the step's checksum snapshot to the
        worker and harvests whatever verification results have completed, so
        detections land in step results as soon as they exist.  A no-op for
        immediate-mode checkers.
        """
        if self.checker is None:
            return 0
        return _count_stale_dirty(self.checker.end_step())

    def train_step(self, batch: Dict[str, np.ndarray]) -> StepResult:
        """Run one optimisation step on ``batch`` and record its metrics."""
        self.global_step += 1
        attention_before = self.attention_timer.total_seconds
        abft_before = self.checker.critical_path_seconds() if self.checker else 0.0
        corrections_before = self.checker.stats.total_corrections if self.checker else 0
        detections_before = self.checker.stats.total_detections if self.checker else 0

        restored = False
        reexecuted = False
        window = self._stale_snapshot_window()
        if window:
            self._stale_snapshots.append(
                (self.global_step, self.model.state_dict(), self.optimizer.state_dict())
            )
            while len(self._stale_snapshots) > window:
                self._stale_snapshots.popleft()

        start = time.perf_counter()
        loss_value = self._forward_backward(batch)
        stale_dirty = self._end_step_verifications()
        total_stale = stale_dirty

        if stale_dirty and self.config.stale_policy == "abort":
            raise StaleDetectionAbort(
                f"step {self.global_step}: {stale_dirty} boundary check(s) verified dirty "
                f"after their values were consumed (stale_policy='abort'); the fault "
                f"occurred within the checker's max_pending_steps staleness window"
            )
        if stale_dirty and self.config.stale_policy == "reexecute":
            # Checkpoint-free bounded-staleness recovery.  The dirty boundary
            # may belong to an earlier step whose corrupted optimizer update
            # is already in the weights, so simply re-running the batch would
            # stack a second update on top of the bad one.  Instead: settle
            # every in-flight verification, roll model and optimizer back to
            # the oldest retained snapshot — taken before any step still
            # inside the staleness window, hence before the fault — and
            # re-execute the current batch once from that clean state.
            retries = 0
            while stale_dirty and retries < self.config.max_retries_per_step:
                retries += 1
                reexecuted = True
                total_stale += _count_stale_dirty(self.checker.drain())
                self._rollback_to_clean_state()
                loss_value = self._forward_backward(batch)
                stale_dirty = self._end_step_verifications()
                total_stale += stale_dirty

        non_trainable = math.isnan(loss_value) or not self._weights_healthy()
        restore_stale = 0
        if non_trainable and self.config.restore_on_non_trainable and self.checkpoints and self.checkpoints.latest:
            retries = 0
            while non_trainable and retries < self.config.max_retries_per_step:
                retries += 1
                self.checkpoints.restore(self.model, self.optimizer)
                restored = True
                loss_value = self._forward_backward(batch)
                # Stale verdicts harvested here are already answered by a
                # stronger recovery (checkpoint restore + re-execution), so
                # 'reexecute' just records them; 'abort' still aborts below.
                restore_stale += self._end_step_verifications()
                non_trainable = math.isnan(loss_value) or not self._weights_healthy()
            total_stale += restore_stale
        if restore_stale and self.config.stale_policy == "abort":
            raise StaleDetectionAbort(
                f"step {self.global_step}: {restore_stale} boundary check(s) verified "
                f"dirty during checkpoint-restore re-execution (stale_policy='abort')"
            )

        if self.config.checkpoint_every and self.global_step % self.config.checkpoint_every == 0:
            self.checkpoints = self.checkpoints or CheckpointManager()
            self.checkpoints.save(self.global_step, self.model, self.optimizer)
        elapsed = time.perf_counter() - start

        result = StepResult(
            step=self.global_step,
            loss=loss_value,
            step_seconds=elapsed,
            attention_seconds=self.attention_timer.total_seconds - attention_before,
            abft_seconds=(self.checker.critical_path_seconds() - abft_before) if self.checker else 0.0,
            corrections=(self.checker.stats.total_corrections - corrections_before) if self.checker else 0,
            detections=(self.checker.stats.total_detections - detections_before) if self.checker else 0,
            restored_from_checkpoint=restored,
            stale_detections=total_stale,
            reexecuted=reexecuted,
        )
        self.metrics.record(result)
        if self.config.log_every and self.global_step % self.config.log_every == 0:
            logger.info("step %d loss %.4f (%.1f ms)", self.global_step, loss_value, elapsed * 1e3)
        return result

    def drain_verifications(
        self, batch: Optional[Dict[str, np.ndarray]] = None
    ) -> List[SectionOutcome]:
        """Barrier for queued/async verification work.

        Waits until every in-flight step batch has been verified and folds
        late-arriving detection/correction counters into the last recorded
        step result, so aggregate ``StepResult`` counters match an
        immediate-mode run.  Worker exceptions surface here rather than being
        swallowed.  A no-op without a checker or in immediate mode.

        The staleness policy applies at this barrier too — a fault striking
        the last step of a run surfaces only here.  ``abort`` raises
        :class:`StaleDetectionAbort` (after folding the counters);
        ``reexecute`` rolls back to the oldest retained snapshot and, when
        ``batch`` is given (:meth:`train` passes the epoch's last batch),
        re-executes it from the clean state — without a batch the rollback
        alone discards the corrupted update.
        """
        if self.checker is None:
            return []
        detections_before = self.checker.stats.total_detections
        corrections_before = self.checker.stats.total_corrections
        outcomes = self.checker.drain()
        stale_dirty = _count_stale_dirty(outcomes)
        last = self.metrics.steps[-1] if self.metrics.steps else None

        if stale_dirty and self.config.stale_policy == "reexecute":
            self._rollback_to_clean_state()
            if batch is not None:
                loss_value = self._forward_backward(batch)
                extra = self.checker.end_step() + self.checker.drain()
                outcomes = outcomes + extra
                stale_dirty += _count_stale_dirty(extra)
                if last is not None:
                    last.loss = loss_value
                    last.reexecuted = True

        if last is not None:
            last.detections += self.checker.stats.total_detections - detections_before
            last.corrections += self.checker.stats.total_corrections - corrections_before
            last.stale_detections += stale_dirty

        if stale_dirty and self.config.stale_policy == "abort":
            raise StaleDetectionAbort(
                f"end-of-run drain: {stale_dirty} boundary check(s) verified dirty "
                f"after their values were consumed (stale_policy='abort')"
            )
        return outcomes

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
            # Settle in-flight async verifications so epoch-level metrics are
            # complete (and the staleness policy has acted) before the
            # boundary is recorded; the last batch backs re-execution.
            self.drain_verifications(batch=batch_list[-1])
            self.metrics.end_epoch()
        return self.metrics

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, batches: Iterable[Dict[str, np.ndarray]]) -> Dict[str, float]:
        """Compute mean loss and accuracy without updating weights."""
        self.model.eval()
        losses: List[float] = []
        correct = 0
        total = 0
        for batch in batches:
            output = self.model(
                batch["input_ids"],
                attention_mask=batch.get("attention_mask"),
                labels=batch["labels"],
            )
            losses.append(output.loss_value)
            logits = output.logits.data
            predictions = namespace_of(logits).argmax(logits, axis=-1)
            if not isinstance(predictions, np.ndarray):
                predictions = backend_of(logits).to_numpy(predictions)
            correct += int((predictions == batch["labels"]).sum())
            total += len(batch["labels"])
        self.model.train()
        return {
            "loss": float(np.nanmean(losses)) if losses else float("nan"),
            "accuracy": correct / total if total else float("nan"),
        }
