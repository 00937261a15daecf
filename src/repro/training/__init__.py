"""Training substrate: optimisers, trainer and checkpointing.

The trainer exposes exactly the signals the paper's evaluation needs:

* per-step loss (whose NaN-ness defines a *non-trainable state*),
* per-step attention-block and whole-step wall-clock time (overhead studies),
* hooks for fault-injection campaigns, and
* a checkpoint/restore manager implementing the baseline recovery strategy
  that Figure 11 compares ATTNChecker against, and
* a data-parallel trainer (``parallel``) sharding the global batch across
  worker-driven model replicas whose gradient all-reduce is itself
  checksum-protected through :mod:`repro.comm`.
"""

from repro.training.optimizer import SGD, AdamW, Optimizer, OptimizerStateCorruption
from repro.training.checkpoint import CheckpointManager, CheckpointRecord
from repro.training.metrics import TrainingMetrics, StepResult
from repro.training.trainer import Trainer, TrainerConfig
from repro.training.parallel import (
    DIRTY_POLICIES,
    EXECUTORS,
    DataParallelConfig,
    DataParallelTrainer,
    DirtyReductionAbort,
    ParallelStepResult,
    ReplicaSpec,
)

__all__ = [
    "DIRTY_POLICIES",
    "EXECUTORS",
    "DirtyReductionAbort",
    "Optimizer",
    "OptimizerStateCorruption",
    "SGD",
    "AdamW",
    "CheckpointManager",
    "CheckpointRecord",
    "Trainer",
    "TrainerConfig",
    "TrainingMetrics",
    "StepResult",
    "ReplicaSpec",
    "DataParallelConfig",
    "DataParallelTrainer",
    "ParallelStepResult",
]
