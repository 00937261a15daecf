"""Checkpoint / restore: the baseline recovery strategy of the paper.

The state of the art the paper compares against (Figure 11) checkpoints the
model every training step and, when a non-trainable state (NaN loss) is
encountered, restores the last checkpoint and re-executes the step.  This
module implements both an in-memory and an on-disk variant and records the
save / load timings that feed the recovery-overhead comparison.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.training.optimizer import Optimizer

__all__ = ["CheckpointRecord", "CheckpointManager"]


@dataclass
class CheckpointRecord:
    """One saved checkpoint plus bookkeeping about how expensive it was."""

    step: int
    model_state: Dict[str, Any]
    optimizer_state: Dict[str, Any]
    save_seconds: float
    nbytes: int
    path: Optional[str] = None


def _state_nbytes(state: Dict[str, Any]) -> int:
    """Total payload bytes of one state dict."""
    return sum(np.asarray(value).nbytes for value in state.values())


class CheckpointManager:
    """Per-step checkpointing with restore, in memory or on disk.

    Parameters
    ----------
    directory:
        When given, checkpoints are serialised to ``.npz`` files under this
        directory (closer to the real recovery cost the paper measures);
        otherwise deep copies are kept in memory.
    keep_last:
        How many checkpoints to retain (older ones are dropped/deleted).
    """

    def __init__(self, directory: Optional[str] = None, keep_last: int = 2) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be at least 1")
        self.directory = directory
        self.keep_last = keep_last
        self.records: List[CheckpointRecord] = []
        self.total_save_seconds = 0.0
        self.total_load_seconds = 0.0
        self.num_saves = 0
        self.num_restores = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    # -- save -----------------------------------------------------------------------

    def save(self, step: int, model: Module, optimizer: Optional[Optimizer] = None) -> CheckpointRecord:
        """Snapshot model (and optimiser) state after training step ``step``.

        Optimisers that keep a moment-buffer checksum (AdamW) are verified
        first — a corrupted moment slot raises
        :class:`repro.training.optimizer.OptimizerStateCorruption` instead of
        being persisted into the checkpoint it would later poison a restore
        from.
        """
        if optimizer is not None:
            verify = getattr(optimizer, "verify_moments", None)
            if verify is not None:
                verify()
        start = time.perf_counter()
        model_state = model.state_dict()
        opt_state = optimizer.state_dict() if optimizer is not None else {}
        nbytes = _state_nbytes(model_state) + _state_nbytes(opt_state)
        path = None
        if self.directory is not None:
            path = os.path.join(self.directory, f"checkpoint_{step:08d}.npz")
            payload = {f"model/{k}": v for k, v in model_state.items()}
            payload.update({f"optim/{k}": np.asarray(v) for k, v in opt_state.items()})
            np.savez(path, **payload)
        elapsed = time.perf_counter() - start
        record = CheckpointRecord(
            step=step,
            model_state=model_state,
            optimizer_state=opt_state,
            save_seconds=elapsed,
            nbytes=nbytes,
            path=path,
        )
        self.records.append(record)
        self.total_save_seconds += elapsed
        self.num_saves += 1
        self._prune()
        return record

    def _prune(self) -> None:
        while len(self.records) > self.keep_last:
            dropped = self.records.pop(0)
            if dropped.path and os.path.exists(dropped.path):
                os.remove(dropped.path)

    # -- restore ---------------------------------------------------------------------

    @property
    def latest(self) -> Optional[CheckpointRecord]:
        return self.records[-1] if self.records else None

    def restore(
        self,
        model: Module,
        optimizer: Optional[Optimizer] = None,
        record: Optional[CheckpointRecord] = None,
    ) -> CheckpointRecord:
        """Load the latest (or a given) checkpoint back into model/optimiser."""
        record = record or self.latest
        if record is None:
            raise RuntimeError("no checkpoint available to restore from")
        start = time.perf_counter()
        if record.path is not None and os.path.exists(record.path):
            with np.load(record.path) as data:
                model_state = {
                    k[len("model/"):]: data[k] for k in data.files if k.startswith("model/")
                }
                opt_state = {
                    k[len("optim/"):]: data[k] for k in data.files if k.startswith("optim/")
                }
        else:
            model_state = record.model_state
            opt_state = record.optimizer_state
        model.load_state_dict(model_state)
        if optimizer is not None and opt_state:
            optimizer.load_state_dict(opt_state)
        elapsed = time.perf_counter() - start
        self.total_load_seconds += elapsed
        self.num_restores += 1
        return record
