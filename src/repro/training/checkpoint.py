"""Checkpoint / restore: the baseline recovery strategy of the paper.

The state of the art the paper compares against (Figure 11) checkpoints the
model every training step and, when a non-trainable state (NaN loss) is
encountered, restores the last checkpoint and re-executes the step.  This
module implements both an in-memory and an on-disk variant and records the
save / load timings that feed the recovery-overhead comparison.

Array backends
--------------
Model and optimiser state dicts are *backend-native* (a device-resident model
snapshots device arrays).  In-memory checkpoints keep them that way — restore
never leaves the device.  On-disk checkpoints must serialise host NumPy: the
manager exports every foreign array through its owning backend before
``np.savez`` and lets ``load_state_dict`` adopt host arrays back on restore,
with both crossings timed under the ``xfer/d2h`` / ``xfer/h2d`` keys of the
optional :class:`~repro.utils.timing.TimingRegistry`.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.backend import backend_of
from repro.nn.module import Module
from repro.training.optimizer import Optimizer
from repro.utils.timing import TimingRegistry, XFER_D2H, XFER_H2D

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
    """Total payload bytes of one state dict, on any array backend."""
    total = 0
    for value in state.values():
        backend = backend_of(value)
        shape = tuple(getattr(value, "shape", ()))
        total += int(np.prod(shape, dtype=np.int64)) * backend.dtype_of(value).itemsize
    return total


class CheckpointManager:
    """Per-step checkpointing with restore, in memory or on disk.

    Parameters
    ----------
    directory:
        When given, checkpoints are serialised to ``.npz`` files under this
        directory (closer to the real recovery cost the paper measures);
        otherwise backend-native deep copies are kept in memory.
    keep_last:
        How many checkpoints to retain (older ones are dropped/deleted).
    timers:
        Optional :class:`TimingRegistry`; host export on save and backend
        adoption on restore are recorded under ``xfer/d2h`` / ``xfer/h2d``.
        On the pure-NumPy substrate both keys accumulate nothing — no foreign
        arrays means no conversions.
    """

    def __init__(self, directory: Optional[str] = None, keep_last: int = 2,
                 timers: Optional[TimingRegistry] = None) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be at least 1")
        self.directory = directory
        self.keep_last = keep_last
        self.timers = timers
        self.records: List[CheckpointRecord] = []
        self.total_save_seconds = 0.0
        self.total_load_seconds = 0.0
        self.num_saves = 0
        self.num_restores = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _timed_xfer(self, key: str):
        return self.timers.measure(key) if self.timers is not None else nullcontext()

    def _export_host(self, state: Dict[str, Any]) -> Dict[str, np.ndarray]:
        """Export a backend-native state dict to host NumPy for serialisation.

        Host arrays pass straight through; each foreign array is exported via
        its owning backend with the copy timed under ``xfer/d2h``.
        """
        host: Dict[str, np.ndarray] = {}
        for key, value in state.items():
            # Exact base-class ndarrays are host data; anything else
            # (device tensors, registered ndarray-subclass wrappers) exports
            # through the backend that owns it.
            if type(value) is np.ndarray:
                host[key] = value
                continue
            backend = backend_of(value)
            with self._timed_xfer(XFER_D2H):
                host[key] = backend.to_numpy(value)
        return host

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
            payload = {f"model/{k}": v for k, v in self._export_host(model_state).items()}
            payload.update(
                {f"optim/{k}": np.asarray(v) for k, v in self._export_host(opt_state).items()}
            )
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
        """Load the latest (or a given) checkpoint back into model/optimiser.

        On-disk checkpoints hand host arrays to ``load_state_dict``, which
        adopts them into each parameter's backend — for a device-resident
        model that adoption is the h2d leg of the restore and is timed under
        ``xfer/h2d``.  In-memory records are already backend-native, so no
        transfer time accrues.
        """
        record = record or self.latest
        if record is None:
            raise RuntimeError("no checkpoint available to restore from")
        start = time.perf_counter()
        from_disk = record.path is not None and os.path.exists(record.path)
        if from_disk:
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
        sample = next(iter(model_state.values()), None)
        params = model.parameters()
        adopting = (
            from_disk and sample is not None and bool(params)
            and not params[0].backend.is_backend_array(sample)
        )
        with self._timed_xfer(XFER_H2D) if adopting else nullcontext():
            model.load_state_dict(model_state)
            if optimizer is not None and opt_state:
                optimizer.load_state_dict(opt_state)
        elapsed = time.perf_counter() - start
        self.total_load_seconds += elapsed
        self.num_restores += 1
        return record
