"""Optimisers: SGD (with momentum) and AdamW.

AdamW is the optimiser used for the GLUE fine-tuning runs the paper evaluates;
SGD is provided for the unit tests and as a cheaper baseline.  Both operate on
the :class:`repro.nn.Parameter` leaves of a model and keep one moment /
velocity slot per parameter; ``state_dict`` / ``load_state_dict`` deep-copy
them.

Optimizer-state integrity
-------------------------
AdamW additionally keeps a **float64 running checksum** over its moment
buffers: after every :meth:`AdamW.step` the per-slot sums of ``m`` and ``v``
are recorded, ``state_dict`` embeds them, and ``load_state_dict`` re-derives
the sums from the restored buffers and compares — a restore from a poisoned
snapshot (a bit flip striking a moment slot between save and restore) raises
:class:`OptimizerStateCorruption` instead of silently reinstalling the
corrupted state.  :meth:`AdamW.verify_moments` runs the same comparison
against the *live* buffers; :class:`repro.training.CheckpointManager` calls
it before every save so corruption never makes it into a checkpoint.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.utils.versioning import bump_weights_version

__all__ = ["Optimizer", "OptimizerStateCorruption", "SGD", "AdamW"]


class OptimizerStateCorruption(RuntimeError):
    """A float64 moment-buffer checksum mismatched its recorded value.

    Raised when the AdamW moment slots no longer sum to what the optimiser
    recorded after its last update — a silent corruption of optimizer state
    (the territory checkpoints and rollback snapshots would otherwise
    propagate instead of repair)."""


def _moment_sum(value: Any) -> float:
    """Float64 sum of one moment buffer.

    The reduction is deterministic for a given buffer, so the checksum
    comparison is equality, not a tolerance."""
    return float(np.sum(value, dtype=np.float64))


def _sums_match(recorded: float, recomputed: float) -> bool:
    """Exact checksum comparison; two NaN sums compare equal (a NaN moment
    is a non-trainable-state problem, not a storage-corruption one)."""
    if np.isnan(recorded) and np.isnan(recomputed):
        return True
    return recorded == recomputed


class Optimizer:
    """Base class: holds the parameter list and the common step/zero_grad API."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        """Apply one update to every parameter with a gradient.

        Contract for implementations: after mutating (or rebinding) any
        ``param.data``, call
        :func:`repro.utils.versioning.bump_weights_version` exactly once —
        the fused checker's weight-derived encoding caches key their
        validity on it.  An implementation that updates *in place* and
        skips the bump would silently serve stale checksums.
        """
        raise NotImplementedError

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable optimiser state (step count + per-parameter slots)."""
        return {"step_count": np.asarray(self.step_count)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.step_count = int(state.get("step_count", 0))


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[Any]] = [None] * len(self.parameters)

    def step(self) -> None:
        self.step_count += 1
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                self._velocity[i] = self.momentum * self._velocity[i] + grad
                grad = self._velocity[i]
            p.data = p.data - self.lr * grad
        # Weight-derived checksum encodings (rowcs(W_V), the fused [W_Q|W_K]
        # operand) are stale from here on.
        bump_weights_version()

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        for i, v in enumerate(self._velocity):
            if v is not None:
                state[f"velocity.{i}"] = np.array(v, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        for i in range(len(self.parameters)):
            key = f"velocity.{i}"
            self._velocity[i] = np.array(state[key], copy=True) if key in state else None


class AdamW(Optimizer):
    """AdamW (decoupled weight decay), the standard fine-tuning optimiser."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 2e-5,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: List[Optional[Any]] = [None] * len(self.parameters)
        self._v: List[Optional[Any]] = [None] * len(self.parameters)
        # Float64 running checksum over the moment buffers: (sum(m), sum(v))
        # per slot, recorded right after each update writes the buffers.
        self._moment_sums: List[Optional[Tuple[float, float]]] = [None] * len(self.parameters)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias_c1 = 1.0 - self.beta1**t
        bias_c2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            grad = p.grad
            if self._m[i] is None:
                self._m[i] = np.zeros_like(p.data)
                self._v[i] = np.zeros_like(p.data)
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad**2
            self._moment_sums[i] = (_moment_sum(self._m[i]), _moment_sum(self._v[i]))
            m_hat = self._m[i] / bias_c1
            v_hat = self._v[i] / bias_c2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update
        # Invalidate weight-derived checksum caches (see SGD.step).
        bump_weights_version()

    # -- moment-buffer integrity ----------------------------------------------------

    def verify_moments(self) -> None:
        """Recompute the float64 moment sums and compare to the running record.

        Raises :class:`OptimizerStateCorruption` on the first slot whose live
        ``m``/``v`` buffer no longer reproduces the sum recorded when
        :meth:`step` last wrote it.  O(state size) adds, no copies beyond the
        reduction — the cheap invariant check run before every checkpoint
        save and on stale-rollback restore.
        """
        for i in range(len(self.parameters)):
            if self._m[i] is None or self._moment_sums[i] is None:
                continue
            recorded_m, recorded_v = self._moment_sums[i]
            live_m, live_v = _moment_sum(self._m[i]), _moment_sum(self._v[i])
            if not (_sums_match(recorded_m, live_m) and _sums_match(recorded_v, live_v)):
                raise OptimizerStateCorruption(
                    f"AdamW moment buffers for parameter slot {i} do not reproduce "
                    f"their recorded float64 checksums "
                    f"(m: recorded {recorded_m!r}, live {live_m!r}; "
                    f"v: recorded {recorded_v!r}, live {live_v!r}) — optimizer "
                    "state was corrupted after the last update"
                )

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        for i in range(len(self.parameters)):
            if self._m[i] is not None:
                state[f"m.{i}"] = np.array(self._m[i], copy=True)
                state[f"v.{i}"] = np.array(self._v[i], copy=True)
                if self._moment_sums[i] is not None:
                    state[f"moment_checksum.{i}"] = np.asarray(
                        self._moment_sums[i], dtype=np.float64
                    )
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        for i in range(len(self.parameters)):
            self._m[i] = np.array(state[f"m.{i}"], copy=True) if f"m.{i}" in state else None
            self._v[i] = np.array(state[f"v.{i}"], copy=True) if f"v.{i}" in state else None
            self._moment_sums[i] = None
            if self._m[i] is None:
                continue
            sums = (_moment_sum(self._m[i]), _moment_sum(self._v[i]))
            key = f"moment_checksum.{i}"
            if key in state:
                recorded = np.asarray(state[key], dtype=np.float64)
                recorded_m, recorded_v = float(recorded[0]), float(recorded[1])
                if not (_sums_match(recorded_m, sums[0]) and _sums_match(recorded_v, sums[1])):
                    raise OptimizerStateCorruption(
                        f"restored AdamW moment buffers for parameter slot {i} do not "
                        f"reproduce the snapshot's float64 checksums "
                        f"(m: recorded {recorded_m!r}, restored {sums[0]!r}; "
                        f"v: recorded {recorded_v!r}, restored {sums[1]!r}) — the "
                        "snapshot was poisoned between save and restore"
                    )
                self._moment_sums[i] = (recorded_m, recorded_v)
            else:
                # Legacy snapshot without checksums: adopt the restored
                # buffers as the new ground truth.
                self._moment_sums[i] = sums
