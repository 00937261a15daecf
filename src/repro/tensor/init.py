"""Parameter initialisers.

All initialisers take an explicit :class:`numpy.random.Generator` so the model
zoo produces identical weights for identical seeds — a requirement for the
fault-injection campaigns, which compare faulty and fault-free runs of the
*same* model.  Initial values are always *drawn on the host* (backend RNGs
differ even for the same seed) and then handed to the owning array backend via
:func:`adopt` — the one h2d crossing of a device-resident model's parameters.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

__all__ = [
    "adopt",
    "normal_init",
    "zeros_init",
]


def adopt(array: np.ndarray, backend: Optional[Any]) -> Any:
    """Adopt a host-initialised array into ``backend``'s array type.

    ``None`` (the NumPy substrate) and backends that already own ``array``
    natively return it unchanged — the host path performs no conversion call,
    which is what lets the counting/spy backend prove the zero-transfer
    property of a same-backend training step.
    """
    if backend is None or backend.is_backend_array(array):
        return array
    return backend.from_numpy(array)


def normal_init(shape: Sequence[int], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Truncated-free normal initialisation (BERT/GPT-2 style, std=0.02)."""
    return rng.normal(0.0, std, size=tuple(shape))


def zeros_init(shape: Sequence[int]) -> np.ndarray:
    """All-zeros initialisation (biases, layer-norm beta)."""
    return np.zeros(tuple(shape), dtype=np.float64)
