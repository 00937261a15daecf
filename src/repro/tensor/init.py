"""Parameter initialisers.

All initialisers take an explicit :class:`numpy.random.Generator` so the model
zoo produces identical weights for identical seeds — a requirement for the
fault-injection campaigns, which compare faulty and fault-free runs of the
*same* model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "normal_init",
    "zeros_init",
]


def normal_init(shape: Sequence[int], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Truncated-free normal initialisation (BERT/GPT-2 style, std=0.02)."""
    return rng.normal(0.0, std, size=tuple(shape))


def zeros_init(shape: Sequence[int]) -> np.ndarray:
    """All-zeros initialisation (biases, layer-norm beta)."""
    return np.zeros(tuple(shape), dtype=np.float64)
