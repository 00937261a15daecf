"""Batching utilities."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.data.synthetic_mrpc import SyntheticMRPC
from repro.utils.rng import new_rng

__all__ = ["DataLoader"]


class DataLoader:
    """Shuffling mini-batch loader over a :class:`SyntheticMRPC` corpus.

    The loader re-encodes lazily per epoch; with ``shuffle=True`` the example
    order is re-drawn from its own RNG stream so data order is independent of
    model/fault randomness.
    """

    def __init__(
        self,
        dataset: SyntheticMRPC,
        batch_size: int = 8,
        indices: Optional[Sequence[int]] = None,
        shuffle: bool = True,
        drop_last: bool = True,
        seed: int = 7,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.indices: List[int] = list(indices) if indices is not None else list(range(len(dataset)))
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = new_rng(seed)

    def __len__(self) -> int:
        n = len(self.indices)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Dict[str, np.ndarray]]:
        order = list(self.indices)
        if self.shuffle:
            order = [order[i] for i in self._rng.permutation(len(order))]
        for start in range(0, len(order), self.batch_size):
            chunk = order[start : start + self.batch_size]
            if len(chunk) < self.batch_size and self.drop_last:
                return
            yield self.dataset.encode(chunk)

    def batches(self) -> List[Dict[str, np.ndarray]]:
        """Materialise one epoch of batches (useful for repeated epochs)."""
        return list(iter(self))
