"""Deterministic random-number management.

All stochastic code paths in the library (weight initialisation, synthetic
data generation, dropout, fault-site selection) take an explicit
:class:`numpy.random.Generator`.  This module centralises how those
generators are created so experiments are exactly reproducible:
the same seed always produces the same training run, the same fault-injection
campaign and therefore the same benchmark tables.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["new_rng"]

DEFAULT_SEED = 0xA77C  # "ATTC"


def new_rng(seed: Optional[int] = None) -> np.random.Generator:
    """Create a fresh :class:`numpy.random.Generator` from ``seed``.

    ``None`` maps to the library-wide default seed so that *not* passing a
    seed still yields deterministic behaviour (important for tests).
    """
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)
