"""Loss modules."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import autograd as ag

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss(Module):
    """Mean cross-entropy over a batch of logits.

    The loss value is the quantity whose NaN-ness defines a *non-trainable
    state* in the paper's vulnerability study (Section 3.1): "a numerical data
    corruption that causes a loss being NaN".
    """

    def forward(self, logits: ag.Tensor, labels) -> ag.Tensor:
        return ag.cross_entropy_loss(logits, np.asarray(labels, dtype=np.int64))
