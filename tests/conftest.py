"""Shared fixtures for the test suite.

Heavy objects (models, datasets, encoded batches) are session-scoped: tests
treat them as read-only unless they explicitly build their own copies, which
keeps the full suite fast while still exercising realistic configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticMRPC
from repro.models import build_model


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_bert():
    """A tiny BERT classifier (read-only across tests)."""
    return build_model("bert-base", size="tiny", rng=np.random.default_rng(0))


@pytest.fixture(scope="session")
def tiny_gpt2():
    """A tiny GPT-2 classifier (read-only across tests)."""
    return build_model("gpt2", size="tiny", rng=np.random.default_rng(0))


@pytest.fixture(scope="session")
def mrpc_dataset(tiny_bert):
    """Synthetic MRPC-style corpus matching the tiny model geometry."""
    return SyntheticMRPC(
        num_examples=64,
        max_seq_len=tiny_bert.config.max_seq_len,
        vocab_size=tiny_bert.config.vocab_size,
        seed=99,
    )


@pytest.fixture(scope="session")
def small_batch(mrpc_dataset):
    """One encoded batch of 8 examples."""
    return mrpc_dataset.encode(range(8))


@pytest.fixture(scope="session")
def full_attention_batch(mrpc_dataset):
    """A batch whose attention mask is all ones (no padding)."""
    batch = mrpc_dataset.encode(range(8))
    batch = dict(batch)
    batch["attention_mask"] = np.ones_like(batch["attention_mask"])
    return batch


def fresh_model(name: str = "bert-base", seed: int = 0):
    """Helper for tests that need a mutable model of their own."""
    return build_model(name, size="tiny", rng=np.random.default_rng(seed))
