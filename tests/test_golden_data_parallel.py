"""Golden byte-identity pin for the data-parallel gradient reduction.

``tests/data/golden_data_parallel.json`` was recorded from the trainer's
former *phase-split* reduction (every gradient tensor plus the loss in one
unbucketed all-reduce, launched after backward) on the serial executor at
commit 460c220, before that path was deleted.  It holds the per-step mean
losses at full ``repr`` precision and a sha256 of every final
``state_dict`` array.

It was re-recorded once, when GELU stopped computing its cube with libm
``pow``: extract 460c220 (``git archive 460c220 | tar -x -C <dir>``),
change both ``0.044715 * x**3`` in its ``src/repro/tensor/ops.py`` to
``0.044715 * (x * x * x)`` (also writing ``3 * 0.044715 * (x * x)`` and
``1.0 - t * t`` changes nothing: NumPy squares by multiplication; the
unparenthesised ``0.044715 * x * x * x`` rounds differently), then run
``DataParallelTrainer(ReplicaSpec("bert-base", "tiny", seed=7,
num_labels=2), DataParallelConfig(workers=1, shards=4, executor="serial",
overlap_grad_reduce=False, stale_policy="record"))`` on ``make_batch(200)``
and ``make_batch(201)`` below.  The losses came out byte-equal to the
``pow`` recording; three state hashes changed.  The golden thus still pins
an independent implementation, not the code under test.

The one bucketed reduction that replaced the phase-split path must
reproduce that data byte-for-byte at every worker count (``workers=3`` over
four shards gives the workers uneven rank strides), for both launch timings
and for single- and many-bucket partitions.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.training import DataParallelConfig, DataParallelTrainer, ReplicaSpec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_data_parallel.json")

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)

SPEC = ReplicaSpec(name="bert-base", size="tiny", seed=7, num_labels=2)
#: Many-bucket, few-bucket and single-bucket partitions of tiny BERT.
CAPS = (0.013, 0.08, 16.0)
WORKERS = (1, 2, 3, 4)


def make_batch(seed: int, batch: int = 8, seq: int = 10, vocab: int = 100):
    rng = np.random.default_rng(seed)
    return {
        "input_ids": rng.integers(0, vocab, size=(batch, seq)),
        "attention_mask": np.ones((batch, seq), dtype=np.int64),
        "labels": rng.integers(0, 2, size=(batch,)),
    }


BATCHES = [make_batch(200 + i) for i in range(2)]


def state_sha256(state):
    return {
        name: hashlib.sha256(np.ascontiguousarray(np.asarray(state[name])).tobytes()).hexdigest()
        for name in sorted(state)
    }


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("overlap", [False, True], ids=["after-backward", "in-backward"])
@pytest.mark.parametrize("workers", WORKERS, ids=[f"w{w}" for w in WORKERS])
def test_reproduces_phase_split_golden(workers, overlap, cap):
    config = DataParallelConfig(
        workers=workers, shards=4, overlap_grad_reduce=overlap, bucket_cap_mb=cap,
    )
    with DataParallelTrainer(model_spec=SPEC, config=config) as trainer:
        losses = [repr(trainer.train_step(batch).loss) for batch in BATCHES]
        state = trainer.state_dict()
    assert losses == GOLDEN["losses"]
    assert state_sha256(state) == GOLDEN["state_sha256"]
