"""Golden byte-identity pin for the data-parallel gradient reduction.

``tests/data/golden_data_parallel.json`` was recorded from the trainer's
former *phase-split* reduction (every gradient tensor plus the loss in one
unbucketed all-reduce, launched after backward) on the serial executor at
commit 460c220, before that path was deleted.  It holds the per-step mean
losses at full ``repr`` precision and a sha256 of every final
``state_dict`` array.  The one bucketed reduction that replaced it must
reproduce that data byte-for-byte on every executor, for both launch
timings and for single- and many-bucket partitions.
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
EXECUTORS = [("serial", 1), ("thread", 2), ("thread", 4), ("process", 2)]


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
@pytest.mark.parametrize(
    "executor,workers", EXECUTORS, ids=[f"{e}-w{w}" for e, w in EXECUTORS]
)
def test_reproduces_phase_split_golden(executor, workers, overlap, cap):
    config = DataParallelConfig(
        workers=workers, shards=4, executor=executor,
        overlap_grad_reduce=overlap, bucket_cap_mb=cap,
    )
    with DataParallelTrainer(model_spec=SPEC, config=config) as trainer:
        losses = [repr(trainer.train_step(batch).loss) for batch in BATCHES]
        state = trainer.state_dict()
    assert losses == GOLDEN["losses"]
    assert state_sha256(state) == GOLDEN["state_sha256"]
