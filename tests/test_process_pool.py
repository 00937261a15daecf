"""The process executor's request/reply pipes stay in lockstep after errors."""

import numpy as np
import pytest

from repro.training import DataParallelConfig, DataParallelTrainer, ReplicaSpec

SPEC = ReplicaSpec(name="bert-base", size="tiny", seed=7, num_labels=2)


def test_failed_broadcast_reads_every_reply():
    config = DataParallelConfig(workers=2, shards=2, executor="process")
    with DataParallelTrainer(model_spec=SPEC, config=config) as trainer:
        pool = trainer._procs
        good = pool.request(0, "state", 0)
        bad = {"not_a_parameter": np.zeros(1)}
        # Worker 0 fails, worker 1 succeeds; worker 1's reply must be read
        # here, not left in its pipe to answer the next request.
        with pytest.raises(RuntimeError, match="worker 0 failed"):
            pool.broadcast_request("load_state", [bad, good])
        state = pool.request(1, "state", 1)
        assert set(state) == set(good)
