"""Every blocking collective wait ends: a stalled rank raises, it never hangs.

``ThreadCollective.finish`` / ``broadcast`` and the data-parallel
coordinator's wait for its rank workers all give up after
``repro.comm.collective.WAIT_DEADLINE_SECONDS`` with a typed
:class:`~repro.comm.CollectiveTimeout`.  The tests shorten the deadline and
run each blocking call on a helper thread joined with a timeout, so a
regression fails the test instead of hanging the suite.
"""

import threading
import time

import numpy as np
import pytest

from test_parallel_training import BATCHES, SPEC

import repro.comm.collective as collective_module
from repro.comm import CollectiveError, CollectiveTimeout, ThreadCollective
from repro.nn import AttentionHooks
from repro.training import DataParallelConfig, DataParallelTrainer

DEADLINE = 0.2
#: How long a helper thread may take before the test declares a hang.
JOIN_SECONDS = 30.0


@pytest.fixture(autouse=True)
def short_deadline(monkeypatch):
    monkeypatch.setattr(collective_module, "WAIT_DEADLINE_SECONDS", DEADLINE)


def run_in_thread(call):
    """Run ``call`` on a helper thread; return (raised exception, seconds)."""
    raised = []

    def target():
        try:
            call()
        except Exception as exc:  # noqa: BLE001 - inspected by the caller
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    start = time.monotonic()
    thread.start()
    thread.join(JOIN_SECONDS)
    assert not thread.is_alive(), "the blocking call hung past its deadline"
    return (raised[0] if raised else None), time.monotonic() - start


def test_finish_times_out_naming_the_silent_rank():
    coll = ThreadCollective(3)
    coll.contribute("grads", 0, [np.zeros(2)])
    coll.contribute("grads", 2, [np.zeros(2)])
    error, seconds = run_in_thread(lambda: coll.finish("grads", 0))
    assert isinstance(error, CollectiveTimeout)
    assert isinstance(error, CollectiveError)
    assert "'grads'" in str(error) and "[1]" in str(error)
    assert seconds >= DEADLINE


def test_broadcast_times_out_on_a_silent_root():
    coll = ThreadCollective(2)
    error, seconds = run_in_thread(lambda: coll.broadcast("weights", 1, root=0))
    assert isinstance(error, CollectiveTimeout)
    assert "'weights@bcast'" in str(error) and "[0]" in str(error)
    assert seconds >= DEADLINE


class _StallingHook(AttentionHooks):
    """Blocks the rank's forward pass until ``release`` is set."""

    def __init__(self, release):
        self.release = release

    def on_block_start(self, block, layer_index, step):
        self.release.wait(JOIN_SECONDS)


def test_stalled_rank_fails_the_step_with_a_timeout():
    trainer = DataParallelTrainer(
        model_spec=SPEC, config=DataParallelConfig(workers=2, shards=2)
    )
    release = threading.Event()
    trainer.runners[1].model.set_attention_hooks(_StallingHook(release))
    try:
        error, seconds = run_in_thread(lambda: trainer.train_step(BATCHES[0]))
    finally:
        release.set()
        trainer.close()
    assert isinstance(error, CollectiveTimeout)
    assert str(error).startswith("step 1:")
    # It names the stalled rank 1, not rank 0, which only waits on rank 1.
    assert "rank(s) [1] " in str(error)
    assert seconds >= DEADLINE
    # The poisoned collective refuses further work instead of waiting on it.
    with pytest.raises(CollectiveError):
        trainer.collective.contribute("after", 0, [np.zeros(1)])
