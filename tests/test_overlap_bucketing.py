"""Bucketed, backward-overlapped protected gradient all-reduce.

Covers the :mod:`repro.comm.bucketing` layer (reverse-registration
partitioning, flat roundtrips, readiness tracking), the eager-reduce
collective mode, and the :class:`DataParallelTrainer` launch timings — whose
non-negotiable gate is byte-identity to the 1-worker reference launched
after backward, for any bucket cap and worker count.
Bucket-granular dirty retries and the bucket-aware dispatch accounting of
``SectionCostModel.collective_checksum_dispatches_per_step`` are
counter-verified.
"""

import numpy as np
import pytest

from repro.comm import GradientBucketer, ThreadCollective
from repro.core import SectionCostModel
from repro.faults import CollectiveFaultInjector, CollectiveFaultSpec
from repro.training import DataParallelConfig, DataParallelTrainer, ReplicaSpec


def make_batch(seed: int, batch: int = 8, seq: int = 10, vocab: int = 100):
    rng = np.random.default_rng(seed)
    return {
        "input_ids": rng.integers(0, vocab, size=(batch, seq)),
        "attention_mask": np.ones((batch, seq), dtype=np.int64),
        "labels": rng.integers(0, 2, size=(batch,)),
    }


BATCHES = [make_batch(200 + i) for i in range(2)]
SPEC = ReplicaSpec(name="bert-base", size="tiny", seed=7, num_labels=2)

#: Caps chosen to exercise many-bucket, few-bucket and single-bucket
#: partitions of the ~0.65 MiB tiny-BERT gradient set.
CAPS = (0.013, 0.08, 16.0)


def train_overlapped(workers, shards, cap=0.08, policy="record",
                     overlap=True, collective_injector=None, protection=None,
                     steps=2):
    config = DataParallelConfig(
        workers=workers,
        shards=shards,
        dirty_policy=policy,
        overlap_grad_reduce=overlap,
        bucket_cap_mb=cap,
        protection=protection,
    )
    trainer = DataParallelTrainer(
        model_spec=SPEC, config=config, collective_injector=collective_injector
    )
    try:
        results = [trainer.train_step(batch) for batch in BATCHES[:steps]]
        return trainer.state_dict(), results, trainer
    finally:
        trainer.close()


def states_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a
    )


@pytest.fixture(scope="module")
def reference_state():
    """1-worker reference at shards=4, launched after backward — the
    byte-identity anchor."""
    state, _, _ = train_overlapped(workers=1, shards=4, overlap=False)
    return state


class TestGradientBucketer:
    def test_partition_is_reverse_registration_order(self):
        arrays = [np.zeros((10, 4)), np.zeros((7,)), np.zeros((3, 3)), np.zeros((5,))]
        bucketer = GradientBucketer(arrays, bucket_cap_mb=60 * 8 / 2**20)
        # Bucket 0 fills back-to-front: params 3, 2, 1 (5 + 9 + 7 = 21 elems),
        # then param 0 (40 elems) overflows the 60-element cap into bucket 1.
        assert bucketer.buckets[0].param_indices == (3, 2, 1)
        assert bucketer.buckets[1].param_indices == (0,)
        assert bucketer.buckets[0].offsets == (0, 5, 14)
        assert bucketer.buckets[0].total_size == 21

    def test_every_param_owned_by_exactly_one_bucket(self):
        arrays = [np.zeros((i + 1,)) for i in range(9)]
        bucketer = GradientBucketer(arrays, bucket_cap_mb=10 * 8 / 2**20)
        owned = [pi for spec in bucketer.buckets for pi in spec.param_indices]
        assert sorted(owned) == list(range(9))
        assert set(bucketer.param_to_bucket) == set(range(9))

    def test_oversized_param_gets_singleton_bucket(self):
        arrays = [np.zeros((100,)), np.zeros((2,))]
        bucketer = GradientBucketer(arrays, bucket_cap_mb=10 * 8 / 2**20)
        assert [spec.param_indices for spec in bucketer.buckets] == [(1,), (0,)]

    def test_dtype_boundary_closes_bucket(self):
        arrays = [np.zeros((2,), dtype=np.float64), np.zeros((2,), dtype=np.float32)]
        bucketer = GradientBucketer(arrays, bucket_cap_mb=1.0)
        assert bucketer.num_buckets == 2
        assert bucketer.buckets[0].dtype == np.dtype(np.float32)
        assert bucketer.buckets[1].dtype == np.dtype(np.float64)

    def test_flatten_unflatten_roundtrip(self):
        arrays = [np.zeros((4, 3)), np.zeros((5,)), np.zeros((2, 2))]
        bucketer = GradientBucketer(arrays, bucket_cap_mb=1.0)
        grads = [np.full(a.shape, i + 1.0) for i, a in enumerate(arrays)]
        for bucket in range(bucketer.num_buckets):
            flat = bucketer.flatten(bucket, grads)
            for pi, view in bucketer.unflatten(bucket, flat).items():
                np.testing.assert_array_equal(view, grads[pi])

    def test_flatten_zero_fills_missing_gradients(self):
        arrays = [np.zeros((3,)), np.zeros((2,))]
        bucketer = GradientBucketer(arrays, bucket_cap_mb=1.0)
        flat = bucketer.flatten(0, [None, np.array([5.0, 6.0])])
        np.testing.assert_array_equal(flat, [5.0, 6.0, 0.0, 0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="empty parameter list"):
            GradientBucketer([], bucket_cap_mb=1.0)
        with pytest.raises(ValueError, match="bucket_cap_mb"):
            GradientBucketer([np.zeros(2)], bucket_cap_mb=0.0)


class TestBucketReadiness:
    def test_mark_returns_bucket_on_completion(self):
        arrays = [np.zeros((4,)), np.zeros((4,)), np.zeros((4,))]
        bucketer = GradientBucketer(arrays, bucket_cap_mb=8 * 8 / 2**20)
        tracker = bucketer.tracker()
        # Bucket 0 = params (2, 1); bucket 1 = params (0,).
        assert tracker.mark(2) is None
        assert tracker.mark(1) == 0
        assert tracker.pending() == [1]
        assert tracker.mark(0) == 1
        assert tracker.pending() == []

    def test_double_mark_is_an_error(self):
        bucketer = GradientBucketer([np.zeros((2,))], bucket_cap_mb=1.0)
        tracker = bucketer.tracker()
        tracker.mark(0)
        with pytest.raises(RuntimeError, match="marked ready twice"):
            tracker.mark(0)

    def test_reset_restarts_readiness(self):
        bucketer = GradientBucketer([np.zeros((2,))], bucket_cap_mb=1.0)
        tracker = bucketer.tracker()
        assert tracker.mark(0) == 0
        tracker.reset()
        assert tracker.pending() == [0]
        assert tracker.mark(0) == 0


class TestEagerReduce:
    def test_eager_fold_is_bit_identical_to_lazy(self):
        # Float addition is not associative: both modes must fold the same
        # rank order, so catastrophic-cancellation payloads stay identical.
        values = [np.array([0.1, 1e16]), np.array([0.2, -1e16]), np.array([0.3, 1.0])]
        outs = []
        for eager in (False, True):
            coll = ThreadCollective(3, op="mean", eager_reduce=eager)
            for rank in (2, 0, 1):
                coll.contribute("k", rank, [values[rank]])
            outs.append(coll.finish("k", 0)[0])
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_last_contributor_folds_before_finish(self):
        coll = ThreadCollective(2, op="sum", eager_reduce=True)
        coll.contribute("k", 0, [np.array([1.0])])
        coll.contribute("k", 1, [np.array([2.0])])
        # The rendezvous folded inside the last contribute: the result is
        # ready before any rank blocks in finish.
        with coll._cv:
            assert "k" in coll._results
            assert "k" not in coll._entries
        assert coll.finish("k", 0)[0][0] == 3.0
        assert coll.finish("k", 1)[0][0] == 3.0


class TestOverlappedByteIdentity:
    """The non-negotiable gate: overlapped == non-overlapped == 1-worker
    reference, byte-for-byte, for any bucket cap and worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("cap", CAPS)
    def test_thread_overlapped_matches_serial_reference(
        self, workers, cap, reference_state
    ):
        state, results, _ = train_overlapped(workers=workers, shards=4, cap=cap)
        assert states_equal(reference_state, state)
        assert results[0].buckets >= 1
        if cap == CAPS[0]:
            assert results[0].buckets > 4

    def test_serial_overlapped_matches_serial_reference(self, reference_state):
        state, _, _ = train_overlapped(workers=1, shards=4)
        assert states_equal(reference_state, state)

    def test_overlapped_matches_non_overlapped_same_worker_count(self):
        plain, _, _ = train_overlapped(workers=2, shards=2, overlap=False)
        overlapped, _, _ = train_overlapped(workers=2, shards=2, cap=0.02)
        assert states_equal(plain, overlapped)

    def test_reexecute_with_checker_overlaps_and_matches_reference(self):
        # A rank's checker corrects in-pass, so a shard never re-runs after
        # its backward: "reexecute" only retries dirty reductions, and every
        # bucket still launches from inside backward, byte-identical to the
        # after-backward reference.
        from repro.core import ATTNCheckerConfig

        plain, _, _ = train_overlapped(workers=2, shards=2, overlap=False)
        state, _, trainer = train_overlapped(
            workers=2,
            shards=2,
            cap=0.05,
            policy="reexecute",
            protection=ATTNCheckerConfig(backend="fused"),
        )
        assert states_equal(plain, state)
        counters = trainer.bucket_counters()
        assert counters["bucket_launches"] > 0
        assert counters["overlapped_launches"] == counters["bucket_launches"]


class TestOverlapAccounting:
    def test_timer_keys_and_efficiency(self):
        _, results, trainer = train_overlapped(workers=2, shards=4, cap=0.08)
        keys = set(trainer.timers.as_dict())
        assert {"comm/bucket", "comm/overlap", "comm/drain"} <= keys
        result = results[0]
        assert 0.0 <= result.overlap_efficiency <= 1.0
        assert result.overlap_seconds > 0.0
        # Immediate mode: every bucket launch of every rank fired from
        # inside backward.
        counters = trainer.bucket_counters()
        assert counters["overlapped_launches"] == counters["bucket_launches"]
        assert counters["bucket_launches"] == result.buckets * 4 * len(BATCHES)

    def test_dispatch_counters_match_bucket_aware_cost_model(self):
        _, results, trainer = train_overlapped(workers=2, shards=4, cap=0.08)
        num_params = len(trainer.runners[0].params)
        per_step = SectionCostModel.collective_checksum_dispatches_per_step(
            num_gradients=num_params + 1,
            world_size=4,
            num_buckets=results[0].buckets,
        )
        counters = trainer.collective_counters()
        assert counters["checksum_encodes"] == per_step["encode"] * len(BATCHES)
        assert counters["checksum_verifies"] == per_step["verify"] * len(BATCHES)
        assert counters["mismatches"] == 0

    def test_bucketed_cost_model_collapses_dispatches(self):
        flat = SectionCostModel.collective_checksum_dispatches_per_step(42, 4)
        bucketed = SectionCostModel.collective_checksum_dispatches_per_step(
            42, 4, num_buckets=12
        )
        assert flat == {"encode": 168, "verify": 42}
        assert bucketed == {"encode": 52, "verify": 13}
        assert bucketed["encode"] < flat["encode"]
        assert bucketed["verify"] < flat["verify"]

    def test_bucketed_cost_model_validates_num_buckets(self):
        with pytest.raises(ValueError, match="num_buckets"):
            SectionCostModel.collective_checksum_dispatches_per_step(
                42, 4, num_buckets=0
            )
        with pytest.raises(ValueError, match="num_buckets"):
            SectionCostModel.collective_checksum_dispatches_per_step(
                42, 4, num_buckets=42
            )


class TestBucketGranularRetry:
    def _injector(self, bucket: int, rank: int = 1):
        return CollectiveFaultInjector(
            [
                CollectiveFaultSpec(
                    step=1,
                    rank=rank,
                    array_index=0,
                    position=2,
                    key_contains=f"bucket{bucket}",
                )
            ]
        )

    def test_reexecute_retries_only_the_dirty_bucket(self, reference_state):
        injector = self._injector(bucket=3)
        state, results, trainer = train_overlapped(
            workers=2, shards=4, cap=0.08, policy="reexecute",
            collective_injector=injector,
        )
        # Exactly one retry, on exactly the struck bucket; recovery is
        # byte-identical to the fault-free reference.
        assert trainer.bucket_counters()["bucket_retries"] == {3: 1}
        assert results[0].reduction_reexecutions == 1
        assert results[0].dirty_reductions == 0
        assert results[1].reduction_reexecutions == 0
        assert trainer.collective_counters()["mismatches"] == 1
        assert states_equal(reference_state, state)

    def test_record_policy_counts_dirty_bucket_without_retry(self):
        injector = self._injector(bucket=1)
        _, results, trainer = train_overlapped(
            workers=2, shards=4, cap=0.08, policy="record",
            collective_injector=injector,
        )
        assert results[0].dirty_reductions == 1
        assert results[0].reduction_reexecutions == 0
        assert trainer.bucket_counters()["bucket_retries"] == {}
