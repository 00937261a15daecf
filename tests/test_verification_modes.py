"""Cross-backend / cross-mode equivalence and fault-campaign harness.

Three checker configurations can protect the same attention pass:

* ``per_gemm``        — the reference backend (verifies inline at each GEMM),
* ``fused``           — the fused engine, immediate verification,
* ``fused+async``     — the fused engine, batched passes on a worker thread
  with bounded-staleness repair of the retained boundary matrices.

The invariants this file enforces, over a property-style campaign of random
shapes, input dtypes and fault injections:

* ``per_gemm`` and ``fused`` make byte-identical decisions and outputs
  (the pre-existing guarantee, re-checked under random geometry);
* within the staleness bound, ``fused+async`` makes the same **correction
  decisions** as immediate mode: the repair of the retained fault-site
  boundary reproduces immediate mode's correction counts, and both families
  agree on which boundary is the fault site;
* ``fused+async`` consumes the unrepaired forward output, and all its
  corrections come from the repair of the retained boundary;
* drained async results are deterministic across repeated runs;
* backpressure bounds the queue, ``reset()`` joins the worker, and worker
  exceptions propagate at the next drain instead of being swallowed;
* training verifications never accumulate in the checker's recent-outcome
  ring, which only the serving engine drains, while every prefill/decode
  verification reaches it tagged with its phase.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    VERIFICATION_MODE_CONFIGS,
    ATTNChecker,
    ATTNCheckerConfig,
    ProtectionEngine,
    SectionCostModel,
)
from repro.core.checksums import ChecksumState, encode_column_checksums
from repro.core.engine import _DeferredCheck
from repro.data import SyntheticMRPC
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.nn import ComposedHooks, MultiHeadAttention
from repro.tensor.autograd import Tensor
from repro.training import (
    StaleDetectionAbort,
    Trainer,
    TrainerConfig,
)

MATRICES = ("Q", "K", "V", "AS", "CL", "O")
ERRORS = ("inf", "nan", "near_inf", "numeric")
SECTION_RANK = {"AS": 0, "CL": 1, "O": 2}

MODE_KWARGS = {
    "per_gemm": {"backend": "per_gemm"},
    "fused": VERIFICATION_MODE_CONFIGS["immediate"],
    "fused+async": VERIFICATION_MODE_CONFIGS["async"],
}


# ---------------------------------------------------------------------------
# Campaign harness
# ---------------------------------------------------------------------------

def random_scenario(seed):
    """Random geometry + input dtype + fault for one campaign scenario."""
    rng = np.random.default_rng(1000 + seed)
    heads = int(rng.choice([2, 4]))
    head_dim = int(rng.choice([4, 8]))
    dtypes = (np.float64, np.float32)
    return {
        "batch": int(rng.integers(1, 4)),
        "seq": int(rng.integers(3, 9)),
        "heads": heads,
        "hidden": heads * head_dim,
        "dtype": dtypes[int(rng.integers(len(dtypes)))],
        "bias": bool(rng.integers(2)),
        "matrix": MATRICES[int(rng.integers(len(MATRICES)))],
        "error_type": ERRORS[int(rng.integers(len(ERRORS)))],
    }


def build_scenario(scenario, seed):
    """The scenario's attention module, input and single-fault injector."""
    attention = MultiHeadAttention(
        hidden_size=scenario["hidden"], num_heads=scenario["heads"], dropout_p=0.0,
        rng=np.random.default_rng(2000 + seed), bias=scenario["bias"],
    )
    attention.eval()
    x = np.random.default_rng(3000 + seed).normal(
        size=(scenario["batch"], scenario["seq"], scenario["hidden"])
    ).astype(scenario["dtype"])
    injector = FaultInjector(
        [FaultSpec(matrix=scenario["matrix"], error_type=scenario["error_type"],
                   layer_index=0)],
        rng=np.random.default_rng(4000 + seed),
    )
    return attention, x, injector


def unprotected_output(scenario, seed):
    """The scenario's faulty forward pass with no checker attached."""
    attention, x, injector = build_scenario(scenario, seed)
    attention.set_hooks(injector)
    try:
        return attention(Tensor(x)).data.copy()
    finally:
        attention.set_hooks(None)


def run_scenario(mode, scenario, seed, warmup=0):
    """One single-fault protected forward pass under one checker mode.

    Returns everything the equivalence assertions need: the protected output,
    full per-section statistics, and the drained outcome signatures.  ``warmup``
    clean passes over the same module run first, their outcomes drained and
    their statistics dropped, so the faulty pass meets a checker that
    already holds cached weight encodings and steady-state buffers.  Every
    warm-up pass but the last runs one position longer, so those buffers
    have also been through a change of geometry.
    """
    attention, x, injector = build_scenario(scenario, seed)
    checker = ATTNChecker(ATTNCheckerConfig(**MODE_KWARGS[mode]))
    for index in range(warmup):
        batch, seq, hidden = x.shape
        seq += int(index < warmup - 1)
        clean = np.random.default_rng(5000 + index).normal(size=(batch, seq, hidden))
        attention.set_hooks(checker)
        try:
            attention(Tensor(clean.astype(x.dtype)))
        finally:
            attention.set_hooks(None)
        checker.end_step()
        checker.drain()
    checker.stats.reset()
    attention.set_hooks(ComposedHooks([injector, checker]))
    try:
        output = attention(Tensor(x)).data.copy()
    finally:
        attention.set_hooks(None)
    outcomes = checker.end_step() + checker.drain()
    checker.close()

    stats = {
        name: (s.checks_run, s.detections, s.corrections, s.aborted_vectors,
               s.residual_extreme, s.operand_repairs)
        for name, s in checker.stats.sections.items()
    }
    detection_sig = tuple(
        (o.section, o.layer_index, o.step,
         o.report.detected, o.report.aborted, o.report.residual_extreme)
        for o in outcomes if o.report is not None
    )
    decision_sig = tuple(
        (o.section, o.layer_index, o.step, o.stale,
         o.report.detected, o.report.aborted, o.report.residual_extreme,
         None if o.repair is None else (o.repair.corrected, o.repair.residual_extreme))
        for o in outcomes if o.report is not None
    )
    dirty = {name for name, s in checker.stats.sections.items() if s.detections > 0}
    return {
        "output": output,
        "stats": stats,
        "detection_sig": detection_sig,
        "decision_sig": decision_sig,
        "dirty": dirty,
        "corrections": checker.stats.total_corrections,
        "stale": checker.stats.total_stale_detections,
        "outcomes": outcomes,
        "weight_cache": checker.weight_cache_stats(),
        "workspace": checker.workspace_stats(),
    }


def earliest_dirty(dirty):
    return min(dirty, key=SECTION_RANK.__getitem__) if dirty else None


@pytest.mark.parametrize("seed", range(10))
class TestCrossBackendEquivalenceCampaign:
    """Random-geometry single-fault campaign across all three configurations."""

    def test_per_gemm_and_fused_byte_identical(self, seed):
        scenario = random_scenario(seed)
        fused = run_scenario("fused", scenario, seed)
        reference = run_scenario("per_gemm", scenario, seed)
        assert fused["stats"] == reference["stats"]
        assert np.array_equal(fused["output"], reference["output"], equal_nan=True)

    def test_async_corrections_match_immediate_within_staleness_bound(self, seed):
        scenario = random_scenario(seed)
        immediate = run_scenario("fused", scenario, seed)
        asynchronous = run_scenario("fused+async", scenario, seed)
        # Single fault per pass: the bounded-staleness repair of the retained
        # fault-site boundary must reproduce immediate mode's correction
        # decisions exactly.
        assert asynchronous["corrections"] == immediate["corrections"]
        # Both families agree on the fault site (the earliest dirty boundary
        # in dataflow order); async may additionally flag downstream
        # propagation shadows that immediate mode's in-pass repair prevented.
        assert earliest_dirty(asynchronous["dirty"]) == earliest_dirty(immediate["dirty"])
        assert immediate["dirty"] <= asynchronous["dirty"]
        # Detection reach is identical: a fault immediate mode saw is never
        # missed by the batched pass.
        immediate_detected = sum(s[1] for s in immediate["stats"].values())
        async_detected = sum(s[1] for s in asynchronous["stats"].values())
        assert (async_detected > 0) == (immediate_detected > 0)

    def test_async_consumes_unrepaired_output(self, seed):
        scenario = random_scenario(seed)
        asynchronous = run_scenario("fused+async", scenario, seed)
        # Async mode only encodes, carries and queues on the critical path:
        # the consumed forward output is the unprotected faulty one.
        assert np.array_equal(
            asynchronous["output"], unprotected_output(scenario, seed), equal_nan=True
        )
        # Its corrections come from the retained repair, not from mutating
        # the consumed values.
        repaired = sum(o.repair.corrected for o in asynchronous["outcomes"]
                       if o.repair is not None)
        assert asynchronous["corrections"] == repaired

    def test_async_dirty_outcomes_flagged_stale_within_window(self, seed):
        scenario = random_scenario(seed)
        asynchronous = run_scenario("fused+async", scenario, seed)
        for outcome in asynchronous["outcomes"]:
            if outcome.report is not None and outcome.report.detected:
                assert outcome.stale
                assert 0 <= outcome.lag_steps <= ATTNCheckerConfig().max_pending_steps
            if outcome.repair is not None:
                assert outcome.stale

    def test_drained_outcomes_deterministic_across_runs(self, seed):
        scenario = random_scenario(seed)
        first = run_scenario("fused+async", scenario, seed)
        second = run_scenario("fused+async", scenario, seed)
        assert first["decision_sig"] == second["decision_sig"]
        assert first["stats"] == second["stats"]


# ---------------------------------------------------------------------------
# End-to-end fault campaign through the Trainer
# ---------------------------------------------------------------------------

def make_trainer(checker_kwargs, trainer_kwargs=None, matrix="AS",
                 error_type="numeric", steps=0):
    model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
    data = SyntheticMRPC(
        num_examples=16, max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
    )
    batch = dict(data.encode(range(4)))
    injector = FaultInjector(
        [FaultSpec(matrix=matrix, error_type=error_type, layer_index=0)],
        rng=np.random.default_rng(5),
    )
    checker = ATTNChecker(ATTNCheckerConfig(**checker_kwargs))
    trainer = Trainer(
        model,
        config=TrainerConfig(learning_rate=1e-3, **(trainer_kwargs or {})),
        checker=checker,
        fault_hooks=[injector],
    )
    results = [trainer.train_step(batch) for _ in range(steps)]
    return trainer, checker, batch, results


@pytest.mark.parametrize("mode", ["immediate", "async"])
def test_training_verifications_stay_out_of_recent_ring(mode):
    """Only the serving engine drains ``recent_outcomes``, so a training
    checker must not fill the ring with reports nobody reads."""
    trainer, checker, batch, _ = make_trainer(VERIFICATION_MODE_CONFIGS[mode], steps=3)
    trainer.drain_verifications()
    checker.close()
    assert checker.stats.total_checks > 0
    assert checker.take_recent_outcomes() == []


def test_reference_training_verifications_stay_out_of_recent_ring():
    trainer, checker, batch, _ = make_trainer(MODE_KWARGS["per_gemm"], steps=3)
    assert checker.stats.total_checks > 0
    assert checker.take_recent_outcomes() == []


@pytest.mark.parametrize("mode", list(MODE_KWARGS))
def test_serving_verifications_reach_recent_ring(mode):
    """Every prefill/decode verification lands in the ring with its phase —
    including the async worker's, whose queued items carry the phase."""
    model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
    model.eval()
    ids = np.random.default_rng(1).integers(1, model.config.vocab_size, size=(2, 4))
    mask = np.ones((2, 7))
    caches = model.new_kv_caches(2, max_len=7)
    checker = ATTNChecker(ATTNCheckerConfig(**MODE_KWARGS[mode]))
    model.set_attention_hooks(checker)
    try:
        model.prefill(ids, mask[:, :4], caches)
        checker.end_step()
        for _ in range(3):
            model.decode_step(ids[:, -1:], caches, attention_mask=mask)
            checker.end_step()
    finally:
        model.set_attention_hooks(None)
    checker.drain()
    checker.close()
    outcomes = checker.take_recent_outcomes()
    assert len(outcomes) == checker.stats.total_checks > 0
    assert {o.phase for o in outcomes} == {"prefill", "decode"}
    assert all(o.report is not None for o in outcomes)


class TestTrainerAsyncCampaign:
    def test_async_detection_correction_parity_with_immediate(self):
        _, imm_checker, _, imm_results = make_trainer({}, steps=3)

        trainer, checker, batch, results = make_trainer(
            {"async_verification": True, "max_pending_steps": 2}
        )
        for _ in range(3):
            results.append(trainer.train_step(batch))
            # end_step always submits the step's snapshot: nothing queued.
            assert checker.pending_verifications == 0
        trainer.drain_verifications()
        checker.close()

        assert checker.engine.pending_steps == 0
        # The single transient fault is detected in both runs, and the
        # bounded-staleness repair reproduces immediate-mode corrections in
        # the aggregated StepResult counters.
        imm_corrections = sum(r.corrections for r in imm_results)
        async_corrections = sum(r.corrections for r in results)
        assert imm_corrections >= 1
        assert async_corrections == imm_corrections
        assert sum(r.detections for r in imm_results) >= 1
        assert sum(r.detections for r in results) >= 1
        # The dirty boundary surfaced as a stale detection exactly once.
        assert sum(r.stale_detections for r in results) == 1
        assert checker.stats.total_stale_detections == 1
        assert all(r.stale_detections == 0 for r in imm_results)

    def test_async_clean_run_detects_nothing(self):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        data = SyntheticMRPC(
            num_examples=16, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        )
        batch = dict(data.encode(range(4)))
        checker = ATTNChecker(ATTNCheckerConfig(async_verification=True))
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
        for _ in range(2):
            trainer.train_step(batch)
            assert checker.pending_verifications == 0
        trainer.drain_verifications()
        checker.close()
        assert checker.stats.total_detections == 0
        assert checker.stats.total_checks > 0
        assert trainer.metrics.total_stale_detections() == 0

    def test_reexecute_policy_recovers_the_step(self):
        trainer, checker, batch, results = make_trainer(
            {"async_verification": True, "max_pending_steps": 1},
            trainer_kwargs={"stale_policy": "reexecute"},
        )
        for _ in range(3):
            results.append(trainer.train_step(batch))
        trainer.drain_verifications()
        checker.close()
        # The stale dirty verification triggered a checkpoint-free
        # re-execution of the step on which it surfaced.
        assert any(r.reexecuted for r in results)
        assert trainer.metrics.num_reexecuted() >= 1
        # Re-execution is clean (the fault was transient), so training ends
        # in a trainable state.
        assert trainer.metrics.num_non_trainable() == 0

    def test_abort_policy_raises(self):
        trainer, checker, batch, results = make_trainer(
            {"async_verification": True, "max_pending_steps": 1},
            trainer_kwargs={"stale_policy": "abort"},
        )
        with pytest.raises(StaleDetectionAbort):
            for _ in range(4):
                trainer.train_step(batch)
        checker.close()

    def test_unknown_stale_policy_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(stale_policy="retry")

    @staticmethod
    def _gate_worker(checker):
        """Hold the verification worker until the returned event is set."""
        engine = checker.engine
        release = threading.Event()
        original = engine._process_batch

        def gated(epoch, items):
            assert release.wait(timeout=10.0)
            return original(epoch, items)

        engine._process_batch = gated
        return release

    def test_abort_policy_applies_at_drain_barrier(self):
        # A fault on the final step only surfaces at the drain barrier; the
        # policy must still fire there, not be downgraded to 'record'.
        trainer, checker, batch, _ = make_trainer(
            {"async_verification": True, "max_pending_steps": 2},
            trainer_kwargs={"stale_policy": "abort"},
        )
        release = self._gate_worker(checker)
        trainer.train_step(batch)  # verdict still in flight: no abort here
        release.set()
        with pytest.raises(StaleDetectionAbort, match="drain"):
            trainer.drain_verifications()
        checker.close()

    def test_reexecute_policy_applies_at_drain_barrier(self):
        trainer, checker, batch, _ = make_trainer(
            {"async_verification": True, "max_pending_steps": 2},
            trainer_kwargs={"stale_policy": "reexecute"},
        )
        release = self._gate_worker(checker)
        first = trainer.train_step(batch)
        assert not first.reexecuted
        release.set()
        trainer.drain_verifications(batch=batch)
        checker.close()
        assert trainer.metrics.steps[-1].reexecuted
        assert trainer.metrics.total_stale_detections() == 1
        assert trainer.metrics.num_non_trainable() == 0


# ---------------------------------------------------------------------------
# Backpressure, lifecycle, and worker failure propagation
# ---------------------------------------------------------------------------

def make_check(section="O", step=1):
    """A real, clean work item (the engine's batched pass accepts it as-is)."""
    matrix = np.arange(16.0).reshape(1, 4, 4)
    return _DeferredCheck(section, 0, step, matrix,
                          ChecksumState(col=encode_column_checksums(matrix)))


class TestBackpressureAndLifecycle:
    def test_submit_blocks_at_max_pending_steps(self):
        engine = ProtectionEngine(asynchronous=True, max_pending_steps=1)
        started, release = threading.Event(), threading.Event()
        original = engine._process_batch

        def gated(epoch, items):
            started.set()
            assert release.wait(timeout=10.0)
            return original(epoch, items)

        engine._process_batch = gated
        engine._queue.append(make_check(step=1))
        engine.submit_step()
        assert started.wait(timeout=5.0)

        engine._queue.append(make_check(step=2))
        second = threading.Thread(target=engine.submit_step)
        second.start()
        second.join(timeout=0.25)
        # The bound is respected: the second submit is blocked, the queue of
        # in-flight steps has not grown.
        assert second.is_alive()
        assert engine.pending_steps == 1

        release.set()
        second.join(timeout=10.0)
        assert not second.is_alive()
        outcomes = engine.drain()
        assert len(outcomes) == 2
        assert engine.pending_steps == 0
        engine.close()

    def test_worker_exception_propagates_at_drain(self):
        engine = ProtectionEngine(asynchronous=True, max_pending_steps=2)
        original = engine._process_batch
        engine._process_batch = lambda epoch, items: (_ for _ in ()).throw(
            ValueError("verification worker exploded")
        )
        engine._queue.append(make_check())
        engine.submit_step()
        with pytest.raises(ValueError, match="verification worker exploded"):
            engine.drain()
        # The failure is delivered once; the engine is usable afterwards.
        assert engine.drain() == []
        engine._process_batch = original
        engine._queue.append(make_check())
        engine.submit_step()
        outcomes = engine.drain()
        assert len(outcomes) == 1 and outcomes[0].report.detected == 0
        engine.close()

    def test_worker_exception_propagates_at_harvest(self):
        checker = ATTNChecker(ATTNCheckerConfig(async_verification=True))
        engine = checker.engine
        engine._process_batch = lambda epoch, items: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        engine._queue.append(make_check())
        engine.submit_step()
        deadline = time.monotonic() + 10.0
        while engine.pending_steps and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(RuntimeError, match="boom"):
            checker.end_step()  # harvest is a drain point too
        checker.close()

    def test_close_with_inflight_batches_is_graceful(self):
        # close() must verify already-submitted batches before the worker
        # exits: their outcomes stay harvestable and a later drain() returns
        # instead of hanging on stranded in-flight accounting.
        engine = ProtectionEngine(asynchronous=True, max_pending_steps=4)
        release = threading.Event()
        original = engine._process_batch

        def gated(epoch, items):
            assert release.wait(timeout=10.0)
            return original(epoch, items)

        engine._process_batch = gated
        for step in (1, 2, 3):
            engine._queue.append(make_check(step=step))
            engine.submit_step()
        closer = threading.Thread(target=engine.close)
        closer.start()
        release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert engine.pending_steps == 0
        outcomes = engine.drain()  # completes immediately, nothing stranded
        assert len(outcomes) == 3

    def test_pending_failure_raises_at_submit(self):
        engine = ProtectionEngine(asynchronous=True, max_pending_steps=2)
        engine._process_batch = lambda epoch, items: (_ for _ in ()).throw(
            ValueError("bad batch")
        )
        engine._queue.append(make_check())
        engine.submit_step()
        deadline = time.monotonic() + 10.0
        while engine.pending_steps and time.monotonic() < deadline:
            time.sleep(0.01)
        engine._queue.append(make_check(step=2))
        with pytest.raises(ValueError, match="bad batch"):
            engine.submit_step()
        # Delivered once: the engine is clean again afterwards.
        assert engine.drain() == []
        engine.close()

    def test_reset_joins_worker_cleanly(self):
        engine = ProtectionEngine(asynchronous=True, max_pending_steps=2)
        engine._queue.append(make_check())
        engine.submit_step()
        engine.reset()
        assert engine._worker is None
        assert engine.pending_steps == 0
        assert engine.pending_verifications == 0
        # The engine restarts a fresh worker on the next submit.
        engine._queue.append(make_check())
        engine.submit_step()
        assert len(engine.drain()) == 1
        engine.close()

    def test_checker_reset_stats_joins_worker(self, rng):
        scenario = random_scenario(0)
        checker = ATTNChecker(ATTNCheckerConfig(async_verification=True))
        attention = MultiHeadAttention(
            hidden_size=scenario["hidden"], num_heads=scenario["heads"],
            dropout_p=0.0, rng=rng,
        )
        attention.eval()
        attention.set_hooks(checker)
        attention(Tensor(np.random.default_rng(1).normal(
            size=(1, 4, scenario["hidden"]))))
        attention.set_hooks(None)
        checker.end_step()
        checker.reset_stats()
        assert checker.engine._worker is None
        assert checker.pending_verifications == 0
        assert checker.stats.total_checks == 0


# ---------------------------------------------------------------------------
# Configuration guards and dispatch accounting
# ---------------------------------------------------------------------------

class TestConfigGuards:
    def test_async_requires_fused_backend(self):
        with pytest.raises(ValueError, match="fused"):
            ATTNCheckerConfig(backend="per_gemm", async_verification=True)

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_max_pending_steps_must_be_positive_integer(self, bad):
        with pytest.raises(ValueError, match="max_pending_steps"):
            ATTNCheckerConfig(async_verification=True, max_pending_steps=bad)

    def test_verification_mode_property(self):
        assert ATTNCheckerConfig().verification_mode == "immediate"
        assert ATTNCheckerConfig(async_verification=True).verification_mode == "async"
        assert ATTNChecker(ATTNCheckerConfig(async_verification=True)).verification_mode == "async"

    def test_submit_step_requires_async_mode(self):
        with pytest.raises(RuntimeError):
            ProtectionEngine().submit_step()


class TestDispatchAccounting:
    def test_verification_dispatches_per_mode(self):
        assert SectionCostModel.verification_dispatches_per_step("immediate", 12) == {
            "critical_path": 36, "off_critical_path": 0,
        }
        assert SectionCostModel.verification_dispatches_per_step("async", 12) == {
            "critical_path": 0, "off_critical_path": 3,
        }

    def test_invalid_inputs_rejected(self):
        with pytest.raises(KeyError):
            SectionCostModel.verification_dispatches_per_step("lazy", 2)
        with pytest.raises(ValueError):
            SectionCostModel.verification_dispatches_per_step("async", 0)
