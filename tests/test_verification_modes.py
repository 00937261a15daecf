"""Immediate-mode verification guarantees over a random fault campaign.

Two checker configurations can protect the same attention pass:

* ``per_gemm`` — the reference backend (verifies inline at each GEMM),
* ``fused``    — the fused engine, verifying at each section boundary.

Both verify and correct inside the forward pass, so a repaired value is what
downstream operations consume (the paper's Sections 4.2–4.4).  The
invariants this file enforces, over a property-style campaign of random
shapes, input dtypes and single fault injections:

* ``per_gemm`` and ``fused`` make byte-identical decisions and outputs;
* the earliest dirty section is the one that owns the injected matrix —
  the fault is caught at its own section's boundary, before any later
  section consumes it;
* two runs of the same scenario give identical outputs and statistics;
* the protected output is finite and equals the fault-free output to
  within rounding: the fault is repaired before it is consumed;
* training verifications never accumulate in the checker's recent-outcome
  ring, which only the serving engine drains, while every prefill/decode
  verification reaches it tagged with its phase;
* the removed asynchronous-verification surface stays removed.
"""

import numpy as np
import pytest

from repro.core import ATTNChecker, ATTNCheckerConfig, ProtectionEngine
from repro.data import SyntheticMRPC
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.nn import ComposedHooks, MultiHeadAttention
from repro.tensor.autograd import Tensor
from repro.training import Trainer, TrainerConfig

MATRICES = ("Q", "K", "V", "AS", "CL", "O")
ERRORS = ("inf", "nan", "near_inf", "numeric")
SECTION_RANK = {"AS": 0, "CL": 1, "O": 2}
#: The protection section whose boundary check covers each injectable matrix:
#: Q and K are carried through S_AS, V through S_CL.
OWNING_SECTION = {"Q": "AS", "K": "AS", "AS": "AS", "V": "CL", "CL": "CL", "O": "O"}

MODE_KWARGS = {
    "per_gemm": {"backend": "per_gemm"},
    "fused": {},
}

CAMPAIGN_SEEDS = range(30)


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


def fault_free_output(scenario, seed):
    """The scenario's forward pass with no injector and no checker."""
    attention, x, _ = build_scenario(scenario, seed)
    return attention(Tensor(x)).data.copy()


def run_scenario(mode, scenario, seed, warmup=0):
    """One single-fault protected forward pass under one checker backend.

    Returns the protected output, full per-section statistics, the set of
    dirty sections and the checker's weight-cache counters.  ``warmup``
    clean passes over the same module run first, their statistics dropped,
    so the faulty pass meets a checker that already holds cached weight
    encodings.  Every warm-up pass but the last runs one position longer,
    so the checker has also been through a change of geometry.
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
    checker.stats.reset()
    attention.set_hooks(ComposedHooks([injector, checker]))
    try:
        output = attention(Tensor(x)).data.copy()
    finally:
        attention.set_hooks(None)
    stats = {
        name: (s.checks_run, s.detections, s.corrections, s.aborted_vectors,
               s.residual_extreme, s.operand_repairs)
        for name, s in checker.stats.sections.items()
    }
    dirty = {name for name, s in checker.stats.sections.items() if s.detections > 0}
    return {
        "output": output,
        "stats": stats,
        "dirty": dirty,
        "weight_cache": checker.weight_cache_stats(),
    }


@pytest.mark.parametrize("seed", CAMPAIGN_SEEDS)
class TestImmediateModeCampaign:
    """Random-geometry single-fault campaign over both checker backends."""

    def test_per_gemm_and_fused_byte_identical(self, seed):
        scenario = random_scenario(seed)
        fused = run_scenario("fused", scenario, seed)
        reference = run_scenario("per_gemm", scenario, seed)
        assert fused["stats"] == reference["stats"]
        assert np.array_equal(fused["output"], reference["output"], equal_nan=True)

    def test_earliest_dirty_section_owns_the_injected_matrix(self, seed):
        scenario = random_scenario(seed)
        fused = run_scenario("fused", scenario, seed)
        assert fused["dirty"], "the injected fault was not detected"
        earliest = min(fused["dirty"], key=SECTION_RANK.__getitem__)
        assert earliest == OWNING_SECTION[scenario["matrix"]]

    def test_repeated_runs_identical(self, seed):
        scenario = random_scenario(seed)
        first = run_scenario("fused", scenario, seed)
        second = run_scenario("fused", scenario, seed)
        assert first["stats"] == second["stats"]
        assert np.array_equal(first["output"], second["output"], equal_nan=True)

    def test_fault_repaired_before_it_is_consumed(self, seed):
        scenario = random_scenario(seed)
        protected = run_scenario("fused", scenario, seed)["output"]
        reference = fault_free_output(scenario, seed)
        assert np.isfinite(protected).all()
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(protected - reference)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# The recent-outcome ring: serving only
# ---------------------------------------------------------------------------

def make_trainer(checker_kwargs, steps=0):
    model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
    data = SyntheticMRPC(
        num_examples=16, max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
    )
    batch = dict(data.encode(range(4)))
    injector = FaultInjector(
        [FaultSpec(matrix="AS", error_type="numeric", layer_index=0)],
        rng=np.random.default_rng(5),
    )
    checker = ATTNChecker(ATTNCheckerConfig(**checker_kwargs))
    trainer = Trainer(
        model, config=TrainerConfig(learning_rate=1e-3), checker=checker,
        fault_hooks=[injector],
    )
    for _ in range(steps):
        trainer.train_step(batch)
    return checker


def test_training_verifications_stay_out_of_recent_ring():
    """Only the serving engine drains ``recent_outcomes``, so a training
    checker must not fill the ring with reports nobody reads."""
    checker = make_trainer(MODE_KWARGS["fused"], steps=3)
    assert checker.stats.total_checks > 0
    assert checker.take_recent_outcomes() == []


def test_reference_training_verifications_stay_out_of_recent_ring():
    checker = make_trainer(MODE_KWARGS["per_gemm"], steps=3)
    assert checker.stats.total_checks > 0
    assert checker.take_recent_outcomes() == []


@pytest.mark.parametrize("mode", list(MODE_KWARGS))
def test_serving_verifications_reach_recent_ring(mode):
    """Every prefill/decode verification lands in the ring with its phase."""
    model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
    model.eval()
    ids = np.random.default_rng(1).integers(1, model.config.vocab_size, size=(2, 4))
    mask = np.ones((2, 7))
    caches = model.new_kv_caches(2, max_len=7)
    checker = ATTNChecker(ATTNCheckerConfig(**MODE_KWARGS[mode]))
    model.set_attention_hooks(checker)
    try:
        model.prefill(ids, mask[:, :4], caches)
        for _ in range(3):
            model.decode_step(ids[:, -1:], caches, attention_mask=mask)
    finally:
        model.set_attention_hooks(None)
    outcomes = checker.take_recent_outcomes()
    assert len(outcomes) == checker.stats.total_checks > 0
    assert {o.phase for o in outcomes} == {"prefill", "decode"}
    assert all(o.report is not None for o in outcomes)


# ---------------------------------------------------------------------------
# The removed asynchronous-verification surface
# ---------------------------------------------------------------------------

class TestRemovedSurface:
    """Verification runs in-pass only: the options of the deleted
    asynchronous mode are unknown keywords, not silently ignored ones."""

    @pytest.mark.parametrize("kwargs", [
        {"async_verification": True},
        {"async_verification": False},
        {"max_pending_steps": 2},
    ], ids=["async_verification", "async_verification_false", "max_pending_steps"])
    def test_checker_config_rejects_async_options(self, kwargs):
        with pytest.raises(TypeError):
            ATTNCheckerConfig(**kwargs)

    def test_trainer_config_rejects_stale_policy(self):
        with pytest.raises(TypeError):
            TrainerConfig(stale_policy="reexecute")

    def test_engine_rejects_asynchronous(self):
        with pytest.raises(TypeError):
            ProtectionEngine(asynchronous=True)

    def test_checker_close_is_a_no_op(self):
        checker = make_trainer(MODE_KWARGS["fused"], steps=1)
        checks = checker.stats.total_checks
        checker.close()
        checker.close()
        assert checker.stats.total_checks == checks > 0
