"""Fused batched checksum kernels and the weight-encoding cache.

What this file pins, complementing ``test_verification_modes.py`` (which
byte-compares the fused engine against the per-GEMM reference over a random
campaign):

* the fused schedule (sibling-GEMM fusion + weight-encoding cache) makes
  **byte-identical detection/correction decisions and outputs** vs the
  per-GEMM reference, which runs the historical unfused sequence, across
  random geometry, dtypes, sections and faults;
* the state a checker keeps across passes (cached weight encodings, the
  reference's per-pass checksums) never changes a decision: a warm checker
  decides exactly like a cold one;
* the BLAS property the sibling fusion relies on — ``A @ [B1 | B2]`` is
  column-wise bitwise identical to ``A @ B1`` / ``A @ B2`` — holds on this
  platform (a loud canary if a BLAS build ever breaks it);
* repair write-back does not leak corrupted state into the next pass;
* the weight-encoding cache hits across fault-free forwards and is
  invalidated by optimizer steps, ``load_state_dict`` and the manual
  ``invalidate_weight_cache`` escape hatch for in-place weight edits;
* the measured dispatch counters of the engine (``"fused"``) and of the
  per-GEMM reference (``"unfused"``, in training too) agree with
  ``SectionCostModel.checksum_gemm_dispatches_per_layer``, and both backends
  count the same verifications in prefill and decode.
"""

import numpy as np
import pytest

from test_verification_modes import MODE_KWARGS, random_scenario, run_scenario

from repro.core import (
    ATTNChecker,
    ATTNCheckerConfig,
    SectionCostModel,
)
from repro.core.checksums import (
    checksum_weights,
    clear_checksum_weight_cache,
    stacked_checksum_weights,
)
from repro.data import SyntheticMRPC
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.nn import ComposedHooks, MultiHeadAttention
from repro.tensor.autograd import Tensor
from repro.training import Trainer, TrainerConfig
from repro.utils.versioning import bump_weights_version, weights_version


def make_attention(seed, hidden=16, heads=4, bias=True):
    attention = MultiHeadAttention(
        hidden_size=hidden, num_heads=heads, dropout_p=0.0,
        rng=np.random.default_rng(seed), bias=bias,
    )
    attention.eval()
    return attention


def forward(attention, checker, seed, batch=2, seq=5, injector=None):
    hooks = checker if injector is None else ComposedHooks([injector, checker])
    hidden = attention.hidden_size
    x = np.random.default_rng(seed).normal(size=(batch, seq, hidden))
    attention.set_hooks(hooks)
    try:
        out = attention(Tensor(x)).data.copy()
    finally:
        attention.set_hooks(None)
    return out


# ---------------------------------------------------------------------------
# Byte-identical decisions: fused schedule vs the unfused sequence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_fused_schedule_matches_per_gemm_reference(seed):
    """Fused schedule vs the per-GEMM oracle's unfused sequence."""
    scenario = random_scenario(seed)
    fused = run_scenario("fused", scenario, seed)
    reference = run_scenario("per_gemm", scenario, seed)
    assert fused["stats"] == reference["stats"]
    assert np.array_equal(fused["output"], reference["output"], equal_nan=True)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mode", list(MODE_KWARGS))
class TestWarmVsColdEquivalence:
    """Property campaign: state a checker keeps across passes never changes a
    decision.  The fused engine carries cached weight encodings from pass
    to pass; the per-GEMM reference must drop its per-pass checksums at
    every layer exit."""

    def test_byte_identical_decisions_and_outputs(self, mode, seed):
        scenario = random_scenario(seed)
        cold = run_scenario(mode, scenario, seed)
        warm = run_scenario(mode, scenario, seed, warmup=2)
        assert warm["stats"] == cold["stats"], (mode, seed, scenario)
        assert np.array_equal(warm["output"], cold["output"], equal_nan=True)
        if mode != "per_gemm":
            # The faulty pass really ran on warm state.
            assert warm["weight_cache"]["hits"] > cold["weight_cache"]["hits"]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_sibling_gemm_concat_is_bitwise_identical(dtype):
    """The BLAS property the sibling fusion relies on, pinned explicitly.

    If a platform's GEMM ever produced different bits for a column block
    depending on the other columns present, this canary fails before the
    (harder to localise) campaign equivalence tests do.
    """
    rng = np.random.default_rng(7)
    for batch, d in [(1, 16), (3, 32), (8, 96)]:
        cs = rng.standard_normal((batch, 2, d))
        w_q = rng.standard_normal((d, d)).astype(dtype)
        w_k = rng.standard_normal((d, d)).astype(dtype)
        fused = np.matmul(cs, np.concatenate([w_q, w_k], axis=-1))
        assert np.array_equal(fused[..., :d], np.matmul(cs, w_q))
        assert np.array_equal(fused[..., d:], np.matmul(cs, w_k))


# ---------------------------------------------------------------------------
# Repair write-back
# ---------------------------------------------------------------------------

def test_repair_write_back_leaves_no_residue():
    """A corrected pass must not leak corrupted state into the next pass:
    the next clean pass through the same checker reports clean and its
    output is bitwise what a fresh checker produces."""
    attention = make_attention(13)
    checker = ATTNChecker(ATTNCheckerConfig())
    injector = FaultInjector(
        [FaultSpec(matrix="AS", error_type="inf", layer_index=0)],
        rng=np.random.default_rng(9),
    )
    forward(attention, checker, seed=200, injector=injector)
    assert checker.stats.total_corrections > 0
    before = {n: (s.detections, s.corrections)
              for n, s in checker.stats.sections.items()}
    clean_out = forward(attention, checker, seed=201)
    after = {n: (s.detections, s.corrections)
             for n, s in checker.stats.sections.items()}
    assert after == before  # the clean pass added no detections
    fresh_out = forward(attention, ATTNChecker(ATTNCheckerConfig()), seed=201)
    assert np.array_equal(clean_out, fresh_out)


# ---------------------------------------------------------------------------
# Weight-encoding cache: hits, invalidation paths
# ---------------------------------------------------------------------------

class TestWeightEncodingCache:
    def test_hits_across_fault_free_forwards(self):
        attention = make_attention(21)
        checker = ATTNChecker(ATTNCheckerConfig())
        forward(attention, checker, seed=300)
        stats = checker.weight_cache_stats()
        # One entry per weight-derived encoding: [W_Q|W_K], its bias row,
        # rowcs(W_V) and the W_V bias terms.
        assert stats["entries"] == 4
        assert stats["misses"] == 4
        forward(attention, checker, seed=301)
        stats = checker.weight_cache_stats()
        assert stats["misses"] == 4 and stats["hits"] == 4

    def test_optimizer_step_invalidates(self):
        """A fault-free training run must stay detection-free: stale weight
        encodings after an optimizer update would false-positive instantly."""
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(5))
        data = SyntheticMRPC(
            num_examples=8, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        )
        batch = dict(data.encode(range(4)))
        checker = ATTNChecker(ATTNCheckerConfig())
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
        for _ in range(3):
            trainer.train_step(batch)
        assert checker.stats.total_detections == 0
        assert checker.stats.total_checks > 0
        # Every step re-derived the weight encodings (version bumped).
        stats = checker.weight_cache_stats()
        assert stats["misses"] >= 3 * model.config.num_layers

    def test_load_state_dict_invalidates(self):
        attention = make_attention(22)
        checker = ATTNChecker(ATTNCheckerConfig())
        forward(attention, checker, seed=400)
        donor = make_attention(23)  # different seed => different weights
        attention.load_state_dict(donor.state_dict())
        forward(attention, checker, seed=401)
        assert checker.stats.total_detections == 0

    def test_manual_invalidate_covers_in_place_mutation(self):
        attention = make_attention(24)
        checker = ATTNChecker(ATTNCheckerConfig())
        forward(attention, checker, seed=500)
        # In-place edit: same array object, same global version — the one
        # case the automatic invalidation cannot see.
        attention.w_v.weight.data[...] += 0.25
        checker.invalidate_weight_cache()
        forward(attention, checker, seed=501)
        assert checker.stats.total_detections == 0

    def test_bump_weights_version_is_monotonic(self):
        v0 = weights_version()
        assert bump_weights_version() == v0 + 1
        assert weights_version() == v0 + 1


# ---------------------------------------------------------------------------
# Dispatch accounting: measured counters vs the analytical model
# ---------------------------------------------------------------------------

class TestDispatchAccounting:
    def test_fused_counters_match_cost_model(self):
        attention = make_attention(31)
        checker = ATTNChecker(ATTNCheckerConfig())
        forward(attention, checker, seed=600)
        cold = sum(SectionCostModel.checksum_gemm_dispatches_per_layer(
            "fused", steady_state=False).values())
        assert checker.dispatch_counts["gemm"] == cold
        forward(attention, checker, seed=601)
        steady = sum(SectionCostModel.checksum_gemm_dispatches_per_layer(
            "fused", steady_state=True).values())
        assert checker.dispatch_counts["gemm"] == cold + steady

    def test_unfused_counters_match_cost_model(self):
        attention = make_attention(32)
        checker = ATTNChecker(ATTNCheckerConfig(backend="per_gemm"))
        per_visit = sum(SectionCostModel.checksum_gemm_dispatches_per_layer(
            "unfused").values())
        assert per_visit == 11
        forward(attention, checker, seed=700)
        forward(attention, checker, seed=701)
        assert checker.dispatch_counts["gemm"] == 2 * per_visit
        # With the FFN sections: 15 launches per layer visit.
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(6))
        model.eval()
        checker = ATTNChecker(ATTNCheckerConfig(backend="per_gemm",
                                                protect_scope="attention+ffn"))
        per_visit = sum(SectionCostModel.checksum_gemm_dispatches_per_layer(
            "unfused", scope="attention+ffn").values())
        assert per_visit == 15
        ids = np.random.default_rng(7).integers(
            0, model.config.vocab_size, size=(2, model.config.max_seq_len))
        model.set_attention_hooks(checker)
        model(ids, attention_mask=np.ones_like(ids))
        model.set_attention_hooks(None)
        assert checker.dispatch_counts["gemm"] == per_visit * model.config.num_layers

    def test_fused_strictly_below_unfused(self):
        for steady in (True, False):
            fused = sum(SectionCostModel.checksum_gemm_dispatches_per_layer(
                "fused", steady_state=steady).values())
            unfused = sum(SectionCostModel.checksum_gemm_dispatches_per_layer(
                "unfused").values())
            assert fused < unfused

    def test_model_rejects_unknown_inputs(self):
        with pytest.raises(KeyError):
            SectionCostModel.checksum_gemm_dispatches_per_layer("batched")

    def test_detect_counter_counts_boundary_verifications(self):
        attention = make_attention(33)
        checker = ATTNChecker(ATTNCheckerConfig())
        forward(attention, checker, seed=800)
        # Immediate mode: one verification per enabled section per layer.
        assert checker.dispatch_counts["detect"] == 3

    @pytest.mark.parametrize("scope", ["attention", "attention+ffn"])
    def test_reference_training_counters_match_cost_model(self, scope):
        """Training steps re-encode everything on the reference: every layer
        visit costs the full unfused schedule, step after step."""
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(8))
        data = SyntheticMRPC(num_examples=8, max_seq_len=model.config.max_seq_len,
                             vocab_size=model.config.vocab_size)
        batch = dict(data.encode(range(4)))
        checker = ATTNChecker(ATTNCheckerConfig(backend="per_gemm", protect_scope=scope))
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
        per_visit = SectionCostModel.checksum_gemm_dispatches_per_layer("unfused", scope=scope)
        visits = model.config.num_layers
        for step in range(1, 3):
            trainer.train_step(batch)
            assert checker.dispatch_counts == {
                "gemm": step * visits * sum(per_visit.values()),
                "detect": step * visits * len(per_visit),
            }

    @pytest.mark.parametrize("scope", ["attention", "attention+ffn"])
    def test_reference_and_engine_verify_the_same_boundaries(self, scope):
        """Prefill then decode on both backends: the same verification
        count at every step, and the reference's per-token launches are
        constant and above the engine's steady-state decode schedule."""
        counts = {}
        for backend in ("per_gemm", "fused"):
            model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
            model.eval()
            ids = np.random.default_rng(1).integers(1, model.config.vocab_size, size=(2, 4))
            mask = np.ones((2, 8))
            caches = model.new_kv_caches(2, max_len=8)
            checker = ATTNChecker(ATTNCheckerConfig(backend=backend, protect_scope=scope))
            model.set_attention_hooks(checker)
            try:
                model.prefill(ids, mask[:, :4], caches)
                history = [checker.dispatch_counts]
                for _ in range(4):
                    model.decode_step(ids[:, -1:], caches, attention_mask=mask)
                    history.append(checker.dispatch_counts)
            finally:
                model.set_attention_hooks(None)
            counts[backend] = history
        assert ([c["detect"] for c in counts["per_gemm"]]
                == [c["detect"] for c in counts["fused"]])
        layers = model.config.num_layers
        reference_per_token = {
            after["gemm"] - before["gemm"]
            for before, after in zip(counts["per_gemm"], counts["per_gemm"][1:])
        }
        steady = sum(SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer(
            steady_state=True, scope=scope).values())
        assert len(reference_per_token) == 1
        assert reference_per_token.pop() > steady * layers

    def test_reset_stats_clears_reference_counters(self):
        attention = make_attention(34)
        checker = ATTNChecker(ATTNCheckerConfig(backend="per_gemm"))
        forward(attention, checker, seed=900)
        assert checker.dispatch_counts == {"gemm": 11, "detect": 3}
        checker.reset_stats()
        assert checker.dispatch_counts == {"gemm": 0, "detect": 0}


# ---------------------------------------------------------------------------
# checksum_weights vector cache
# ---------------------------------------------------------------------------

class TestChecksumWeightCache:
    def test_same_vectors_returned_and_values_correct(self):
        clear_checksum_weight_cache()
        v1a, v2a = checksum_weights(6)
        v1b, v2b = checksum_weights(6)
        assert v1a is v1b and v2a is v2b
        np.testing.assert_array_equal(v1a, np.ones(6))
        np.testing.assert_array_equal(v2a, np.arange(1, 7, dtype=np.float64))
        v1c, _ = checksum_weights(7)
        assert v1c is not v1a

    def test_stacked_blocks_cached_per_axis(self):
        clear_checksum_weight_cache()
        col = stacked_checksum_weights(5, axis=0)
        row = stacked_checksum_weights(5, axis=1)
        assert col.shape == (2, 5) and row.shape == (5, 2)
        assert stacked_checksum_weights(5, axis=0) is col
        np.testing.assert_array_equal(col.T, row)
        clear_checksum_weight_cache()
        assert stacked_checksum_weights(5, axis=0) is not col
