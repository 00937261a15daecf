"""Additional ATTNChecker edge cases: multi-layer models, local attention,
thresholds-for-precision, double faults and numeric faults."""

import numpy as np
import pytest

from repro.core import ABFTThresholds, ATTNChecker
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.nn import ComposedHooks, MultiHeadAttention
from repro.tensor.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(83)


def protected_forward(model, batch, hooks):
    model.eval()
    model.set_attention_hooks(hooks)
    try:
        return model(batch["input_ids"], attention_mask=batch["attention_mask"]).logits.data.copy()
    finally:
        model.set_attention_hooks(None)
        model.train()


def make_batch(model, rng, n=4):
    config = model.config
    return {
        "input_ids": rng.integers(0, config.vocab_size, size=(n, config.max_seq_len)),
        "attention_mask": np.ones((n, config.max_seq_len)),
    }


class TestThresholdsForPrecision:
    def test_known_precisions(self):
        assert ABFTThresholds.for_precision("float64").detect_rtol < ABFTThresholds.for_precision("float32").detect_rtol
        assert ABFTThresholds.for_precision("float16").detect_rtol > ABFTThresholds.for_precision("float32").detect_rtol

    def test_unknown_precision_rejected(self):
        with pytest.raises(KeyError):
            ABFTThresholds.for_precision("int4")

    def test_overrides_forwarded(self):
        thresholds = ABFTThresholds.for_precision("float32", near_inf=1e8)
        assert thresholds.near_inf == 1e8


class TestMultiLayerProtection:
    def test_fault_in_deeper_layer_corrected(self, rng):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        batch = make_batch(model, rng)
        reference = protected_forward(model, batch, None)
        last_layer = model.config.num_layers - 1
        injector = FaultInjector(
            [FaultSpec(matrix="AS", error_type="nan", layer_index=last_layer)],
            rng=np.random.default_rng(3),
        )
        checker = ATTNChecker()
        logits = protected_forward(model, batch, ComposedHooks([injector, checker]))
        assert injector.num_injections == 1
        assert injector.records[0].layer_index == last_layer
        assert checker.stats.total_corrections >= 1
        assert np.allclose(logits, reference, rtol=1e-6, atol=1e-6)

    def test_faults_in_two_layers_both_corrected(self, rng):
        model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
        batch = make_batch(model, rng)
        reference = protected_forward(model, batch, None)
        injector = FaultInjector(
            [
                FaultSpec(matrix="Q", error_type="inf", layer_index=0),
                FaultSpec(matrix="CL", error_type="nan", layer_index=1),
            ],
            rng=np.random.default_rng(5),
        )
        checker = ATTNChecker()
        logits = protected_forward(model, batch, ComposedHooks([injector, checker]))
        assert injector.num_injections == 2
        assert checker.stats.total_residual_extreme == 0
        assert np.allclose(logits, reference, rtol=1e-6, atol=1e-6)


class TestLocalAttentionProtection:
    def test_gpt_neo_local_attention_layer_protected(self, rng):
        model = build_model("gpt-neo", size="tiny", rng=np.random.default_rng(0))
        # Layer 1 uses local attention in GPT-Neo's alternation.
        assert model.config.layer_uses_local_attention(1)
        batch = make_batch(model, rng)
        reference = protected_forward(model, batch, None)
        injector = FaultInjector(
            [FaultSpec(matrix="AS", error_type="inf", layer_index=1)],
            rng=np.random.default_rng(9),
        )
        checker = ATTNChecker()
        logits = protected_forward(model, batch, ComposedHooks([injector, checker]))
        assert checker.stats.total_corrections >= 1
        assert np.allclose(logits, reference, rtol=1e-6, atol=1e-6)


class TestNumericFaults:
    def test_numeric_fault_corrected_like_classic_abft(self, rng):
        attention = MultiHeadAttention(hidden_size=16, num_heads=4, dropout_p=0.0, rng=rng)
        attention.eval()
        x = rng.normal(size=(2, 6, 16))
        reference = attention(Tensor(x)).data.copy()
        injector = FaultInjector(
            [FaultSpec(matrix="AS", error_type="numeric", numeric_delta=25.0)],
            rng=np.random.default_rng(2),
        )
        checker = ATTNChecker()
        attention.set_hooks(ComposedHooks([injector, checker]))
        protected = attention(Tensor(x)).data.copy()
        attention.set_hooks(None)
        assert checker.stats.total_corrections >= 1
        assert np.allclose(protected, reference, rtol=1e-6, atol=1e-8)

    def test_tiny_numeric_fault_is_benign_and_ignored(self, rng):
        attention = MultiHeadAttention(hidden_size=16, num_heads=4, dropout_p=0.0, rng=rng)
        attention.eval()
        x = rng.normal(size=(1, 5, 16))
        injector = FaultInjector(
            [FaultSpec(matrix="O", error_type="numeric", numeric_delta=1e-10)],
            rng=np.random.default_rng(2),
        )
        checker = ATTNChecker()
        attention.set_hooks(ComposedHooks([injector, checker]))
        attention(Tensor(x))
        attention.set_hooks(None)
        # Below the round-off tolerance E: not detected, by design.
        assert checker.stats.total_corrections == 0


class TestDoubleFaultLimits:
    def test_two_faults_in_same_section_may_not_be_recoverable(self, rng):
        # The scheme guarantees correction of one error per section per
        # execution; two simultaneous faults in the same section can exceed
        # that.  The checker must never crash and must report honestly.
        attention = MultiHeadAttention(hidden_size=16, num_heads=4, dropout_p=0.0, rng=rng)
        attention.eval()
        x = rng.normal(size=(1, 6, 16))
        injector = FaultInjector(
            [
                FaultSpec(matrix="AS", error_type="inf", position=(0, 1, 2, 3)),
                FaultSpec(matrix="AS", error_type="nan", position=(0, 1, 4, 3)),
            ],
            rng=np.random.default_rng(4),
        )
        checker = ATTNChecker()
        attention.set_hooks(ComposedHooks([injector, checker]))
        out = attention(Tensor(x))
        attention.set_hooks(None)
        assert injector.num_injections == 2
        assert checker.stats.total_detections >= 1
        assert np.isfinite(out.data).all() or checker.stats.total_residual_extreme >= 0
