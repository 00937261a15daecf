"""Unit and integration tests for the ATTNChecker hook and protection sections."""

import numpy as np
import pytest

from repro.core import (
    ATTNChecker,
    ATTNCheckerConfig,
    PROTECTION_SECTIONS,
    SectionCostModel,
)
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model, get_config
from repro.nn import ComposedHooks, MultiHeadAttention
from repro.tensor.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(41)


@pytest.fixture
def attention(rng):
    return MultiHeadAttention(hidden_size=16, num_heads=4, dropout_p=0.0, rng=rng)


def run_attention(attention, x, hooks):
    attention.set_hooks(hooks)
    try:
        return attention(Tensor(x)).data.copy()
    finally:
        attention.set_hooks(None)


class TestSections:
    def test_three_sections_defined(self):
        assert set(PROTECTION_SECTIONS) == {"AS", "CL", "O"}

    def test_sections_cover_all_six_gemms(self):
        covered = [op for s in PROTECTION_SECTIONS.values() for op in s.operations]
        assert sorted(covered) == sorted(["xq", "xk", "qk", "xv", "apv", "clo"])

    def test_nondeterministic_flags(self):
        # AS and CL carry both checksum sides (a 1R or a 1C pattern can
        # reach them); O carries its column side only.
        for name in ("AS", "CL"):
            assert PROTECTION_SECTIONS[name].sides == ("col", "row")
        assert PROTECTION_SECTIONS["O"].sides == ("col",)

    def test_section_cost_model_positive(self):
        model = SectionCostModel(get_config("bert-base", size="paper"), batch_size=8)
        for name in PROTECTION_SECTIONS:
            costs = model.section_costs(name)
            assert costs.detection_path_flops > 0
            assert costs.total_flops >= costs.detection_path_flops

    def test_abft_flops_small_relative_to_gemms(self):
        model = SectionCostModel(get_config("bert-base", size="paper"), batch_size=8)
        abft = sum(model.section_costs(name).detection_path_flops for name in PROTECTION_SECTIONS)
        gemm = sum(model.operation_flops().values())
        assert abft / gemm < 0.15

    def test_unknown_section_raises(self):
        model = SectionCostModel(get_config("bert-base", size="paper"), batch_size=8)
        with pytest.raises(KeyError):
            model.section_costs("XYZ")


class TestCheckerConfig:
    def test_default_frequencies_full(self):
        config = ATTNCheckerConfig()
        assert config.frequencies == {"AS": 1.0, "CL": 1.0, "O": 1.0}

    def test_caller_frequencies_dict_is_not_mutated(self):
        # Regression: validation used to complete the caller's own dict with
        # the scope's missing sections, so reusing it for a narrower scope
        # raised KeyError('FF1').
        frequencies = {"AS": 0.5}
        wide = ATTNCheckerConfig(frequencies=frequencies, protect_scope="attention+ffn")
        assert frequencies == {"AS": 0.5}
        assert wide.frequencies == {"AS": 0.5, "CL": 1.0, "O": 1.0, "FF1": 1.0, "FF2": 1.0}
        narrow = ATTNCheckerConfig(frequencies=frequencies)
        assert narrow.frequencies == {"AS": 0.5, "CL": 1.0, "O": 1.0}
        assert frequencies == {"AS": 0.5}

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            ATTNCheckerConfig(frequencies={"AS": 1.5})
        with pytest.raises(KeyError):
            ATTNCheckerConfig(frequencies={"XX": 0.5})


class TestTransparency:
    def test_clean_forward_is_bitwise_unchanged(self, attention, rng):
        x = rng.normal(size=(2, 6, 16))
        attention.eval()
        reference = run_attention(attention, x, None)
        checker = ATTNChecker()
        protected = run_attention(attention, x, checker)
        assert np.array_equal(protected, reference)
        assert checker.stats.total_detections == 0
        assert checker.stats.total_corrections == 0

    def test_clean_training_model_unperturbed(self, rng):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        model.eval()
        ids = rng.integers(0, model.config.vocab_size, size=(4, model.config.max_seq_len))
        mask = np.ones((4, model.config.max_seq_len))
        reference = model(ids, attention_mask=mask).logits.data.copy()
        checker = ATTNChecker()
        model.set_attention_hooks(checker)
        protected = model(ids, attention_mask=mask).logits.data.copy()
        model.set_attention_hooks(None)
        assert np.array_equal(protected, reference)
        assert checker.stats.total_detections == 0

    def test_timers_record_abft_work(self, attention, rng):
        checker = ATTNChecker()
        run_attention(attention, rng.normal(size=(2, 6, 16)), checker)
        assert checker.overhead_seconds() > 0
        keys = checker.timers.keys()
        for name in ("AS", "CL", "O"):
            assert any(key.startswith(f"{name}/") for key in keys)
            assert checker.timers.total(prefix=f"{name}/") >= 0

    def test_summary_mentions_sections(self, attention, rng):
        checker = ATTNChecker()
        run_attention(attention, rng.normal(size=(1, 4, 16)), checker)
        text = checker.summary()
        assert "[AS]" in text and "[CL]" in text and "[O]" in text


@pytest.mark.parametrize("matrix", ["Q", "K", "V", "AS", "CL", "O"])
@pytest.mark.parametrize("error_type", ["inf", "nan", "near_inf"])
class TestInjectedErrorsCorrected:
    def test_single_fault_detected_corrected_and_output_restored(
        self, attention, rng, matrix, error_type
    ):
        x = rng.normal(size=(2, 6, 16))
        attention.eval()
        reference = run_attention(attention, x, None)
        injector = FaultInjector(
            [FaultSpec(matrix=matrix, error_type=error_type, layer_index=0)],
            rng=np.random.default_rng(7),
        )
        checker = ATTNChecker()
        protected = run_attention(attention, x, ComposedHooks([injector, checker]))
        assert injector.num_injections == 1
        assert checker.stats.total_detections >= 1
        assert checker.stats.total_corrections >= 1
        assert checker.stats.total_residual_extreme == 0
        assert np.allclose(protected, reference, rtol=1e-6, atol=1e-6)


class TestWithoutChecker:
    @pytest.mark.parametrize("error_type", ["inf", "nan"])
    def test_unprotected_forward_is_corrupted(self, attention, rng, error_type):
        x = rng.normal(size=(2, 6, 16))
        attention.eval()
        reference = run_attention(attention, x, None)
        injector = FaultInjector(
            [FaultSpec(matrix="Q", error_type=error_type)], rng=np.random.default_rng(7)
        )
        corrupted = run_attention(attention, x, injector)
        assert not np.allclose(
            np.nan_to_num(corrupted), np.nan_to_num(reference), rtol=1e-5, atol=1e-5
        ) or np.isnan(corrupted).any()


class TestOperandRepair:
    def test_operand_repair_keeps_backward_finite(self, rng):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        ids = rng.integers(0, model.config.vocab_size, size=(4, model.config.max_seq_len))
        mask = np.ones((4, model.config.max_seq_len))
        labels = rng.integers(0, 2, size=4)
        injector = FaultInjector(
            [FaultSpec(matrix="K", error_type="inf")], rng=np.random.default_rng(3)
        )
        checker = ATTNChecker(ATTNCheckerConfig())
        model.set_attention_hooks(ComposedHooks([injector, checker]))
        out = model(ids, attention_mask=mask, labels=labels)
        out.loss.backward()
        model.set_attention_hooks(None)
        assert np.isfinite(out.loss_value)
        assert all(np.isfinite(p.grad).all() for p in model.parameters() if p.grad is not None)
        assert checker.stats.sections["AS"].operand_repairs >= 1


class TestDetectionFrequencies:
    def test_zero_frequency_skips_checks(self, attention, rng):
        checker = ATTNChecker(ATTNCheckerConfig(frequencies={"AS": 0.0, "CL": 0.0, "O": 0.0}))
        run_attention(attention, rng.normal(size=(1, 4, 16)), checker)
        assert checker.stats.total_checks == 0
        skipped = sum(s.checks_skipped for s in checker.stats.sections.values())
        assert skipped >= 3

    def test_half_frequency_checks_every_other_pass(self, attention, rng):
        checker = ATTNChecker(ATTNCheckerConfig(frequencies={"AS": 0.5, "CL": 0.5, "O": 0.5}))
        x = rng.normal(size=(1, 4, 16))
        for _ in range(4):
            run_attention(attention, x, checker)
        assert checker.stats.sections["AS"].checks_run == 2
        assert checker.stats.sections["AS"].checks_skipped == 2

    @staticmethod
    def _bert_forwards(checker, passes, injector=None):
        """Eval forwards of a two-layer tiny BERT; AS verifications per layer."""
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        model.eval()
        ids = np.random.default_rng(5).integers(1, model.config.vocab_size, size=(2, 6))
        verified = {layer: 0 for layer in range(model.config.num_layers)}
        record = checker._record_outcome

        def counting(section, outcome):
            if section == "AS" and outcome is not None and outcome.report is not None:
                verified[outcome.layer_index] += 1
            record(section, outcome)

        checker._record_outcome = counting
        model.set_attention_hooks(checker if injector is None else ComposedHooks([injector, checker]))
        detections = []
        for _ in range(passes):
            if injector is not None:
                injector.arm()
            model(ids, attention_mask=np.ones_like(ids))
            detections.append(checker.stats.sections["AS"].detections)
        model.set_attention_hooks(None)
        return verified, detections

    def test_each_layer_checks_its_own_fraction_of_passes(self):
        checker = ATTNChecker(ATTNCheckerConfig(frequencies={"AS": 0.5}))
        verified, _ = self._bert_forwards(checker, passes=6)
        assert verified == {0: 3, 1: 3}
        assert checker.stats.sections["AS"].checks_skipped == 6

    def test_first_layer_fault_detected_within_two_passes(self):
        checker = ATTNChecker(ATTNCheckerConfig(frequencies={"AS": 0.5}))
        injector = FaultInjector(
            [FaultSpec(matrix="AS", error_type="near_inf", layer_index=0)],
            rng=np.random.default_rng(0),
        )
        _, detections = self._bert_forwards(checker, passes=2, injector=injector)
        # Layer 0 skips AS on its first pass and checks it on its second.
        assert detections[0] == 0 and detections[1] >= 1

    def test_full_frequency_checks_every_pass(self, attention, rng):
        checker = ATTNChecker()
        x = rng.normal(size=(1, 4, 16))
        for _ in range(3):
            run_attention(attention, x, checker)
        assert checker.stats.sections["AS"].checks_run == 3

    def test_disabled_section_misses_faults_but_o_section_still_catches_them(self, attention, rng):
        # With S_AS disabled, a fault in Q propagates; S_O's checksums derive
        # from AP x V so a Q fault is absorbed into them (not detectable
        # there), demonstrating why sectioning matters.
        x = rng.normal(size=(1, 6, 16))
        attention.eval()
        injector = FaultInjector([FaultSpec(matrix="AS", error_type="inf")], rng=np.random.default_rng(5))
        checker = ATTNChecker(ATTNCheckerConfig(frequencies={"AS": 0.0, "CL": 1.0, "O": 1.0}))
        run_attention(attention, x, ComposedHooks([injector, checker]))
        assert checker.stats.sections["AS"].checks_run == 0

    def test_reset_stats(self, attention, rng):
        checker = ATTNChecker()
        run_attention(attention, rng.normal(size=(1, 4, 16)), checker)
        checker.reset_stats()
        assert checker.stats.total_checks == 0
        assert checker.overhead_seconds() == 0.0
