"""Unit tests for the fault injector and the fault-trial harness in each of
its configurations (propagation, vulnerability, detection/correction)."""

import numpy as np
import pytest

from repro.core import ATTNChecker
from repro.faults import (
    CellResult,
    FaultHarness,
    FaultInjector,
    FaultSpec,
    Trial,
    all_corrected,
)
from repro.faults.injector import TARGET_MATRICES
from repro.models import build_model
from repro.nn import MultiHeadAttention, RecordingHooks, ComposedHooks
from repro.nn.attention import GemmContext, InstrumentedBlock
from repro.tensor.autograd import Tensor
from repro.utils.floatbits import flip_exponent_msb


@pytest.fixture
def rng():
    return np.random.default_rng(53)


@pytest.fixture
def attention(rng):
    return MultiHeadAttention(hidden_size=16, num_heads=4, dropout_p=0.0, rng=rng)


class TestFaultSpec:
    def test_valid_spec(self):
        spec = FaultSpec(matrix="AS", error_type="inf")
        assert spec.op.value == "qk"

    def test_unknown_matrix_rejected(self):
        with pytest.raises(KeyError):
            FaultSpec(matrix="W", error_type="inf")

    def test_unknown_error_type_rejected(self):
        with pytest.raises(KeyError):
            FaultSpec(matrix="Q", error_type="flip")

    def test_all_target_matrices_map_to_distinct_ops(self):
        assert len(set(TARGET_MATRICES.values())) == len(TARGET_MATRICES)


class TestFaultInjector:
    @pytest.mark.parametrize("error_type,predicate", [
        ("inf", lambda v: np.isinf(v)),
        ("nan", lambda v: np.isnan(v)),
        ("near_inf", lambda v: np.isfinite(v) and abs(v) > 1e10),
        ("numeric", lambda v: np.isfinite(v)),
    ])
    def test_injected_value_class(self, attention, rng, error_type, predicate):
        injector = FaultInjector([FaultSpec(matrix="Q", error_type=error_type)], rng=rng)
        attention.set_hooks(injector)
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert injector.num_injections == 1
        record = injector.records[0]
        assert predicate(record.injected_value)

    def test_fixed_position_respected(self, attention, rng):
        spec = FaultSpec(matrix="AS", error_type="inf", position=(0, 1, 2, 3))
        injector = FaultInjector([spec], rng=rng)
        recorder = RecordingHooks()
        attention.set_hooks(ComposedHooks([injector, recorder]))
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert injector.records[0].position == (0, 1, 2, 3)
        assert np.isinf(recorder.matrices(0)["AS"][0, 1, 2, 3])

    def test_fires_at_most_once_by_default(self, attention, rng):
        injector = FaultInjector([FaultSpec(matrix="Q", error_type="inf")], rng=rng)
        attention.set_hooks(injector)
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert injector.num_injections == 1

    def test_arm_resets_counters(self, attention, rng):
        injector = FaultInjector([FaultSpec(matrix="Q", error_type="inf")], rng=rng)
        attention.set_hooks(injector)
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        injector.arm()
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert injector.num_injections == 2

    def test_disarm_prevents_injection(self, attention, rng):
        injector = FaultInjector([FaultSpec(matrix="Q", error_type="inf")], rng=rng, enabled=False)
        attention.set_hooks(injector)
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert injector.num_injections == 0

    def test_layer_filter(self, rng):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        spec = FaultSpec(matrix="Q", error_type="inf", layer_index=1)
        injector = FaultInjector([spec], rng=rng)
        model.set_attention_hooks(injector)
        ids = rng.integers(0, model.config.vocab_size, size=(2, model.config.max_seq_len))
        model(ids, attention_mask=np.ones((2, model.config.max_seq_len)))
        model.set_attention_hooks(None)
        assert injector.num_injections == 1
        assert injector.records[0].layer_index == 1

    def test_multiple_specs_fire_independently(self, attention, rng):
        specs = [FaultSpec(matrix="Q", error_type="inf"), FaultSpec(matrix="V", error_type="nan")]
        injector = FaultInjector(specs, rng=rng)
        attention.set_hooks(injector)
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert injector.num_injections == 2

    def test_records_original_value(self, attention, rng):
        injector = FaultInjector([FaultSpec(matrix="CL", error_type="inf")], rng=rng)
        attention.set_hooks(injector)
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert np.isfinite(injector.records[0].original_value)

    @pytest.mark.parametrize("out_dtype,value_dtype,flip_dtype", [
        (np.float64, None, np.float64),
        (np.float32, None, np.float32),
        (np.float64, np.float32, np.float32),
    ], ids=["float64", "float32", "float64-value-float32"])
    def test_near_inf_writes_exponent_msb_flip_of_element(self, out_dtype, value_dtype, flip_dtype):
        """The near-INF fault is the exponent-MSB flip of the struck element
        in the injector's value format, written back into the output: the
        record holds the written value, no other element moves, and a second
        flip of the written bits gives back the original element."""
        out = (np.arange(1, 7) / 7.0).reshape(2, 3).astype(out_dtype)
        before = out.copy()
        injector = FaultInjector(
            [FaultSpec(matrix="Q", error_type="near_inf", position=(1, 2))],
            value_dtype=value_dtype,
        )
        ctx = GemmContext(op=TARGET_MATRICES["Q"], a=None, b=None, layer_index=0, step=0,
                          num_heads=1, head_dim=3, seq_len=2)
        assert injector.on_gemm_output(ctx, out) is out
        original = np.asarray(before[1, 2], dtype=flip_dtype)
        assert out[1, 2] == flip_exponent_msb(original, dtype=flip_dtype)
        assert injector.records[0].injected_value == out[1, 2]
        assert injector.records[0].original_value == before[1, 2]
        out[1, 2] = before[1, 2]
        assert np.array_equal(out, before)
        flipped = np.asarray(injector.records[0].injected_value, dtype=flip_dtype)
        assert flip_exponent_msb(flipped, dtype=flip_dtype) == original


def tiny_bert_batch(n: int, full_mask: bool = False):
    from repro.data import SyntheticMRPC

    model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
    data = SyntheticMRPC(
        num_examples=8, max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
    )
    batch = dict(data.encode(range(n)))
    if full_mask:
        batch["attention_mask"] = np.ones_like(batch["attention_mask"])
    return model, batch


class TestRecordedConfiguration:
    """Table 2: the recorded configuration classifies downstream patterns."""

    @pytest.fixture(scope="class")
    def harness(self):
        return FaultHarness(*tiny_bert_batch(4), "recorded")

    def trace(self, harness, matrix, error_type):
        (cell,) = harness.cells([(matrix, error_type)], trials=1, rng=np.random.default_rng(1))
        return cell.outcomes[0]

    def test_reference_is_cached(self, harness):
        assert harness.reference is harness.reference

    def test_inf_in_q_propagates_one_row(self, harness):
        result = self.trace(harness, "Q", "inf")
        assert result.cell("Q").startswith("0D")
        assert result.cell("AS").startswith("1R")
        assert result.cell("O").startswith("1R")
        # Softmax turns the INF row into NaN downstream (Table 2).
        assert "NaN" in result.cell("AP") or "M" in result.cell("AP")

    def test_inf_in_k_propagates_one_column_then_2d(self, harness):
        result = self.trace(harness, "K", "inf")
        assert result.cell("AS").startswith("1C")
        assert result.cell("CL").startswith("2D")

    def test_v_fault_skips_attention_scores(self, harness):
        result = self.trace(harness, "V", "nan")
        assert result.cell("AS") == "-"
        assert result.cell("CL").startswith(("1C", "-"))

    def test_cl_fault_reaches_output_as_one_row(self, harness):
        result = self.trace(harness, "CL", "inf")
        assert result.cell("O").startswith("1R")

    def test_patterns_describe_the_struck_layer(self, harness):
        result = self.trace(harness, "AS", "nan")
        assert result.injection.layer_index == 0
        assert result.cell("AS").startswith("0D")
        assert result.checker is None and not result.detected

    def test_forward_leaves_no_hooks_and_training_mode(self, harness):
        self.trace(harness, "O", "inf")
        assert harness.model.training
        assert all(m.hooks is None for _, m in harness.model.named_modules()
                   if isinstance(m, InstrumentedBlock))


class TestTrainingConfiguration:
    """Table 4: unprotected training trials on fresh copies of one model."""

    @pytest.fixture(scope="class")
    def harness(self):
        from repro.data import SyntheticMRPC

        model = build_model("bert-small", size="tiny", rng=np.random.default_rng(0))
        data = SyntheticMRPC(
            num_examples=16, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        )
        return FaultHarness(model, data.encode(range(0, 4)), "training",
                            clean_batch=data.encode(range(4, 8)))

    def test_requires_a_clean_batch(self):
        model, batch = tiny_bert_batch(2)
        with pytest.raises(ValueError):
            FaultHarness(model, batch, "training")

    def test_unknown_configuration_rejected(self):
        model, batch = tiny_bert_batch(2)
        with pytest.raises(ValueError):
            FaultHarness(model, batch, "campaign")

    def test_inf_fault_in_q_is_usually_fatal(self, harness):
        results = harness.cells([("Q", "inf")], trials=3, rng=np.random.default_rng(2))
        assert results[0].non_trainable_rate >= 2 / 3

    def test_results_have_probabilities_in_unit_interval(self, harness):
        results = harness.cells([("Q", "nan"), ("V", "nan")], trials=2,
                                rng=np.random.default_rng(2))
        assert [(r.matrix, r.error_type) for r in results] == [("Q", "nan"), ("V", "nan")]
        for r in results:
            assert 0.0 <= r.non_trainable_rate <= 1.0
            assert r.trials == 2

    def test_trials_start_from_the_same_weights(self, harness):
        before = [p.data.copy() for p in harness.model.parameters()]
        first = harness.trial(FaultSpec(matrix="V", error_type="numeric"), np.random.default_rng(4))
        second = harness.trial(FaultSpec(matrix="V", error_type="numeric"), np.random.default_rng(4))
        # The harness's own model is never trained, so both trials replay.
        assert all(np.array_equal(p.data, b) for p, b in zip(harness.model.parameters(), before))
        assert first.injection.position == second.injection.position
        assert first.injection.original_value == second.injection.original_value
        assert not first.non_trainable and not second.non_trainable


class TestProtectedConfiguration:
    """Section 5.2: the protected configuration detects and corrects."""

    @pytest.fixture(scope="class")
    def harness(self):
        return FaultHarness(*tiny_bert_batch(4, full_mask=True), "protected")

    def test_single_trial_flags(self, harness):
        outcome = harness.trial(FaultSpec(matrix="AS", error_type="inf"), np.random.default_rng(3))
        assert outcome.detected and outcome.corrected and outcome.matches
        assert np.isfinite(outcome.loss)
        # The kept checker holds its counters, not its weight encodings.
        assert outcome.checker.weight_cache_stats()["entries"] == 0

    def test_all_extreme_errors_corrected(self, harness):
        results = harness.cells(
            [(m, e) for m in ("Q", "K", "V", "AS", "CL", "O") for e in ("inf", "nan", "near_inf")],
            trials=2, rng=np.random.default_rng(3),
        )
        assert all_corrected(results)
        for r in results:
            assert r.recovery_rate == 1.0

    def test_benign_masked_faults_counted_separately(self):
        model, batch = tiny_bert_batch(4)
        # Heavy padding so some faults land in masked-out positions.
        batch["attention_mask"][:, 4:] = 0.0
        harness = FaultHarness(model, batch, "protected")
        result = harness.cells([("V", "near_inf")], trials=8, rng=np.random.default_rng(9))[0]
        assert result.trials == 8
        masked = result.count("benign_masked")
        assert masked + result.count("detected") >= result.trials - masked
        assert result.recovery_rate == 1.0

    def test_per_trial_generators(self, harness):
        # A callable rng gives every (cell, trial) its own generator, so a
        # cell replays whatever cells run before it.
        seeds = lambda cell, trial: np.random.default_rng(100 + trial)  # noqa: E731
        alone = harness.cells([("CL", "nan")], trials=2, rng=seeds)[0]
        after = harness.cells([("Q", "inf"), ("CL", "nan")], trials=2, rng=seeds)[1]
        assert [t.injection.position for t in alone.outcomes] == \
            [t.injection.position for t in after.outcomes]
        assert alone.outcomes[0].injection.position != alone.outcomes[1].injection.position


class TestUnprotectedConfiguration:
    def test_escaped_fault_corrupts_the_output(self):
        harness = FaultHarness(*tiny_bert_batch(4, full_mask=True), "unprotected")
        trial = harness.trial(FaultSpec(matrix="AS", error_type="inf"), np.random.default_rng(7))
        assert trial.injection is not None and trial.checker is None
        assert not trial.matches and not trial.detected and not trial.benign_masked
        assert np.isnan(trial.loss)
        assert np.isfinite(harness.reference.loss_value)


def trial(detected=False, corrected=False, matches=False, kind="exponent_msb"):
    """A trial whose checker counted a detection and/or a correction."""
    checker = ATTNChecker()
    checker.stats.sections["AS"].detections = int(detected)
    checker.stats.sections["AS"].corrections = int(corrected)
    spec = FaultSpec(matrix="H", error_type="near_inf", flip_kind=kind)
    return Trial(spec, injection=None, checker=checker, matches=matches)


class TestCellResult:
    def test_rates_exclude_benign_masked_trials(self):
        outcomes = (
            [trial(True, True, True)] * 3 + [trial(True, False, True)] * 2
            + [trial(True, False, False)] + [trial(False, False, True)] * 4
        )
        result = CellResult(matrix="V", error_type="near_inf", flip_kind_mix={}, outcomes=outcomes)
        assert result.count("benign_masked") == 4
        assert result.detection_rate == 1.0
        assert result.correction_rate == 0.5
        assert result.recovery_rate == 0.9

    def test_rates_without_influential_trials(self):
        # Every fault masked: nothing could be missed, so detection and
        # correction are vacuously complete; no trials at all leaves the
        # recovery rate undefined.
        masked = CellResult(matrix="V", error_type="inf", flip_kind_mix={},
                            outcomes=[trial(matches=True)] * 3)
        assert masked.detection_rate == 1.0 and masked.correction_rate == 1.0
        assert masked.recovery_rate == 1.0
        empty = CellResult(matrix="V", error_type="inf", flip_kind_mix={})
        assert np.isnan(empty.recovery_rate) and np.isnan(empty.non_trainable_rate)

    def test_counts_per_flip_kind(self):
        result = CellResult(matrix="H", error_type="near_inf", flip_kind_mix={}, outcomes=[
            trial(True, True), trial(True, False), trial(kind="mantissa_lsb"),
        ])
        assert result.trials_by_kind == {"exponent_msb": 2, "mantissa_lsb": 1}
        assert result.count("detected", "exponent_msb") == 2
        assert result.count("detected", "mantissa_lsb") == 0
        assert result.kind_rate("detected", "exponent_msb") == 1.0
        assert result.kind_rate("corrected", "exponent_msb") == 0.5
        assert np.isnan(result.kind_rate("detected", "stuck_zero"))


class TestInjectorLifecycle:
    """Bounded record retention and the per-request serving seam."""

    def _attn(self, rng):
        return MultiHeadAttention(hidden_size=16, num_heads=4, dropout_p=0.0, rng=rng)

    def test_records_bounded_by_max_records(self, rng):
        attention = self._attn(rng)
        injector = FaultInjector(
            [FaultSpec(matrix="Q", error_type="numeric")], rng=rng, max_records=3
        )
        attention.set_hooks(injector)
        for _ in range(6):
            injector.arm()
            attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert len(injector.records) == 3
        assert injector.num_injections == 6  # monotonic despite eviction

    def test_max_records_validated(self, rng):
        with pytest.raises(ValueError, match="max_records"):
            FaultInjector([FaultSpec(matrix="Q", error_type="inf")], rng=rng, max_records=0)

    def test_begin_request_rearms_and_tags_records(self, rng):
        attention = self._attn(rng)
        injector = FaultInjector([FaultSpec(matrix="Q", error_type="inf")], rng=rng)
        attention.set_hooks(injector)
        injector.begin_request("req-a")
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention(Tensor(rng.normal(size=(1, 5, 16))))  # spec already spent
        injector.begin_request("req-b")
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert injector.num_injections == 2  # once per request, not once ever
        assert [r.request_id for r in injector.records] == ["req-a", "req-b"]

    def test_begin_request_preserves_disarmed_state(self, rng):
        attention = self._attn(rng)
        injector = FaultInjector(
            [FaultSpec(matrix="Q", error_type="inf")], rng=rng, enabled=False
        )
        attention.set_hooks(injector)
        injector.begin_request("req-a")
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert injector.num_injections == 0

    def test_reset_clears_everything(self, rng):
        attention = self._attn(rng)
        injector = FaultInjector([FaultSpec(matrix="Q", error_type="inf")], rng=rng)
        attention.set_hooks(injector)
        injector.begin_request("req-a")
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        injector.reset()
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        assert injector.num_injections == 1  # post-reset injection only
        assert len(injector.records) == 1
        assert injector.records[0].request_id is None
