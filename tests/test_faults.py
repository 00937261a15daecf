"""Unit tests for the fault injector, propagation study, vulnerability study
and detection/correction campaign."""

import numpy as np
import pytest

from repro.faults import (
    CampaignResult,
    DetectionCorrectionCampaign,
    FaultInjector,
    FaultSpec,
    PropagationStudy,
    VulnerabilityStudy,
)
from repro.faults.injector import TARGET_MATRICES
from repro.models import build_model
from repro.nn import MultiHeadAttention, RecordingHooks, ComposedHooks
from repro.nn.attention import GemmContext
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


class TestPropagationStudy:
    @pytest.fixture(scope="class")
    def study(self):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        from repro.data import SyntheticMRPC

        data = SyntheticMRPC(
            num_examples=8, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        )
        return PropagationStudy(model, data.encode(range(4)), rng=np.random.default_rng(1))

    def test_reference_is_cached(self, study):
        assert study.reference_matrices() is study.reference_matrices()

    def test_inf_in_q_propagates_one_row(self, study):
        result = study.trace("Q", "inf")
        assert result.cell("Q").startswith("0D")
        assert result.cell("AS").startswith("1R")
        assert result.cell("O").startswith("1R")
        # Softmax turns the INF row into NaN downstream (Table 2).
        assert "NaN" in result.cell("AP") or "M" in result.cell("AP")

    def test_inf_in_k_propagates_one_column_then_2d(self, study):
        result = study.trace("K", "inf")
        assert result.cell("AS").startswith("1C")
        assert result.cell("CL").startswith("2D")

    def test_v_fault_skips_attention_scores(self, study):
        result = study.trace("V", "nan")
        assert result.cell("AS") == "-"
        assert result.cell("CL").startswith(("1C", "-"))

    def test_cl_fault_reaches_output_as_one_row(self, study):
        result = study.trace("CL", "inf")
        assert result.cell("O").startswith("1R")


class TestVulnerabilityStudy:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.data import SyntheticMRPC

        def factory():
            return build_model("bert-small", size="tiny", rng=np.random.default_rng(0))

        model = factory()
        data = SyntheticMRPC(
            num_examples=16, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        )
        batches = [data.encode(range(0, 4)), data.encode(range(4, 8))]
        return VulnerabilityStudy(factory, batches, rng=np.random.default_rng(2))

    def test_requires_two_batches(self):
        with pytest.raises(ValueError):
            VulnerabilityStudy(lambda: None, [{}])

    def test_inf_fault_in_q_is_usually_fatal(self, study):
        results = study.run(matrices=("Q",), error_types=("inf",), trials=3)
        assert results[0].probability >= 2 / 3

    def test_results_have_probabilities_in_unit_interval(self, study):
        results = study.run(matrices=("Q", "V"), error_types=("nan",), trials=2)
        for r in results:
            assert 0.0 <= r.probability <= 1.0
            assert r.trials == 2


class TestDetectionCorrectionCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        from repro.data import SyntheticMRPC

        data = SyntheticMRPC(
            num_examples=8, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        )
        batch = data.encode(range(4))
        batch = dict(batch)
        batch["attention_mask"] = np.ones_like(batch["attention_mask"])
        return DetectionCorrectionCampaign(model, batch, rng=np.random.default_rng(3))

    def test_single_trial_flags(self, campaign):
        outcome = campaign.run_trial("AS", "inf")
        assert outcome["detected"] and outcome["corrected"] and outcome["matches"]

    def test_all_extreme_errors_corrected(self, campaign):
        results = campaign.run(
            matrices=("Q", "K", "V", "AS", "CL", "O"),
            error_types=("inf", "nan", "near_inf"),
            trials=2,
        )
        assert DetectionCorrectionCampaign.all_corrected(results)
        for r in results:
            assert r.recovery_rate == 1.0

    def test_benign_masked_faults_counted_separately(self):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        from repro.data import SyntheticMRPC

        data = SyntheticMRPC(
            num_examples=8, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        )
        batch = dict(data.encode(range(4)))
        # Heavy padding so some faults land in masked-out positions.
        batch["attention_mask"][:, 4:] = 0.0
        campaign = DetectionCorrectionCampaign(model, batch, rng=np.random.default_rng(9))
        results = campaign.run(matrices=("V",), error_types=("near_inf",), trials=8)
        result = results[0]
        assert result.trials == 8
        assert result.benign_masked + result.detected >= result.trials - result.benign_masked
        assert result.recovery_rate == 1.0


class TestCampaignResult:
    def test_rates_exclude_benign_masked_trials(self):
        result = CampaignResult(
            matrix="V", error_type="near_inf", trials=10, detected=6, corrected=3,
            output_matches_reference=9, benign_masked=4,
        )
        assert result.effective_trials == 6
        assert result.detection_rate == 1.0
        assert result.correction_rate == 0.5
        assert result.recovery_rate == 0.9

    def test_rates_without_influential_trials(self):
        # Every fault masked: nothing could be missed, so detection and
        # correction are vacuously complete; no trials at all leaves the
        # recovery rate undefined.
        masked = CampaignResult(matrix="V", error_type="inf", trials=3, benign_masked=3,
                                output_matches_reference=3)
        assert masked.detection_rate == 1.0 and masked.correction_rate == 1.0
        assert masked.recovery_rate == 1.0
        assert np.isnan(CampaignResult(matrix="V", error_type="inf").recovery_rate)

    def test_record_kind_accumulates_per_kind_counters(self):
        result = CampaignResult(matrix="H", error_type="near_inf")
        result.record_kind("exponent_msb", detected=True, corrected=True)
        result.record_kind("exponent_msb", detected=True, corrected=False)
        result.record_kind("mantissa_lsb", detected=False, corrected=False)
        assert result.trials_by_kind == {"exponent_msb": 2, "mantissa_lsb": 1}
        assert result.detected_by_kind == {"exponent_msb": 2, "mantissa_lsb": 0}
        assert result.detection_rate_for_kind("exponent_msb") == 1.0
        assert result.correction_rate_for_kind("exponent_msb") == 0.5
        assert np.isnan(result.detection_rate_for_kind("stuck_zero"))


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
