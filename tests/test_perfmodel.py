"""Unit tests for the analytical GPU performance model."""

import pytest

from repro.models import get_config
from repro.perfmodel import (
    A100_SPEC,
    AttentionCostModel,
    EncoderThroughputModel,
    GPUSpec,
    KernelCostModel,
    KernelLaunch,
    MultiGPUScaleModel,
    RecoveryCostModel,
    TrainingStepCostModel,
    checksum_encode_time_cublas,
    checksum_encode_time_custom,
    gemm_time,
    roofline_time,
)
from repro.perfmodel.attention_cost import BACKWARD_MULTIPLIER
from repro.perfmodel.kernels import ELEMENTWISE_BANDWIDTH_UTILISATION, elementwise_time
from repro.perfmodel.scale import BILLION_SCALE_MODELS, LargeModelSpec
from repro.perfmodel.training_cost import ADAMW_BYTES_PER_PARAM


class TestGPUSpec:
    def test_a100_defaults(self):
        assert A100_SPEC.memory_bandwidth == pytest.approx(2.0e12)
        assert A100_SPEC.peak_flops > 1e14

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec(peak_flops=-1)
        with pytest.raises(ValueError):
            GPUSpec(kernel_launch_overhead=-1e-6)

    def test_invalid_launch_rejected(self):
        with pytest.raises(ValueError):
            KernelLaunch(flops=-1)
        with pytest.raises(ValueError):
            KernelLaunch(compute_efficiency=0.0)


class TestRoofline:
    def test_compute_bound_kernel(self):
        launch = KernelLaunch(flops=1e12, bytes=1e3, compute_efficiency=1.0, bandwidth_efficiency=1.0, launches=0)
        assert roofline_time(launch) == pytest.approx(1e12 / A100_SPEC.peak_flops)

    def test_bandwidth_bound_kernel(self):
        launch = KernelLaunch(flops=1e3, bytes=1e12, compute_efficiency=1.0, bandwidth_efficiency=1.0, launches=0)
        assert roofline_time(launch) == pytest.approx(1e12 / A100_SPEC.memory_bandwidth)

    def test_launch_overhead_dominates_tiny_kernels(self):
        launch = KernelLaunch(flops=10, bytes=10)
        assert roofline_time(launch) >= A100_SPEC.kernel_launch_overhead

    def test_time_monotone_in_work(self):
        small = KernelLaunch(flops=1e9, bytes=1e6)
        large = KernelLaunch(flops=1e12, bytes=1e9)
        assert roofline_time(large) > roofline_time(small)


class TestKernels:
    def test_gemm_time_scales_with_size(self):
        assert gemm_time(4096, 4096, 4096) > gemm_time(512, 512, 512)

    def test_small_gemm_uses_lower_efficiency(self):
        # Same FLOPs split over many small batched GEMMs is slower than one
        # big GEMM (cuBLAS batched-small regime).
        big = gemm_time(2048, 2048, 2048)
        small = gemm_time(128, 128, 64, batch=2048 * 2048 * 2048 / (128 * 128 * 64))
        assert small > big

    def test_custom_encoder_faster_than_cublas(self):
        elements = 192 * 128 * 768
        assert checksum_encode_time_custom(elements) < checksum_encode_time_cublas(elements, num_blocks=192)

    def test_elementwise_time_is_bandwidth_bound_plus_launches(self):
        elements = 64e6
        bandwidth = A100_SPEC.memory_bandwidth * ELEMENTWISE_BANDWIDTH_UTILISATION
        streaming = elements * 2 * 4 / bandwidth
        one = elementwise_time(elements)
        three = elementwise_time(elements, launches=3)
        assert one == pytest.approx(A100_SPEC.kernel_launch_overhead + streaming)
        assert three - one == pytest.approx(2 * A100_SPEC.kernel_launch_overhead)

    def test_kernel_cost_model_wrappers(self):
        model = KernelCostModel()
        assert model.gemm(256, 256, 256) > 0
        assert model.elementwise(1e6) > 0
        assert model.encode_custom(1e6) > 0
        assert model.encode_cublas(1e6, 64) > model.encode_custom(1e6)


class TestAttentionCostModel:
    @pytest.fixture
    def model(self):
        return AttentionCostModel(get_config("bert-base", size="paper"), batch_size=8)

    def test_forward_time_positive_and_scales_with_batch(self, model):
        bigger = AttentionCostModel(get_config("bert-base", size="paper"), batch_size=32)
        assert 0 < model.attention_forward_time() < bigger.attention_forward_time()

    def test_training_step_is_three_times_forward(self, model):
        assert model.attention_step_time() == pytest.approx(3 * model.attention_forward_time())

    def test_abft_breakdown_sections(self, model):
        breakdown = model.abft_breakdown()
        for name in ("AS", "CL", "O"):
            assert breakdown.section_total(name) >= 0
        assert breakdown.total() > 0

    def test_frequencies_scale_abft_time(self, model):
        full = model.abft_time()
        half = model.abft_time(frequencies={"AS": 0.5, "CL": 0.5, "O": 0.5})
        zero = model.abft_time(frequencies={"AS": 0.0, "CL": 0.0, "O": 0.0})
        assert zero == 0.0
        assert half == pytest.approx(full / 2)

    def test_optimized_overhead_is_single_digit_percent(self, model):
        assert 0.01 < model.attention_overhead(optimized=True) < 0.25

    def test_non_optimized_overhead_several_times_larger(self, model):
        ratio = model.attention_overhead(optimized=False) / model.attention_overhead(optimized=True)
        assert ratio > 3.0

    def test_correction_time_patterns(self, model):
        assert model.correction_time("0D") <= model.correction_time("1D")
        assert model.correction_time("O") > 0
        with pytest.raises(KeyError):
            model.correction_time("3D")


class TestTrainingStepCostModel:
    @pytest.fixture
    def model(self):
        return TrainingStepCostModel(get_config("bert-base", size="paper"), batch_size=8)

    def test_step_time_exceeds_attention_time(self, model):
        assert model.step_time() > model.attention_step_time()

    def test_step_overhead_below_attention_overhead(self, model):
        assert model.step_overhead() < model.attention_overhead()

    def test_paper_shape_figure7(self):
        # Per-step overhead is a few percent, attention overhead roughly 2-3x
        # larger, for every model of Figure 7.
        for name in ("bert-small", "bert-base", "bert-large", "gpt2", "gpt-neo", "roberta"):
            tm = TrainingStepCostModel(get_config(name, size="paper"), batch_size=8)
            assert 0.01 < tm.step_overhead() < 0.12
            assert tm.attention_overhead() > tm.step_overhead()

    def test_paper_shape_figure8_optimisation_gap(self):
        for name in ("bert-base", "gpt2", "gpt-neo", "roberta"):
            tm = TrainingStepCostModel(get_config(name, size="paper"), batch_size=16)
            gap = tm.attention_overhead(optimized=False) / tm.attention_overhead(optimized=True)
            assert gap > 3.0

    def test_layer_forward_time_is_the_sum_of_its_parts(self, model):
        assert model.layer_forward_time() == pytest.approx(
            model.attention.attention_forward_time()
            + model.ffn_forward_time()
            + model.layer_other_forward_time()
        )

    def test_step_time_is_forward_backward_plus_update(self, model):
        forward = model.config.num_layers * model.layer_forward_time()
        forward += model.embedding_and_head_time()
        assert model.step_time() == pytest.approx(
            BACKWARD_MULTIPLIER * forward + model.optimizer_time()
        )

    def test_abft_step_time_counts_every_layer(self, model):
        for optimized in (True, False):
            assert model.abft_step_time(optimized=optimized) == pytest.approx(
                model.config.num_layers * model.attention.abft_time(optimized=optimized)
            )

    def test_optimizer_time_streams_the_adamw_state(self, model):
        streamed = model.config.parameter_count() * ADAMW_BYTES_PER_PARAM
        bandwidth = A100_SPEC.memory_bandwidth * ELEMENTWISE_BANDWIDTH_UTILISATION
        assert model.optimizer_time() == pytest.approx(
            4 * A100_SPEC.kernel_launch_overhead + streamed / bandwidth
        )


class TestEncoderThroughput:
    def test_custom_beats_cublas_everywhere(self):
        sweep = EncoderThroughputModel()
        custom = sweep.model_custom()
        cublas = sweep.model_cublas()
        for c, b in zip(custom, cublas):
            assert c.throughput_tbps > b.throughput_tbps

    def test_custom_reaches_high_bandwidth_fraction(self):
        sweep = EncoderThroughputModel()
        top = sweep.model_custom()[-1]
        assert top.throughput_tbps > 0.8 * A100_SPEC.memory_bandwidth / 1e12

    def test_cublas_stays_below_ten_percent(self):
        sweep = EncoderThroughputModel()
        for point in sweep.model_cublas():
            assert point.throughput_tbps < 0.10 * A100_SPEC.memory_bandwidth / 1e12

    def test_speedup_of_order_thirteen(self):
        sweep = EncoderThroughputModel()
        speedup = EncoderThroughputModel.speedup(sweep.model_custom(), sweep.model_cublas())
        assert 5.0 < speedup < 20.0

    def test_throughput_increases_with_batch(self):
        sweep = EncoderThroughputModel()
        tbps = [p.throughput_tbps for p in sweep.model_custom()]
        assert tbps == sorted(tbps)


class TestRecoveryModel:
    def test_figure11_shape(self):
        for name in ("bert-base", "gpt2", "gpt-neo", "roberta"):
            comparison = RecoveryCostModel(get_config(name, size="paper"), batch_size=8).compare()
            assert comparison.checkpoint_restore_overhead > 2.0       # > 200 %
            assert comparison.attnchecker_overhead < 0.15             # < 15 %
            assert comparison.improvement > 20.0                      # tens of x

    def test_correction_overheads_small_and_ordered(self):
        model = RecoveryCostModel(get_config("bert-base", size="paper"), batch_size=8)
        overheads = model.correction_overheads()
        assert overheads["0D"] <= overheads["1D"]
        assert overheads["O"] < 0.05
        assert all(v < 0.05 for v in overheads.values())

    def test_invalid_framework_factor(self):
        with pytest.raises(ValueError):
            RecoveryCostModel(get_config("bert-base", size="paper"), 8, framework_factor=0.5)

    def test_checkpoint_bytes_match_parameter_count(self):
        config = get_config("bert-base", size="paper")
        model = RecoveryCostModel(config, batch_size=8)
        assert model.checkpoint_bytes() == pytest.approx(config.parameter_count() * 4)


class TestScaleModel:
    def test_parameter_counts_match_names(self):
        assert BILLION_SCALE_MODELS["30B"].parameter_count == pytest.approx(30e9, rel=0.15)
        assert BILLION_SCALE_MODELS["60B"].parameter_count == pytest.approx(60e9, rel=0.15)
        assert BILLION_SCALE_MODELS["100B"].parameter_count == pytest.approx(100e9, rel=0.15)

    def test_figure12_overhead_nearly_constant(self):
        points = MultiGPUScaleModel(num_gpus=1024).sweep()
        overheads = [p.abft_overhead for p in points]
        assert all(0.001 < o < 0.12 for o in overheads)
        assert max(overheads) / min(overheads) < 1.8

    def test_step_time_grows_with_model_size(self):
        points = MultiGPUScaleModel(num_gpus=1024).sweep()
        times = [p.step_seconds for p in points]
        assert times == sorted(times)

    def test_allreduce_scales_with_parameters(self):
        model = MultiGPUScaleModel(num_gpus=1024)
        small = model.evaluate(BILLION_SCALE_MODELS["30B"])
        large = model.evaluate(BILLION_SCALE_MODELS["100B"])
        assert large.allreduce_seconds > small.allreduce_seconds

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            MultiGPUScaleModel(num_gpus=0)
        with pytest.raises(ValueError):
            MultiGPUScaleModel(mfu=0.0)

    def test_custom_spec(self):
        spec = LargeModelSpec(name="tiny", hidden_size=1024, num_layers=4, num_heads=16)
        point = MultiGPUScaleModel(num_gpus=8).evaluate(spec)
        assert point.step_seconds > 0 and point.abft_overhead > 0
