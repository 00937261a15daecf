"""Unit tests for the training-precision simulation hooks."""

import numpy as np
import pytest

from repro.core import ATTNChecker
from repro.faults import (
    FaultInjector,
    FaultSpec,
    PRECISION_FORMATS,
    PrecisionSimulationHooks,
    PropagationStudy,
    VulnerabilityStudy,
)
from repro.faults.precision import simulate_precision
from repro.models import build_model
from repro.nn import ComposedHooks, MultiHeadAttention
from repro.tensor.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(61)


@pytest.fixture
def attention(rng):
    return MultiHeadAttention(hidden_size=16, num_heads=4, dropout_p=0.0, rng=rng)


class TestSimulatePrecision:
    def test_float32_quantises_mantissa(self):
        values = np.array([1.0 + 1e-12, 2.0])
        out = simulate_precision(values.copy(), PRECISION_FORMATS["float32"])
        assert out[0] == np.float64(np.float32(1.0 + 1e-12))
        assert out.dtype == np.float64

    def test_float32_overflows_to_inf(self):
        values = np.array([1e39, -1e39, 1.0])
        out = simulate_precision(values.copy(), PRECISION_FORMATS["float32"])
        assert np.isposinf(out[0]) and np.isneginf(out[1]) and out[2] == 1.0

    def test_float16_overflow_threshold(self):
        values = np.array([70000.0, 60000.0])
        out = simulate_precision(values.copy(), PRECISION_FORMATS["float16"])
        assert np.isinf(out[0])
        assert np.isfinite(out[1])

    def test_bfloat16_keeps_fp32_range(self):
        values = np.array([1e38])
        out = simulate_precision(values.copy(), PRECISION_FORMATS["bfloat16"])
        assert np.isfinite(out[0])

    def test_nan_propagates(self):
        values = np.array([np.nan])
        out = simulate_precision(values.copy(), PRECISION_FORMATS["float32"])
        assert np.isnan(out[0])

    def test_float64_passthrough(self):
        values = np.array([1e200, -3.5])
        out = simulate_precision(values.copy(), PRECISION_FORMATS["float64"])
        assert np.array_equal(out, values)

    def test_in_place_semantics(self):
        values = np.array([1e39])
        returned = simulate_precision(values, PRECISION_FORMATS["float32"])
        assert returned is values
        assert np.isinf(values[0])


class TestPrecisionHooks:
    def test_unknown_format_rejected(self):
        with pytest.raises(KeyError):
            PrecisionSimulationHooks("int8")

    def test_processes_all_six_gemms(self, attention, rng):
        hooks = PrecisionSimulationHooks("float32")
        attention.set_hooks(hooks)
        attention(Tensor(rng.normal(size=(1, 4, 16))))
        attention.set_hooks(None)
        assert hooks.gemm_outputs_processed == 6

    def test_float64_format_is_identity(self, attention, rng):
        x = rng.normal(size=(1, 5, 16))
        attention.eval()
        attention.set_hooks(None)
        reference = attention(Tensor(x)).data.copy()
        attention.set_hooks(PrecisionSimulationHooks("float64"))
        out = attention(Tensor(x)).data.copy()
        attention.set_hooks(None)
        assert np.array_equal(out, reference)

    def test_float32_changes_results_only_at_rounding_level(self, attention, rng):
        x = rng.normal(size=(1, 5, 16))
        attention.eval()
        reference = attention(Tensor(x)).data.copy()
        attention.set_hooks(PrecisionSimulationHooks("float32"))
        out = attention(Tensor(x)).data.copy()
        attention.set_hooks(None)
        assert np.allclose(out, reference, rtol=1e-4, atol=1e-5)
        assert not np.array_equal(out, reference)

    def test_checker_still_transparent_under_float32(self, attention, rng):
        # Under reduced-precision compute, the checker needs the matching
        # detection tolerance (ABFTThresholds.for_precision) so fp32 rounding
        # of the operands never looks like a fault.
        from repro.core import ABFTThresholds, ATTNCheckerConfig

        x = rng.normal(size=(1, 5, 16))
        attention.eval()
        precision = PrecisionSimulationHooks("float32")
        attention.set_hooks(precision)
        reference = attention(Tensor(x)).data.copy()
        checker = ATTNChecker(ATTNCheckerConfig(thresholds=ABFTThresholds.for_precision("float32")))
        attention.set_hooks(ComposedHooks([PrecisionSimulationHooks("float32"), checker]))
        protected = attention(Tensor(x)).data.copy()
        attention.set_hooks(None)
        assert np.array_equal(protected, reference)
        assert checker.stats.total_corrections == 0

    def test_checker_corrects_faults_under_float32(self, attention, rng):
        from repro.core import ABFTThresholds, ATTNCheckerConfig

        x = rng.normal(size=(1, 5, 16))
        attention.eval()
        attention.set_hooks(PrecisionSimulationHooks("float32"))
        reference = attention(Tensor(x)).data.copy()
        injector = FaultInjector(
            [FaultSpec(matrix="AS", error_type="inf")],
            rng=np.random.default_rng(3),
            value_dtype=np.float32,
        )
        checker = ATTNChecker(ATTNCheckerConfig(thresholds=ABFTThresholds.for_precision("float32")))
        attention.set_hooks(ComposedHooks([PrecisionSimulationHooks("float32"), injector, checker]))
        protected = attention(Tensor(x)).data.copy()
        attention.set_hooks(None)
        assert checker.stats.total_corrections >= 1
        assert np.allclose(protected, reference, rtol=1e-4, atol=1e-5)


class TestInjectorValueDtype:
    def test_near_inf_magnitude_follows_value_dtype(self, attention, rng):
        fp32 = FaultInjector(
            [FaultSpec(matrix="Q", error_type="near_inf")], rng=np.random.default_rng(1),
            value_dtype=np.float32,
        )
        attention.set_hooks(fp32)
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        injected32 = abs(fp32.records[0].injected_value)
        assert 1e10 < injected32 <= float(np.finfo(np.float32).max)

        fp64 = FaultInjector(
            [FaultSpec(matrix="Q", error_type="near_inf")], rng=np.random.default_rng(1),
        )
        attention.set_hooks(fp64)
        attention(Tensor(rng.normal(size=(1, 5, 16))))
        attention.set_hooks(None)
        injected64 = abs(fp64.records[0].injected_value)
        assert injected64 > float(np.finfo(np.float32).max)


class TestStudiesWithPrecision:
    def test_propagation_study_accepts_precision(self, rng):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        from repro.data import SyntheticMRPC

        data = SyntheticMRPC(num_examples=8, max_seq_len=model.config.max_seq_len,
                             vocab_size=model.config.vocab_size)
        study = PropagationStudy(model, data.encode(range(4)), precision="float32",
                                 rng=np.random.default_rng(1))
        result = study.trace("Q", "inf")
        assert result.cell("AS").startswith("1R")

    def test_vulnerability_study_accepts_precision(self):
        from repro.data import SyntheticMRPC

        def factory():
            return build_model("bert-small", size="tiny", rng=np.random.default_rng(0))

        model = factory()
        data = SyntheticMRPC(num_examples=16, max_seq_len=model.config.max_seq_len,
                             vocab_size=model.config.vocab_size)
        batches = [data.encode(range(0, 4)), data.encode(range(4, 8))]
        study = VulnerabilityStudy(factory, batches, precision="float32",
                                   rng=np.random.default_rng(2))
        results = study.run(matrices=("Q",), error_types=("inf",), trials=2)
        assert results[0].probability >= 0.5
