"""Unit tests for the adaptive ABFT detection-frequency optimiser (Section 4.5)."""

import pytest

from repro.core.adaptive import (
    ERROR_TYPES,
    AdaptiveFrequencyOptimizer,
    ErrorRates,
    OperationVulnerability,
    SectionReliabilityModel,
    TABLE4_VULNERABILITY,
    optimize_abft_frequencies,
)
from repro.core.sections import PROTECTION_SECTIONS
from repro.models import get_config


@pytest.fixture
def config():
    return get_config("bert-base", size="paper")


@pytest.fixture
def vulnerability():
    return OperationVulnerability.from_table4("bert-base")


def reliability(config, vulnerability, rate=1e-24, multiplier=36.0):
    return SectionReliabilityModel(
        config, batch_size=16, error_rates=ErrorRates.uniform(rate),
        vulnerability=vulnerability, flops_multiplier=multiplier,
    )


class TestErrorRates:
    def test_uniform(self):
        rates = ErrorRates.uniform(1e-20)
        assert rates.inf == rates.nan == rates.near_inf == 1e-20

    def test_from_figure10_units(self):
        rates = ErrorRates.from_errors_per_1e25_flops(13)
        assert rates.inf == pytest.approx(13e-25)

    def test_rate_lookup(self):
        rates = ErrorRates(inf=1.0, nan=2.0, near_inf=3.0)
        assert [rates.rate(e) for e in ERROR_TYPES] == [1.0, 2.0, 3.0]
        with pytest.raises(KeyError):
            rates.rate("bogus")


class TestVulnerability:
    def test_table4_contains_all_four_models(self):
        assert set(TABLE4_VULNERABILITY) == {"bert-base", "gpt2", "gpt-neo", "roberta"}

    def test_from_table4_maps_matrices_to_ops(self, vulnerability):
        assert vulnerability.get("xq", "inf") == 1.0
        assert vulnerability.get("qk", "near_inf") == pytest.approx(0.002)
        # The O matrix is not in Table 4; it falls back to the CL column.
        assert vulnerability.get("clo", "inf") == 1.0

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            OperationVulnerability.from_table4("t5")

    def test_from_measurements(self):
        vuln = OperationVulnerability(phi={"xq": {"inf": 0.5}})
        assert vuln.get("xq", "inf") == 0.5
        assert vuln.get("xq", "nan", default=0.9) == 0.9

    def test_near_inf_less_vulnerable_than_inf(self, vulnerability):
        for op in ("xq", "xk", "xv", "qk", "apv"):
            assert vulnerability.get(op, "near_inf") <= vulnerability.get(op, "inf")


class TestReliabilityModel:
    def test_poisson_probabilities_sum_sensibly(self, config, vulnerability):
        rel = reliability(config, vulnerability)
        p0 = rel.p_errors("xq", "inf", 0)
        p1 = rel.p_errors("xq", "inf", 1)
        assert 0 < p0 <= 1 and 0 <= p1 < 1
        assert p0 > p1  # rare-error regime

    def test_zero_rate_degenerate(self, config, vulnerability):
        rel = SectionReliabilityModel(
            config, 16, ErrorRates.uniform(0.0), vulnerability
        )
        assert rel.p_errors("xq", "inf", 0) == 1.0
        assert rel.p_errors("xq", "inf", 1) == 0.0
        assert rel.r_free("AS") == 1.0

    def test_r_free_decreases_with_rate(self, config, vulnerability):
        low = reliability(config, vulnerability, rate=1e-25)
        high = reliability(config, vulnerability, rate=1e-20)
        for name in PROTECTION_SECTIONS:
            assert high.r_free(name) < low.r_free(name)

    def test_r_single_requires_member_operation(self, config, vulnerability):
        rel = reliability(config, vulnerability)
        with pytest.raises(KeyError):
            rel.r_single("AS", "apv", "inf")

    def test_fault_coverage_monotone_in_frequency(self, config, vulnerability):
        rel = reliability(config, vulnerability, rate=1e-18)
        for name in PROTECTION_SECTIONS:
            fc0 = rel.fault_coverage(name, 0.0)
            fc_half = rel.fault_coverage(name, 0.5)
            fc1 = rel.fault_coverage(name, 1.0)
            assert fc0 <= fc_half <= fc1 <= 1.0 + 1e-12

    def test_full_frequency_coverage_close_to_one(self, config, vulnerability):
        rel = reliability(config, vulnerability, rate=1e-18)
        fc = rel.attention_fault_coverage({"AS": 1.0, "CL": 1.0, "O": 1.0})
        assert fc > 1.0 - 1e-6

    def test_invalid_frequency_rejected(self, config, vulnerability):
        rel = reliability(config, vulnerability)
        with pytest.raises(ValueError):
            rel.fault_coverage("AS", 1.5)

    def test_vulnerability_mass_positive_and_ordered(self, config, vulnerability):
        rel = reliability(config, vulnerability, rate=1e-20)
        masses = {name: rel.vulnerability_mass(name) for name in PROTECTION_SECTIONS}
        assert all(m > 0 for m in masses.values())
        # S_AS covers three GEMMs including the most vulnerable ones (Q, K).
        assert masses["AS"] > masses["O"]

    def test_fce_is_mass_per_time(self, config, vulnerability):
        rel = reliability(config, vulnerability, rate=1e-20)
        for name in PROTECTION_SECTIONS:
            expected = rel.vulnerability_mass(name) / rel.section_times[name]
            assert rel.fault_coverage_efficiency(name) == pytest.approx(expected)


class TestOptimizer:
    def test_low_error_rate_needs_no_abft(self, config, vulnerability):
        plan = optimize_abft_frequencies(
            config, 16, ErrorRates.from_errors_per_1e25_flops(1.0), vulnerability,
            target_coverage=1 - 1e-11, flops_multiplier=36.0,
        )
        assert all(f == 0.0 for f in plan.frequencies.values())
        assert plan.relative_overhead == 0.0
        assert plan.meets_target

    def test_high_error_rate_enables_full_abft(self, config, vulnerability):
        plan = optimize_abft_frequencies(
            config, 16, ErrorRates.uniform(1e-15), vulnerability,
            target_coverage=1 - 1e-11, flops_multiplier=36.0,
        )
        assert all(f == pytest.approx(1.0) for f in plan.frequencies.values())
        assert plan.relative_overhead == pytest.approx(1.0)

    def test_overhead_monotone_in_error_rate(self, config, vulnerability):
        overheads = []
        for rate in (50, 100, 200, 400, 800):
            plan = optimize_abft_frequencies(
                config, 16, ErrorRates.from_errors_per_1e25_flops(rate), vulnerability,
                target_coverage=1 - 1e-11, flops_multiplier=36.0,
            )
            overheads.append(plan.relative_overhead)
        assert overheads == sorted(overheads)
        assert overheads[-1] > 0

    def test_plan_meets_target_when_feasible(self, config, vulnerability):
        plan = optimize_abft_frequencies(
            config, 16, ErrorRates.from_errors_per_1e25_flops(500), vulnerability,
            target_coverage=1 - 1e-11, flops_multiplier=36.0,
        )
        assert plan.meets_target
        assert plan.achieved_coverage >= plan.target_coverage - 1e-15

    def test_greedy_prefers_most_efficient_section(self, config, vulnerability):
        rel = reliability(config, vulnerability, rate=3e-23)
        plan = AdaptiveFrequencyOptimizer(rel).optimize(1 - 1e-11)
        if any(0 < f < 1 for f in plan.frequencies.values()):
            order = sorted(
                PROTECTION_SECTIONS, key=rel.fault_coverage_efficiency, reverse=True
            )
            # Sections after the first fractional one must be disabled.
            seen_fractional = False
            for name in order:
                f = plan.frequencies[name]
                if seen_fractional:
                    assert f == 0.0
                if 0 < f < 1:
                    seen_fractional = True

    def test_invalid_target_rejected(self, config, vulnerability):
        rel = reliability(config, vulnerability)
        with pytest.raises(ValueError):
            AdaptiveFrequencyOptimizer(rel).optimize(0.0)

    def test_custom_section_times_change_allocation(self, config, vulnerability):
        rate = ErrorRates.from_errors_per_1e25_flops(300)
        cheap_o = optimize_abft_frequencies(
            config, 16, rate, vulnerability, target_coverage=1 - 1e-11,
            flops_multiplier=36.0, section_times={"AS": 1.0, "CL": 1.0, "O": 1e-6},
        )
        assert cheap_o.abft_time <= sum(cheap_o.section_times.values())
        assert cheap_o.meets_target
