#!/usr/bin/env python3
"""Adaptive ABFT detection frequencies (Section 4.5 / Figure 10).

Sweeps the system soft-error rate, runs the greedy frequency optimiser
(Algorithm 1) against the Table-4 vulnerability profile of BERT, and prints
the chosen per-section frequencies and the resulting training overhead —
reproducing the trend of Figure 10: no ABFT cost when the system is reliable
enough, gradually increasing (but still far below always-on) as the error
rate grows.

Run with:  python examples/adaptive_frequency_tuning.py
"""

from repro import ErrorRates, OperationVulnerability, optimize_abft_frequencies
from repro.analysis import format_percent, format_table
from repro.models import get_config
from repro.perfmodel import TrainingStepCostModel

#: Error-rate sweep: the paper uses 13..20 errors per 1e25 FLOPs from the
#: Llama-3 field report; we extend the sweep to show the full ramp.
ERROR_RATES = [13, 14, 15, 16, 17, 18, 19, 20, 40, 80, 160]
#: Target: at most one uncovered failure per 1e11 protected executions.
TARGET_COVERAGE = 1 - 1e-11
#: Aggregate attention executions protected per step: layers x (fwd+bwd)
#: x gradient-accumulation micro-steps (documented calibration).
FLOPS_MULTIPLIER = 12 * 3 * 8


def main():
    config = get_config("bert-base", size="paper")
    vulnerability = OperationVulnerability.from_table4("bert-base")
    step_model = TrainingStepCostModel(config, batch_size=16)
    always_on = step_model.step_overhead(optimized=True)

    rows = []
    for rate in ERROR_RATES:
        plan = optimize_abft_frequencies(
            config,
            batch_size=16,
            error_rates=ErrorRates.from_errors_per_1e25_flops(rate),
            vulnerability=vulnerability,
            target_coverage=TARGET_COVERAGE,
            flops_multiplier=FLOPS_MULTIPLIER,
        )
        step_overhead = always_on * plan.relative_overhead
        rows.append([
            rate,
            f"{plan.frequencies['AS']:.2f}",
            f"{plan.frequencies['CL']:.2f}",
            f"{plan.frequencies['O']:.2f}",
            format_percent(plan.relative_overhead),
            format_percent(step_overhead, digits=2),
            "yes" if plan.meets_target else "no",
        ])

    print(format_table(
        ["errors / 1e25 flops", "f_AS", "f_CL", "f_O", "ABFT time vs always-on", "per-step overhead", "meets target"],
        rows,
        title="Adaptive detection frequencies (Figure 10 layout); "
              f"non-adaptive per-step overhead = {format_percent(always_on)}",
    ))


if __name__ == "__main__":
    main()
