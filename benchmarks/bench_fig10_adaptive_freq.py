"""Figure 10: training overhead with optimised ABFT detection frequencies.

The system soft-error rate is swept over the paper's 13-20 errors per 1e25
FLOPs (from the Llama-3 field report), the greedy optimiser of Algorithm 1
chooses per-section detection frequencies against a fault-coverage target of
one uncovered failure per 1e11 protected executions, and the resulting
per-step training overhead is reported.  The paper's trend: ~0 % at the lowest
rates, rising to ~3.6 % at 20 — always well below the non-adaptive 7 %.

Calibration note (documented in EXPERIMENTS.md): the protected FLOPs per
"execution" aggregate all layers, forward + backward, and the gradient-
accumulation micro-steps of one optimizer step; this places the onset of
non-zero frequencies inside the paper's 13-20 window.
"""

from repro.analysis import format_percent, format_table
from repro.core import ErrorRates, OperationVulnerability, optimize_abft_frequencies
from repro.models import get_config
from repro.perfmodel import TrainingStepCostModel

ERROR_RATES = [13, 14, 15, 16, 17, 18, 19, 20]
TARGET_COVERAGE = 1 - 1e-11
FLOPS_MULTIPLIER = 12 * 3 * 8  # layers x (fwd+bwd) x grad-accumulation micro-steps


def run_sweep(batch_size: int = 16):
    config = get_config("bert-base", size="paper")
    vulnerability = OperationVulnerability.from_table4("bert-base")
    step_model = TrainingStepCostModel(config, batch_size=batch_size)
    always_on = step_model.step_overhead(optimized=True)

    points = []
    for rate in ERROR_RATES:
        plan = optimize_abft_frequencies(
            config,
            batch_size=batch_size,
            error_rates=ErrorRates.from_errors_per_1e25_flops(rate),
            vulnerability=vulnerability,
            target_coverage=TARGET_COVERAGE,
            flops_multiplier=FLOPS_MULTIPLIER,
        )
        points.append({
            "rate": rate,
            "frequencies": dict(plan.frequencies),
            "relative": plan.relative_overhead,
            "step_overhead": always_on * plan.relative_overhead,
            "meets_target": plan.meets_target,
        })
    return always_on, points


def test_fig10_adaptive_detection_frequencies(benchmark, report):
    always_on, points = benchmark(run_sweep)

    rows = [
        [p["rate"],
         f"{p['frequencies']['AS']:.2f}", f"{p['frequencies']['CL']:.2f}", f"{p['frequencies']['O']:.2f}",
         format_percent(p["step_overhead"], digits=2),
         "yes" if p["meets_target"] else "no"]
        for p in points
    ]
    report(format_table(
        ["errors / 1e25 flops", "f_AS", "f_CL", "f_O", "per-step overhead", "meets FC target"],
        rows,
        title="Figure 10 — adaptive ABFT detection frequencies "
              f"(non-adaptive per-step overhead: {format_percent(always_on)})",
    ))
    benchmark.extra_info["figure10"] = points

    overheads = [p["step_overhead"] for p in points]
    # Every plan meets the fault-coverage target.
    assert all(p["meets_target"] for p in points)
    # The lowest error rates need no ABFT at all.
    assert overheads[0] == 0.0
    # Overhead is non-decreasing in the error rate and becomes non-zero within
    # the sweep (the onset the figure shows).
    assert overheads == sorted(overheads)
    assert overheads[-1] > 0.0
    # Adaptive overhead always stays below the non-adaptive (always-on) cost.
    assert all(o <= always_on + 1e-12 for o in overheads)
