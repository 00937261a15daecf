"""Figure 8: ATTNChecker overhead with and without GPU optimisation (batch 16).

The paper compares ATTNChecker against a non-optimised ABFT variant (cuBLAS
encoding, non-fused checksum updates, separate detection kernels) and reports
that the GPU optimisations reduce ABFT overhead by up to 8.6x on the attention
block and 6.0x on the training step.  The harness reproduces both bars from
the kernel cost models and asserts the optimisation gap.
"""

from benchmarks.conftest import MAIN_MODELS
from repro.analysis import format_percent, format_table
from repro.models import get_config
from repro.perfmodel import TrainingStepCostModel

#: Figure 8 values (attention overhead, batch 16): optimised / non-optimised.
PAPER_ATTENTION = {"bert-base": (0.07, 0.62), "gpt2": (0.13, 0.63), "gpt-neo": (0.11, 0.93), "roberta": (0.12, 0.82)}
#: Figure 8 values (per-step overhead, batch 16): optimised / non-optimised.
PAPER_STEP = {"bert-base": (0.04, 0.25), "gpt2": (0.06, 0.23), "gpt-neo": (0.09, 0.40), "roberta": (0.09, 0.34)}


def compute_overheads(batch_size: int = 16):
    table = {}
    for name in MAIN_MODELS:
        cost = TrainingStepCostModel(get_config(name, size="paper"), batch_size=batch_size)
        table[name] = {
            "attention_opt": cost.attention_overhead(optimized=True),
            "attention_non_opt": cost.attention_overhead(optimized=False),
            "step_opt": cost.step_overhead(optimized=True),
            "step_non_opt": cost.step_overhead(optimized=False),
        }
    return table


def test_fig8_gpu_optimisation_gap(benchmark, report):
    table = benchmark(compute_overheads)

    rows = []
    for name in MAIN_MODELS:
        entry = table[name]
        rows.append([
            name,
            format_percent(entry["attention_opt"]),
            format_percent(entry["attention_non_opt"]),
            f"{entry['attention_non_opt'] / entry['attention_opt']:.1f}x",
            format_percent(entry["step_opt"]),
            format_percent(entry["step_non_opt"]),
            f"{entry['step_non_opt'] / entry['step_opt']:.1f}x",
        ])
    report(format_table(
        ["model", "attn OPT", "attn Non-OPT", "gap", "step OPT", "step Non-OPT", "gap"],
        rows,
        title="Figure 8 — ABFT overhead with / without GPU optimisation, batch 16 (modelled A100)\n"
              f"paper: attn OPT 7-13% / Non-OPT 62-93%; step OPT 4-9% / Non-OPT 23-40%",
    ))
    benchmark.extra_info["figure8"] = table

    for name in MAIN_MODELS:
        entry = table[name]
        attention_gap = entry["attention_non_opt"] / entry["attention_opt"]
        step_gap = entry["step_non_opt"] / entry["step_opt"]
        # The optimisations must buy several-fold reductions, as in the paper
        # (up to 8.6x attention, 6.0x step).
        assert attention_gap > 3.0
        assert step_gap > 3.0
        # Optimised overhead stays in the single-digit / low-tens percent range.
        assert entry["attention_opt"] < 0.25
        assert entry["step_opt"] < 0.12
        # Non-optimised overhead is of the same order as the paper's bars.
        assert 0.15 < entry["attention_non_opt"] < 1.2
