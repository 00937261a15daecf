"""Table 3: GEMM workload ratio of the attention mechanism.

The paper reports that matrix multiplications account for 99.3-99.7 % of the
attention mechanism's FLOPs across the four evaluated LLMs.  The harness
derives the same ratios from FLOP accounting on the published dimensions.
"""

from benchmarks.conftest import MAIN_MODELS
from repro.analysis import format_percent, format_table, gemm_ratio_table


def compute_ratios(batch_size: int = 8):
    return gemm_ratio_table(model_names=MAIN_MODELS, batch_size=batch_size, size="paper")


def test_table3_gemm_workload_ratio(benchmark, report):
    table = benchmark(compute_ratios)

    paper_values = {"bert-base": 0.997, "gpt2": 0.995, "gpt-neo": 0.993, "roberta": 0.997}
    rows = [
        [name, format_percent(table[name].gemm_ratio), format_percent(paper_values[name])]
        for name in MAIN_MODELS
    ]
    report(format_table(
        ["model", "reproduced GEMM ratio", "paper"], rows,
        title="Table 3 — GEMM workload ratio of attention (batch 8, published dims)",
    ))
    benchmark.extra_info["table3"] = {name: table[name].gemm_ratio for name in MAIN_MODELS}

    for name in MAIN_MODELS:
        assert table[name].gemm_ratio > 0.99
        assert abs(table[name].gemm_ratio - paper_values[name]) < 0.01
