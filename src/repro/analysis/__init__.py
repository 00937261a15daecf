"""Analysis and reporting helpers.

``workload``
    FLOP accounting of the attention mechanism — the GEMM workload ratios of
    Table 3.
``reporting``
    Plain-text table / CSV rendering used by every benchmark harness so the
    bench output prints the same rows and series the paper reports.
"""

from repro.analysis.workload import WorkloadBreakdown, attention_workload, gemm_ratio_table
from repro.analysis.reporting import format_table, format_percent

__all__ = [
    "WorkloadBreakdown",
    "attention_workload",
    "gemm_ratio_table",
    "format_table",
    "format_percent",
]
