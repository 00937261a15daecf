"""Unit tests for workload accounting and report rendering."""

import pytest

from repro.analysis import (
    attention_workload,
    format_percent,
    format_table,
    gemm_ratio_table,
)
from repro.models import get_config


class TestWorkload:
    def test_table3_ratios_above_99_percent(self):
        table = gemm_ratio_table()
        assert set(table) == {"bert-base", "gpt2", "gpt-neo", "roberta"}
        for breakdown in table.values():
            assert breakdown.gemm_ratio > 0.99

    def test_breakdown_totals(self):
        breakdown = attention_workload(get_config("bert-base", size="paper"), batch_size=8)
        assert breakdown.total_flops == breakdown.gemm_flops + breakdown.other_flops
        assert breakdown.gemm_flops > breakdown.other_flops

    def test_ratio_stable_across_batch_sizes(self):
        config = get_config("gpt2", size="paper")
        r8 = attention_workload(config, batch_size=8).gemm_ratio
        r32 = attention_workload(config, batch_size=32).gemm_ratio
        assert r8 == pytest.approx(r32, rel=1e-6)

    def test_custom_model_list(self):
        table = gemm_ratio_table(model_names=("bert-small",))
        assert list(table) == ["bert-small"]


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.07) == "7.0%"
        assert format_percent(0.1234, digits=2) == "12.34%"
        assert format_percent(float("nan")) == "n/a"

    def test_format_table_alignment_and_content(self):
        text = format_table(["model", "overhead"], [["bert", 0.07], ["gpt2", 0.09]], title="Fig")
        lines = text.splitlines()
        assert lines[0] == "Fig"
        assert "model" in lines[1] and "overhead" in lines[1]
        assert "bert" in text and "gpt2" in text

    def test_format_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_floats_keep_four_significant_digits(self):
        text = format_table(["x", "y", "z"], [[0.123456, 123456.0, 7]])
        assert text.splitlines()[2].split() == ["0.1235", "1.235e+05", "7"]

    def test_format_table_without_title_starts_with_the_header(self):
        lines = format_table(["model", "ratio"], [["bert", 0.5]]).splitlines()
        assert len(lines) == 3
        assert lines[0].split() == ["model", "ratio"]
        assert set(lines[1].replace(" ", "")) == {"-"}

    def test_format_table_pads_columns_to_the_widest_cell(self):
        lines = format_table(["m", "v"], [["gpt-neo", 1], ["x", 22]]).splitlines()
        assert lines[1] == "-" * len("gpt-neo") + "  " + "-" * 2
        # The second column starts at the same offset on every other line.
        offsets = {line.rstrip().rindex(" ") + 1 for line in lines[:1] + lines[2:]}
        assert offsets == {len("gpt-neo") + 2}
