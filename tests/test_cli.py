"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_is_accepted(self):
        args = build_parser().parse_args(["list"])
        assert args.experiment == "list"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.batch_size == 8 and args.model == "bert-base"

    def test_rate_list_parsed(self):
        args = build_parser().parse_args(["fig10", "--rates", "13", "20"])
        assert args.rates == [13, 20]

    def test_registry_covers_all_figures_and_tables(self):
        expected = {"quickstart", "train", "train_parallel", "serve", "backends",
                    "table2", "table3",
                    "sec52", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}
        assert expected == set(EXPERIMENTS)

    def test_backend_flag_parsed(self):
        args = build_parser().parse_args(["quickstart", "--backend", "per_gemm"])
        assert args.backend == "per_gemm"
        assert build_parser().parse_args(["quickstart"]).backend == "fused"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quickstart", "--backend", "cuda"])

    @pytest.mark.parametrize("argv", [
        ["train_parallel", "--workers", "2", "--executor", "process"],
        ["train", "--array-backend", "numpy"],
        ["quickstart", "--async"],
        ["verification_modes"],
    ], ids=["executor", "array-backend", "async", "verification_modes"])
    def test_removed_flags_exit_with_usage_error(self, argv):
        # --workers alone picks threads; models and the checker run on NumPy
        # and verify in-pass only.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    @pytest.mark.parametrize("experiment", ["table3", "fig7", "fig8", "fig9", "fig11", "fig12"])
    def test_analytical_experiments_run(self, capsys, experiment):
        assert main([experiment]) == 0
        out = capsys.readouterr().out
        assert "—" in out  # the table title
        assert len(out.splitlines()) > 3

    def test_fig10_with_custom_rates(self, capsys):
        assert main(["fig10", "--rates", "13", "200"]) == 0
        out = capsys.readouterr().out
        assert "f_AS" in out and "200" in out

    def test_quickstart_corrects_a_fault(self, capsys):
        assert main(["quickstart", "--matrix", "AS", "--error-type", "inf"]) == 0
        out = capsys.readouterr().out
        assert "corrections          : " in out
        corrections = int(out.split("corrections          : ")[1].splitlines()[0])
        assert corrections >= 1
        assert "residual extremes    : 0" in out

    def test_quickstart_escaped_fault_exits_nonzero(self, capsys):
        # An FFN fault under the attention-only scope escapes the checker:
        # the same report is printed, and the verdict reaches the exit code.
        assert main(["quickstart", "--protect-scope", "attention",
                     "--matrix", "H", "--error-type", "inf"]) == 1
        out = capsys.readouterr().out
        assert "protected faulty loss: nan" in out
        assert "residual extremes    : 0" not in out

    def test_failed_verdict_prints_the_report_and_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "sec52", lambda args: ("NOT all corrected", False))
        assert main(["sec52"]) == 1
        assert capsys.readouterr().out == "NOT all corrected\n"

    def test_quickstart_with_per_gemm_backend(self, capsys):
        assert main(["quickstart", "--backend", "per_gemm",
                     "--matrix", "AS", "--error-type", "inf"]) == 0
        out = capsys.readouterr().out
        assert "backend              : per_gemm" in out
        corrections = int(out.split("corrections          : ")[1].splitlines()[0])
        assert corrections >= 1

    def test_train_prints_one_row_per_step(self, capsys):
        assert main(["train", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "Protected training" in out
        assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 2

    def test_train_parallel_matches_one_worker_reference(self, capsys):
        assert main(["train_parallel", "--workers", "2", "--shards", "2",
                     "--steps", "1", "--batch-size", "4", "--overlap"]) == 0
        out = capsys.readouterr().out
        assert "2 workers, 2 shards" in out
        assert "weights byte-identical to 1-worker reference" in out

    @pytest.mark.parametrize("backend", ["fused", "per_gemm"])
    def test_serve_protected_tokens_match_unprotected(self, capsys, backend):
        assert main(["serve", "--backend", backend, "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "fault-free protected tokens byte-identical to unprotected" in out

    def test_backends_experiment_reports_equivalence(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical on all 18 scenarios" in out
        assert "NO" not in out.split("identical")[-1]

    def test_sec52_reports_full_coverage(self, capsys):
        assert main(["sec52", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "ALL extreme errors corrected" in out

    def test_table2_prints_propagation_rows(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "1R" in out and "1C" in out
