"""Command-line interface for running the reproduction experiments.

The benchmark harness (``pytest benchmarks/ --benchmark-only``) is the
canonical way to regenerate every table and figure, but a plain CLI is handy
for quick looks and for users who do not want pytest in the loop::

    python -m repro list                 # available experiments
    python -m repro table3               # GEMM workload ratios
    python -m repro fig7  --batch-size 8
    python -m repro fig10 --rates 13 16 20
    python -m repro quickstart           # inject + correct one fault
    python -m repro train_parallel --workers 4 --shards 4


Each experiment prints the same plain-text table the corresponding benchmark
prints.  The process exits 0, or 1 when an experiment's own verdict fails:
``quickstart`` left the fault unrepaired, ``backends`` diverged, ``sec52``
did not correct every fault, or ``serve`` / ``train_parallel`` did not
reproduce their unprotected / one-worker reference.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import format_percent, format_table, gemm_ratio_table
from repro.core import (
    CHECKER_BACKENDS,
    PROTECT_SCOPES,
    ATTNChecker,
    ATTNCheckerConfig,
    ErrorRates,
    OperationVulnerability,
    optimize_abft_frequencies,
)
from repro.data import SyntheticMRPC
from repro.faults import DOWNSTREAM_ORDER, FaultHarness, FaultSpec, all_corrected
from repro.models import build_model, get_config
from repro.perfmodel import (
    EncoderThroughputModel,
    MultiGPUScaleModel,
    RecoveryCostModel,
    TrainingStepCostModel,
)

__all__ = ["main", "EXPERIMENTS"]

MAIN_MODELS = ["bert-base", "gpt2", "gpt-neo", "roberta"]
OVERHEAD_MODELS = ["bert-small", "bert-base", "bert-large", "gpt2", "gpt-neo", "roberta"]
#: Fault sites and error classes of the Section-5.2 campaign.
SEC52_MATRICES = ("Q", "K", "V", "AS", "CL", "O")
EXTREME_ERRORS = ("inf", "nan", "near_inf")


# ---------------------------------------------------------------------------
# Experiment implementations (each returns the printed text and its verdict)
# ---------------------------------------------------------------------------

def _tiny_model_and_batch(model_name: str, batch: int = 8, seed: int = 0):
    model = build_model(model_name, size="tiny", rng=np.random.default_rng(seed))
    data = SyntheticMRPC(
        num_examples=max(16, 2 * batch),
        max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
    )
    encoded = dict(data.encode(range(batch)))
    encoded["attention_mask"] = np.ones_like(encoded["attention_mask"])
    return model, encoded


def run_quickstart(args: argparse.Namespace) -> Tuple[str, bool]:
    """Inject one fault into a protected forward pass.

    The verdict fails when nothing was injected, an extreme value survived
    or the logits were not restored to the fault-free ones.
    """
    model, batch = _tiny_model_and_batch(args.model)
    harness = FaultHarness(model, batch, "protected", checker_config=ATTNCheckerConfig(
        backend=args.backend, protect_scope=args.protect_scope,
    ))
    trial = harness.trial(
        FaultSpec(matrix=args.matrix, error_type=args.error_type),
        np.random.default_rng(args.seed),
    )
    stats = trial.checker.stats
    lines = [
        f"backend              : {trial.checker.backend}",
        f"fault-free loss      : {harness.reference.loss_value:.6f}",
        f"protected faulty loss: {trial.loss:.6f}",
        f"detections           : {stats.total_detections}",
        f"corrections          : {stats.total_corrections}",
        f"residual extremes    : {stats.total_residual_extreme}",
    ]
    ok = trial.injection is not None and stats.total_residual_extreme == 0 and trial.matches
    return "\n".join(lines), ok


def run_backends(args: argparse.Namespace) -> Tuple[str, bool]:
    """Compare the fused ProtectionEngine against the per-GEMM reference.

    Runs the same single-fault forward pass under both backends (same seeds)
    for every (matrix, error type) combination and reports whether detection /
    correction decisions and the protected output are byte-identical, plus the
    ABFT wall-clock each backend spent.
    """
    combos = [(m, e) for m in SEC52_MATRICES for e in EXTREME_ERRORS]
    outcomes = {}
    for backend in CHECKER_BACKENDS:
        model, batch = _tiny_model_and_batch(args.model, seed=args.seed)
        harness = FaultHarness(
            model, batch, "protected", checker_config=ATTNCheckerConfig(backend=backend)
        )
        cells = harness.cells(
            combos, trials=1, rng=lambda cell, trial: np.random.default_rng(args.seed)
        )
        outcomes[backend] = [cell.outcomes[0] for cell in cells]

    def decisions(trial):
        return {
            name: (s.detections, s.corrections, s.aborted_vectors, s.operand_repairs)
            for name, s in trial.checker.stats.sections.items()
        }

    rows = []
    all_identical = True
    for (matrix, error_type), fused, reference in zip(combos, outcomes["fused"], outcomes["per_gemm"]):
        identical = (
            np.array_equal(fused.logits, reference.logits, equal_nan=True)
            and decisions(fused) == decisions(reference)
        )
        all_identical &= identical
        rows.append([
            matrix, error_type,
            fused.checker.stats.total_detections,
            fused.checker.stats.total_corrections,
            "yes" if identical else "NO",
        ])
    abft_seconds = {
        name: sum(t.checker.overhead_seconds() for t in outcomes[name]) for name in CHECKER_BACKENDS
    }
    footer = (
        f"backends byte-identical on all {len(combos)} scenarios; "
        if all_identical else "BACKENDS DIVERGED; "
    ) + (
        f"ABFT time fused {abft_seconds['fused'] * 1e3:.1f} ms vs "
        f"per-GEMM {abft_seconds['per_gemm'] * 1e3:.1f} ms"
    )
    return format_table(
        ["matrix", "error", "detections", "corrections", "identical"], rows,
        title=f"Backend equivalence — fused engine vs per-GEMM reference ({args.model}); {footer}",
    ), all_identical


def run_train(args: argparse.Namespace) -> Tuple[str, bool]:
    """A short protected fine-tuning run: attaches the checker and trains for
    ``--steps`` optimisation steps on synthetic MRPC."""
    model, batch = _tiny_model_and_batch(args.model, batch=args.batch_size, seed=args.seed)
    from repro.training import Trainer, TrainerConfig

    checker = ATTNChecker(ATTNCheckerConfig(
        backend=args.backend, protect_scope=args.protect_scope,
    ))
    trainer = Trainer(model, config=TrainerConfig(learning_rate=5e-4), checker=checker)
    rows = []
    for _ in range(args.steps):
        result = trainer.train_step(batch)
        rows.append([
            result.step, f"{result.loss:.6f}", f"{result.step_seconds * 1e3:.1f}",
            f"{result.abft_seconds * 1e3:.2f}", result.detections, result.corrections,
        ])
    return format_table(
        ["step", "loss", "step ms", "abft ms", "det", "corr"], rows,
        title=f"Protected training — {args.model} (tiny)",
    ), True


def run_train_parallel(args: argparse.Namespace) -> Tuple[str, bool]:
    """Data-parallel protected fine-tuning with the checksummed all-reduce.

    Shards each global batch over ``--shards`` model replicas driven by
    ``--workers`` workers (one runs every rank on the calling thread, more run
    them on a thread pool), synchronises gradients through the
    checksum-protected collective, then repeats the run with a single worker
    on the same shard count and compares the trained weights byte-for-byte.
    The footer states the equivalence verdict and the collective dispatch
    counters — the CI smoke job greps for ``byte-identical to 1-worker
    reference``.
    """
    from repro.training import DataParallelConfig, DataParallelTrainer, ReplicaSpec

    shards = args.shards if args.shards else max(args.workers, 1)
    global_batch = ((args.batch_size + shards - 1) // shards) * shards
    spec = ReplicaSpec(name=args.model, size="tiny", seed=args.seed, num_labels=2)
    probe = spec.build()
    data = SyntheticMRPC(
        num_examples=max(16, args.steps * global_batch),
        max_seq_len=probe.config.max_seq_len,
        vocab_size=probe.config.vocab_size,
    )
    batches = []
    for i in range(args.steps):
        batch = dict(data.encode(range(i * global_batch, (i + 1) * global_batch)))
        batch["attention_mask"] = np.ones_like(batch["attention_mask"])
        batches.append(batch)

    def run(workers: int, overlap: Optional[bool] = None):
        config = DataParallelConfig(
            workers=workers,
            shards=shards,
            overlap_grad_reduce=args.overlap if overlap is None else overlap,
            bucket_cap_mb=args.bucket_cap_mb,
        )
        trainer = DataParallelTrainer(model_spec=spec, config=config)
        try:
            results = [trainer.train_step(batch) for batch in batches]
            state = trainer.state_dict()
            return results, state, trainer.timers.as_dict(), trainer.collective_counters()
        finally:
            trainer.close()

    results, state, timers, counters = run(args.workers)
    # The reference is always one worker launching every bucket after
    # backward, so with --overlap the comparison doubles as the
    # launch-timing identity (in-backward vs after-backward).
    reference_state = (
        run(1, overlap=False)[1]
        if args.workers > 1 or args.overlap
        else state
    )
    identical = set(state) == set(reference_state) and all(
        np.array_equal(np.asarray(state[k]), np.asarray(reference_state[k]))
        for k in state
    )
    rows = [
        [r.step, f"{r.loss:.6f}", f"{r.step_seconds * 1e3:.1f}",
         r.dirty_reductions, r.reduction_reexecutions, r.detections, r.corrections]
        for r in results
    ]
    footer = (
        ("weights byte-identical to 1-worker reference" if identical
         else "WEIGHTS DIVERGED FROM 1-WORKER REFERENCE")
        + f"; {counters['checksum_encodes']} checksum encodes, "
        f"{counters['checksum_verifies']} verifies, "
        f"{counters['mismatches']} mismatches; "
        f"all-reduce {timers.get('comm/allreduce', 0.0) * 1e3:.1f} ms, "
        f"verify {timers.get('comm/verify', 0.0) * 1e3:.1f} ms"
    )
    return format_table(
        ["step", "mean loss", "step ms", "dirty", "retries", "det", "corr"], rows,
        title=f"Data-parallel protected training — {args.model} (tiny), "
              f"{args.workers} workers, {shards} shards; {footer}",
    ), identical


def run_serve(args: argparse.Namespace) -> Tuple[str, bool]:
    """Protected inference serving on a tiny causal decoder.

    Generates a deterministic request stream, serves it twice — protection
    off, then protection on (fused engine, sections always on as the
    incremental decode checksums require) — and reports per-configuration
    p50/p99 latency, tokens/sec, and the checker's detection counters.  The
    two runs see identical traffic; fault-free they produce byte-identical
    tokens (asserted in the footer).
    """
    from repro.serving import RequestGenerator, ServingConfig, ServingEngine

    model_name = args.model if get_config(args.model).causal else "gpt2"
    reports = {}
    token_streams = {}
    for protected in (False, True):
        model = build_model(model_name, size="tiny", rng=np.random.default_rng(args.seed))
        checker = None
        if protected:
            checker = ATTNChecker(ATTNCheckerConfig(
                backend=args.backend, protect_scope=args.protect_scope,
            ))
            model.set_attention_hooks(checker)
        requests = RequestGenerator(
            vocab_size=model.config.vocab_size,
            prompt_len_range=(3, 6),
            new_tokens_range=(2, 5),
            seed=args.seed,
        ).generate(args.requests)
        engine = ServingEngine(
            model, checker=checker,
            config=ServingConfig(max_batch_size=args.batch_size),
        )
        report = engine.run(requests)
        reports[protected] = report
        token_streams[protected] = [r.tokens for r in report.results]
    identical = token_streams[False] == token_streams[True]
    rows = []
    for protected, report in reports.items():
        data = report.to_dict()
        rows.append([
            "on" if protected else "off",
            data["num_completed"], data["num_evicted"], data["total_new_tokens"],
            f"{data['latency_p50_ms']:.2f}", f"{data['latency_p99_ms']:.2f}",
            f"{data['tokens_per_second']:.0f}",
            data["checker_stats"].get("detections", 0),
        ])
    footer = (
        "fault-free protected tokens byte-identical to unprotected"
        if identical else "PROTECTED TOKENS DIVERGED FROM UNPROTECTED"
    )
    return format_table(
        ["protection", "completed", "evicted", "new tokens",
         "p50 ms", "p99 ms", "tok/s", "detections"],
        rows,
        title=f"Protected serving — {model_name} (tiny), "
              f"{args.requests} requests, batch {args.batch_size}; {footer}",
    ), identical


def run_table2(args: argparse.Namespace) -> Tuple[str, bool]:
    model, batch = _tiny_model_and_batch(args.model, batch=4)
    cells = FaultHarness(model, batch, "recorded").cells(
        [(m, e) for e in EXTREME_ERRORS for m in ("Q", "K", "V", "AS", "CL")],
        trials=1, rng=np.random.default_rng(args.seed),
    )
    rows = [
        [cell.error_type, cell.matrix] + [cell.outcomes[0].cell(m) for m in DOWNSTREAM_ORDER]
        for cell in cells
    ]
    return format_table(
        ["inject", "into", *DOWNSTREAM_ORDER], rows,
        title=f"Table 2 — error propagation ({args.model}, tiny config)",
    ), True


def run_table3(args: argparse.Namespace) -> Tuple[str, bool]:
    table = gemm_ratio_table(model_names=MAIN_MODELS, batch_size=args.batch_size, size="paper")
    rows = [[name, format_percent(table[name].gemm_ratio)] for name in MAIN_MODELS]
    return format_table(["model", "GEMM ratio"], rows, title="Table 3 — GEMM workload ratio of attention"), True


def run_sec52(args: argparse.Namespace) -> Tuple[str, bool]:
    model, batch = _tiny_model_and_batch(args.model, batch=4)
    results = FaultHarness(model, batch, "protected").cells(
        [(m, e) for m in SEC52_MATRICES for e in EXTREME_ERRORS],
        trials=args.trials, rng=np.random.default_rng(args.seed),
    )
    rows = [
        [r.matrix, r.error_type, format_percent(r.detection_rate),
         format_percent(r.correction_rate), format_percent(r.recovery_rate)]
        for r in results
    ]
    ok = all_corrected(results)
    footer = "ALL extreme errors corrected" if ok else "NOT all corrected"
    return format_table(
        ["matrix", "error", "detected", "corrected", "restored"], rows,
        title=f"Section 5.2 — detection & correction ({args.model}); {footer}",
    ), ok


def run_fig7(args: argparse.Namespace) -> Tuple[str, bool]:
    rows = []
    for name in OVERHEAD_MODELS:
        cost = TrainingStepCostModel(get_config(name, size="paper"), batch_size=args.batch_size)
        rows.append([name, format_percent(cost.attention_overhead()), format_percent(cost.step_overhead())])
    return format_table(
        ["model", "attention overhead", "per-step overhead"], rows,
        title=f"Figure 7 — ATTNChecker overhead (modelled A100, batch {args.batch_size})",
    ), True


def run_fig8(args: argparse.Namespace) -> Tuple[str, bool]:
    rows = []
    for name in MAIN_MODELS:
        cost = TrainingStepCostModel(get_config(name, size="paper"), batch_size=args.batch_size)
        rows.append([
            name,
            format_percent(cost.attention_overhead(optimized=True)),
            format_percent(cost.attention_overhead(optimized=False)),
            format_percent(cost.step_overhead(optimized=True)),
            format_percent(cost.step_overhead(optimized=False)),
        ])
    return format_table(
        ["model", "attn OPT", "attn Non-OPT", "step OPT", "step Non-OPT"], rows,
        title=f"Figure 8 — overhead with / without GPU optimisation (batch {args.batch_size})",
    ), True


def run_fig9(args: argparse.Namespace) -> Tuple[str, bool]:
    sweep = EncoderThroughputModel()
    custom, cublas = sweep.model_custom(), sweep.model_cublas()
    rows = [
        [c.batch_size, f"{c.throughput_tbps:.2f}", f"{b.throughput_tbps:.3f}"]
        for c, b in zip(custom, cublas)
    ]
    return format_table(
        ["batch", "ATTNChecker (TB/s)", "cuBLAS (TB/s)"], rows,
        title="Figure 9 — checksum-encoding throughput (modelled A100)",
    ), True


def run_fig10(args: argparse.Namespace) -> Tuple[str, bool]:
    config = get_config("bert-base", size="paper")
    vulnerability = OperationVulnerability.from_table4("bert-base")
    rows = []
    for rate in args.rates:
        plan = optimize_abft_frequencies(
            config, batch_size=16, error_rates=ErrorRates.from_errors_per_1e25_flops(rate),
            vulnerability=vulnerability, target_coverage=1 - 1e-11,
            flops_multiplier=12 * 3 * 8,
        )
        rows.append([
            rate, f"{plan.frequencies['AS']:.2f}", f"{plan.frequencies['CL']:.2f}",
            f"{plan.frequencies['O']:.2f}", format_percent(plan.relative_overhead),
        ])
    return format_table(
        ["errors/1e25 flops", "f_AS", "f_CL", "f_O", "ABFT time vs always-on"], rows,
        title="Figure 10 — adaptive ABFT detection frequencies",
    ), True


def run_fig11(args: argparse.Namespace) -> Tuple[str, bool]:
    rows = []
    for name in MAIN_MODELS:
        comparison = RecoveryCostModel(get_config(name, size="paper"), batch_size=args.batch_size).compare()
        rows.append([
            name, format_percent(comparison.checkpoint_restore_overhead, digits=0),
            format_percent(comparison.attnchecker_overhead), f"{comparison.improvement:.0f}x",
        ])
    return format_table(
        ["model", "checkpoint/restore", "ATTNChecker", "reduction"], rows,
        title="Figure 11 — per-step recovery overhead (modelled A100)",
    ), True


def run_fig12(args: argparse.Namespace) -> Tuple[str, bool]:
    rows = [
        [p.model_name, f"{p.parameters / 1e9:.0f}B", f"{p.step_seconds:.2f}",
         format_percent(p.abft_overhead, digits=2)]
        for p in MultiGPUScaleModel(num_gpus=args.gpus).sweep()
    ]
    return format_table(
        ["model", "params", "step (s)", "ATTNChecker overhead"], rows,
        title=f"Figure 12 — data-parallel training on {args.gpus} GPUs (modelled)",
    ), True


#: Registry of experiments exposed by the CLI.
EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], Tuple[str, bool]]] = {
    "quickstart": run_quickstart,
    "train": run_train,
    "train_parallel": run_train_parallel,
    "serve": run_serve,
    "backends": run_backends,
    "table2": run_table2,
    "table3": run_table3,
    "sec52": run_sec52,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ATTNChecker reproduction — run individual experiments from the command line.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["list"],
                        help="experiment to run, or 'list' to enumerate them")
    parser.add_argument("--model", default="bert-base", help="model name for the measured experiments")
    parser.add_argument("--matrix", default="AS", help="fault-injection matrix for quickstart")
    parser.add_argument("--error-type", default="inf", choices=["inf", "nan", "near_inf", "numeric"])
    parser.add_argument("--backend", default="fused", choices=list(CHECKER_BACKENDS),
                        help="ATTNChecker mechanics backend: fused ProtectionEngine "
                             "(default) or the per-GEMM reference implementation")
    parser.add_argument("--protect-scope", default="attention", choices=list(PROTECT_SCOPES),
                        help="protected-section scope: 'attention' (default, the "
                             "paper's three sections) or 'attention+ffn' (adds the "
                             "FF1/FF2 feed-forward sections)")
    parser.add_argument("--steps", type=int, default=4,
                        help="optimisation steps for the train experiments")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count for the train_parallel experiment: "
                             "1 runs every rank on the calling thread, more "
                             "run them on a thread pool")
    parser.add_argument("--shards", type=int, default=None,
                        help="data-parallel shard (replica) count for "
                             "train_parallel; defaults to --workers")
    parser.add_argument("--overlap", action="store_true",
                        help="launch train_parallel's gradient-bucket "
                             "reductions from inside backward instead of "
                             "after it (byte-identical)")
    parser.add_argument("--bucket-cap-mb", type=float, default=1.0,
                        dest="bucket_cap_mb",
                        help="soft per-bucket size cap in MiB for train_parallel")
    parser.add_argument("--trials", type=int, default=2, help="trials per cell for campaign experiments")
    parser.add_argument("--requests", type=int, default=8,
                        help="request count for the serve experiment")
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--gpus", type=int, default=1024, help="GPU count for fig12")
    parser.add_argument("--rates", type=float, nargs="+", default=[13, 14, 15, 16, 17, 18, 19, 20],
                        help="error rates (per 1e25 flops) for fig10")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print("available experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        return 0
    text, ok = EXPERIMENTS[args.experiment](args)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
