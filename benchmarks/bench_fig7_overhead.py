"""Figure 7: ATTNChecker overhead on six LLMs (batch size 8).

Two complementary reproductions:

* **Modelled A100** — the analytical roofline model prices the attention block
  and the whole training step with and without ABFT at the published model
  dimensions; the paper reports 7-16 % attention overhead and ~7 % per-step
  overhead on average.
* **Measured CPU** — the benchmark also times real protected vs. unprotected
  training steps of the tiny configurations on this host (the ATTNChecker
  NumPy implementation), as a sanity check that the implementation's overhead
  is of the same order.

The run additionally emits a machine-readable ``BENCH_fig7.json`` artifact
(path overridable via the ``BENCH_FIG7_JSON`` environment variable) with the
modelled overhead ratios plus the fused-vs-unfused kernel-schedule counters —
checksum GEMM dispatches and weight-cache hits — which the CI perf smoke
asserts on: fused dispatches strictly below the unfused schedule's, and a
weight cache that serves the steady-state visits.  The unfused schedule is
measured on the per-GEMM reference backend, which runs the historical
one-GEMM-per-update sequence.
"""

import json
import os

import numpy as np

from benchmarks.conftest import OVERHEAD_MODELS, make_batch, make_model
from repro.analysis import format_percent, format_table
from repro.core import ATTNChecker, ATTNCheckerConfig, SectionCostModel
from repro.faults import FaultInjector, FaultSpec
from repro.models import get_config
from repro.nn import ComposedHooks
from repro.perfmodel import TrainingStepCostModel
from repro.training import Trainer, TrainerConfig

#: The pre-fusion baseline: the per-GEMM reference backend runs the
#: historical unfused kernel schedule.
UNFUSED_BASELINE = {"backend": "per_gemm"}

#: Attention-block overheads reported in Figure 7 (left panel).
PAPER_ATTENTION_OVERHEAD = {
    "bert-small": 0.09, "bert-base": 0.13, "bert-large": 0.16,
    "gpt2": 0.13, "gpt-neo": 0.09, "roberta": 0.07,
}
#: Per-step training overheads reported in Figure 7 (right panel).
PAPER_STEP_OVERHEAD = {
    "bert-small": 0.06, "bert-base": 0.07, "bert-large": 0.10,
    "gpt2": 0.07, "gpt-neo": 0.09, "roberta": 0.05,
}


def model_overheads(batch_size: int = 8):
    table = {}
    for name in OVERHEAD_MODELS:
        cost = TrainingStepCostModel(get_config(name, size="paper"), batch_size=batch_size)
        table[name] = {
            "attention_ms": cost.attention_step_time() * 1e3,
            "attention_overhead": cost.attention_overhead(),
            "step_ms": cost.step_time() * 1e3,
            "step_overhead": cost.step_overhead(),
        }
    return table


def measured_cpu_overhead(model_name: str = "bert-base", steps: int = 3, backend: str = "fused"):
    """Measured per-step overhead of the NumPy ATTNChecker on this host."""
    def run(checker):
        model = make_model(model_name)
        batch = make_batch(model, n=8)
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
        trainer.train_step(batch)  # warm-up
        times = [trainer.train_step(batch).step_seconds for _ in range(steps)]
        return float(np.median(times))

    baseline = run(None)
    protected = run(ATTNChecker(ATTNCheckerConfig(backend=backend)))
    return (protected - baseline) / baseline


def measured_abft_seconds(backend: str, model_name: str = "bert-base", steps: int = 8,
                          extra_config=None):
    """Best-case per-step ABFT wall-clock of one checker backend on this host.

    The min over several steps estimates the noise-free floor — the right
    statistic for comparing two implementations of the *same* checksum
    algebra, where the difference is fixed host-side dispatch work.
    ``extra_config`` merges additional :class:`ATTNCheckerConfig` kwargs.
    """
    model = make_model(model_name)
    batch = make_batch(model, n=8)
    checker = ATTNChecker(ATTNCheckerConfig(backend=backend, **(extra_config or {})))
    trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
    trainer.train_step(batch)  # warm-up
    return min(trainer.train_step(batch).abft_seconds for _ in range(steps))


def kernel_schedule_counters(model_name: str = "bert-base", steps: int = 4):
    """Dispatch and weight-cache counters of the fused vs the unfused schedule.

    Runs a fixed-weight protected forward loop (model.eval(); no optimizer
    steps, so the weight-encoding cache reaches true steady state after the
    warm-up pass) and reads each backend's own counters: the fused engine's,
    and the per-GEMM reference's for the unfused schedule (which has no
    weight cache).  Also returns the per-schedule outputs so the
    caller can assert the two schedules stayed byte-identical while the
    dispatch counts diverged.
    """
    results = {}
    for label, extra in (("fused", {}), ("unfused", UNFUSED_BASELINE)):
        model = make_model(model_name)
        model.eval()
        batch = make_batch(model, n=4, full_mask=True)
        checker = ATTNChecker(ATTNCheckerConfig(**extra))
        model.set_attention_hooks(checker)
        # Warm-up: fills the weight cache.
        model(batch["input_ids"], attention_mask=batch["attention_mask"])
        gemm_before = checker.dispatch_counts["gemm"]
        outputs = []
        for _ in range(steps):
            logits = model(
                batch["input_ids"], attention_mask=batch["attention_mask"]
            ).logits.data
            outputs.append(logits.copy())
        model.set_attention_hooks(None)
        results[label] = {
            "gemm_dispatches": checker.dispatch_counts["gemm"] - gemm_before,
            "weight_cache": checker.weight_cache_stats(),
            "outputs": outputs,
            "layer_visits": steps * model.config.num_layers,
        }
    return results


def steady_state_checker_seconds(extra_config=None, model_name: str = "bert-base",
                                 reps: int = 6):
    """Min-floor per-pass checker time of a fixed-weight protected forward.

    The steady-state regime the fused schedule targets: weights unchanged
    between passes, so the weight-encoding cache serves every visit.  (A
    training loop re-derives weight-side
    encodings every step by necessity — the optimizer changed the weights —
    so its floor reflects the dispatch fusion only.)
    """
    model = make_model(model_name)
    model.eval()
    batch = make_batch(model, n=8)
    checker = ATTNChecker(ATTNCheckerConfig(**(extra_config or {})))
    model.set_attention_hooks(checker)
    model(batch["input_ids"], attention_mask=batch["attention_mask"])  # warm-up
    per_pass = []
    for _ in range(reps):
        before = checker.overhead_seconds()
        model(batch["input_ids"], attention_mask=batch["attention_mask"])
        per_pass.append(checker.overhead_seconds() - before)
    model.set_attention_hooks(None)
    return min(per_pass)


def backend_fault_decisions(backend: str, model_name: str = "bert-base"):
    """Detection/correction decisions of one backend over a fault campaign."""
    decisions = {}
    outputs = []
    for trial, (matrix, error_type) in enumerate(
        (m, e) for m in ("Q", "K", "V", "AS", "CL", "O") for e in ("inf", "nan", "near_inf")
    ):
        model = make_model(model_name)
        model.eval()
        batch = make_batch(model, n=4, full_mask=True)
        injector = FaultInjector(
            [FaultSpec(matrix=matrix, error_type=error_type)],
            rng=np.random.default_rng(1000 + trial),
        )
        checker = ATTNChecker(ATTNCheckerConfig(backend=backend))
        model.set_attention_hooks(ComposedHooks([injector, checker]))
        logits = model(batch["input_ids"], attention_mask=batch["attention_mask"]).logits.data
        model.set_attention_hooks(None)
        outputs.append(logits.copy())
        decisions[(matrix, error_type)] = {
            name: (s.detections, s.corrections, s.aborted_vectors, s.residual_extreme)
            for name, s in checker.stats.sections.items()
        }
    return decisions, outputs


def test_fig7_overhead_modelled(benchmark, report):
    table = benchmark(model_overheads)

    rows = [
        [name,
         f"{table[name]['attention_ms']:.2f}",
         format_percent(table[name]["attention_overhead"]),
         format_percent(PAPER_ATTENTION_OVERHEAD[name]),
         f"{table[name]['step_ms']:.1f}",
         format_percent(table[name]["step_overhead"]),
         format_percent(PAPER_STEP_OVERHEAD[name])]
        for name in OVERHEAD_MODELS
    ]
    report(format_table(
        ["model", "attn time (ms)", "attn overhead", "paper", "step time (ms)", "step overhead", "paper"],
        rows,
        title="Figure 7 — ATTNChecker overhead, batch 8 (modelled A100 vs paper)",
    ))
    benchmark.extra_info["figure7"] = table

    for name in OVERHEAD_MODELS:
        # Shape: overhead is a modest fraction, attention overhead above step
        # overhead, both within a small factor of the paper's bars.
        assert 0.01 < table[name]["attention_overhead"] < 0.30
        assert 0.005 < table[name]["step_overhead"] < 0.15
        assert table[name]["attention_overhead"] > table[name]["step_overhead"]
        assert table[name]["step_overhead"] < 2.5 * PAPER_STEP_OVERHEAD[name]


def test_fig7_overhead_measured_cpu(benchmark, report):
    overhead = benchmark.pedantic(measured_cpu_overhead, rounds=1, iterations=1)
    report(f"Figure 7 (measured, CPU/NumPy, bert-base tiny): per-step ATTNChecker overhead = "
           f"{format_percent(max(overhead, 0.0))}")
    benchmark.extra_info["measured_step_overhead"] = overhead
    # The NumPy implementation's overhead stays moderate (well under 2x).
    assert overhead < 1.0


def test_fig7_fused_engine_vs_per_gemm_backend(benchmark, report):
    """The Section-4.4 fusion claim, measured: the fused ProtectionEngine's
    ABFT overhead does not exceed the per-GEMM reference backend's, while a
    fault-injection campaign confirms the two backends make byte-identical
    detection/correction decisions."""
    def compare():
        # Interleave the backends and keep the floor of three trials each, so
        # slow drift on a shared CI host hits both measurements alike.
        fused_trials, per_gemm_trials = [], []
        for _ in range(3):
            fused_trials.append(measured_abft_seconds("fused"))
            per_gemm_trials.append(measured_abft_seconds("per_gemm"))
        return min(fused_trials), min(per_gemm_trials)

    fused, per_gemm = benchmark.pedantic(compare, rounds=1, iterations=1)

    fused_decisions, fused_outputs = backend_fault_decisions("fused")
    ref_decisions, ref_outputs = backend_fault_decisions("per_gemm")

    report(
        "Figure 7 (backend comparison, CPU/NumPy, bert-base tiny): per-step ABFT time "
        f"fused = {fused * 1e3:.2f} ms, per-GEMM = {per_gemm * 1e3:.2f} ms "
        f"({(per_gemm - fused) / per_gemm * 100.0:+.1f}% saved by fusion); "
        f"fault campaign decisions identical: {fused_decisions == ref_decisions}"
    )
    benchmark.extra_info["fused_abft_seconds"] = fused
    benchmark.extra_info["per_gemm_abft_seconds"] = per_gemm

    # Byte-identical detection/correction outcomes between the two backends —
    # the hard, deterministic gate.
    assert fused_decisions == ref_decisions
    for fused_logits, ref_logits in zip(fused_outputs, ref_outputs):
        assert np.array_equal(fused_logits, ref_logits, equal_nan=True)
    # Fused-engine overhead at or below the per-GEMM baseline.  The two
    # backends run the identical checksum algebra, so the true gap is the
    # removed host-side dispatch work — small relative to wall-clock jitter
    # on shared CI runners, hence the 10% noise allowance on top of the
    # interleaved min-floor estimator.  A real regression (extra checksum
    # work on the fused path) is well above this band.
    assert fused <= per_gemm * 1.10


def test_fig7_fused_kernel_schedule_counters_and_json(benchmark, report):
    """The kernel-schedule claim, counter-verified, plus the JSON artifact.

    The fused schedule (sibling-GEMM fusion + weight-encoding cache) must
    issue strictly fewer checksum GEMM dispatches per layer visit than the
    historical schedule of the per-GEMM reference, serve steady-state
    visits from the weight cache, produce byte-identical outputs, and not
    regress wall-clock.  Everything measured lands in
    ``BENCH_fig7.json`` for CI.
    """
    def compare():
        counters = kernel_schedule_counters()
        # Interleave the wall-clock trials so shared-host drift hits both
        # schedules alike; keep the min floor of three each.  The timed
        # regime is the steady-state one the caches target (fixed weights);
        # see steady_state_checker_seconds.
        fused_trials, unfused_trials = [], []
        for _ in range(3):
            fused_trials.append(steady_state_checker_seconds())
            unfused_trials.append(steady_state_checker_seconds(UNFUSED_BASELINE))
        return counters, min(fused_trials), min(unfused_trials)

    counters, fused_seconds, unfused_seconds = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    fused, unfused = counters["fused"], counters["unfused"]

    # -- hard, deterministic gates -------------------------------------------
    # Byte-identical outputs between the schedules, every steady-state pass.
    for fused_logits, unfused_logits in zip(fused["outputs"], unfused["outputs"]):
        assert np.array_equal(fused_logits, unfused_logits, equal_nan=True)
    # Fewer dispatches: measured counters, and both agree with the model.
    assert fused["gemm_dispatches"] < unfused["gemm_dispatches"]
    per_layer_fused = sum(
        SectionCostModel.checksum_gemm_dispatches_per_layer("fused").values()
    )
    per_layer_unfused = sum(
        SectionCostModel.checksum_gemm_dispatches_per_layer("unfused").values()
    )
    assert fused["gemm_dispatches"] == per_layer_fused * fused["layer_visits"]
    assert unfused["gemm_dispatches"] == per_layer_unfused * unfused["layer_visits"]
    # The weight cache served the steady-state visits.
    assert fused["weight_cache"]["hits"] > 0
    # Wall-clock: at or below the per-GEMM reference's unfused schedule (same
    # algebra, less dispatch work); 10% noise allowance over the min floor,
    # as in the fused-vs-per-GEMM comparison above.  The deterministic gates
    # above (dispatch and weight-cache counters) carry the regression
    # protection; this guards against the schedule trading dispatches for
    # slower kernels.
    assert fused_seconds <= unfused_seconds * 1.10

    report(
        "Figure 7 (kernel schedule, CPU/NumPy, bert-base tiny): checksum GEMM "
        f"dispatches/visit fused = {per_layer_fused}, unfused = {per_layer_unfused}; "
        f"weight-cache hits = {fused['weight_cache']['hits']}; steady-state per-pass checker "
        f"time fused = {fused_seconds * 1e3:.2f} ms, unfused = {unfused_seconds * 1e3:.2f} ms "
        f"({(unfused_seconds - fused_seconds) / unfused_seconds * 100.0:+.1f}% saved)"
    )

    # -- machine-readable artifact -------------------------------------------
    payload = {
        "modelled_overheads": {
            name: {
                "attention_overhead": row["attention_overhead"],
                "step_overhead": row["step_overhead"],
            }
            for name, row in model_overheads().items()
        },
        "paper_overheads": {
            "attention": PAPER_ATTENTION_OVERHEAD,
            "step": PAPER_STEP_OVERHEAD,
        },
        "kernel_schedule": {
            "fused": {
                "gemm_dispatches_per_layer": per_layer_fused,
                "gemm_dispatches_measured": fused["gemm_dispatches"],
                "weight_cache": fused["weight_cache"],
                "abft_seconds": fused_seconds,
            },
            "unfused": {
                "gemm_dispatches_per_layer": per_layer_unfused,
                "gemm_dispatches_measured": unfused["gemm_dispatches"],
                "abft_seconds": unfused_seconds,
            },
        },
        "layer_visits": fused["layer_visits"],
    }
    path = os.environ.get("BENCH_FIG7_JSON", "BENCH_fig7.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    report(f"Figure 7 machine-readable artifact written to {path}")
    benchmark.extra_info["kernel_schedule"] = payload["kernel_schedule"]
