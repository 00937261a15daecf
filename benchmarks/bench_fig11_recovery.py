"""Figure 11: per-training-step recovery overhead, checkpoint/restore vs ATTNChecker.

Two reproductions:

* **Modelled A100** — the recovery cost model prices per-step checkpointing
  plus restore-and-re-execute against ATTNChecker's detection + in-place
  correction; the paper reports >200 % for checkpoint/restore vs <10 % for
  ATTNChecker, a 24x-49x reduction.
* **Measured CPU** — real per-step checkpoint save/restore of the tiny models
  on this host (the benchmarked callable) compared against the measured
  ATTNChecker per-step ABFT time, demonstrating the same ordering end to end
  on the actual implementation.
"""

import time

from benchmarks.conftest import MAIN_MODELS, make_batch, make_model
from repro.analysis import format_percent, format_table
from repro.core import ATTNChecker
from repro.models import get_config
from repro.perfmodel import RecoveryCostModel
from repro.training import AdamW, CheckpointManager, Trainer, TrainerConfig

#: Overhead-reduction factors reported in Figure 11.
PAPER_IMPROVEMENT = {"bert-base": 32, "gpt2": 34, "gpt-neo": 24, "roberta": 49}


def modelled_comparison():
    return {
        name: RecoveryCostModel(get_config(name, size="paper"), batch_size=8).compare()
        for name in MAIN_MODELS
    }


def measured_cpu_comparison(model_name: str = "bert-base", tmp_dir: str = None):
    """Measured on this host: CR = save+load+re-execute; ATTN = ABFT time."""
    model = make_model(model_name)
    batch = make_batch(model, n=8)
    checker = ATTNChecker()
    trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
    trainer.train_step(batch)  # warm-up
    step = trainer.train_step(batch)

    manager = CheckpointManager(directory=tmp_dir)
    optimizer = AdamW(model.parameters(), lr=1e-3)
    start = time.perf_counter()
    manager.save(1, model, optimizer)
    manager.restore(model, optimizer)
    ckpt_seconds = time.perf_counter() - start

    cr_overhead = (ckpt_seconds + step.step_seconds) / step.step_seconds
    attn_overhead = step.abft_seconds / step.step_seconds
    return cr_overhead, attn_overhead


def test_fig11_recovery_overhead_modelled(benchmark, report):
    table = benchmark(modelled_comparison)

    rows = [
        [name,
         format_percent(table[name].checkpoint_restore_overhead, digits=0),
         format_percent(table[name].attnchecker_overhead),
         f"{table[name].improvement:.0f}x",
         f"{PAPER_IMPROVEMENT[name]}x"]
        for name in MAIN_MODELS
    ]
    report(format_table(
        ["model", "checkpoint/restore", "ATTNChecker", "reduction", "paper"],
        rows,
        title="Figure 11 — per-step recovery overhead (modelled A100)",
    ))
    benchmark.extra_info["figure11"] = {
        name: {
            "cr": table[name].checkpoint_restore_overhead,
            "attn": table[name].attnchecker_overhead,
            "improvement": table[name].improvement,
        }
        for name in MAIN_MODELS
    }

    for name in MAIN_MODELS:
        comparison = table[name]
        # Checkpoint/restore costs multiple steps per recovery (paper: >200 %).
        assert comparison.checkpoint_restore_overhead > 2.0
        # ATTNChecker recovery stays around the paper's <10 % regime.
        assert comparison.attnchecker_overhead < 0.15
        # The reduction factor is tens of x, the paper's headline claim.
        assert comparison.improvement > 20.0


def test_fig11_recovery_overhead_measured_cpu(benchmark, report, tmp_path):
    cr, attn = benchmark.pedantic(
        measured_cpu_comparison, kwargs={"tmp_dir": str(tmp_path)}, rounds=1, iterations=1
    )
    report(
        "Figure 11 (measured, CPU/NumPy, bert-base tiny): "
        f"checkpoint/restore recovery = {format_percent(cr, digits=0)} of a step, "
        f"ATTNChecker ABFT time = {format_percent(attn)} of a step, "
        f"reduction = {cr / max(attn, 1e-9):.0f}x"
    )
    benchmark.extra_info["measured_cr"] = cr
    benchmark.extra_info["measured_attn"] = attn
    assert cr > 1.0          # restoring always costs at least the re-executed step
    assert attn < cr          # ATTNChecker recovery is cheaper than checkpoint/restore
