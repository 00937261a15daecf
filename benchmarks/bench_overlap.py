"""Protected gradient all-reduce launched in backward vs after it.

Measures the end-to-end training-step time of :class:`DataParallelTrainer`
with ``overlap_grad_reduce`` off and on, for W ∈ {1, 2, 4} workers.
Both arms run the same bucketed reduction; only the launch timing differs.
The plain arm launches every bucket after backward returns.  The overlapped
arm launches each bucket's checksum-protected
``contribute`` from inside backward the moment the bucket's last gradient
accumulates, with the last rank folding eagerly, so reduction work hides
behind the remaining backprop instead of serialising after it.

Hard gates (the run fails if they break):

* overlapped and plain training produce byte-identical weights, both equal
  to the 1-worker reference (one bucket at the default cap, launched after
  backward);
* the collective checksum dispatch counters match the bucket-aware
  ``SectionCostModel.collective_checksum_dispatches_per_step`` exactly;
* on hosts with at least two CPUs, the best overlapped step time across the
  sweep is strictly below the best non-overlapped step time (interleaved
  min-of-repeats, so scheduler noise hits both arms alike).

The speedup gate is conditional on real parallel hardware because on a
single-CPU host there is, by construction, no idle core for the in-backward
reductions to run on — wall-clock overlap is physically impossible there and
only the bucketed path's dispatch savings show up.  Single-CPU runs record
the measured ratios (with ``"single_cpu_host": true``) instead of asserting
them, the same record-don't-gate treatment the Figure-12 harness gives
wall-clock efficiencies on shared hosts.

Results land in ``BENCH_overlap.json`` (path overridable via
``BENCH_OVERLAP_JSON``).
"""

import json
import os
import time

import numpy as np

from repro.analysis import format_percent, format_table
from repro.core import SectionCostModel
from repro.training import DataParallelConfig, DataParallelTrainer, ReplicaSpec

WORKERS = (1, 2, 4)
SHARDS = 4
GLOBAL_BATCH = 8
BUCKET_CAP_MB = 0.2
WARMUP_STEPS = 1
MEASURED_STEPS = 2
#: Interleaved repeats per arm; min-of-repeats filters one-off scheduler hits.
REPEATS = 3


def _batch(seed: int, batch: int = GLOBAL_BATCH, seq: int = 10, vocab: int = 100):
    rng = np.random.default_rng(seed)
    return {
        "input_ids": rng.integers(0, vocab, size=(batch, seq)),
        "attention_mask": np.ones((batch, seq), dtype=np.int64),
        "labels": rng.integers(0, 2, size=(batch,)),
    }


BATCHES = [_batch(300 + i) for i in range(WARMUP_STEPS + MEASURED_STEPS)]


def _states_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a
    )


def _run_once(workers: int, overlap: bool):
    config = DataParallelConfig(
        workers=workers,
        shards=SHARDS,
        overlap_grad_reduce=overlap,
        bucket_cap_mb=BUCKET_CAP_MB,
    )
    trainer = DataParallelTrainer(
        model_spec=ReplicaSpec(name="bert-base", size="tiny", seed=7, num_labels=2),
        config=config,
    )
    try:
        results = []
        for batch in BATCHES[:WARMUP_STEPS]:
            trainer.train_step(batch)
        begin = time.perf_counter()
        for batch in BATCHES[WARMUP_STEPS:]:
            results.append(trainer.train_step(batch))
        step_seconds = (time.perf_counter() - begin) / MEASURED_STEPS
        return {
            "step_seconds": step_seconds,
            "state": trainer.state_dict(),
            "num_params": len(trainer.runners[0].params),
            "buckets": results[-1].buckets,
            "overlap_efficiency": results[-1].overlap_efficiency,
            "collective_counters": trainer.collective_counters(),
            "bucket_counters": trainer.bucket_counters(),
            "total_steps": WARMUP_STEPS + MEASURED_STEPS,
        }
    finally:
        trainer.close()


def run_sweep():
    """Interleave the two arms repeat-by-repeat and keep the best of each."""
    points = []
    for workers in WORKERS:
        plain = overlapped = None
        for _ in range(REPEATS):
            for overlap in (False, True):
                run = _run_once(workers, overlap)
                best = overlapped if overlap else plain
                if best is None or run["step_seconds"] < best["step_seconds"]:
                    if overlap:
                        overlapped = run
                    else:
                        plain = run
        points.append({"workers": workers, "plain": plain, "overlapped": overlapped})
    return points


def _serial_reference():
    config = DataParallelConfig(workers=1, shards=SHARDS)
    trainer = DataParallelTrainer(
        model_spec=ReplicaSpec(name="bert-base", size="tiny", seed=7, num_labels=2),
        config=config,
    )
    try:
        for batch in BATCHES:
            trainer.train_step(batch)
        return trainer.state_dict()
    finally:
        trainer.close()


def test_overlap_speedup(benchmark, report):
    points = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    reference = _serial_reference()

    # Hard gate 1: both arms train byte-identical weights at every worker
    # count, all equal to the serial reference launched after backward.
    byte_identical = all(
        _states_equal(reference, p[arm]["state"])
        for p in points
        for arm in ("plain", "overlapped")
    )
    assert byte_identical

    # Hard gate 2: bucket dispatch counters match the bucket-aware cost model
    # exactly — one encode per bucket (plus the loss slot) per rank, one
    # verify per bucket plus loss, per step.
    for p in points:
        run = p["overlapped"]
        per_step = SectionCostModel.collective_checksum_dispatches_per_step(
            num_gradients=run["num_params"] + 1,
            world_size=SHARDS,
            num_buckets=run["buckets"],
        )
        counters = run["collective_counters"]
        assert counters["checksum_encodes"] == per_step["encode"] * run["total_steps"]
        assert counters["checksum_verifies"] == per_step["verify"] * run["total_steps"]
        assert counters["mismatches"] == 0
        launches = run["bucket_counters"]["bucket_launches"]
        assert launches == run["buckets"] * SHARDS * run["total_steps"]
    counters_match = True

    # Hard gate 3 (multi-CPU hosts): overlapping pays.  Compare the best step
    # time of each arm across the whole sweep; per-worker ratios are recorded
    # below.  See the module docstring for why a single-CPU host records the
    # ratio instead of asserting it.
    best_plain = min(p["plain"]["step_seconds"] for p in points)
    best_overlapped = min(p["overlapped"]["step_seconds"] for p in points)
    single_cpu = (os.cpu_count() or 1) < 2
    if not single_cpu:
        assert best_overlapped < best_plain

    rows = []
    for p in points:
        plain, over = p["plain"], p["overlapped"]
        speedup = plain["step_seconds"] / over["step_seconds"]
        rows.append({
            "workers": p["workers"],
            "buckets": over["buckets"],
            "plain_step_seconds": plain["step_seconds"],
            "overlapped_step_seconds": over["step_seconds"],
            "speedup": speedup,
            "overlap_efficiency": over["overlap_efficiency"],
        })

    report(format_table(
        ["workers", "buckets", "plain (ms)", "overlapped (ms)", "speedup",
         "overlap efficiency"],
        [[r["workers"], r["buckets"],
          f"{r['plain_step_seconds'] * 1e3:.1f}",
          f"{r['overlapped_step_seconds'] * 1e3:.1f}",
          f"{r['speedup']:.2f}x",
          format_percent(r["overlap_efficiency"], digits=1)]
         for r in rows],
        title="Overlapped vs non-overlapped protected gradient all-reduce "
              f"({SHARDS} shards, {BUCKET_CAP_MB} MB buckets)",
    ))

    payload = {
        "figure": "overlap",
        "model": "bert-base/tiny",
        "shards": SHARDS,
        "bucket_cap_mb": BUCKET_CAP_MB,
        "measured_steps": MEASURED_STEPS,
        "repeats": REPEATS,
        "sweep": rows,
        "best_plain_step_seconds": best_plain,
        "best_overlapped_step_seconds": best_overlapped,
        "overlapped_strictly_faster": best_overlapped < best_plain,
        "single_cpu_host": single_cpu,
        "speedup_gate_enforced": not single_cpu,
        "byte_identical": byte_identical,
        "counters_match_cost_model": counters_match,
    }
    benchmark.extra_info["overlap"] = payload
    path = os.environ.get("BENCH_OVERLAP_JSON", "BENCH_overlap.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
