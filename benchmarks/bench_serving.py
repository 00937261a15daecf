"""Protected inference serving: latency/throughput overhead and O(1) decode.

Serves one deterministic request stream twice through the batched serving
engine — protection off, then on (fused engine, immediate verification) — and
measures what protection costs at inference time:

* **Latency / throughput** — p50/p99 request latency and tokens/sec for both
  configurations over identical traffic, plus the wall-clock overhead ratio.
  Fault-free, the protected token stream must be byte-identical to the
  unprotected one (greedy decode; the checksums observe, they do not perturb).
* **O(1) decode checksums** — the incremental KV-cache checksums must make the
  per-token protection cost independent of the cached sequence length.  The
  benchmark counter-verifies this: the checksum GEMM dispatch delta of one
  steady-state decode step is measured at two different cache lengths and both
  must equal ``SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer()``
  summed over layers.
* **No autograd tape** — serving runs under ``no_grad``, so no hidden state
  the engine's prefills and decode steps return carries autograd parents
  (``graph_free``); a recorded tape would keep every activation alive.

The run emits a machine-readable ``BENCH_serving.json`` artifact (path
overridable via the ``BENCH_SERVING_JSON`` environment variable) that the CI
serving smoke asserts on.
"""

import json
import os

import numpy as np

from benchmarks.conftest import make_model
from repro.core import ATTNChecker, ATTNCheckerConfig, SectionCostModel
from repro.models import build_model
from repro.serving import RequestGenerator, ServingConfig, ServingEngine

#: Request-stream shape served by the overhead comparison (gpt2 tiny has
#: max_seq_len=16, so max prompt 6 + max budget 5 = 11 positions fits).
NUM_REQUESTS = 8
BATCH_SIZE = 4
PROMPT_LEN_RANGE = (3, 6)
NEW_TOKENS_RANGE = (2, 5)
STREAM_SEED = 7


def make_requests(model):
    """The deterministic request stream both serving runs see."""
    return RequestGenerator(
        vocab_size=model.config.vocab_size,
        prompt_len_range=PROMPT_LEN_RANGE,
        new_tokens_range=NEW_TOKENS_RANGE,
        seed=STREAM_SEED,
    ).generate(NUM_REQUESTS)


def record_hidden_states(model):
    """Keep every hidden state ``model.prefill`` / ``decode_step`` return."""
    hidden_states = []

    def recording(method):
        def call(*args, **kwargs):
            hidden = method(*args, **kwargs)
            hidden_states.append(hidden)
            return hidden
        return call

    for name in ("prefill", "decode_step"):
        setattr(model, name, recording(getattr(model, name)))
    return hidden_states


def serve_once(protected: bool, seed: int = 0):
    """Serve the stream once.

    Returns the report, the per-request token lists and whether no hidden
    state the run produced carries autograd parents.
    """
    model = build_model("gpt2", size="tiny", rng=np.random.default_rng(seed))
    hidden_states = record_hidden_states(model)
    checker = None
    if protected:
        checker = ATTNChecker(ATTNCheckerConfig(backend="fused"))
        model.set_attention_hooks(checker)
    engine = ServingEngine(
        model, checker=checker, config=ServingConfig(max_batch_size=BATCH_SIZE)
    )
    report = engine.run(make_requests(model))
    if checker is not None:
        checker.close()
    graph_free = bool(hidden_states) and not any(h._parents for h in hidden_states)
    return report, [r.tokens for r in report.results], graph_free


def decode_dispatch_counters():
    """Counter-verify the O(1) decode claim on a raw prefill+decode loop.

    Runs a protected prefill, one cold decode step (fills the weight-encoding
    cache), then measures the checksum GEMM dispatch delta of a single decode
    step at a short and at a long cache length.  Both deltas must match the
    serving cost-model entry.
    """
    model = make_model("gpt2")
    model.eval()
    checker = ATTNChecker(ATTNCheckerConfig(backend="fused"))
    model.set_attention_hooks(checker)
    config = model.config

    batch, prompt_len = 2, 4
    total_len = config.max_seq_len
    rng = np.random.default_rng(11)
    ids = rng.integers(1, config.vocab_size, size=(batch, prompt_len), dtype=np.int64)
    # One mask over the whole padded layout, passed unchanged every step so
    # its identity keys the attention decode-mask cache.
    mask = np.ones((batch, total_len), dtype=np.float64)
    caches = model.new_kv_caches(batch, max_len=total_len)
    model.prefill(ids, mask[:, :prompt_len], caches)

    def step():
        token = rng.integers(1, config.vocab_size, size=(batch, 1), dtype=np.int64)
        model.decode_step(token, caches, attention_mask=mask)

    def measured_step():
        before = checker.dispatch_counts["gemm"]
        step()
        return checker.dispatch_counts["gemm"] - before, int(caches[0].length)

    step()  # cold: encodes W_V / W_O row checksums
    delta_short, cache_len_short = measured_step()
    while caches[0].length < total_len - 2:
        step()
    delta_long, cache_len_long = measured_step()

    counters = {
        "per_layer_model": SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer(),
        "expected_per_step": (
            sum(
                SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer().values()
            )
            * config.num_layers
        ),
        "delta_short": delta_short,
        "cache_len_short": cache_len_short,
        "delta_long": delta_long,
        "cache_len_long": cache_len_long,
        "detections": checker.stats.total_detections,
    }
    checker.close()
    return counters


def test_serving_overhead_and_o1_decode_json(benchmark, report):
    """The serving-path claims, counter-verified, plus the JSON artifact.

    Protection on must not change the fault-free token stream, must cost a
    constant number of checksum GEMM dispatches per decoded token regardless
    of cache length.  Latency percentiles and throughput for both configurations land in
    ``BENCH_serving.json`` for the CI gate.
    """
    def compare():
        counters = decode_dispatch_counters()
        # Interleave the trials so shared-host drift hits both configurations
        # alike; keep the min floor of three each.
        off_trials, on_trials = [], []
        for _ in range(3):
            off_trials.append(serve_once(protected=False))
            on_trials.append(serve_once(protected=True))
        best_off = min(off_trials, key=lambda trial: trial[0].wall_seconds)
        best_on = min(on_trials, key=lambda trial: trial[0].wall_seconds)
        graph_free = all(trial[2] for trial in off_trials + on_trials)
        return counters, best_off[:2], best_on[:2], graph_free

    counters, (report_off, tokens_off), (report_on, tokens_on), graph_free = (
        benchmark.pedantic(compare, rounds=1, iterations=1)
    )

    # -- hard, deterministic gates -------------------------------------------
    # Fault-free protection must not perturb the greedy token stream.
    assert tokens_on == tokens_off
    assert report_on.num_evicted == 0 and report_off.num_evicted == 0
    assert report_on.checker_stats["detections"] == 0
    assert report_on.checker_stats["checks"] > 0
    # Serving records no autograd tape.
    assert graph_free
    # O(1) decode: identical dispatch deltas at two cache lengths, both equal
    # to the cost-model entry; no detections in the fault-free driver.
    assert counters["cache_len_long"] > counters["cache_len_short"]
    assert counters["delta_short"] == counters["expected_per_step"]
    assert counters["delta_long"] == counters["expected_per_step"]
    assert counters["detections"] == 0

    overhead_ratio = report_on.wall_seconds / report_off.wall_seconds
    report(
        "Protected serving (gpt2 tiny, CPU/NumPy, "
        f"{NUM_REQUESTS} requests, batch {BATCH_SIZE}): "
        f"p50 {report_off.latency_percentile_ms(50):.1f} -> "
        f"{report_on.latency_percentile_ms(50):.1f} ms, "
        f"p99 {report_off.latency_percentile_ms(99):.1f} -> "
        f"{report_on.latency_percentile_ms(99):.1f} ms, "
        f"{report_off.tokens_per_second:.0f} -> "
        f"{report_on.tokens_per_second:.0f} tok/s "
        f"(overhead {overhead_ratio:.2f}x); decode checksum dispatches/token "
        f"{counters['delta_short']} at cache len {counters['cache_len_short']} "
        f"and {counters['delta_long']} at {counters['cache_len_long']} "
        f"(model: {counters['expected_per_step']})"
    )

    # -- machine-readable artifact -------------------------------------------
    payload = {
        "protection_off": report_off.to_dict(),
        "protection_on": report_on.to_dict(),
        "tokens_identical": tokens_on == tokens_off,
        "graph_free": graph_free,
        "overhead_ratio": overhead_ratio,
        "decode_dispatch": counters,
    }
    path = os.environ.get("BENCH_SERVING_JSON", "BENCH_serving.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    report(f"Serving machine-readable artifact written to {path}")
    benchmark.extra_info["serving"] = payload
