"""Protection of serving decode steps.

A decode step runs each attention section's checksum chain with its input
checksums extended from the KV cache.  These tests corrupt the decode step
itself (the injector is armed only after the prefill), and pin what the
chain needs from the cache: contiguous incremental checksums.
"""

import numpy as np
import pytest

from repro.core import ATTNChecker, ATTNCheckerConfig
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.nn import ComposedHooks
from repro.serving import RequestGenerator, ServingEngine

BACKENDS = ("fused", "per_gemm")

PROMPT_LEN = 4
MAX_LEN = 8

#: (protect scope, target matrix, position in the decode step's boundary
#: matrix, section that verifies it).  Every position lies in request 1.
DECODE_FAULTS = [
    ("attention", "AS", (1, 0, 0, 2), "AS"),
    ("attention", "CL", (1, 0, 0, 3), "CL"),
    ("attention", "O", (1, 0, 5), "O"),
    ("attention+ffn", "H", (1, 0, 3), "FF1"),
    ("attention+ffn", "FO", (1, 0, 2), "FF2"),
]


def make_gpt2():
    model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
    model.eval()
    return model


def inputs(model):
    rng = np.random.default_rng(3)
    vocab = model.config.vocab_size
    prompt = rng.integers(1, vocab, size=(2, PROMPT_LEN), dtype=np.int64)
    token = rng.integers(1, vocab, size=(2, 1), dtype=np.int64)
    return prompt, token, np.ones((2, MAX_LEN), dtype=np.float64)


def clean_decode():
    model = make_gpt2()
    prompt, token, mask = inputs(model)
    caches = model.new_kv_caches(2, max_len=MAX_LEN)
    model.prefill(prompt, mask[:, :PROMPT_LEN], caches)
    return model.decode_step(token, caches, attention_mask=mask).data


def faulty_decode(backend, scope, spec):
    """Prefill with the injector disarmed, then arm it and decode one token."""
    model = make_gpt2()
    prompt, token, mask = inputs(model)
    checker = ATTNChecker(ATTNCheckerConfig(protect_scope=scope, backend=backend))
    injector = FaultInjector([spec], rng=np.random.default_rng(0), enabled=False)
    model.set_attention_hooks(ComposedHooks([injector, checker]))
    caches = model.new_kv_caches(2, max_len=MAX_LEN)
    model.prefill(prompt, mask[:, :PROMPT_LEN], caches)
    assert injector.num_injections == 0
    checker.take_recent_outcomes()
    detections = checker.stats.total_detections
    corrections = checker.stats.total_corrections

    injector.arm()
    hidden = model.decode_step(token, caches, attention_mask=mask).data
    model.set_attention_hooks(None)

    assert injector.num_injections == 1
    assert checker.stats.total_detections - detections == 1
    assert checker.stats.total_corrections - corrections == 1
    detecting = [
        outcome for outcome in checker.take_recent_outcomes()
        if outcome.report is not None and outcome.report.detected
    ]
    assert len(detecting) == 1
    return hidden, detecting[0]


@pytest.mark.parametrize(
    "scope,matrix,position,section", DECODE_FAULTS,
    ids=[fault[1] for fault in DECODE_FAULTS],
)
def test_decode_fault_repaired_and_attributed(scope, matrix, position, section):
    spec = FaultSpec(matrix=matrix, error_type="near_inf", layer_index=0, position=position)
    clean = clean_decode()
    hidden = {}
    for backend in BACKENDS:
        hidden[backend], outcome = faulty_decode(backend, scope, spec)
        assert outcome.section == section
        assert outcome.phase == "decode"
        assert np.asarray(outcome.request_dirty).tolist() == [False, True]
        assert np.max(np.abs(hidden[backend] - clean)) <= 1e-12
    assert hidden["fused"].tobytes() == hidden["per_gemm"].tobytes()


def decode_after_unprotected_prefill(backend, frequencies):
    """The RuntimeError of decoding with a checker attached after prefill."""
    model = make_gpt2()
    prompt, token, mask = inputs(model)
    caches = model.new_kv_caches(2, max_len=MAX_LEN)
    model.prefill(prompt, mask[:, :PROMPT_LEN], caches)
    config = ATTNCheckerConfig(backend=backend)
    if frequencies is not None:
        config = ATTNCheckerConfig(backend=backend, frequencies=frequencies)
    model.set_attention_hooks(ATTNChecker(config))
    with pytest.raises(RuntimeError, match="needs contiguous incremental checksums") as error:
        model.decode_step(token, caches, attention_mask=mask)
    model.set_attention_hooks(None)
    return str(error.value)


@pytest.mark.parametrize("frequencies,section", [(None, "AS"), ({"AS": 0.0}, "CL")])
def test_decode_refuses_checksums_the_prefill_did_not_seed(frequencies, section):
    fused, per_gemm = (decode_after_unprotected_prefill(b, frequencies) for b in BACKENDS)
    assert fused.startswith(f"decode {section} protection")
    assert fused == per_gemm


@pytest.mark.parametrize("frequencies", [{"AS": 0.3}, {"CL": 0.7}], ids=["AS", "CL"])
def test_serving_rejects_fractional_incremental_frequencies(frequencies):
    (section,) = frequencies
    checker = ATTNChecker(ATTNCheckerConfig(frequencies=frequencies))
    with pytest.raises(ValueError, match=f"section {section} at frequency 0 or 1"):
        ServingEngine(make_gpt2(), checker=checker)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("frequencies", [{"AS": 0.0}, {"O": 0.3}], ids=["AS-off", "O-0.3"])
def test_serving_honours_frequencies_without_cache_state(frequencies, backend):
    model = make_gpt2()
    requests = RequestGenerator(
        vocab_size=model.config.vocab_size, prompt_len_range=(3, 6),
        new_tokens_range=(3, 5), seed=5,
    ).generate(3)
    plain = ServingEngine(model).run(requests)
    checker = ATTNChecker(ATTNCheckerConfig(frequencies=frequencies, backend=backend))
    model.set_attention_hooks(checker)
    report = ServingEngine(model, checker=checker).run(requests)
    model.set_attention_hooks(None)
    assert report.num_completed == len(requests)
    assert [r.tokens for r in report.results] == [r.tokens for r in plain.results]
    assert report.checker_stats["checks"] > 0
