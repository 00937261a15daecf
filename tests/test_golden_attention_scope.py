"""Golden byte-identity pin: ``protect_scope="attention"`` vs pre-refactor.

The whole-model protection refactor generalized the core↔nn seam (op
registry, section registry, scope-aware engine/checker, instrumented FFN).
The attention-only configuration must remain **bit-for-bit** what it was
before the refactor: same losses (full ``repr`` precision), same
detection/correction decisions, same dispatch counters, same serving token
streams.

``tests/data/golden_attention_scope.json`` was generated by running exactly
the harness below against the pre-refactor tree (commit 053fa8c), for both
checker backends in immediate verification (the keys' ``/immediate``
suffix).  The tree then also had an asynchronous mode; its entry and the
``stale_detections`` counter, 0 in every remaining entry, were dropped from
the file when that mode was deleted, and every other value is unchanged.
Any diff here means a change altered attention-scope behaviour.
"""

import json
import os

import numpy as np
import pytest

from repro.core import CHECKER_BACKENDS, ATTNChecker, ATTNCheckerConfig
from repro.data import SyntheticMRPC
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.training import Trainer, TrainerConfig

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_attention_scope.json")

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)

def golden_case(backend: str) -> dict:
    return GOLDEN[f"{backend}/immediate"]


def run_train_case(backend: str) -> dict:
    model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
    data = SyntheticMRPC(num_examples=16, max_seq_len=model.config.max_seq_len,
                         vocab_size=model.config.vocab_size)
    batch = dict(data.encode(range(4)))
    batch["attention_mask"] = np.ones_like(batch["attention_mask"])
    injector = FaultInjector(
        [FaultSpec(matrix="AS", error_type="near_inf", layer_index=0)],
        rng=np.random.default_rng(3),
    )
    checker = ATTNChecker(ATTNCheckerConfig(backend=backend))
    trainer = Trainer(model, config=TrainerConfig(learning_rate=5e-4),
                      checker=checker, fault_hooks=[injector])
    losses = []
    for _ in range(3):
        result = trainer.train_step(batch)
        losses.append(repr(float(result.loss)))
    return {
        "losses": losses,
        "detections": checker.stats.total_detections,
        "corrections": checker.stats.total_corrections,
        "residual_extreme": checker.stats.total_residual_extreme,
        "injections": injector.num_injections,
        "dispatch_counts": dict(checker.dispatch_counts) if backend == "fused" else {},
        "section_decisions": {
            name: [s.checks_run, s.checks_skipped, s.detections, s.corrections,
                   s.aborted_vectors, s.operand_repairs]
            for name, s in sorted(checker.stats.sections.items())
        },
    }


def run_serve_case(backend: str) -> dict:
    from repro.serving import RequestGenerator, ServingConfig, ServingEngine
    model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
    checker = ATTNChecker(ATTNCheckerConfig(backend=backend))
    model.set_attention_hooks(checker)
    requests = RequestGenerator(vocab_size=model.config.vocab_size,
                                prompt_len_range=(3, 6), new_tokens_range=(2, 5),
                                seed=7).generate(6)
    engine = ServingEngine(model, checker=checker,
                           config=ServingConfig(max_batch_size=3))
    report = engine.run(requests)
    return {
        "tokens": [r.tokens for r in report.results],
        "num_completed": report.num_completed,
        "num_evicted": report.num_evicted,
        "detections": checker.stats.total_detections,
        "dispatch_counts": dict(checker.dispatch_counts) if backend == "fused" else {},
    }


class TestGoldenFixtureShape:
    def test_every_supported_combination_is_pinned(self):
        assert sorted(GOLDEN) == sorted(f"{b}/immediate" for b in CHECKER_BACKENDS)

    def test_default_scope_is_attention(self):
        assert ATTNCheckerConfig().protect_scope == "attention"


@pytest.mark.parametrize("backend", CHECKER_BACKENDS)
class TestGoldenAttentionScope:
    """Each backend reproduces the pre-refactor run bit-for-bit."""

    def test_training_campaign_matches_golden(self, backend):
        assert run_train_case(backend) == golden_case(backend)["train"]

    def test_serving_campaign_matches_golden(self, backend):
        assert run_serve_case(backend) == golden_case(backend)["serve"]
