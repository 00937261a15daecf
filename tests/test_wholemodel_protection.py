"""Whole-model protection: the FFN sections, the widened fault taxonomy and
the optimizer-state checksum.

Covers the PR's acceptance criteria beyond the attention-scope golden pin:

* scope plumbing — ``protect_scope`` validation, FF1/FF2 frequency gating,
  attention-scope checkers ignoring instrumented FFN blocks;
* FFN fault campaigns — extreme errors injected into ``H`` / ``FO`` are
  detected and repaired in training forwards *and* in serving decode, with
  the repair attributed to the corrupted request only;
* counter agreement — measured checksum-GEMM dispatches match the extended
  :class:`SectionCostModel` exactly, in the training loop (every step pays
  the post-update weight re-encode, i.e. the cold column) and in
  steady-state serving decode (O(1) per token);
* the flip-kind taxonomy (exponent MSB / mantissa LSB / adjacent double bit
  / stuck zero) with per-kind campaign counters;
* the AdamW float64 moment checksum surfacing ``OptimizerStateCorruption``
  at checkpoint save and on snapshot restore.
"""

import numpy as np
import pytest

from repro.core import (
    PROTECT_SCOPES,
    SECTION_REGISTRY,
    ATTNChecker,
    ATTNCheckerConfig,
    SectionCostModel,
    sections_for_scope,
)
from repro.data import SyntheticMRPC
from repro.faults import (
    FLIP_KINDS,
    FaultHarness,
    FaultInjector,
    FaultSpec,
    all_corrected,
)
from repro.models import build_model
from repro.nn import ComposedHooks
from repro.serving import RequestGenerator, ServingConfig, ServingEngine
from repro.training import (
    AdamW,
    CheckpointManager,
    OptimizerStateCorruption,
    Trainer,
    TrainerConfig,
)

NUM_TRIALS = 2


def make_bert(seed: int = 0):
    return build_model("bert-base", size="tiny", rng=np.random.default_rng(seed))


def make_batch(model, batch: int = 4, unmasked: bool = True):
    data = SyntheticMRPC(num_examples=16, max_seq_len=model.config.max_seq_len,
                         vocab_size=model.config.vocab_size)
    encoded = dict(data.encode(range(batch)))
    if unmasked:
        encoded["attention_mask"] = np.ones_like(encoded["attention_mask"])
    return encoded


class TestScopePlumbing:
    def test_registry_contains_ffn_sections(self):
        assert {"AS", "CL", "O", "FF1", "FF2"} <= set(SECTION_REGISTRY)
        assert SECTION_REGISTRY["FF1"].boundary_matrix == "H"
        assert SECTION_REGISTRY["FF2"].boundary_matrix == "FO"
        assert SECTION_REGISTRY["FF1"].block == "ffn"
        assert SECTION_REGISTRY["AS"].block == "attention"

    def test_scope_section_sets(self):
        assert set(sections_for_scope("attention")) == {"AS", "CL", "O"}
        assert set(sections_for_scope("attention+ffn")) == {"AS", "CL", "O", "FF1", "FF2"}

    def test_unknown_scope_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            ATTNCheckerConfig(protect_scope="attention+lora")

    def test_full_alias_rejected(self):
        # "attention+ffn" is the one name for the whole-model section set.
        with pytest.raises(ValueError, match="protect_scope"):
            ATTNCheckerConfig(protect_scope="full")
        with pytest.raises(KeyError):
            sections_for_scope("full")

    def test_ffn_frequencies_rejected_outside_scope(self):
        with pytest.raises((KeyError, ValueError)):
            ATTNCheckerConfig(frequencies={"FF1": 1.0})

    def test_ffn_frequencies_accepted_in_scope(self):
        config = ATTNCheckerConfig(
            protect_scope="attention+ffn", frequencies={"FF1": 0.5, "FF2": 1.0}
        )
        assert config.frequencies["FF1"] == 0.5
        assert set(config.active_sections) == {"AS", "CL", "O", "FF1", "FF2"}

    def test_attention_scope_checker_ignores_instrumented_ffn(self):
        """FFN hooks fire on every instrumented model; an attention-scope
        checker must treat them as a no-op (this is what preserves the
        golden pin) — no FF stats, no extra dispatches."""
        model = make_bert()
        batch = make_batch(model)
        checker = ATTNChecker(ATTNCheckerConfig())
        model.set_attention_hooks(checker)
        model.eval()
        model(batch["input_ids"], attention_mask=batch["attention_mask"])
        model.set_attention_hooks(None)
        assert set(checker.stats.sections) == {"AS", "CL", "O"}
        per_layer = SectionCostModel.checksum_gemm_dispatches_per_layer(
            "fused", steady_state=False
        )
        assert checker.dispatch_counts["gemm"] == \
            sum(per_layer.values()) * model.config.num_layers
        checker.close()

    def test_ffn_sections_gate_on_frequency(self):
        model = make_bert()
        batch = make_batch(model)
        checker = ATTNChecker(ATTNCheckerConfig(
            protect_scope="attention+ffn",
            frequencies={"AS": 0.0, "CL": 0.0, "O": 0.0, "FF1": 0.0, "FF2": 1.0},
        ))
        model.set_attention_hooks(checker)
        model.eval()
        model(batch["input_ids"], attention_mask=batch["attention_mask"])
        model.set_attention_hooks(None)
        assert checker.stats.sections["FF2"].checks_run == model.config.num_layers
        assert checker.stats.sections["FF1"].checks_run == 0
        assert checker.stats.sections["FF1"].checks_skipped == model.config.num_layers
        checker.close()


class TestFFNFaultCampaign:
    """Extreme errors in H / FO: 100% detection, correction and recovery."""

    @pytest.fixture(scope="class")
    def campaign_results(self):
        model = make_bert()
        harness = FaultHarness(
            model, make_batch(model, batch=2), "protected",
            checker_config=ATTNCheckerConfig(protect_scope="attention+ffn"),
        )
        return harness.cells(
            [(m, e) for m in ("H", "FO") for e in ("inf", "nan", "near_inf")],
            trials=NUM_TRIALS, rng=np.random.default_rng(11),
        )

    def test_all_extreme_ffn_faults_detected_and_corrected(self, campaign_results):
        assert all_corrected(campaign_results)
        assert len(campaign_results) == 6
        assert all(r.trials == NUM_TRIALS for r in campaign_results)

    def test_per_gemm_backend_agrees_with_fused(self):
        for backend in ("fused", "per_gemm"):
            model = make_bert()
            batch = make_batch(model, batch=2)
            outcomes = {}
            for matrix in ("H", "FO"):
                injector = FaultInjector(
                    [FaultSpec(matrix=matrix, error_type="inf", layer_index=0,
                               position=(0, 1, 2))],
                    rng=np.random.default_rng(0),
                )
                checker = ATTNChecker(ATTNCheckerConfig(
                    backend=backend, protect_scope="attention+ffn"))
                model.eval()
                model.set_attention_hooks(ComposedHooks([injector, checker]))
                output = model(batch["input_ids"], attention_mask=batch["attention_mask"])
                model.set_attention_hooks(None)
                outcomes[matrix] = (
                    checker.stats.total_detections,
                    checker.stats.total_corrections,
                    checker.stats.total_residual_extreme,
                    output.logits.data.copy(),
                )
                checker.close()
            if backend == "fused":
                fused = outcomes
            else:
                for matrix in ("H", "FO"):
                    assert fused[matrix][:3] == outcomes[matrix][:3]
                    np.testing.assert_array_equal(fused[matrix][3], outcomes[matrix][3])


class TestTrainingDispatchCounters:
    def test_training_dispatches_match_cost_model_exactly(self):
        """Every training step pays the cold column of the cost model: the
        optimizer update invalidates the weight-derived encodings, so the
        FF2 row checksum (like attention's weight encodings) re-encodes
        each step.  Totals must match the model exactly — no hidden work."""
        model = make_bert()
        batch = make_batch(model)
        checker = ATTNChecker(ATTNCheckerConfig(protect_scope="attention+ffn"))
        trainer = Trainer(model, config=TrainerConfig(learning_rate=5e-4),
                          checker=checker)
        steps = 3
        for _ in range(steps):
            trainer.train_step(batch)
        per_layer = SectionCostModel.checksum_gemm_dispatches_per_layer(
            "fused", steady_state=False, scope="attention+ffn"
        )
        expected = sum(per_layer.values()) * model.config.num_layers * steps
        assert checker.dispatch_counts["gemm"] == expected
        sections = sections_for_scope("attention+ffn")
        assert checker.dispatch_counts["detect"] == \
            len(sections) * model.config.num_layers * steps
        checker.close()

    def test_ffn_faults_detected_and_corrected_in_training(self):
        model = make_bert()
        batch = make_batch(model)
        injector = FaultInjector(
            [FaultSpec(matrix="H", error_type="near_inf", layer_index=0)],
            rng=np.random.default_rng(2),
        )
        checker = ATTNChecker(ATTNCheckerConfig(protect_scope="attention+ffn"))
        trainer = Trainer(model, config=TrainerConfig(learning_rate=5e-4),
                          checker=checker, fault_hooks=[injector])
        for _ in range(2):
            trainer.train_step(batch)
        assert injector.num_injections == 1
        assert checker.stats.sections["FF1"].detections >= 1
        # The boundary is repaired in place before the GELU consumes H.
        assert checker.stats.sections["FF1"].corrections >= 1
        assert checker.stats.total_residual_extreme == 0


class TestServingDecodeFFN:
    def test_steady_state_decode_dispatches_match_cost_model(self):
        model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
        model.eval()
        checker = ATTNChecker(ATTNCheckerConfig(protect_scope="attention+ffn"))
        model.set_attention_hooks(checker)
        config = model.config
        rng = np.random.default_rng(7)
        total_len = config.max_seq_len
        ids = rng.integers(1, config.vocab_size, size=(2, 4), dtype=np.int64)
        mask = np.ones((2, total_len), dtype=np.float64)
        caches = model.new_kv_caches(2, max_len=total_len)
        model.prefill(ids, mask[:, :4], caches)

        def decode_delta():
            before = checker.dispatch_counts["gemm"]
            token = rng.integers(1, config.vocab_size, size=(2, 1), dtype=np.int64)
            model.decode_step(token, caches, attention_mask=mask)
            return checker.dispatch_counts["gemm"] - before

        steady = sum(
            SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer(
                scope="attention+ffn"
            ).values()
        )
        cold = sum(
            SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer(
                steady_state=False, scope="attention+ffn"
            ).values()
        )
        first = decode_delta()
        assert steady * config.num_layers < first <= cold * config.num_layers
        deltas = []
        while caches[0].length < total_len:
            deltas.append(decode_delta())
        # O(1) per token for the FFN sections too, exactly on the model.
        assert deltas == [steady * config.num_layers] * len(deltas)
        model.set_attention_hooks(None)
        checker.close()

    @pytest.mark.parametrize("matrix,position", [("H", (1, 0, 3)), ("FO", (1, 0, 2))])
    def test_prefill_ffn_fault_repaired_and_attributed(self, matrix, position):
        def run(specs):
            model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
            model.eval()
            checker = ATTNChecker(ATTNCheckerConfig(protect_scope="attention+ffn"))
            requests = RequestGenerator(
                vocab_size=model.config.vocab_size, prompt_len_range=(3, 6),
                new_tokens_range=(3, 5), seed=5,
            ).generate(3)
            injector = None
            if specs:
                injector = FaultInjector(specs, rng=np.random.default_rng(0), enabled=False)
                model.set_attention_hooks(ComposedHooks([injector, checker]))
                injector.arm()
            else:
                model.set_attention_hooks(checker)
            engine = ServingEngine(
                model, checker=checker, injector=injector,
                config=ServingConfig(max_batch_size=3),
            )
            report = engine.run(requests)
            model.set_attention_hooks(None)
            checker.close()
            return report

        clean = run([])
        faulty = run([FaultSpec(matrix=matrix, error_type="near_inf",
                                layer_index=0, position=position)])
        assert faulty.checker_stats["detections"] >= 1
        assert faulty.num_evicted == 0
        repaired = [r.repaired_detections for r in faulty.results]
        assert repaired[1] >= 1
        assert repaired[0] == 0 and repaired[2] == 0
        assert [r.tokens for r in faulty.results] == [r.tokens for r in clean.results]


class TestFlipKinds:
    def test_spec_validation(self):
        assert set(FLIP_KINDS) == {
            "exponent_msb", "mantissa_lsb", "adjacent_double_bit", "stuck_zero"
        }
        assert FaultSpec(matrix="AS", error_type="near_inf").flip_kind == "exponent_msb"
        with pytest.raises(KeyError):
            FaultSpec(matrix="AS", error_type="near_inf", flip_kind="sign_bit")
        with pytest.raises(ValueError):
            FaultSpec(matrix="AS", error_type="inf", flip_kind="stuck_zero")

    def test_injector_counts_per_kind(self):
        model = make_bert()
        batch = make_batch(model)
        injector = FaultInjector(
            [
                FaultSpec(matrix="H", error_type="near_inf", layer_index=0,
                          flip_kind="stuck_zero"),
                FaultSpec(matrix="AS", error_type="near_inf", layer_index=0,
                          flip_kind="mantissa_lsb"),
            ],
            rng=np.random.default_rng(4),
        )
        model.eval()
        model.set_attention_hooks(injector)
        model(batch["input_ids"], attention_mask=batch["attention_mask"])
        model.set_attention_hooks(None)
        assert injector.num_injections == 2
        assert injector.injections_by_kind["stuck_zero"] == 1
        assert injector.injections_by_kind["mantissa_lsb"] == 1
        assert injector.injections_by_kind["exponent_msb"] == 0
        kinds = {r.flip_kind for r in injector.records}
        assert kinds == {"stuck_zero", "mantissa_lsb"}
        zero_record = next(r for r in injector.records if r.flip_kind == "stuck_zero")
        assert zero_record.injected_value == 0.0

    def test_mantissa_lsb_is_ulp_sized(self):
        from repro.utils.floatbits import apply_flip_kind
        value = np.float64(1.5)
        flipped = float(apply_flip_kind("mantissa_lsb", value, dtype=np.float64))
        assert flipped != 1.5
        assert abs(flipped - 1.5) < 1e-12

    def test_campaign_mix_reports_per_kind_counters(self):
        model = make_bert()
        harness = FaultHarness(
            model, make_batch(model, batch=2), "protected",
            checker_config=ATTNCheckerConfig(protect_scope="attention+ffn"),
        )
        weights = {"exponent_msb": 1.0, "mantissa_lsb": 1.0,
                   "adjacent_double_bit": 1.0, "stuck_zero": 1.0}
        (result,) = harness.cells(
            [("H", "near_inf")], trials=8, rng=np.random.default_rng(6),
            flip_kind_weights=weights,
        )
        assert result.flip_kind_mix == {k: 0.25 for k in weights}
        assert sum(result.trials_by_kind.values()) == 8
        # Extreme kinds that fired were detected and corrected; the ULP-sized
        # mantissa flip is benign by construction and goes unnoticed.
        for kind in ("exponent_msb", "adjacent_double_bit", "stuck_zero"):
            if result.trials_by_kind.get(kind):
                assert result.kind_rate("detected", kind) == 1.0
                assert result.kind_rate("corrected", kind) == 1.0
        if result.trials_by_kind.get("mantissa_lsb"):
            assert result.count("detected", "mantissa_lsb") == 0

    def test_default_campaign_replays_historically(self):
        """No mix -> no extra RNG draws: results identical to a run built on
        the same seed before the flip-kind taxonomy existed."""
        def run(**kwargs):
            model = make_bert()
            harness = FaultHarness(model, make_batch(model, batch=2), "protected")
            results = harness.cells([("AS", "near_inf")], trials=2,
                                    rng=np.random.default_rng(9), **kwargs)
            return [(r.count("detected"), r.count("corrected"), r.count("matches"))
                    + tuple(t.injection.position for t in r.outcomes)
                    for r in results]

        assert run() == run(flip_kind_weights=None)

    def test_mix_rejects_unknown_or_empty_weights(self):
        model = make_bert()
        harness = FaultHarness(model, make_batch(model, batch=2), "protected")
        with pytest.raises(KeyError):
            harness.cells([("H", "near_inf")], trials=1, rng=np.random.default_rng(0),
                          flip_kind_weights={"sign_bit": 1.0})
        with pytest.raises(ValueError):
            harness.cells([("H", "near_inf")], trials=1, rng=np.random.default_rng(0),
                          flip_kind_weights={"stuck_zero": 0.0})


class TestOptimizerStateChecksum:
    def _trained(self, steps: int = 2):
        model = make_bert()
        batch = make_batch(model)
        optimizer = AdamW(model.parameters(), lr=5e-4)
        for _ in range(steps):
            model.zero_grad()
            output = model(batch["input_ids"], attention_mask=batch["attention_mask"],
                           labels=batch["labels"])
            output.loss.backward()
            optimizer.step()
        return model, optimizer

    def test_clean_state_verifies_and_roundtrips(self):
        model, optimizer = self._trained()
        optimizer.verify_moments()
        CheckpointManager().save(2, model, optimizer)
        fresh = AdamW(model.parameters(), lr=5e-4)
        fresh.load_state_dict(optimizer.state_dict())
        fresh.verify_moments()

    def test_live_corruption_raises_on_save(self):
        model, optimizer = self._trained()
        optimizer._m[3][(0,) * np.ndim(optimizer._m[3])] += 1e-3
        with pytest.raises(OptimizerStateCorruption):
            optimizer.verify_moments()
        with pytest.raises(OptimizerStateCorruption):
            CheckpointManager().save(2, model, optimizer)

    def test_poisoned_snapshot_raises_on_restore(self):
        _, optimizer = self._trained()
        state = optimizer.state_dict()
        key = "m.5"
        state[key][(0,) * state[key].ndim] += 1.0
        fresh = AdamW(optimizer.parameters, lr=5e-4)
        with pytest.raises(OptimizerStateCorruption):
            fresh.load_state_dict(state)

    def test_legacy_snapshot_without_checksums_loads(self):
        _, optimizer = self._trained()
        legacy = {k: v for k, v in optimizer.state_dict().items()
                  if not k.startswith("moment_checksum")}
        fresh = AdamW(optimizer.parameters, lr=5e-4)
        fresh.load_state_dict(legacy)
        fresh.verify_moments()

    def test_on_disk_checkpoint_roundtrip_verifies(self, tmp_path):
        model, optimizer = self._trained()
        manager = CheckpointManager(directory=str(tmp_path))
        manager.save(2, model, optimizer)
        manager.restore(model, optimizer)
        optimizer.verify_moments()


class TestScopeCLI:
    def test_protect_scope_flag_runs_quickstart(self, capsys):
        from repro.cli import main
        assert main(["quickstart", "--matrix", "FO", "--error-type", "inf",
                     "--protect-scope", "attention+ffn"]) == 0
        out = capsys.readouterr().out
        assert "detections           : 1" in out
        assert "corrections          : 1" in out

    def test_scopes_constant(self):
        assert PROTECT_SCOPES == ("attention", "attention+ffn")

    def test_protect_scope_flag_rejects_full_alias(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["quickstart", "--protect-scope", "full"])
        assert "invalid choice: 'full'" in capsys.readouterr().err
