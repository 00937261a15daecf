"""Unit tests for optimisers, checkpointing and the trainer."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import ATTNChecker
from repro.data import DataLoader, SyntheticMRPC
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.nn.attention import ComposedHooks, InstrumentedBlock
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.training import (
    AdamW,
    CheckpointManager,
    SGD,
    StepResult,
    Trainer,
    TrainerConfig,
)
from repro.training.trainer import clip_gradients


def quadratic_model():
    """A single-parameter model minimising (w - 3)^2."""

    class Quad(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(np.array([0.0]))

        def forward(self):
            diff = self.w - 3.0
            return (diff * diff).sum()

    return Quad()


class TestSGD:
    def test_converges_on_quadratic(self):
        model = quadratic_model()
        opt = SGD(model.parameters(), lr=0.1)
        for _ in range(100):
            model.zero_grad()
            model().backward()
            opt.step()
        assert model.w.data[0] == pytest.approx(3.0, abs=1e-3)

    def test_momentum_accelerates(self):
        plain, with_momentum = quadratic_model(), quadratic_model()
        opt_a = SGD(plain.parameters(), lr=0.01)
        opt_b = SGD(with_momentum.parameters(), lr=0.01, momentum=0.9)
        for _ in range(30):
            for model, opt in ((plain, opt_a), (with_momentum, opt_b)):
                model.zero_grad()
                model().backward()
                opt.step()
        assert abs(with_momentum.w.data[0] - 3.0) < abs(plain.w.data[0] - 3.0)

    def test_weight_decay_shrinks_weights(self):
        model = quadratic_model()
        model.w.data[:] = 10.0
        opt = SGD(model.parameters(), lr=0.0001, weight_decay=100.0)
        model.zero_grad()
        model().backward()
        opt.step()
        assert model.w.data[0] < 10.0

    def test_invalid_args(self):
        model = quadratic_model()
        with pytest.raises(ValueError):
            SGD(model.parameters(), lr=-1.0)
        with pytest.raises(ValueError):
            SGD(model.parameters(), lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_state_dict_roundtrip(self):
        model = quadratic_model()
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        model.zero_grad()
        model().backward()
        opt.step()
        state = opt.state_dict()
        other = SGD(model.parameters(), lr=0.1, momentum=0.9)
        other.load_state_dict(state)
        assert other.step_count == 1
        assert np.allclose(other._velocity[0], opt._velocity[0])


class TestAdamW:
    def test_converges_on_quadratic(self):
        model = quadratic_model()
        opt = AdamW(model.parameters(), lr=0.1, weight_decay=0.0)
        for _ in range(300):
            model.zero_grad()
            model().backward()
            opt.step()
        assert model.w.data[0] == pytest.approx(3.0, abs=1e-2)

    def test_skips_parameters_without_grad(self):
        model = quadratic_model()
        opt = AdamW(model.parameters(), lr=0.1)
        opt.step()  # no backward called; should not raise or change weights
        assert model.w.data[0] == 0.0

    def test_invalid_betas(self):
        model = quadratic_model()
        with pytest.raises(ValueError):
            AdamW(model.parameters(), betas=(1.2, 0.9))

    def test_state_dict_roundtrip(self):
        model = quadratic_model()
        opt = AdamW(model.parameters(), lr=0.01)
        model.zero_grad()
        model().backward()
        opt.step()
        other = AdamW(model.parameters(), lr=0.01)
        other.load_state_dict(opt.state_dict())
        assert np.allclose(other._m[0], opt._m[0]) and np.allclose(other._v[0], opt._v[0])


@pytest.mark.parametrize("make", [
    lambda params: SGD(params, lr=0.1, momentum=0.9),
    lambda params: AdamW(params, lr=0.01),
], ids=["sgd", "adamw"])
def test_optimizer_state_slots_are_copies(make):
    model = quadratic_model()
    opt = make(model.parameters())
    model.zero_grad()
    model().backward()
    opt.step()
    slot = "velocity.0" if isinstance(opt, SGD) else "m.0"
    live = (opt._velocity if isinstance(opt, SGD) else opt._m)[0]
    before = live.copy()
    state = opt.state_dict()
    state[slot][:] = 123.0
    assert np.array_equal(live, before)
    other = make(model.parameters())
    other.load_state_dict(opt.state_dict())
    restored = (other._velocity if isinstance(other, SGD) else other._m)[0]
    assert restored is not live and np.array_equal(restored, live)


class TestClipGradients:
    def test_large_gradients_clipped_to_norm(self):
        layer = Linear(4, 4, rng=np.random.default_rng(0))
        layer.weight.grad = np.full((4, 4), 10.0)
        layer.bias.grad = np.zeros(4)
        norm = clip_gradients(layer, max_norm=1.0)
        assert norm > 1.0
        new_norm = math.sqrt(float(np.sum(layer.weight.grad ** 2)))
        assert new_norm == pytest.approx(1.0, rel=1e-3)

    def test_small_gradients_untouched(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight.grad = np.full((2, 2), 0.01)
        clip_gradients(layer, max_norm=1.0)
        assert np.allclose(layer.weight.grad, 0.01)

    def test_nonfinite_norm_left_alone(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight.grad = np.array([[np.inf, 0.0], [0.0, 0.0]])
        norm = clip_gradients(layer, max_norm=1.0)
        assert math.isinf(norm)
        assert np.isinf(layer.weight.grad).any()


class TestCheckpointManager:
    def test_in_memory_save_restore(self):
        model = build_model("bert-small", size="tiny", rng=np.random.default_rng(0))
        manager = CheckpointManager()
        original = {k: v.copy() for k, v in model.state_dict().items()}
        manager.save(1, model)
        for p in model.parameters():
            p.data = p.data + 1.0
        manager.restore(model)
        for key, value in model.state_dict().items():
            assert np.allclose(value, original[key])

    def test_on_disk_save_restore(self, tmp_path):
        model = build_model("bert-small", size="tiny", rng=np.random.default_rng(0))
        opt = AdamW(model.parameters(), lr=1e-3)
        manager = CheckpointManager(directory=str(tmp_path))
        manager.save(3, model, opt)
        assert manager.latest.path is not None
        for p in model.parameters():
            p.data = p.data * 0.0
        manager.restore(model, opt)
        assert not np.allclose(model.parameters()[0].data, 0.0)

    def test_keep_last_prunes_old_files(self, tmp_path):
        model = build_model("bert-small", size="tiny", rng=np.random.default_rng(0))
        manager = CheckpointManager(directory=str(tmp_path), keep_last=2)
        for step in range(5):
            manager.save(step, model)
        assert len(manager.records) == 2
        assert len(list(tmp_path.glob("checkpoint_*.npz"))) == 2

    def test_restore_without_checkpoint_raises(self):
        model = build_model("bert-small", size="tiny", rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            CheckpointManager().restore(model)

    def test_timing_counters(self):
        model = build_model("bert-small", size="tiny", rng=np.random.default_rng(0))
        manager = CheckpointManager()
        manager.save(1, model)
        manager.restore(model)
        assert manager.num_saves == 1 and manager.num_restores == 1
        assert manager.total_save_seconds >= 0.0 and manager.total_load_seconds >= 0.0

    def test_invalid_keep_last(self):
        with pytest.raises(ValueError):
            CheckpointManager(keep_last=0)

    def test_nbytes_counts_model_and_optimizer_state(self):
        model = quadratic_model()
        opt = AdamW(model.parameters(), lr=0.01)
        model.zero_grad()
        model().backward()
        opt.step()
        record = CheckpointManager().save(1, model, opt)
        expected = sum(p.data.nbytes for p in model.parameters()) + sum(
            np.asarray(v).nbytes for v in opt.state_dict().values()
        )
        assert record.nbytes == expected

    def test_on_disk_round_trip_is_bit_exact(self, tmp_path):
        model = quadratic_model()
        opt = AdamW(model.parameters(), lr=0.01)
        model.zero_grad()
        model().backward()
        opt.step()
        weights, moments = model.w.data.copy(), (opt._m[0].copy(), opt._v[0].copy())
        manager = CheckpointManager(directory=str(tmp_path))
        manager.save(1, model, opt)
        model.zero_grad()
        model().backward()
        opt.step()
        manager.restore(model, opt)
        assert np.array_equal(model.w.data, weights)
        assert np.array_equal(opt._m[0], moments[0]) and np.array_equal(opt._v[0], moments[1])


class TestTrainer:
    @pytest.fixture
    def setup(self):
        model = build_model("bert-small", size="tiny", rng=np.random.default_rng(0))
        data = SyntheticMRPC(
            num_examples=32, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size, seed=5,
        )
        loader = DataLoader(data, batch_size=8, shuffle=False)
        return model, loader.batches()

    def test_single_step_updates_weights(self, setup):
        model, batches = setup
        before = model.parameters()[0].data.copy()
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3))
        result = trainer.train_step(batches[0])
        assert np.isfinite(result.loss)
        assert not np.allclose(model.parameters()[0].data, before)
        assert result.step_seconds > 0

    def test_plain_trainer_attaches_no_hooks(self, setup):
        # Without a checker or fault hooks every instrumented block runs the
        # plain GEMM path: the trainer adds no hook of its own.
        model, batches = setup
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3))
        trainer.train_step(batches[0])
        blocks = [m for _, m in model.named_modules() if isinstance(m, InstrumentedBlock)]
        assert len(blocks) == 2 * model.config.num_layers
        assert all(block.hooks is None for block in blocks)

    def test_trainer_composes_fault_hooks_before_the_checker(self, setup):
        model, _ = setup
        injector = FaultInjector([FaultSpec(matrix="AS", error_type="inf")])
        checker = ATTNChecker()
        Trainer(model, fault_hooks=[injector], checker=checker)
        chains = [m.hooks for _, m in model.named_modules() if isinstance(m, InstrumentedBlock)]
        assert all(chain is chains[0] for chain in chains)
        assert isinstance(chains[0], ComposedHooks) and chains[0].hooks == [injector, checker]

    def test_config_and_result_surface(self):
        # Verification runs in-pass, so the trainer has no staleness policy
        # and its step results carry no stale or re-execution counters.
        assert [f.name for f in dataclasses.fields(TrainerConfig)] == [
            "learning_rate", "weight_decay", "max_grad_norm", "checkpoint_every",
            "restore_on_non_trainable", "max_retries_per_step", "log_every",
        ]
        assert [f.name for f in dataclasses.fields(StepResult)] == [
            "step", "loss", "step_seconds", "abft_seconds",
            "corrections", "detections", "restored_from_checkpoint",
        ]

    def test_abft_seconds_sum_to_checker_overhead(self, setup):
        model, batches = setup
        checker = ATTNChecker()
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
        results = [trainer.train_step(batch) for batch in batches[:2]]
        assert all(result.abft_seconds > 0 for result in results)
        assert sum(result.abft_seconds for result in results) == pytest.approx(
            checker.overhead_seconds()
        )

    def test_loss_decreases_over_epochs(self, setup):
        model, batches = setup
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3))
        metrics = trainer.train(batches, epochs=3)
        losses = metrics.epoch_losses()
        assert len(losses) == 3
        assert losses[-1] < losses[0]

    def test_metrics_accumulate(self, setup):
        model, batches = setup
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3))
        trainer.train(batches[:2], epochs=2)
        assert len(trainer.metrics.steps) == 4
        summary = trainer.metrics.as_dict()
        assert summary["num_steps"] == 4
        assert summary["non_trainable_steps"] == 0

    def test_evaluate_reports_accuracy(self, setup):
        model, batches = setup
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3))
        result = trainer.evaluate(batches)
        assert 0.0 <= result["accuracy"] <= 1.0
        assert np.isfinite(result["loss"])

    def test_checkpoint_every_step_saves(self, setup):
        model, batches = setup
        manager = CheckpointManager()
        trainer = Trainer(
            model,
            config=TrainerConfig(learning_rate=1e-3, checkpoint_every=1),
            checkpoints=manager,
        )
        trainer.train_step(batches[0])
        trainer.train_step(batches[1])
        assert manager.num_saves == 2

    def test_nan_loss_triggers_restore(self, setup):
        model, batches = setup
        manager = CheckpointManager()
        trainer = Trainer(
            model,
            config=TrainerConfig(
                learning_rate=1e-3, checkpoint_every=1, restore_on_non_trainable=True
            ),
            checkpoints=manager,
        )
        trainer.train_step(batches[0])  # creates a checkpoint
        # Poison the weights so the next step yields a NaN loss.
        model.parameters()[0].data[:] = np.nan
        result = trainer.train_step(batches[1])
        assert result.restored_from_checkpoint
        assert np.isfinite(result.loss)
        assert manager.num_restores >= 1
