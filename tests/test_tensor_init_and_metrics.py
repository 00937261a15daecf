"""Unit tests for parameter initialisers and the training metrics container."""

import math

import numpy as np
import pytest

from repro.tensor.init import normal_init, zeros_init
from repro.training.metrics import StepResult, TrainingMetrics


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestInitialisers:
    def test_normal_std(self, rng):
        w = normal_init((200, 200), rng, std=0.02)
        assert w.std() == pytest.approx(0.02, rel=0.1)
        assert abs(w.mean()) < 0.001

    def test_zeros(self):
        w = zeros_init((3, 4))
        assert np.array_equal(w, np.zeros((3, 4)))

    def test_deterministic_given_rng_seed(self):
        a = normal_init((10, 10), np.random.default_rng(7))
        b = normal_init((10, 10), np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestStepResult:
    def test_non_trainable_detects_nan(self):
        assert StepResult(step=1, loss=float("nan"), step_seconds=0.1).non_trainable
        assert not StepResult(step=1, loss=0.5, step_seconds=0.1).non_trainable


class TestTrainingMetrics:
    def make(self, losses, epochs=None):
        metrics = TrainingMetrics()
        for i, loss in enumerate(losses):
            metrics.record(StepResult(step=i + 1, loss=loss, step_seconds=0.1,
                                      abft_seconds=0.005,
                                      corrections=1 if i % 2 else 0))
            if epochs and (i + 1) in epochs:
                metrics.end_epoch()
        return metrics

    def test_epoch_losses_mean_per_epoch(self):
        metrics = self.make([1.0, 0.8, 0.6, 0.4], epochs=[2, 4])
        assert metrics.epoch_losses() == [pytest.approx(0.9), pytest.approx(0.5)]

    def test_epoch_losses_without_boundaries_uses_all_steps(self):
        metrics = self.make([1.0, 0.5])
        assert metrics.epoch_losses() == [pytest.approx(0.75)]

    def test_nan_losses_excluded_from_epoch_mean(self):
        metrics = self.make([1.0, float("nan"), 0.5], epochs=[3])
        assert metrics.epoch_losses() == [pytest.approx(0.75)]
        assert metrics.num_non_trainable() == 1

    def test_all_nan_epoch_is_nan(self):
        metrics = self.make([float("nan"), float("nan")], epochs=[2])
        assert math.isnan(metrics.epoch_losses()[0])

    def test_timing_totals(self):
        metrics = self.make([0.5, 0.4, 0.3])
        assert metrics.total_step_seconds() == pytest.approx(0.3)
        assert metrics.total_abft_seconds() == pytest.approx(0.015)
        assert metrics.mean_step_seconds() == pytest.approx(0.1)

    def test_corrections_counted(self):
        metrics = self.make([0.5, 0.4, 0.3, 0.2])
        assert metrics.total_corrections() == 2

    def test_as_dict_keys(self):
        summary = self.make([0.5, 0.4]).as_dict()
        assert {"num_steps", "mean_loss", "mean_step_seconds", "non_trainable_steps",
                "corrections", "total_abft_seconds"} <= set(summary)
        assert summary["num_steps"] == 2

    def test_empty_metrics(self):
        metrics = TrainingMetrics()
        assert metrics.mean_step_seconds() == 0.0
        assert metrics.num_non_trainable() == 0
