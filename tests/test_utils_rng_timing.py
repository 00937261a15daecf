"""Unit tests for the RNG factory and the timing utilities."""

import threading
import time

import numpy as np
import pytest

from repro.utils.rng import DEFAULT_SEED, new_rng
from repro.utils.timing import Timer, TimingRegistry


class TestNewRng:
    def test_default_seed_is_deterministic(self):
        assert new_rng().integers(0, 1000) == new_rng().integers(0, 1000)

    def test_explicit_seed_reproducible(self):
        a = new_rng(7).normal(size=5)
        b = new_rng(7).normal(size=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(new_rng(1).normal(size=8), new_rng(2).normal(size=8))

    def test_none_maps_to_the_library_default_seed(self):
        assert np.array_equal(new_rng(None).normal(size=8), new_rng(DEFAULT_SEED).normal(size=8))


class TestTimer:
    def test_measures_positive_time(self):
        timer = Timer()
        with timer.measure():
            time.sleep(0.001)
        assert timer.elapsed > 0
        assert timer.count == 1

    def test_mean_over_multiple_measurements(self):
        timer = Timer()
        for _ in range(3):
            with timer.measure():
                pass
        assert timer.count == 3
        assert timer.mean == pytest.approx(timer.elapsed / 3)

    def test_double_start_raises(self):
        timer = Timer().start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        timer = Timer()
        with timer.measure():
            pass
        timer.reset()
        assert timer.elapsed == 0.0 and timer.count == 0

    def test_mean_is_zero_before_the_first_stop(self):
        timer = Timer().start()
        assert timer.mean == 0.0

    def test_stop_returns_the_interval_it_adds(self):
        timer = Timer()
        timer.start()
        first = timer.stop()
        timer.start()
        second = timer.stop()
        assert first >= 0.0 and second >= 0.0
        assert timer.elapsed == pytest.approx(first + second)

    def test_measure_stops_the_timer_when_the_body_raises(self):
        timer = Timer()
        with pytest.raises(KeyError):
            with timer.measure():
                raise KeyError("boom")
        assert timer.count == 1
        timer.start()  # not left running
        timer.stop()


class TestTimingRegistry:
    def test_accumulates_by_key(self):
        registry = TimingRegistry()
        with registry.measure("a/x"):
            pass
        with registry.measure("a/y"):
            pass
        with registry.measure("b/z"):
            pass
        assert registry.total("a/") == pytest.approx(
            registry.elapsed("a/x") + registry.elapsed("a/y")
        )
        assert registry.total() >= registry.total("a/")

    def test_unknown_key_elapsed_is_zero(self):
        assert TimingRegistry().elapsed("missing") == 0.0

    def test_keys_sorted(self):
        registry = TimingRegistry()
        registry.timer("b")
        registry.timer("a")
        assert registry.keys() == ["a", "b"]

    def test_report_contains_keys(self):
        registry = TimingRegistry()
        with registry.measure("encode"):
            pass
        assert "encode" in registry.report()

    def test_reset_clears(self):
        registry = TimingRegistry()
        with registry.measure("x"):
            pass
        registry.reset()
        assert registry.as_dict() == {}

    def test_timer_is_one_object_per_key(self):
        registry = TimingRegistry()
        assert registry.timer("abft/encode") is registry.timer("abft/encode")
        assert registry.timer("abft/encode") is not registry.timer("abft/detect")

    def test_add_folds_an_external_duration(self):
        registry = TimingRegistry()
        registry.add("comm/allreduce", 0.25)
        registry.add("comm/allreduce", 0.5, count=3)
        timer = registry.timer("comm/allreduce")
        assert timer.elapsed == pytest.approx(0.75)
        assert timer.count == 4

    def test_add_from_many_threads_loses_nothing(self):
        registry = TimingRegistry()

        def feed():
            for _ in range(500):
                registry.add("comm/bucket", 1.0)

        workers = [threading.Thread(target=feed) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.elapsed("comm/bucket") == 2000.0
        assert registry.timer("comm/bucket").count == 2000

    def test_report_lists_the_longest_timer_first(self):
        registry = TimingRegistry()
        registry.add("short", 0.001)
        registry.add("long", 2.0, count=4)
        lines = registry.report().splitlines()
        assert lines[0].split() == ["key", "calls", "total", "(s)", "mean", "(ms)"]
        assert [line.split()[0] for line in lines[1:]] == ["long", "short"]
        assert lines[1].split()[1:] == ["4", "2.000000", "500.0000"]
