"""Tests for the checksum screen in front of EEC-ABFT and the phase timers.

:func:`repro.core.correction.correct_matrix` screens every boundary matrix
first: one magnitude scan for extreme values, then the unweighted
reduce-and-compare of each checksum side present.  The screen must say
"clean" exactly when EEC-ABFT's full passes would detect nothing, so every
detection decision is the one the full passes make; a clean matrix gets a
report without sub-reports.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import available_array_backends, get_backend
from repro.core import ATTNChecker, ATTNCheckerConfig, ProtectionEngine
from repro.core import eec_abft
from repro.core.checksums import ChecksumState, encode_column_checksums, encode_row_checksums
from repro.core.correction import correct_matrix
from repro.core.eec_abft import check_columns, check_rows
from repro.core.engine import request_dirty_from_report
from repro.core.thresholds import ABFTThresholds
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.nn import ComposedHooks
from repro.serving import RequestGenerator, ServingConfig, ServingEngine
from repro.utils.timing import Timer, TimingRegistry

CASES = ["clean", "inf", "-inf", "nan", "near_inf", "numeric", "consistent", "2d"]


@st.composite
def screened_block(draw):
    """A (possibly corrupted) block, its checksum sides and thresholds."""
    dtype = np.dtype(draw(st.sampled_from(["float16", "float32", "float64"])))
    sides = draw(st.sampled_from(["col", "row", "both"]))
    case = draw(st.sampled_from(CASES))
    lead = draw(st.sampled_from([(), (2,), (2, 3)]))
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    clean = rng.uniform(-10, 10, size=lead + (m, n)).astype(dtype)
    data = clean.copy()
    index = tuple(int(rng.integers(0, s)) for s in data.shape)
    delta = draw(st.floats(min_value=1e-6, max_value=1e4))
    with np.errstate(over="ignore", invalid="ignore"):
        if case in ("inf", "-inf", "nan"):
            data[index] = float(case)
        elif case == "near_inf":
            data[index] = 1e12 * draw(st.sampled_from([1.0, -1.0]))  # INF in float16
        elif case == "numeric":
            data[index] += delta
        elif case == "consistent":
            # A whole column corrupted before the column checksums were encoded.
            data[..., index[-1]] += draw(st.sampled_from([delta, 1e12, np.nan]))
        elif case == "2d":
            fill = draw(st.sampled_from([delta, np.nan]))
            data[..., : max(2, m // 2), : max(2, n // 2)] += fill
    # The column side of a consistent corruption is encoded from the
    # corrupted data (as when the checksums derive from a corrupted operand);
    # every other checksum is encoded from the clean data.
    col_source = data if case == "consistent" else clean
    row_source = data if case == "consistent" and sides == "row" else clean
    with np.errstate(invalid="ignore"):
        col = encode_column_checksums(col_source) if sides in ("col", "both") else None
        row = encode_row_checksums(row_source) if sides in ("row", "both") else None
    return data, col, row, ABFTThresholds.for_precision(dtype.name)


def full_passes_detect_nothing(data, col, row, thresholds):
    """EEC-ABFT's verdict: each side present, run on copies, detects nothing."""
    with np.errstate(all="ignore"):
        clean = True
        if col is not None:
            clean &= check_columns(data.copy(), col.copy(), thresholds).num_detected == 0
        if row is not None:
            clean &= check_rows(data.copy(), row.copy(), thresholds).num_detected == 0
    return clean


class TestScreenAgreesWithEECABFT:
    @given(case=screened_block())
    @settings(max_examples=300, deadline=None)
    def test_screen_clean_exactly_when_full_passes_detect_nothing(self, case):
        data, col, row, thresholds = case
        matrix = data.copy()
        state = ChecksumState(
            col=None if col is None else col.copy(), row=None if row is None else row.copy()
        )
        with np.errstate(all="ignore"):
            report = correct_matrix(matrix, state, thresholds)
        screened_clean = report.column_report is None and report.row_report is None
        assert screened_clean == full_passes_detect_nothing(data, col, row, thresholds)
        if screened_clean:
            # The clean-report contract.
            assert (report.detected, report.corrected, report.aborted) == (0, 0, 0)
            assert report.residual_extreme == 0 and not report.checksums_recomputed
            assert not (report.used_column_side or report.used_row_side)
            assert request_dirty_from_report(report) is None
            assert matrix.tobytes() == data.tobytes()
            assert state.col is None or state.col.tobytes() == col.tobytes()
        else:
            assert report.detected > 0


def special_block(value, position, sides):
    rng = np.random.default_rng(11)
    block = rng.normal(size=(2, 5, 6))
    col = encode_column_checksums(block) if sides in ("col", "both") else None
    row = encode_row_checksums(block) if sides in ("row", "both") else None
    block[position] = value
    return block, col, row


class TestScanFlagsEveryExtremeClass:
    """One NaN, -INF or near-INF element in an otherwise clean block is
    flagged on every installed backend (the magnitude scan's NaN handling)."""

    @pytest.mark.parametrize("backend_name", available_array_backends())
    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e12, -1e12],
                             ids=["nan", "-inf", "near_inf", "-near_inf"])
    @pytest.mark.parametrize("position", [(0, 0, 0), (1, 2, 3), (1, 4, 5)],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("sides", ["col", "row", "both"])
    def test_single_extreme_element_is_flagged(self, backend_name, value, position, sides):
        backend = get_backend(backend_name)
        block, col, row = special_block(value, position, sides)
        matrix = backend.from_numpy(block)
        thresholds = ABFTThresholds()
        assert thresholds.any_extreme(matrix)
        state = ChecksumState(
            col=None if col is None else backend.from_numpy(col),
            row=None if row is None else backend.from_numpy(row),
        )
        with np.errstate(all="ignore"):
            report = correct_matrix(matrix, state, thresholds)
        assert report.detected > 0
        assert report.column_report is not None or report.row_report is not None

    @pytest.mark.parametrize("backend_name", available_array_backends())
    def test_clean_block_is_not_flagged(self, backend_name):
        backend = get_backend(backend_name)
        block = np.random.default_rng(11).normal(size=(2, 5, 6)) * 1e9
        assert not ABFTThresholds().any_extreme(backend.from_numpy(block))

    def test_empty_batch_is_clean(self):
        block = np.zeros((0, 4, 5))
        state = ChecksumState(col=encode_column_checksums(block), row=encode_row_checksums(block))
        assert not ABFTThresholds().any_extreme(block)
        assert correct_matrix(block, state).clean


def count_calls(monkeypatch, original):
    """Count every call into ``original``, whichever ``repro`` module bound it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, counted)
    return calls


def serve_gpt2(injector_specs=None):
    model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
    model.eval()
    checker = ATTNChecker(ATTNCheckerConfig(protect_scope="attention+ffn"))
    injector = None
    if injector_specs:
        injector = FaultInjector(injector_specs, rng=np.random.default_rng(0))
        model.set_attention_hooks(ComposedHooks([injector, checker]))
    else:
        model.set_attention_hooks(checker)
    requests = RequestGenerator(
        vocab_size=model.config.vocab_size, prompt_len_range=(3, 6),
        new_tokens_range=(3, 5), seed=5,
    ).generate(4)
    engine = ServingEngine(
        model, checker=checker, injector=injector, config=ServingConfig(max_batch_size=4)
    )
    report = engine.run(requests)
    model.set_attention_hooks(None)
    return checker, report


class TestCleanServingRunsNoEECABFT:
    """Deterministic guard for the screen's cost: no wall clock involved."""

    def test_fault_free_batch_never_calls_check_columns(self, monkeypatch):
        eec_calls = count_calls(monkeypatch, eec_abft.check_columns)
        verifications = count_calls(monkeypatch, correct_matrix)
        checker, report = serve_gpt2()
        assert eec_calls == []
        # Still one detect dispatch per verified boundary.
        assert checker.dispatch_counts["detect"] == len(verifications)
        assert len(verifications) == checker.stats.total_checks > 0
        assert report.checker_stats["detections"] == 0

    def test_armed_injector_reaches_check_columns(self, monkeypatch):
        eec_calls = count_calls(monkeypatch, eec_abft.check_columns)
        verifications = count_calls(monkeypatch, correct_matrix)
        checker, report = serve_gpt2(
            [FaultSpec(matrix="H", error_type="near_inf", layer_index=0, position=(1, 0, 3))]
        )
        assert len(eec_calls) >= 1
        assert checker.dispatch_counts["detect"] == len(verifications)
        assert report.checker_stats["detections"] >= 1
        assert report.checker_stats["corrections"] >= 1


class TestTimers:
    def test_timer_is_its_own_context_manager(self):
        timer = Timer()
        with timer as entered:
            assert entered is timer
        with timer.measure() as entered:
            assert entered is timer
        assert timer.count == 2

    def test_registry_measure_is_the_keys_timer(self):
        registry = TimingRegistry()
        with pytest.raises(KeyError):
            with registry.measure("AS/detect") as timer:
                raise KeyError("boom")
        assert timer is registry.timer("AS/detect")
        assert timer.count == 1 and registry.elapsed("AS/detect") == timer.elapsed
        timer.start().stop()  # stopped although the body raised

    def test_engine_phase_synchronizes_on_both_edges(self):
        class RecordingBackend:
            def __init__(self, timer):
                self.timer, self.events = timer, []

            def synchronize(self):
                self.events.append(("sync", self.timer.count))

        engine = ProtectionEngine()
        backend = RecordingBackend(engine.timers.timer("AS/encode"))
        with pytest.raises(RuntimeError):
            with engine._timed("AS/encode", backend):
                backend.events.append(("body", None))
                raise RuntimeError("phase failed")
        # Barrier before the clock starts, barrier before it stops, and the
        # interval is recorded although the body raised.
        assert backend.events == [("sync", 0), ("body", None), ("sync", 0)]
        assert engine.timers.timer("AS/encode").count == 1
