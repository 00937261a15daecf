"""Tests for the fused ProtectionEngine and its per-GEMM reference backend.

The central property: the fused section-level checksum-passing engine and the
original per-GEMM hook implementation must make **identical** detection and
correction decisions (and produce byte-identical protected outputs) under a
fault-injection campaign covering every target matrix and error type.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from repro.core import (
    CHECKER_BACKENDS,
    ATTNChecker,
    ATTNCheckerConfig,
    ProtectionEngine,
    SectionCostModel,
    correct_matrix,
)
from repro.core.checksums import (
    encode_column_checksums,
    encode_row_checksums,
    merge_head_column_checksums,
)
from repro.core.correction import MatrixCorrectionReport
from repro.core.thresholds import ABFTThresholds
from repro.core.eec_abft import check_columns, check_rows
from repro.core.engine import fold_request_dirty, request_dirty_from_report
from repro.faults import FaultInjector, FaultSpec
from repro.models import get_config
from repro.nn import (
    SECTION_BOUNDARY_OPS,
    AttentionHooks,
    ComposedHooks,
    MultiHeadAttention,
    SectionContext,
)
from repro.nn.attention import AttentionOp, FeedForwardOp
from repro.tensor import ops
from repro.tensor.autograd import Tensor
from repro.utils.floatbits import flip_exponent_msb


@pytest.fixture
def rng():
    return np.random.default_rng(41)


def make_attention(seed=41, hidden=16, heads=4, bias=True):
    attn = MultiHeadAttention(
        hidden_size=hidden, num_heads=heads, dropout_p=0.0,
        rng=np.random.default_rng(seed), bias=bias,
    )
    attn.eval()
    return attn


def run_attention(attention, x, hooks):
    attention.set_hooks(hooks)
    try:
        return attention(Tensor(x)).data.copy()
    finally:
        attention.set_hooks(None)


def run_with_backend(backend, matrix, error_type, x, seed=7, bias=True, config_kwargs=None):
    """One single-fault protected forward pass; returns (output, decisions)."""
    attention = make_attention(bias=bias)
    injector = FaultInjector(
        [FaultSpec(matrix=matrix, error_type=error_type, layer_index=0)],
        rng=np.random.default_rng(seed),
    )
    checker = ATTNChecker(ATTNCheckerConfig(backend=backend, **(config_kwargs or {})))
    output = run_attention(attention, x, ComposedHooks([injector, checker]))
    decisions = {
        name: (
            stats.checks_run,
            stats.detections,
            stats.corrections,
            stats.aborted_vectors,
            stats.residual_extreme,
            stats.operand_repairs,
        )
        for name, stats in checker.stats.sections.items()
    }
    return output, decisions


class TestBackendConfig:
    def test_default_backend_is_fused(self):
        checker = ATTNChecker()
        assert checker.backend == "fused"
        assert checker.engine is not None

    def test_per_gemm_backend_selectable(self):
        checker = ATTNChecker(ATTNCheckerConfig(backend="per_gemm"))
        assert checker.backend == "per_gemm"
        assert checker.engine is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ATTNCheckerConfig(backend="cuda")

    def test_dispatch_accounting(self):
        model = SectionCostModel(get_config("bert-base", size="paper"), batch_size=8)
        assert model.python_dispatches_per_layer("fused") == 3
        assert model.python_dispatches_per_layer("per_gemm") == 6
        with pytest.raises(KeyError):
            model.python_dispatches_per_layer("other")


class TestPublicSurface:
    """One fused schedule and one verification mode: the configuration
    surface has no schedule flags, no detection-only or asynchronous mode,
    no alias and no array-backend pin."""

    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(ATTNCheckerConfig)] == [
            "thresholds", "frequencies", "protect_scope", "backend",
        ]

    def test_section_context_fields(self):
        # The end-to-end benchmark reads ``ctx.section`` and ``ctx.layer_index``.
        assert [f.name for f in dataclasses.fields(SectionContext)] == [
            "section", "operands", "layer_index", "step", "num_heads", "head_dim",
            "seq_len", "phase",
        ]

    def test_engine_parameters(self):
        assert list(inspect.signature(ProtectionEngine).parameters) == [
            "thresholds", "timers",
        ]

    def test_cost_model_parameters(self):
        assert list(inspect.signature(SectionCostModel).parameters) == [
            "config", "batch_size", "seq_len",
        ]

    def test_correct_matrix_parameters(self):
        assert list(inspect.signature(correct_matrix).parameters) == [
            "matrix", "checksums", "thresholds",
        ]

    @pytest.mark.parametrize("encoder", [encode_column_checksums, encode_row_checksums])
    def test_encoder_parameters(self, encoder):
        # An encoder returns a new float64 array: no output buffer, no dtype.
        assert list(inspect.signature(encoder).parameters) == ["matrix"]

    def test_merge_head_column_checksums_parameters(self):
        assert list(inspect.signature(merge_head_column_checksums).parameters) == [
            "per_head",
        ]

    @pytest.mark.parametrize("backend", CHECKER_BACKENDS)
    def test_workspace_stats_read_zero(self, rng, backend):
        # The frozen end-to-end harness reads ``workspace_stats()["allocations"]``
        # for its ``core.workspace_allocations_per_op`` metric.  No checker
        # keeps a buffer arena, so every counter reads 0 after protected passes.
        checker = ATTNChecker(ATTNCheckerConfig(backend=backend))
        attention = make_attention()
        for _ in range(2):
            run_attention(attention, rng.normal(size=(1, 4, 16)), checker)
        assert checker.stats.total_checks == 6
        assert checker.workspace_stats() == {
            "slots": 0, "allocations": 0, "reuses": 0, "bytes_allocated": 0,
        }


class TestFusedTransparency:
    def test_clean_forward_bitwise_unchanged(self, rng):
        attention = make_attention()
        x = rng.normal(size=(2, 6, 16))
        reference = run_attention(attention, x, None)
        checker = ATTNChecker()  # fused
        protected = run_attention(attention, x, checker)
        assert np.array_equal(protected, reference)
        assert checker.stats.total_detections == 0

    def test_section_hook_fires_at_boundaries_only(self, rng):
        seen = []

        class Recorder(AttentionHooks):
            def on_section_output(self, ctx, out):
                seen.append((ctx.section, ctx.layer_index))
                return out

        attention = make_attention()
        run_attention(attention, rng.normal(size=(1, 4, 16)), Recorder())
        assert seen == [("AS", 0), ("CL", 0), ("O", 0)]

    def test_fused_checker_skips_per_gemm_dispatch(self, rng):
        # The 3-instead-of-6 dispatch claim: a fused checker declares it does
        # not consume per-GEMM outputs, so MultiHeadAttention never dispatches
        # the non-boundary GEMM hooks for it.
        calls = {"gemm": 0, "section": 0}

        class CountingFused(ATTNChecker):
            def on_gemm_output(self, ctx, out):
                calls["gemm"] += 1
                return super().on_gemm_output(ctx, out)

            def on_section_output(self, ctx, out):
                calls["section"] += 1
                return super().on_section_output(ctx, out)

        attention = make_attention()
        run_attention(attention, rng.normal(size=(1, 4, 16)), CountingFused())
        assert calls == {"gemm": 0, "section": 3}

    def test_per_gemm_checker_still_gets_all_six_dispatches(self, rng):
        calls = {"gemm": 0}

        class CountingRef(ATTNChecker):
            def on_gemm_output(self, ctx, out):
                calls["gemm"] += 1
                return super().on_gemm_output(ctx, out)

        attention = make_attention()
        run_attention(
            attention, rng.normal(size=(1, 4, 16)),
            CountingRef(ATTNCheckerConfig(backend="per_gemm")),
        )
        assert calls["gemm"] == 6

    def test_composed_injector_restores_gemm_dispatch(self, rng):
        # An injector composed with a fused checker consumes per-GEMM outputs,
        # so the dispatches come back for the composition (and injection into
        # a non-boundary matrix still works — covered by the campaign tests).
        attention = make_attention()
        injector = FaultInjector(
            [FaultSpec(matrix="Q", error_type="inf", layer_index=0)],
            rng=np.random.default_rng(7),
        )
        checker = ATTNChecker()
        hooks = ComposedHooks([injector, checker])
        assert injector.consumes_gemm_outputs()
        assert not checker.consumes_gemm_outputs()
        assert hooks.consumes_gemm_outputs()
        run_attention(attention, rng.normal(size=(2, 6, 16)), hooks)
        assert injector.num_injections == 1
        assert checker.stats.total_corrections >= 1

    def test_boundary_op_mapping_consistent_with_sections(self):
        # The one boundary map agrees with the section registry: every
        # boundary op ends a registered section of its block and produces
        # that section's boundary matrix.
        from repro.core import SECTION_REGISTRY

        for op, name in SECTION_BOUNDARY_OPS.items():
            section = SECTION_REGISTRY[name]
            assert section.block == ("ffn" if isinstance(op, FeedForwardOp) else "attention")
            assert section.operations[-1] == op.value
            assert op.output_matrix == section.boundary_matrix
        assert set(SECTION_BOUNDARY_OPS) == {
            AttentionOp.QK, AttentionOp.APV, AttentionOp.CLO, *FeedForwardOp
        }
        assert sorted(SECTION_BOUNDARY_OPS.values()) == sorted(SECTION_REGISTRY)


@pytest.mark.parametrize("matrix", ["Q", "K", "V", "AS", "CL", "O"])
@pytest.mark.parametrize("error_type", ["inf", "nan", "near_inf", "numeric"])
class TestBackendEquivalenceCampaign:
    """Property: fused and per-GEMM backends are byte-identical per scenario."""

    def test_identical_decisions_and_outputs(self, rng, matrix, error_type):
        x = rng.normal(size=(2, 6, 16))
        fused_out, fused_decisions = run_with_backend("fused", matrix, error_type, x)
        ref_out, ref_decisions = run_with_backend("per_gemm", matrix, error_type, x)
        assert fused_decisions == ref_decisions
        assert np.array_equal(fused_out, ref_out, equal_nan=True)


class TestBackendEquivalenceVariants:
    def test_identical_without_bias(self, rng):
        x = rng.normal(size=(2, 5, 16))
        fused_out, fused_dec = run_with_backend("fused", "AS", "inf", x, bias=False)
        ref_out, ref_dec = run_with_backend("per_gemm", "AS", "inf", x, bias=False)
        assert fused_dec == ref_dec
        assert np.array_equal(fused_out, ref_out, equal_nan=True)

    def test_identical_under_frequency_gating(self, rng):
        # Half frequency: the gating accumulators must advance identically, so
        # both backends check and skip the same passes.
        x = rng.normal(size=(1, 4, 16))
        results = {}
        for backend in CHECKER_BACKENDS:
            attention = make_attention()
            checker = ATTNChecker(ATTNCheckerConfig(
                backend=backend, frequencies={"AS": 0.5, "CL": 0.5, "O": 0.5},
            ))
            for _ in range(4):
                run_attention(attention, x, checker)
            results[backend] = {
                name: (s.checks_run, s.checks_skipped)
                for name, s in checker.stats.sections.items()
            }
        assert results["fused"] == results["per_gemm"]
        assert results["fused"]["AS"] == (2, 2)

    def test_cl_off_reference_carries_no_row_v(self):
        # With CL off and O on, S_O still needs col(CL) but nothing reads
        # row(V): the reference stops at X W_V, so it dispatches the engine's
        # count plus only its unfused Q/K carry (one extra GEMM per layer).
        from repro.models import build_model

        outputs, decisions, gemms = {}, {}, {}
        for backend in CHECKER_BACKENDS:
            model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
            model.eval()
            ids = np.random.default_rng(5).integers(1, model.config.vocab_size, size=(2, 6))
            injector = FaultInjector(
                [FaultSpec(matrix="O", error_type="inf", layer_index=1)],
                rng=np.random.default_rng(3),
            )
            checker = ATTNChecker(ATTNCheckerConfig(backend=backend, frequencies={"CL": 0.0}))
            model.set_attention_hooks(ComposedHooks([injector, checker]))
            outputs[backend] = model(ids, attention_mask=np.ones_like(ids)).logits.data.copy()
            model.set_attention_hooks(None)
            decisions[backend] = {
                name: (s.checks_run, s.checks_skipped, s.detections, s.corrections)
                for name, s in checker.stats.sections.items()
            }
            gemms[backend] = checker.dispatch_counts["gemm"]
        layers = model.config.num_layers
        assert gemms == {"fused": 7 * layers, "per_gemm": 8 * layers}
        assert decisions["fused"] == decisions["per_gemm"]
        assert decisions["fused"]["O"][2:] == (1, 1)
        assert np.array_equal(outputs["fused"], outputs["per_gemm"])

    def test_fused_multi_fault_campaign_matches_reference(self, rng):
        # Several random faults across steps: accumulate statistics under both
        # backends and compare in aggregate.
        specs = [
            FaultSpec(matrix=m, error_type=e, layer_index=0)
            for m, e in [("Q", "inf"), ("V", "nan"), ("AS", "near_inf"), ("O", "numeric")]
        ]
        totals = {}
        for backend in CHECKER_BACKENDS:
            attention = make_attention()
            checker = ATTNChecker(ATTNCheckerConfig(backend=backend))
            for trial, spec in enumerate(specs):
                injector = FaultInjector([spec], rng=np.random.default_rng(100 + trial))
                x = np.random.default_rng(200 + trial).normal(size=(2, 6, 16))
                run_attention(attention, x, ComposedHooks([injector, checker]))
            totals[backend] = {
                name: (s.detections, s.corrections, s.aborted_vectors, s.residual_extreme)
                for name, s in checker.stats.sections.items()
            }
        assert totals["fused"] == totals["per_gemm"]
        assert sum(d for d, *_ in totals["fused"].values()) >= len(specs)


class TestEngineStandalone:
    def test_unknown_section_raises(self):
        engine = ProtectionEngine()
        engine.begin_layer(0, {"AS": True, "CL": True, "O": True})
        ctx = SectionContext(
            section="XX", operands={}, layer_index=0, step=1,
            num_heads=2, head_dim=4, seq_len=4,
        )
        with pytest.raises(KeyError):
            engine.protect_section(ctx, np.zeros((1, 4, 4)))

    def test_no_layer_state_is_safe(self):
        engine = ProtectionEngine()
        ctx = SectionContext(
            section="AS", operands={}, layer_index=3, step=1,
            num_heads=2, head_dim=4, seq_len=4,
        )
        assert engine.protect_section(ctx, np.zeros((1, 4, 4))) is None

    def test_reset_drops_caches_and_counters(self, rng):
        attention = make_attention()
        checker = ATTNChecker()
        run_attention(attention, rng.normal(size=(1, 4, 16)), checker)
        engine = checker.engine
        assert len(engine.weight_cache) > 0
        assert checker.stats.total_checks == 3
        checker.reset_stats()
        assert len(engine.weight_cache) == 0
        assert checker.dispatch_counts == {"gemm": 0, "detect": 0}
        assert checker.stats.total_checks == 0
        assert checker.overhead_seconds() == 0.0


class TestRequestAttribution:
    """Serving attributes a boundary verdict to the requests (batch entries) it touched."""

    def test_fold_reduces_to_the_batch_axis(self):
        mask = np.zeros((3, 2, 5), dtype=bool)
        mask[1, 1, 4] = True
        folded = fold_request_dirty(None, mask)
        assert folded.tolist() == [False, True, False]
        assert fold_request_dirty(np.array([True, False, False]), mask).tolist() == [
            True, True, False,
        ]

    def test_fold_leaves_dirty_alone_without_a_batch_axis(self):
        dirty = np.array([False, True])
        assert fold_request_dirty(dirty, np.ones(4, dtype=bool)) is dirty
        assert fold_request_dirty(None, np.ones(4, dtype=bool)) is None

    def test_report_marks_aborted_requests_dirty(self, rng):
        m = rng.normal(size=(4, 6, 5))
        col = encode_column_checksums(m)
        m[0, 1, 2] = np.inf      # request 0: two extremes in one column abort
        m[0, 4, 2] = np.nan
        m[2, 3, 1] = np.inf      # request 2: a single repairable fault
        column_report = check_columns(m, col)
        assert column_report.aborted[0, 2] and column_report.corrected[2, 1]
        report = MatrixCorrectionReport(column_report=column_report)
        assert request_dirty_from_report(report).tolist() == [True, False, True, False]

    def test_report_ors_the_column_and_row_sides(self, rng):
        m = rng.normal(size=(4, 6, 5))
        col, row = encode_column_checksums(m), encode_row_checksums(m)
        seen_by_columns, seen_by_rows = m.copy(), m.copy()
        seen_by_columns[1, 2, 3] = np.inf
        seen_by_rows[3, 0, 0] = np.nan
        report = MatrixCorrectionReport(
            column_report=check_columns(seen_by_columns, col),
            row_report=check_rows(seen_by_rows, row),
        )
        assert request_dirty_from_report(report).tolist() == [False, True, False, True]

    def test_report_without_sub_reports_has_no_verdict(self):
        assert request_dirty_from_report(MatrixCorrectionReport()) is None


# ---------------------------------------------------------------------------
# Synthetic single-layer fault campaign, engine level
# ---------------------------------------------------------------------------

CAMPAIGN_TARGETS = ("Q", "K", "AS", "CL", "O")
CAMPAIGN_ERRORS = ("inf", "nan", "near_inf")
#: The section whose boundary a fault in each target matrix reaches first:
#: Q and K feed ``AS = Q K^T``.
SECTION_OF_TARGET = {"Q": "AS", "K": "AS", "AS": "AS", "CL": "CL", "O": "O"}


def _split_heads(a, heads):
    b, s, d = a.shape
    return np.moveaxis(a.reshape(b, s, heads, d // heads), -2, -3)


def _merge_heads(a):
    b, h, s, dh = a.shape
    return np.moveaxis(a, -3, -2).reshape(b, s, h * dh)


def _layer_params(seed, dtype):
    rng = np.random.default_rng(900 + seed)
    b, s, heads, dh = 2, 5, 2, 4
    d = heads * dh
    make = lambda *shape: rng.normal(size=shape).astype(dtype)
    return {
        "geom": (b, s, heads, dh),
        "x": make(b, s, d),
        "w_q": make(d, d), "w_k": make(d, d), "w_v": make(d, d), "w_o": make(d, d),
        "bias_q": make(d), "bias_k": make(d), "bias_v": make(d),
    }


def _inject(boundary, error_type, position):
    if error_type == "inf":
        boundary[position] = math.inf
    elif error_type == "nan":
        boundary[position] = math.nan
    else:  # near_inf: exponent-MSB flip of the element
        boundary[position] = flip_exponent_msb(boundary[position], dtype=boundary.dtype)


def run_layer_campaign(seed, target, error_type, dtype=np.float64, explicit_thresholds=True):
    """One synthetic attention layer with one injected fault.

    Builds the six GEMMs by hand in ``dtype``, injects one fault into
    ``target`` (``"none"`` for a fault-free pass), and drives the fused
    engine through its three section dispatches exactly as
    ``MultiHeadAttention`` would, with the thresholds of ``dtype``'s
    precision: given explicitly, or resolved by the checks from the data
    when ``explicit_thresholds`` is False (an engine built without
    thresholds).  Returns ``{section: (detected, corrected, aborted,
    residual_extreme, operand_repairs)}`` and the (possibly repaired)
    boundary matrices.
    """
    p = _layer_params(seed, dtype)
    b, s, heads, dh = p["geom"]
    engine = ProtectionEngine(
        ABFTThresholds.for_precision(np.dtype(dtype).name) if explicit_thresholds else None
    )
    engine.begin_layer(0, {"AS": True, "CL": True, "O": True})

    def ctx(section, operands):
        return SectionContext(
            section=section, operands=operands, layer_index=0, step=1,
            num_heads=heads, head_dim=dh, seq_len=s,
        )

    outcomes = []
    q_proj = np.matmul(p["x"], p["w_q"]) + p["bias_q"]
    k_proj = np.matmul(p["x"], p["w_k"]) + p["bias_k"]
    v_proj = np.matmul(p["x"], p["w_v"]) + p["bias_v"]
    if target == "Q":
        _inject(q_proj, error_type, (0, 1, 2))
    if target == "K":
        _inject(k_proj, error_type, (1, 2, 3))
    q = _split_heads(q_proj, heads)
    k_t = np.swapaxes(_split_heads(k_proj, heads), -1, -2)
    v = _split_heads(v_proj, heads)

    as_out = np.matmul(q, k_t)
    if target == "AS":
        _inject(as_out, error_type, (0, 1, 2, 3))
    outcomes.append(engine.protect_section(ctx("AS", {
        "x": p["x"], "w_q": p["w_q"], "w_k": p["w_k"],
        "bias_q": p["bias_q"], "bias_k": p["bias_k"], "q": q, "k_t": k_t,
    }), as_out))

    ap = ops.softmax(as_out * (1.0 / math.sqrt(dh)), axis=-1)
    cl_out = np.matmul(ap, v)
    if target == "CL":
        _inject(cl_out, error_type, (1, 0, 2, 1))
    outcomes.append(engine.protect_section(ctx("CL", {
        "x": p["x"], "w_v": p["w_v"], "bias_v": p["bias_v"], "ap": ap, "v": v,
    }), cl_out))

    merged = _merge_heads(cl_out)
    o_out = np.matmul(merged, p["w_o"])
    if target == "O":
        _inject(o_out, error_type, (0, 2, 5))
    outcomes.append(engine.protect_section(ctx("O", {"cl": merged, "w_o": p["w_o"]}), o_out))
    engine.end_layer(0)

    signature = {
        o.section: (o.report.detected, o.report.corrected, o.report.aborted,
                    o.report.residual_extreme, o.operand_repairs)
        for o in outcomes
    }
    return signature, {"AS": as_out, "CL": cl_out, "O": o_out}


class TestSyntheticFaultCampaign:
    """Every single fault is detected at its own section boundary and
    repaired back to the fault-free boundaries, in float64 and in the
    paper's float32 training regime (float32 data, float64 checksums),
    with the precision's thresholds given to the engine or resolved from
    the data by an engine built without any."""

    @pytest.mark.parametrize("explicit", [True, False], ids=["for_precision", "engine_default"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("target", CAMPAIGN_TARGETS)
    @pytest.mark.parametrize("error_type", CAMPAIGN_ERRORS)
    def test_fault_is_detected_in_its_section_and_repaired(self, dtype, target, error_type, explicit):
        seed = CAMPAIGN_TARGETS.index(target)
        clean_signature, clean = run_layer_campaign(seed, "none", error_type, dtype, explicit)
        assert all(sig[0] == 0 for sig in clean_signature.values()), clean_signature

        with np.errstate(all="ignore"):
            signature, bounds = run_layer_campaign(seed, target, error_type, dtype, explicit)
        own = SECTION_OF_TARGET[target]
        assert signature[own][0] > 0, signature
        assert all(
            sig[0] == 0 for section, sig in signature.items() if section != own
        ), signature
        tolerance = 1e-9 if dtype is np.float64 else 1e-4
        for section in ("AS", "CL", "O"):
            np.testing.assert_allclose(
                bounds[section], clean[section], rtol=tolerance, atol=tolerance,
                err_msg=f"{target}/{error_type}/{section}",
            )
