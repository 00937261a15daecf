"""ATTNChecker: systematic ABFT protection for the attention mechanism.

:class:`ATTNChecker` is an :class:`repro.nn.AttentionHooks` implementation
that plugs into :class:`repro.nn.MultiHeadAttention` (and therefore into every
model of the zoo) and realises the protection scheme of Sections 4.2–4.6.
Since the ProtectionEngine refactor it is a thin *policy* layer — adaptive
per-section detection frequencies (``f_AS``, ``f_CL``, ``f_O``), thresholds,
statistics and timing — on top of one of two interchangeable *mechanics*
backends:

``"fused"`` (default)
    :class:`repro.core.engine.ProtectionEngine` — checksums are encoded once
    per protection section and passed through all member GEMMs in a single
    dispatch at the section-boundary GEMM (the paper's Section 4.4 design),
    three Python dispatches per layer instead of six.

``"per_gemm"``
    The original hook-per-GEMM implementation, kept as a reference backend:
    it computes the identical checksum algebra spread over all six GEMM
    hooks.  Both backends make byte-identical detection/correction decisions;
    the equivalence is enforced by tests and by the Figure-7 benchmark.

Either backend verifies and corrects every section boundary inside the
forward pass, so a repaired value is what downstream operations consume;
both report each verification as a :class:`SectionOutcome`.  Each backend
runs one chain per section for training, serving prefill and decode; the
phase picks only the input checksums, the checksum sides and the
:math:`S_O` carrier (see :mod:`repro.core.engine`).  Frequency
gating happens in :meth:`ATTNChecker.on_block_start`, which advances only
the announcing block's section accumulators of the announcing layer.

The checker is completely transparent to the model: attaching it changes no
shapes and no semantics of the forward/backward pass (one of the paper's
stated design goals).

Usage
-----
>>> from repro.models import build_model
>>> from repro.core import ATTNChecker, ATTNCheckerConfig
>>> model = build_model("bert-base", size="tiny")
>>> checker = ATTNChecker()                                   # fused engine
>>> reference = ATTNChecker(ATTNCheckerConfig(backend="per_gemm"))
>>> model.set_attention_hooks(checker)
>>> # ... train as usual; checker.stats reports detections/corrections.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.checksums import (
    ChecksumState,
    adjust_column_checksums_for_bias,
    encode_column_checksums,
    encode_per_head_row_checksums_of_weight,
    encode_row_checksums,
    checksum_weights,
    merge_head_column_checksums,
    split_head_column_checksums,
    update_column_checksums_through_gemm,
)
from repro.core.correction import MatrixCorrectionReport, correct_matrix
from repro.core.eec_abft import check_columns, check_rows
from repro.core.engine import (
    ProtectionEngine,
    SectionOutcome,
    request_dirty_from_report,
)
from repro.core.hooks import (
    AttentionHooks,
    AttentionOp,
    GemmContext,
    SectionContext,
)
from repro.core.sections import (
    PROTECT_SCOPES,
    PROTECTION_SECTIONS,
    SECTION_REGISTRY,
    sections_for_scope,
)
from repro.core.thresholds import ABFTThresholds
from repro.utils.timing import TimingRegistry

__all__ = [
    "CHECKER_BACKENDS",
    "ATTNCheckerConfig",
    "SectionStats",
    "CheckerStats",
    "ATTNChecker",
]

#: Selectable mechanics backends.
CHECKER_BACKENDS = ("fused", "per_gemm")


@dataclass
class ATTNCheckerConfig:
    """Configuration of the checker.

    Attributes
    ----------
    thresholds:
        EEC-ABFT thresholds (T_near-INF, T_correct, detection tolerance);
        ``None`` (the default) takes those of each checked matrix's
        precision (:func:`repro.core.thresholds.resolve_thresholds`).
    frequencies:
        Per-section detection frequency in [0, 1] (Section 4.5); 1.0 checks
        every execution, 0.5 every other execution in each layer, 0 disables
        the section.
        Sections of the protection scope that are not named default to 1.0.
    protect_scope:
        Which registered protection sections the checker drives
        (:data:`repro.core.sections.PROTECT_SCOPES`):

        * ``"attention"`` (default) — the historical ``AS``/``CL``/``O``
          triple, bit-for-bit identical to the pre-generalization checker;
        * ``"attention+ffn"`` — additionally protect the feed-forward GEMMs
          through the single-GEMM sections ``FF1`` (boundary ``H``) and
          ``FF2`` (boundary ``FO``).

        Hooks from out-of-scope blocks are ignored, so a model whose
        ``FeedForward`` modules are instrumented can still run an
        attention-only checker unchanged.
    backend:
        ``"fused"`` — the section-level checksum-passing
        :class:`~repro.core.engine.ProtectionEngine` (default);
        ``"per_gemm"`` — the reference hook-per-GEMM implementation.
    """

    thresholds: Optional[ABFTThresholds] = None
    frequencies: Dict[str, float] = field(default_factory=lambda: {"AS": 1.0, "CL": 1.0, "O": 1.0})
    protect_scope: str = "attention"
    backend: str = "fused"

    def __post_init__(self) -> None:
        if self.protect_scope not in PROTECT_SCOPES:
            raise ValueError(
                f"unknown protect_scope {self.protect_scope!r}; "
                f"expected one of {PROTECT_SCOPES}"
            )
        active = sections_for_scope(self.protect_scope)
        # Validate and complete a copy: the caller's dict may be reused for
        # another config, possibly of a narrower scope.
        self.frequencies = dict(self.frequencies)
        for name, value in self.frequencies.items():
            if name not in active:
                raise KeyError(f"unknown protection section {name!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"frequency for section {name} must be in [0, 1], got {value}")
        for name in active:
            self.frequencies.setdefault(name, 1.0)
        if self.backend not in CHECKER_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {CHECKER_BACKENDS}"
            )

    @property
    def active_sections(self) -> Dict[str, Any]:
        """``{name: ProtectionSection}`` for every section in the scope."""
        return sections_for_scope(self.protect_scope)


@dataclass
class SectionStats:
    """Counters for one protection section."""

    checks_run: int = 0
    checks_skipped: int = 0
    detections: int = 0
    corrections: int = 0
    aborted_vectors: int = 0
    residual_extreme: int = 0
    operand_repairs: int = 0

    def record(self, report: MatrixCorrectionReport) -> None:
        self.checks_run += 1
        self.detections += report.detected
        self.corrections += report.corrected
        self.aborted_vectors += report.aborted
        self.residual_extreme += report.residual_extreme


@dataclass
class CheckerStats:
    """Aggregated statistics across all sections."""

    sections: Dict[str, SectionStats] = field(
        default_factory=lambda: {name: SectionStats() for name in PROTECTION_SECTIONS}
    )

    @property
    def total_detections(self) -> int:
        return sum(s.detections for s in self.sections.values())

    @property
    def total_corrections(self) -> int:
        return sum(s.corrections for s in self.sections.values())

    @property
    def total_residual_extreme(self) -> int:
        return sum(s.residual_extreme for s in self.sections.values())

    @property
    def total_checks(self) -> int:
        return sum(s.checks_run for s in self.sections.values())

    def reset(self) -> None:
        for name in list(self.sections):
            self.sections[name] = SectionStats()


class _PerGemmState:
    """Per-(layer, forward-pass) checksum state of the reference backend."""

    __slots__ = (
        "enabled",
        "cs_x_col",
        "num_rows",
        "cs_q_col",
        "cs_k_col",
        "cs_v_row",
        "cs_cl_col",
    )

    def __init__(self, enabled: Dict[str, bool]) -> None:
        self.enabled = enabled
        self.cs_x_col: Optional[Any] = None
        self.num_rows = 0
        self.cs_q_col: Optional[Any] = None
        self.cs_k_col: Optional[Any] = None
        self.cs_v_row: Optional[Any] = None
        self.cs_cl_col: Optional[Any] = None


#: The protection section each instrumented GEMM belongs to, by op name.
_SECTION_OF_OP = {
    op: name for name, section in SECTION_REGISTRY.items() for op in section.operations
}


class _PerGemmReferenceBackend:
    """The original per-GEMM checker mechanics, kept as a reference backend.

    Dispatches Python work at every one of the six attention GEMM hooks.  The
    checksum algebra is operation-for-operation identical to the fused
    :class:`~repro.core.engine.ProtectionEngine`, which makes the two backends
    byte-comparable — this class is the oracle the engine is validated
    against.  Like the engine, each section has one handler for train,
    prefill and decode, fed every member GEMM of the section: the phase
    decides the same three things as in the engine (see its attention
    sections).

    It runs the historical one-GEMM-per-update schedule — no sibling fusion,
    no weight-encoding cache — so its counters are the measured
    ``"unfused"`` entry of
    :meth:`~repro.core.sections.SectionCostModel.checksum_gemm_dispatches_per_layer`.
    """

    def __init__(self, checker: "ATTNChecker") -> None:
        self.checker = checker
        self._states: Dict[int, _PerGemmState] = {}
        #: Checksum GEMM/einsum launches ("gemm") and verification passes
        #: ("detect") issued, in training and in decode — the same meaning as
        #: :attr:`ProtectionEngine.dispatch_counts`.
        self.dispatch_counts: Dict[str, int] = {"gemm": 0, "detect": 0}
        self._handlers = {
            "AS": self._handle_as,
            "CL": self._handle_cl,
            "O": self._handle_o,
            "FF1": self._handle_ff_up,
            "FF2": self._handle_ff_down,
        }

    # -- pass lifecycle ---------------------------------------------------------

    def begin_layer(self, layer_index: int, enabled: Dict[str, bool]) -> None:
        self._states[layer_index] = _PerGemmState(dict(enabled))

    def end_layer(self, layer_index: int) -> None:
        self._states.pop(layer_index, None)

    def reset(self) -> None:
        self._states.clear()
        self.dispatch_counts = {"gemm": 0, "detect": 0}

    # -- GEMM dispatch ----------------------------------------------------------

    def on_gemm_output(self, ctx: GemmContext, out: Any) -> Any:
        state = self._states.get(ctx.layer_index)
        if state is not None:  # None: hooks attached mid-pass; nothing to do safely
            self._handlers[_SECTION_OF_OP[ctx.op.value]](ctx, state, out)
        return out

    def _record_report(self, ctx: GemmContext, section: str,
                       report: MatrixCorrectionReport, operand_repairs: int = 0) -> None:
        """Record one boundary verification the way the engine's are recorded.

        Serving phases carry the per-request dirty mask the engine computes,
        so both backends drive identical repair-or-evict decisions.
        """
        self.dispatch_counts["detect"] += 1
        dirty = request_dirty_from_report(report) if ctx.phase != "train" else None
        self.checker._record_outcome(section, SectionOutcome(
            section=section, layer_index=ctx.layer_index, step=ctx.step, report=report,
            operand_repairs=operand_repairs, phase=ctx.phase, request_dirty=dirty,
        ))

    # -- section S_AS -----------------------------------------------------------

    def _handle_as(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """X x W_Q / X x W_K: carry the column checksums of X through;
        Q x K^T: pass checksums to AS, then detect & correct at the boundary."""
        checker = self.checker
        if not state.enabled.get("AS", False):
            if ctx.op is AttentionOp.QK:
                checker._record_outcome("AS", None)
            return
        decode = ctx.phase == "decode"
        if ctx.op is not AttentionOp.QK:
            if decode and ctx.op is AttentionOp.XQ:
                return  # the decode row side needs col(K) alone
            if state.cs_x_col is None:
                cache = ctx.kv_cache
                with checker.timers.measure("AS/encode"):
                    if decode:
                        # Fold the new row into the cache's cs(X); the
                        # step's K row is appended after the projections.
                        state.num_rows = cache.length + 1
                        state.cs_x_col = cache.append_checksums("AS", ctx.a, cache.length)
                    else:
                        state.num_rows = ctx.a.shape[-2]
                        self.dispatch_counts["gemm"] += 1
                        state.cs_x_col = encode_column_checksums(ctx.a)
                        if cache is not None:
                            cache.seed_checksums("AS", state.cs_x_col, state.num_rows)
            with checker.timers.measure("AS/update"):
                self.dispatch_counts["gemm"] += 1
                cs = update_column_checksums_through_gemm(state.cs_x_col, ctx.b)
                if ctx.bias is not None:
                    cs = adjust_column_checksums_for_bias(cs, ctx.bias, state.num_rows)
            if ctx.op is AttentionOp.XQ:
                state.cs_q_col = cs
            else:
                state.cs_k_col = cs
            return

        num_heads = ctx.num_heads
        with checker.timers.measure("AS/update"):
            cs_k_ph = split_head_column_checksums(state.cs_k_col, num_heads)     # (B, H, 2, dh)
            self.dispatch_counts["gemm"] += 1
            # Row side of AS: row(AS) = Q row(K^T) = Q col(K)^T.
            cs_as_row = np.matmul(ctx.a, np.swapaxes(cs_k_ph, -1, -2))          # (B, H, S, 2)
            cs_as_col = None
            if not decode:
                cs_q_ph = split_head_column_checksums(state.cs_q_col, num_heads)
                self.dispatch_counts["gemm"] += 1
                # Column side of AS: col(AS) = col(Q) K^T.
                cs_as_col = np.matmul(cs_q_ph, ctx.b)                           # (B, H, 2, S)
        with checker.timers.measure("AS/detect"):
            checksums = ChecksumState(col=cs_as_col, row=cs_as_row)
            report = correct_matrix(out, checksums, thresholds=checker.thresholds)
        repairs = 0
        if not decode and report.corrected > 0:
            with checker.timers.measure("AS/correct"):
                q_report = check_columns(ctx.a, cs_q_ph, thresholds=checker.thresholds)
                kt_report = check_rows(ctx.b, np.swapaxes(cs_k_ph, -1, -2), thresholds=checker.thresholds)
            repairs = q_report.num_corrected + kt_report.num_corrected
        self._record_report(ctx, "AS", report, repairs)

    # -- section S_CL -----------------------------------------------------------

    def _handle_cl(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """X x W_V: derive per-head row checksums of V from those of W_V;
        AP x V: encode AP, pass checksums to CL, detect & correct at the boundary."""
        checker = self.checker
        cl_enabled = state.enabled.get("CL", False)
        decode = ctx.phase == "decode"
        # A two-sided pass derives col(CL), S_O's carrier, for O alone too.
        carries_o = state.enabled.get("O", False) and not decode
        if ctx.op is AttentionOp.XV:
            if not cl_enabled:
                return  # only row(CL) reads row(V); col(CL) needs none
            num_heads = ctx.num_heads
            head_dim = ctx.head_dim
            with checker.timers.measure("CL/encode"):
                self.dispatch_counts["gemm"] += 1
                rowcs_wv = encode_per_head_row_checksums_of_weight(ctx.b, num_heads)  # (D, H, 2)
            with checker.timers.measure("CL/update"):
                self.dispatch_counts["gemm"] += 1
                cs_v_row = np.einsum("...sd,dhw->...hsw", ctx.a, rowcs_wv)            # (B, H, S, 2)
                if ctx.bias is not None:
                    bias_heads = np.asarray(ctx.bias, dtype=np.float64).reshape(
                        num_heads, head_dim
                    )
                    _, v2 = checksum_weights(head_dim)
                    cs_v_row[..., 0] += np.sum(bias_heads, axis=-1)[None, :, None]
                    cs_v_row[..., 1] += np.sum(bias_heads * v2, axis=-1)[None, :, None]
            cache = ctx.kv_cache
            if decode:
                # Slot the new row's checksums into the cache; the step's V
                # row is appended after the projections.
                cs_v_row = cache.append_checksums("CL", cs_v_row, cache.length)
            elif cache is not None:
                cache.seed_checksums("CL", cs_v_row, cs_v_row.shape[-2])
            state.cs_v_row = cs_v_row
            return

        if not cl_enabled:
            checker._record_outcome("CL", None)
            if not carries_o:
                return
        cs_cl_col = cs_cl_row = None
        if not decode:
            with checker.timers.measure("CL/encode"):
                self.dispatch_counts["gemm"] += 1
                cs_ap_col = encode_column_checksums(ctx.a)                        # (B, H, 2, S)
        with checker.timers.measure("CL/update"):
            if not decode:
                self.dispatch_counts["gemm"] += 1
                cs_cl_col = np.matmul(cs_ap_col, ctx.b)                           # (B, H, 2, dh)
            if cl_enabled:
                # row(CL) = AP row(V): carry the per-head row checksums of V
                # through the AP x V GEMM.
                self.dispatch_counts["gemm"] += 1
                cs_cl_row = np.matmul(ctx.a, state.cs_v_row)                      # (B, H, S, 2)
        checksums = ChecksumState(col=cs_cl_col, row=cs_cl_row)
        if cl_enabled:
            with checker.timers.measure("CL/detect"):
                report = correct_matrix(out, checksums, thresholds=checker.thresholds)
            repairs = 0
            if not decode and report.corrected > 0:
                with checker.timers.measure("CL/correct"):
                    v_report = check_rows(ctx.b, state.cs_v_row, thresholds=checker.thresholds)
                repairs = v_report.num_corrected
            self._record_report(ctx, "CL", report, repairs)
        # Pass the (possibly refreshed) column checksums of CL to section S_O.
        state.cs_cl_col = checksums.col

    # -- section S_O ------------------------------------------------------------

    def _handle_o(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """CL x W_O: carry col(CL) (rowcs(W_O) at decode) through and correct the output O."""
        checker = self.checker
        if not state.enabled.get("O", False):
            checker._record_outcome("O", None)
            return
        with checker.timers.measure("O/update"):
            if ctx.phase == "decode":
                self.dispatch_counts["gemm"] += 2
                rowcs_wo = encode_row_checksums(ctx.b)                           # (D, 2)
                checksums = ChecksumState(row=np.matmul(ctx.a, rowcs_wo))
            else:
                self.dispatch_counts["gemm"] += 1
                cs_cl_merged = merge_head_column_checksums(state.cs_cl_col)      # (B, 2, D)
                checksums = ChecksumState(
                    col=update_column_checksums_through_gemm(cs_cl_merged, ctx.b)
                )
        with checker.timers.measure("O/detect"):
            report = correct_matrix(out, checksums, thresholds=checker.thresholds)
        self._record_report(ctx, "O", report)

    # -- FFN sections S_FF1 / S_FF2 ----------------------------------------------

    def _handle_ff_up(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """x x W_up: encode col(x), carry through W_up, verify H column-side.

        The boundary matrix ``H`` is the raw GEMM output — the bias add runs
        outside the section (like attention's output-projection bias), so no
        bias adjustment of the carried checksums is needed.
        """
        checker = self.checker
        if not state.enabled.get("FF1", False):
            checker._record_outcome("FF1", None)
            return
        with checker.timers.measure("FF1/encode"):
            self.dispatch_counts["gemm"] += 1
            cs_x = encode_column_checksums(ctx.a)
        with checker.timers.measure("FF1/update"):
            self.dispatch_counts["gemm"] += 1
            cs_h = update_column_checksums_through_gemm(cs_x, ctx.b)
        with checker.timers.measure("FF1/detect"):
            report = correct_matrix(out, ChecksumState(col=cs_h), thresholds=checker.thresholds)
        self._record_report(ctx, "FF1", report)

    def _handle_ff_down(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """h x W_down: carry rowcs(W_down) through, verify FO row-side."""
        checker = self.checker
        if not state.enabled.get("FF2", False):
            checker._record_outcome("FF2", None)
            return
        with checker.timers.measure("FF2/encode"):
            self.dispatch_counts["gemm"] += 1
            rowcs_wd = encode_row_checksums(ctx.b)                      # (D_ff, 2)
        with checker.timers.measure("FF2/update"):
            self.dispatch_counts["gemm"] += 1
            cs_fo = np.matmul(ctx.a, rowcs_wd)                          # (B, S, 2)
        with checker.timers.measure("FF2/detect"):
            report = correct_matrix(out, ChecksumState(row=cs_fo), thresholds=checker.thresholds)
        self._record_report(ctx, "FF2", report)


class ATTNChecker(AttentionHooks):
    """The ABFT attention hook: policy layer over a mechanics backend."""

    def __init__(self, config: Optional[ATTNCheckerConfig] = None) -> None:
        self.config = config or ATTNCheckerConfig()
        active = self.config.active_sections
        self.stats = CheckerStats(
            sections={name: SectionStats() for name in active}
        )
        self.timers = TimingRegistry()
        #: Bounded ring of recently verified section outcomes, drained by
        #: :meth:`take_recent_outcomes` (the serving engine reads per-request
        #: fault attribution from here after each prefill/decode step).
        self.recent_outcomes: Deque[SectionOutcome] = deque(maxlen=1024)
        #: In-scope section names of each block, in config order.
        self._block_sections: Dict[str, List[str]] = {}
        for name in self.config.frequencies:
            self._block_sections.setdefault(active[name].block, []).append(name)
        #: Frequency accumulator per (section, layer), created at first use.
        self._freq_accumulators: Dict[Tuple[str, int], float] = {}
        #: The fused engine, or ``None`` under the per-GEMM reference.
        self.engine: Optional[ProtectionEngine] = None
        if self.config.backend == "fused":
            self.engine = ProtectionEngine(thresholds=self.config.thresholds, timers=self.timers)
        #: The mechanics backend that runs, engine or reference alike.
        self._mechanics = self.engine if self.engine is not None else _PerGemmReferenceBackend(self)

    # -- configuration shortcuts ------------------------------------------------

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def dispatch_counts(self) -> Dict[str, int]:
        """Checksum GEMM/einsum launches (``"gemm"``) and verification passes
        (``"detect"``) the mechanics backend issued — the fused engine's
        schedule, or the per-GEMM reference's historical one."""
        return dict(self._mechanics.dispatch_counts)

    def workspace_stats(self) -> Dict[str, int]:
        """All zeros on both backends: no checker keeps a buffer arena.

        Kept only because the frozen end-to-end benchmark harness reads it
        for its ``core.workspace_allocations_per_op`` metric; it goes with
        that metric at the next change to the benchmark.
        """
        return {"slots": 0, "allocations": 0, "reuses": 0, "bytes_allocated": 0}

    def weight_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the weight-encoding cache (zeros for the
        per-GEMM reference, which re-encodes weights on every visit)."""
        if self.engine is None:
            return {"entries": 0, "hits": 0, "misses": 0}
        return self.engine.weight_cache.stats()

    def invalidate_weight_cache(self) -> None:
        """Drop cached weight-derived encodings.

        Only needed after *in-place* mutation of weight storage outside
        ``Optimizer.step`` / ``Module.load_state_dict`` (those bump the
        global weights version themselves; rebinding ``param.data`` is
        caught by the cache's identity check).
        """
        if self.engine is not None:
            self.engine.invalidate_weight_cache()

    @property
    def thresholds(self) -> Optional[ABFTThresholds]:
        return self.config.thresholds

    def reset_stats(self) -> None:
        self._mechanics.reset()
        self.stats.reset()
        self.timers.reset()
        self.recent_outcomes.clear()

    # -- frequency gating (policy) ----------------------------------------------

    def _advance_enabled(self, names: List[str], layer_index: int) -> Dict[str, bool]:
        """Decide which of ``names`` check on this pass of one layer.

        With frequency ``f`` a section runs on a deterministic ``f`` fraction
        of each layer's passes, spread as evenly as possible (e.g. ``f = 0.5``
        -> every other pass), which is how the paper's ``f_S`` is defined.
        Each layer keeps its own accumulator, so every layer is checked that
        often: one accumulator shared by the layers would check the same
        layers on every pass whenever the layer count is a multiple of
        ``1/f``, and the others never.
        """
        enabled = {}
        for name in names:
            key = (name, layer_index)
            acc = self._freq_accumulators.get(key, 0.0) + self.config.frequencies[name]
            if acc >= 1.0 - 1e-12:
                enabled[name] = True
                acc -= 1.0
            else:
                enabled[name] = False
            self._freq_accumulators[key] = acc
        return enabled

    # -- AttentionHooks interface -------------------------------------------------

    def on_block_start(self, block: str, layer_index: int, step: int) -> None:
        """Open one block's pass window, advancing only that block's
        frequency accumulators of that layer — so widening the protection
        scope never perturbs the attention gating sequence.  A no-op for a
        block with no section in the scope (an attention-only checker's
        FFN)."""
        names = self._block_sections.get(block)
        if names:
            self._mechanics.begin_layer(layer_index, self._advance_enabled(names, layer_index))

    def on_block_end(self, block: str, layer_index: int, step: int) -> None:
        if block in self._block_sections:
            self._mechanics.end_layer(layer_index)

    def on_gemm_output(self, ctx: GemmContext, out: Any) -> Any:
        if self.engine is None:
            return self._mechanics.on_gemm_output(ctx, out)
        return out  # fused backend works at section boundaries only

    def consumes_gemm_outputs(self) -> bool:
        """The fused backend needs no per-GEMM dispatch; the reference does.

        This is what lets the instrumented blocks skip the
        non-boundary GEMM hooks entirely for a fused checker (three dispatch
        points per layer instead of six) — unless another composed hook (an
        injector, a recorder) still consumes them.
        """
        return self.config.backend == "per_gemm"

    def on_section_output(self, ctx: SectionContext, out: Any) -> Any:
        if self.engine is None:
            return out  # per-GEMM backend already handled the boundary GEMM
        outcome = self.engine.protect_section(ctx, out)
        self._record_outcome(ctx.section, outcome)
        return out

    def close(self) -> None:
        """Release nothing: verification runs inside the forward pass, so the
        checker owns no thread or other resource.  Kept so callers that close
        what they build may keep doing so."""

    # -- stats plumbing -----------------------------------------------------------

    def _record_outcome(self, section: str, outcome: Optional[SectionOutcome]) -> None:
        stats = self.stats.sections.get(section)
        if stats is None:
            # Boundary of an out-of-scope block (e.g. an instrumented FFN
            # under an attention-only scope): nothing ran, nothing to count.
            return
        if outcome is None or outcome.report is None:
            # Section disabled this pass (frequency gating), no pass state,
            # or checksums carried forward without verifying (CL visited
            # for O).
            stats.checks_skipped += 1
            return
        stats.record(outcome.report)
        stats.operand_repairs += outcome.operand_repairs
        # Only prefill/decode outcomes are kept for take_recent_outcomes —
        # the same rule as the per-GEMM reference — because only the serving
        # engine drains the ring; a training run would otherwise pin every
        # recent report's arrays.
        if outcome.phase != "train":
            self.recent_outcomes.append(outcome)

    def take_recent_outcomes(self) -> List[SectionOutcome]:
        """Drain and return the bounded ring of verified section outcomes.

        Serving callers read :attr:`SectionOutcome.request_dirty` off the
        drained outcomes to attribute detections to individual requests of a
        batch.  The ring holds at most its ``maxlen`` most recent outcomes,
        so a caller that drains once per step never loses any (one step
        produces at most sections x layers outcomes); a caller that never
        drains pays bounded memory instead of a leak.
        """
        outcomes = list(self.recent_outcomes)
        self.recent_outcomes.clear()
        return outcomes

    # -- reporting ----------------------------------------------------------------

    def overhead_seconds(self) -> float:
        """Total wall-clock ABFT work."""
        return self.timers.total()

    def summary(self) -> str:
        """Human-readable multi-line statistics summary."""
        lines = [f"ATTNChecker statistics (backend={self.config.backend}):"]
        for name, stats in self.stats.sections.items():
            lines.append(
                f"  [{name}] checks={stats.checks_run} skipped={stats.checks_skipped} "
                f"detected={stats.detections} corrected={stats.corrections} "
                f"aborted={stats.aborted_vectors} residual_extreme={stats.residual_extreme} "
                f"operand_repairs={stats.operand_repairs}"
            )
        lines.append(f"  total ABFT time: {self.overhead_seconds() * 1e3:.3f} ms")
        return "\n".join(lines)
