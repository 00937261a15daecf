"""ProtectionEngine: fused section-level checksum passing (Section 4.4).

The paper's headline optimisation is that checksums are encoded **once per
protection section** and *passed* through every GEMM of the section, with a
single verification at the section boundary.  The original hook-based
implementation in this repository realised the same algebra but dispatched
Python work at every one of the six attention GEMMs; this module fuses each
section's entire checksum chain into one dispatch at the section-boundary
GEMM.  Each section runs one chain in training, serving prefill and decode:

* :math:`S_{AS}` — at the ``Q K^T`` boundary: take the input checksums
  ``cs(X)``, carry them through ``W_Q`` and ``W_K`` (with bias adjustment),
  split heads, derive the checksum sides of ``AS`` and verify/correct in one
  batched EEC-ABFT pass over all heads.
* :math:`S_{CL}` — at the ``AP V`` boundary: carry the per-head row
  checksums of ``W_V`` through ``X W_V`` to ``row(V)``, encode the column
  checksums of ``AP``, carry both through to ``CL`` and verify.
* :math:`S_O` — at the ``CL W_O`` boundary: carry the section's carrier
  through the output projection and verify ``O``.

The phase of the pass (:attr:`~repro.core.hooks.SectionContext.phase`)
decides three things, and nothing else:

* **input checksums** — ``cs(X)`` and ``row(V)`` are computed in training,
  computed and seeded into the KV cache at prefill
  (:meth:`~repro.nn.attention.LayerKVCache.seed_checksums`), and extended
  from the cache at a decode step
  (:meth:`~repro.nn.attention.LayerKVCache.append_checksums`: the new input
  row folds into ``cs(X)``, O(1) in the cached length, and the new
  position's ``row(V)`` fills its slot);
* **checksum sides** — a decode boundary has one query row, whose column
  checksums detect nothing the row does not show, so decode verifies row
  sides only: no ``col(AS)``, ``col(CL)`` or operand repairs, and
  :math:`S_{AS}` carries ``cs(X)`` through ``W_K`` alone;
* **the** :math:`S_O` **carrier** — ``col(CL)`` from :math:`S_{CL}` in
  training and prefill, the cached ``rowcs(W_O)`` at decode
  (``row(O) = CL rowcs(W_O)``).

The engine owns one :class:`repro.core.checksums.ChecksumState` per section
and the per-layer pass state that links them (``cs_cl_col`` flows from
:math:`S_{CL}` into :math:`S_O`).  Policy — adaptive detection frequencies,
thresholds, statistics — lives in :class:`repro.core.attention_checker.ATTNChecker`,
which drives the engine through the section-level hook
:meth:`repro.nn.attention.AttentionHooks.on_section_output`.

Verification
------------
Each section boundary is verified and corrected inside the forward pass,
so a repaired value is what downstream operations consume — the semantics
the paper evaluates (Sections 4.2–4.4).

Hot-path kernel schedule
------------------------
The engine runs one fixed schedule, built from two dispatch optimisations.
The per-GEMM reference backend (``ATTNCheckerConfig(backend="per_gemm")``)
still runs the historical one-GEMM-per-update sequence and is the baseline
the Figure-7 benchmark measures this schedule against:

Sibling-GEMM fusion
    ``W_Q`` and ``W_K`` consume the *same* carried checksum ``cs_x``, so the
    two per-projection checksum GEMMs of :math:`S_{AS}` fuse into one GEMM
    against the concatenated operand ``[W_Q | W_K]`` (split back into the Q
    and K halves afterwards — pure axis-split views, no copy), and the two
    bias adjustments collapse into one vectorised in-place add of the
    concatenated float64 bias row.  This is the paper's strided-batched
    fusion argument (§4): fewer, larger launches for the same algebra.
Weight-encoding cache
    Everything derived *from weights only* — ``rowcs(W_V)``, the fused
    ``[W_Q | W_K]`` operand, the concatenated/summed bias terms — is cached
    per (layer, kind) and reused until the weights change.  Validity is a
    version check against :func:`repro.utils.versioning.weights_version`
    (bumped by ``Optimizer.step`` and ``Module.load_state_dict``) *plus* an
    identity check on the source arrays, so weight-side encode work runs
    once per weight version instead of once per layer visit.  Code that
    mutates weight storage in place outside those two paths must call
    :meth:`ProtectionEngine.invalidate_weight_cache`.

``dispatch_counts`` tracks the checksum GEMM/einsum launches (``"gemm"``)
and verification passes (``"detect"``) the engine actually issued — the
measurable side of :meth:`repro.core.sections.SectionCostModel.\
checksum_gemm_dispatches_per_layer`.

Follow-on items tracked in ROADMAP.md: layer-granular re-execution from
retained activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.checksums import (
    ChecksumState,
    checksum_weights,
    encode_column_checksums,
    encode_per_head_row_checksums_of_weight,
    encode_row_checksums,
    merge_head_column_checksums,
    split_head_column_checksums,
)
from repro.core.correction import MatrixCorrectionReport, correct_matrix
from repro.core.eec_abft import check_columns, check_rows
from repro.core.thresholds import ABFTThresholds
from repro.core.hooks import SectionContext
from repro.core.sections import SECTION_REGISTRY
from repro.utils.timing import TimingRegistry
from repro.utils.versioning import weights_version

__all__ = [
    "SectionOutcome",
    "ProtectionEngine",
    "WeightEncodingCache",
    "fold_request_dirty",
    "request_dirty_from_report",
]


def fold_request_dirty(dirty: Optional[Any], mask: Any) -> Optional[Any]:
    """OR a per-vector dirty mask into a per-request (batch-axis) mask.

    ``mask`` keeps the boundary matrix's leading axes; reducing over
    every non-leading axis attributes the verdict to the batch entries
    (requests) whose slice it touched.  Leaves ``dirty`` unchanged for
    masks without a batch axis to reduce over.
    """
    if mask.ndim < 2:
        return dirty
    flat = mask.reshape(mask.shape[0], -1).any(-1)
    return flat if dirty is None else (dirty | flat)


def request_dirty_from_report(report: MatrixCorrectionReport) -> Optional[Any]:
    """Per-request boolean dirty mask from one verification's sub-reports.

    Shared by the fused engine and the per-GEMM reference backend so both
    attribute serving-time detections to batch entries the same way.
    """
    dirty = None
    for sub in (report.column_report, report.row_report):
        if sub is not None:
            dirty = fold_request_dirty(dirty, sub.detected | sub.aborted)
    return dirty


@dataclass
class SectionOutcome:
    """Result of protecting one section at one boundary.

    ``report`` is ``None`` for work that carried checksums forward without
    verifying (an :math:`S_{CL}` boundary visited only to feed :math:`S_O`).
    """

    section: str
    layer_index: int
    step: int
    report: Optional[MatrixCorrectionReport] = None
    operand_repairs: int = 0
    #: Phase of the producing forward pass (``"train"``, ``"prefill"`` or
    #: ``"decode"``); only serving phases reach the checker's recent ring.
    phase: str = "train"
    #: Per-request dirty mask: boolean array over the leading batch axis,
    #: True where detection/abort touched that request's slice of the
    #: boundary matrix.  Populated on serving (prefill/decode)
    #: verifications; ``None`` when no verification ran or the boundary had
    #: no batch axis.  Sound for attention boundaries because every
    #: attention GEMM is row-independent across the batch axis.
    request_dirty: Optional[Any] = None


class _LayerState:
    """Per-(layer, forward-pass) checksum state linking the sections."""

    __slots__ = ("enabled", "cs_cl_col")

    def __init__(self, enabled: Dict[str, bool]) -> None:
        self.enabled = enabled
        self.cs_cl_col: Optional[Any] = None


class WeightEncodingCache:
    """Version-keyed cache of weight-derived checksum operands.

    An entry is valid only when **both** hold:

    * it was built at the current global weights version
      (:func:`repro.utils.versioning.weights_version`, bumped by every
      optimizer step and ``load_state_dict``), and
    * every source array it was derived from is the *identical object* the
      caller presents now (the optimizer rebinds ``param.data`` on update,
      so a swapped weight can never be served a stale encoding even if no
      version bump happened).

    Anything else is a miss: the builder reruns and the entry is replaced
    in place, so the cache size stays bounded by (layers x encoding kinds).
    Entries hold strong references to their sources, which also guarantees
    an ``is`` comparison can never alias a freed-and-reallocated array.

    Single-writer by design: only the critical-path ``protect_section``
    thread touches it.
    """

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tuple[int, tuple, Any]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple, sources: tuple, builder) -> Any:
        version = weights_version()
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry[0] == version
            and len(entry[1]) == len(sources)
            and all(cached is live for cached, live in zip(entry[1], sources))
        ):
            self.hits += 1
            return entry[2]
        self.misses += 1
        value = builder()
        self._entries[key] = (version, tuple(sources), value)
        return value

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class ProtectionEngine:
    """Section-level checksum-passing engine (mechanics only, no policy).

    Parameters
    ----------
    thresholds:
        EEC-ABFT thresholds used for every verification; ``None`` (the
        default) takes those of each checked matrix's precision.
    timers:
        Shared :class:`TimingRegistry`; phase labels match the historical
        per-GEMM backend (``"AS/encode"``, ``"CL/detect"``, ...) so overhead
        reporting is backend-agnostic.
    """

    def __init__(
        self,
        thresholds: Optional[ABFTThresholds] = None,
        timers: Optional[TimingRegistry] = None,
    ) -> None:
        self.thresholds = thresholds
        self.timers = timers if timers is not None else TimingRegistry()
        #: Weight-derived encoding cache.
        self.weight_cache = WeightEncodingCache()
        #: Checksum GEMM/einsum launches ("gemm") and verification passes
        #: ("detect") actually dispatched.
        self.dispatch_counts: Dict[str, int] = {"gemm": 0, "detect": 0}
        self._layers: Dict[int, _LayerState] = {}

    # -- pass lifecycle ---------------------------------------------------------

    def begin_layer(self, layer_index: int, enabled: Dict[str, bool]) -> None:
        """Open the pass state for one attention layer forward pass."""
        self._layers[layer_index] = _LayerState(dict(enabled))

    def end_layer(self, layer_index: int) -> None:
        self._layers.pop(layer_index, None)

    def reset(self) -> None:
        """Drop all pass state, caches and counters.

        A reset engine holds no reference to any model array.
        """
        self._layers.clear()
        self.weight_cache.clear()
        self.dispatch_counts = {"gemm": 0, "detect": 0}

    def invalidate_weight_cache(self) -> None:
        """Drop cached weight-derived encodings.

        Needed only after mutating weight storage *in place* outside the two
        instrumented paths (``Optimizer.step`` / ``Module.load_state_dict``),
        which bump the global weights version themselves.
        """
        self.weight_cache.clear()

    @staticmethod
    def _section_active(ctx: SectionContext, state: _LayerState) -> bool:
        """Whether this boundary has any checksum work this pass."""
        if ctx.section not in SECTION_REGISTRY:
            raise KeyError(f"unknown protection section {ctx.section!r}")
        # An O-only pass visits S_CL too: S_O's column carrier col(CL) is
        # derived there (a decode step carries rowcs(W_O) and does nothing
        # at that visit).
        return state.enabled.get(ctx.section, False) or (
            ctx.section == "CL" and state.enabled.get("O", False)
        )

    # -- section dispatch -------------------------------------------------------

    def protect_section(self, ctx: SectionContext, out: Any) -> Optional[SectionOutcome]:
        """Run the fused checksum chain for the section ending at ``out``.

        Returns ``None`` when the layer has no open pass state (hooks attached
        mid-pass) or the section is disabled for this pass.
        """
        state = self._layers.get(ctx.layer_index)
        if state is None or not self._section_active(ctx, state):
            return None
        if ctx.section == "AS":
            return self._protect_as(ctx, state, out)
        if ctx.section == "CL":
            return self._protect_cl(ctx, state, out)
        if ctx.section == "O":
            return self._protect_o(ctx, state, out)
        if ctx.section == "FF1":
            return self._protect_ff1(ctx, state, out)
        return self._protect_ff2(ctx, state, out)

    def _verify(
        self,
        ctx: SectionContext,
        out: Any,
        checksums: ChecksumState,
        outcome: SectionOutcome,
    ) -> None:
        """Verify and correct ``out`` in place at its section boundary."""
        with self.timers.timer(f"{ctx.section}/detect"):
            self.dispatch_counts["detect"] += 1
            outcome.report = correct_matrix(out, checksums, thresholds=self.thresholds)
        if ctx.phase != "train":
            outcome.request_dirty = request_dirty_from_report(outcome.report)

    @staticmethod
    def _outcome(ctx: SectionContext) -> SectionOutcome:
        return SectionOutcome(section=ctx.section, layer_index=ctx.layer_index,
                              step=ctx.step, phase=ctx.phase)

    # -- attention sections -----------------------------------------------------
    #
    # One chain per section for train, prefill and decode; the phase picks
    # the input checksums, the checksum sides and the S_O carrier (see the
    # module docstring).  Steady-state checksum GEMM dispatches per layer per
    # decoded token: AS 2, CL 2, O 1 — constant in the cached length
    # (SectionCostModel's serving entry).

    def _protect_as(
        self,
        ctx: SectionContext,
        state: _LayerState,
        out: Any,
    ) -> Optional[SectionOutcome]:
        ops = ctx.operands
        x, w_k, bias_k = ops["x"], ops["w_k"], ops.get("bias_k")
        cache = ops.get("kv_cache")
        decode = ctx.phase == "decode"
        outcome = self._outcome(ctx)

        with self.timers.timer("AS/encode"):
            if decode:
                # Fold the one new input row into the cache's cs(X): not a
                # checksum GEMM.  The step's K row is already appended.
                num_rows = cache.length
                cs_x = cache.append_checksums("AS", x, num_rows - 1)
            else:
                # Encode the section input once...
                num_rows = x.shape[-2]
                self.dispatch_counts["gemm"] += 1
                cs_x = encode_column_checksums(x)
                if cache is not None:
                    cache.seed_checksums("AS", cs_x, num_rows)
        # ...and carry it through every member GEMM of the section.
        with self.timers.timer("AS/update"):
            if decode:
                # The row side needs col(K) alone.
                carried = w_k
                bias = None if bias_k is None else self.weight_cache.lookup(
                    ("AS/bias_k", ctx.layer_index), (bias_k,),
                    lambda: np.asarray(bias_k, dtype=np.float64),
                )
            else:
                # Sibling fusion: W_Q and W_K consume the same carried
                # checksum, so one GEMM against the cached concatenated
                # operand [W_Q | W_K] replaces the two per-projection checksum
                # GEMMs; the Q/K halves are recovered as axis-split views (no
                # copy).  MultiHeadAttention builds all four projections with
                # one ``bias`` flag, so the Q and K biases are present together
                # or not at all.
                w_q, bias_q = ops["w_q"], ops.get("bias_q")
                carried = self.weight_cache.lookup(
                    ("AS/w_qk", ctx.layer_index),
                    (w_q, w_k),
                    lambda: np.concatenate([w_q, w_k], axis=-1),
                )
                bias = None if bias_q is None else self.weight_cache.lookup(
                    ("AS/bias_qk", ctx.layer_index),
                    (bias_q, bias_k),
                    lambda: np.concatenate([
                        np.asarray(bias_q, dtype=np.float64),
                        np.asarray(bias_k, dtype=np.float64),
                    ], axis=-1),
                )
            self.dispatch_counts["gemm"] += 1
            cs_carried = np.matmul(cs_x, carried)
            if bias is not None:
                # The bias adjustments are in-place adds of the cached float64
                # bias row; cs_carried is freshly computed float64, so the
                # values are identical to the per-side copy-then-add.
                cs_carried[..., 0, :] += num_rows * bias
                cs_carried[..., 1, :] += (num_rows * (num_rows + 1) / 2.0) * bias
            d_k = w_k.shape[-1]
            cs_k_ph = split_head_column_checksums(                          # (B, H, 2, dh)
                cs_carried[..., -d_k:], ctx.num_heads
            )
            self.dispatch_counts["gemm"] += 1
            # Row side of AS: row(AS) = Q row(K^T) = Q col(K)^T.
            cs_as_row = np.matmul(ops["q"], cs_k_ph.swapaxes(-1, -2))       # (B, H, S, 2)
            cs_as_col = None
            if not decode:
                cs_q_ph = split_head_column_checksums(cs_carried[..., :-d_k], ctx.num_heads)
                self.dispatch_counts["gemm"] += 1
                # Column side of AS: col(AS) = col(Q) K^T.
                cs_as_col = np.matmul(cs_q_ph, ops["k_t"])                  # (B, H, 2, S)

        self._verify(ctx, out, ChecksumState(col=cs_as_col, row=cs_as_row), outcome)
        if not decode and outcome.report.corrected > 0:
            # Also repair the upstream operand whose 0D fault propagated into
            # the boundary: autograd reuses Q and K^T, so this keeps the
            # backward pass clean as well as the forward value.
            with self.timers.timer("AS/correct"):
                q_report = check_columns(ops["q"], cs_q_ph, thresholds=self.thresholds)
                kt_report = check_rows(
                    ops["k_t"], np.swapaxes(cs_k_ph, -1, -2), thresholds=self.thresholds
                )
            outcome.operand_repairs = q_report.num_corrected + kt_report.num_corrected
        return outcome

    def _protect_cl(
        self,
        ctx: SectionContext,
        state: _LayerState,
        out: Any,
    ) -> Optional[SectionOutcome]:
        # At least one of CL/O is enabled (gated via _section_active); when
        # only O is, this boundary is visited solely to derive cs_cl_col.
        cl_enabled = state.enabled.get("CL", False)
        decode = ctx.phase == "decode"
        ops = ctx.operands
        ap = ops["ap"]
        outcome = self._outcome(ctx)

        cs_v_row = cs_cl_row = None
        if cl_enabled:
            # Per-head row checksums of V, derived from W_V without touching V:
            # encode rowcs(W_V) once *per weight version* and carry it through
            # the X W_V GEMM on every visit.
            with self.timers.timer("CL/encode"):
                def build_rowcs() -> Any:
                    self.dispatch_counts["gemm"] += 1
                    return encode_per_head_row_checksums_of_weight(ops["w_v"], ctx.num_heads)

                rowcs_wv = self.weight_cache.lookup(
                    ("CL/rowcs_wv", ctx.layer_index), (ops["w_v"],), build_rowcs
                )
            with self.timers.timer("CL/update"):
                self.dispatch_counts["gemm"] += 1
                # An einsum, not a matmul: the per-GEMM reference computes
                # this contraction the same way, which is what keeps repaired
                # values bitwise identical between the two backends.
                cs_v_row = np.einsum("...sd,dhw->...hsw", ops["x"], rowcs_wv)  # (B, H, S, 2)
                if ops.get("bias_v") is not None:
                    def build_bias_terms() -> Tuple[Any, Any]:
                        bias_heads = np.asarray(ops["bias_v"], dtype=np.float64).reshape(
                            ctx.num_heads, ctx.head_dim
                        )
                        _, v2 = checksum_weights(ctx.head_dim)
                        return (
                            np.sum(bias_heads, axis=-1)[None, :, None],
                            np.sum(bias_heads * v2, axis=-1)[None, :, None],
                        )

                    term0, term1 = self.weight_cache.lookup(
                        ("CL/bias_v", ctx.layer_index),
                        (ops["bias_v"],), build_bias_terms,
                    )
                    # The bias shift lands straight in the freshly computed
                    # einsum output — no defensive copy-then-mutate (the
                    # added values are identical either way).
                    cs_v_row[..., 0] += term0
                    cs_v_row[..., 1] += term1
                cache = ops.get("kv_cache")
                if decode:
                    # Slot the new row's checksums into the cache and carry
                    # every cached position.  The step's V row is appended.
                    cs_v_row = cache.append_checksums(                 # (B, H, T, 2)
                        "CL", cs_v_row, cache.length - 1
                    )
                elif cache is not None:
                    cache.seed_checksums("CL", cs_v_row, cs_v_row.shape[-2])
                # row(CL) = AP row(V): carry the row checksums of V through.
                self.dispatch_counts["gemm"] += 1
                cs_cl_row = np.matmul(ap, cs_v_row)                            # (B, H, S, 2)

        cs_cl_col = None
        if not decode:
            with self.timers.timer("CL/encode"):
                self.dispatch_counts["gemm"] += 1
                cs_ap_col = encode_column_checksums(ap)                        # (B, H, 2, S)
            with self.timers.timer("CL/update"):
                self.dispatch_counts["gemm"] += 1
                cs_cl_col = np.matmul(cs_ap_col, ops["v"])                     # (B, H, 2, dh)

        checksums = ChecksumState(col=cs_cl_col, row=cs_cl_row)
        if cl_enabled:
            self._verify(ctx, out, checksums, outcome)
            if not decode and outcome.report.corrected > 0:
                with self.timers.timer("CL/correct"):
                    v_report = check_rows(ops["v"], cs_v_row, thresholds=self.thresholds)
                outcome.operand_repairs = v_report.num_corrected
        # Pass the (possibly refreshed) column checksums of CL to S_O.
        state.cs_cl_col = checksums.col
        return outcome

    def _protect_o(
        self,
        ctx: SectionContext,
        state: _LayerState,
        out: Any,
    ) -> Optional[SectionOutcome]:
        ops = ctx.operands
        outcome = self._outcome(ctx)
        with self.timers.timer("O/update"):
            if ctx.phase == "decode":
                # row(O) = CL rowcs(W_O), rowcs(W_O) encoded per weight version.
                def build_rowcs_wo() -> Any:
                    self.dispatch_counts["gemm"] += 1
                    return encode_row_checksums(ops["w_o"])                # (D, 2)

                rowcs_wo = self.weight_cache.lookup(
                    ("O/rowcs_wo", ctx.layer_index), (ops["w_o"],), build_rowcs_wo
                )
                self.dispatch_counts["gemm"] += 1
                checksums = ChecksumState(row=np.matmul(ops["cl"], rowcs_wo))  # (B, S, 2)
            else:
                # col(O) = col(CL) W_O.
                cs_cl_merged = merge_head_column_checksums(state.cs_cl_col)    # (B, 2, D)
                self.dispatch_counts["gemm"] += 1
                checksums = ChecksumState(col=np.matmul(cs_cl_merged, ops["w_o"]))
        self._verify(ctx, out, checksums, outcome)
        return outcome

    # -- FFN sections S_FF1 / S_FF2 ---------------------------------------------
    #
    # The GELU between the two feed-forward GEMMs is nonlinear, so no checksum
    # can be carried across it: each FFN GEMM forms its own single-member
    # section, verified at its output.  S_FF1 runs column-side — encode
    # ``col(x)`` once (the one new data-side encoding per layer) and carry it
    # through ``W_up``; S_FF2 runs row-side against the per-weight-version
    # cached ``rowcs(W_down)``, so its steady-state cost is a single carry
    # GEMM.  Decode reuses the same chain unchanged: the FFN has no cross-
    # token state, so one decoded token is the training algebra at sequence
    # length 1 — O(1) per token by construction, no incremental cache state.
    #
    # No operand-repair pass: a single-GEMM section has no interior operands
    # produced by member GEMMs (``x`` / ``h`` are the section *inputs*), so a
    # boundary correction already repairs everything the section owns.  The
    # bias adds run *outside* the sections — the boundary matrices ``H`` and
    # ``FO`` are the raw GEMM outputs, exactly as attention's output-
    # projection bias sits outside :math:`S_O` — so no bias adjustment of the
    # carried checksums is needed.

    def _protect_ff1(
        self,
        ctx: SectionContext,
        state: _LayerState,
        out: Any,
    ) -> Optional[SectionOutcome]:
        ops = ctx.operands
        outcome = self._outcome(ctx)
        with self.timers.timer("FF1/encode"):
            self.dispatch_counts["gemm"] += 1
            cs_x = encode_column_checksums(ops["x"])
        with self.timers.timer("FF1/update"):
            self.dispatch_counts["gemm"] += 1
            cs_h = np.matmul(cs_x, ops["w_up"])                          # (B, 2, D_ff)
        self._verify(ctx, out, ChecksumState(col=cs_h), outcome)
        return outcome

    def _protect_ff2(
        self,
        ctx: SectionContext,
        state: _LayerState,
        out: Any,
    ) -> Optional[SectionOutcome]:
        ops = ctx.operands
        outcome = self._outcome(ctx)
        with self.timers.timer("FF2/encode"):
            def build_rowcs() -> Any:
                self.dispatch_counts["gemm"] += 1
                return encode_row_checksums(ops["w_down"])               # (D_ff, 2)

            rowcs_wd = self.weight_cache.lookup(
                ("FF2/rowcs_w_down", ctx.layer_index),
                (ops["w_down"],), build_rowcs,
            )
        with self.timers.timer("FF2/update"):
            self.dispatch_counts["gemm"] += 1
            cs_fo = np.matmul(ops["h"], rowcs_wd)                        # (B, S, 2)
        self._verify(ctx, out, ChecksumState(row=cs_fo), outcome)
        return outcome
