"""Protection sections of the systematic ABFT scheme (Section 4.4).

The attention execution flow (six GEMMs) is divided into three protection
sections so that any single fault manifests at worst as a 1D pattern at the
section boundary, which EEC-ABFT can correct:

* ``S_AS = {X W_Q,  X W_K,  Q K^T}`` — input ``X`` is encoded with column
  checksums once; the checksums are *passed* through the projections and the
  score GEMM; detection/correction happen on ``AS``.
* ``S_CL = {X W_V,  AP V}`` — ``W_V`` is encoded with (per-head) row
  checksums and ``AP`` with column checksums; ``CL`` ends up with both sides
  and is checked at the section boundary.
* ``S_O  = {CL W_O}`` — the column checksums of ``CL`` are carried through the
  output projection; ``O`` is checked with its column side only.

The same framework generalizes beyond attention.  The feed-forward block
contributes two further sections (whole-model protection):

* ``S_FF1 = {X W_up}`` — the FFN input ``X`` is encoded with column checksums
  once (the one new data-side encoding per layer) and carried through
  ``W_up``; detection/correction happen on the pre-activation hidden ``H``.
* ``S_FF2 = {H' W_down}`` — GELU between the two FFN GEMMs is nonlinear, so
  checksums cannot cross it; instead the cached row checksums of ``W_down``
  (one :class:`~repro.core.engine.WeightEncodingCache` entry per weight
  version) are carried as ``H' rowcs(W_down)``, and ``FO`` is checked with
  its row side only.

:data:`PROTECTION_SECTIONS` keeps its historical meaning — the attention
block's three sections — while :data:`SECTION_REGISTRY` holds every
registered section; :func:`sections_for_scope` maps an
``ATTNCheckerConfig.protect_scope`` value to the active subset.

Besides the descriptors themselves this module provides the FLOP/byte
accounting of the ABFT work each section adds (encoding, checksum updates,
detection, correction), which feeds both the adaptive-frequency optimiser
(Section 4.5 needs the per-section overhead ``T_S``) and the GPU performance
model used to reproduce Figures 7, 8, 10 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # annotation-only: core must not import the model layer
    from repro.models.config import ModelConfig

__all__ = [
    "ProtectionSection",
    "PROTECTION_SECTIONS",
    "SECTION_REGISTRY",
    "PROTECT_SCOPES",
    "sections_for_scope",
    "SectionCostModel",
    "SectionCosts",
]


@dataclass(frozen=True)
class ProtectionSection:
    """Static description of one protection section.

    Attributes
    ----------
    name:
        Section label — ``"AS"``, ``"CL"``, ``"O"`` (the paper's
        :math:`S_{AS}`, :math:`S_{CL}`, :math:`S_O`), ``"FF1"`` or ``"FF2"``.
    operations:
        The GEMM op names (:class:`repro.nn.AttentionOp` /
        :class:`repro.core.hooks.FeedForwardOp` values) the section covers,
        in execution order.
    boundary_matrix:
        The matrix on which detection / correction runs.
    maintains_column / maintains_row:
        Which checksum sides the boundary matrix carries.
    block:
        The instrumented block the section belongs to (``"attention"`` or
        ``"ffn"``); its boundary GEMM maps to it in
        :data:`repro.core.hooks.SECTION_BOUNDARY_OPS`.
    """

    name: str
    operations: Tuple[str, ...]
    boundary_matrix: str
    maintains_column: bool
    maintains_row: bool
    block: str = "attention"


#: The three protection sections of the paper (the attention block), keyed by
#: name.  This is the historical attention-only view; the whole-model registry
#: is :data:`SECTION_REGISTRY`.
PROTECTION_SECTIONS: Dict[str, ProtectionSection] = {
    "AS": ProtectionSection(
        name="AS",
        operations=("xq", "xk", "qk"),
        boundary_matrix="AS",
        maintains_column=True,
        maintains_row=True,
    ),
    "CL": ProtectionSection(
        name="CL",
        operations=("xv", "apv"),
        boundary_matrix="CL",
        maintains_column=True,
        maintains_row=True,
    ),
    "O": ProtectionSection(
        name="O",
        operations=("clo",),
        boundary_matrix="O",
        maintains_column=True,
        maintains_row=False,
    ),
}

#: Every registered protection section, keyed by name — the attention triple
#: followed by the feed-forward pair, in per-layer execution order.
SECTION_REGISTRY: Dict[str, ProtectionSection] = {
    **PROTECTION_SECTIONS,
    "FF1": ProtectionSection(
        name="FF1",
        operations=("ff_up",),
        boundary_matrix="H",
        maintains_column=True,
        maintains_row=False,
        block="ffn",
    ),
    "FF2": ProtectionSection(
        name="FF2",
        operations=("ff_down",),
        boundary_matrix="FO",
        maintains_column=False,
        maintains_row=True,
        block="ffn",
    ),
}

#: Valid ``ATTNCheckerConfig.protect_scope`` values.  ``"attention"`` is the
#: historical bit-for-bit default; ``"attention+ffn"`` adds the FFN sections,
#: which is every registered section.
PROTECT_SCOPES: Tuple[str, ...] = ("attention", "attention+ffn")


def sections_for_scope(scope: str) -> Dict[str, ProtectionSection]:
    """The active section subset for one ``protect_scope`` value."""
    if scope == "attention":
        return PROTECTION_SECTIONS
    if scope == "attention+ffn":
        return SECTION_REGISTRY
    raise KeyError(
        f"unknown protect scope {scope!r}; expected one of {PROTECT_SCOPES}"
    )


@dataclass(frozen=True)
class SectionCosts:
    """ABFT work added by one section, split by phase (FLOPs and bytes moved).

    ``encode``   — building fresh checksums from data (X, AP, W_V);
    ``update``   — carrying checksums through the member GEMMs;
    ``detect``   — recomputing sums of the boundary matrix and comparing;
    ``correct``  — worst-case correction cost (only paid when a fault hit).
    Byte counts assume the configured element size and are used by the
    bandwidth-bound parts of the GPU performance model.
    """

    encode_flops: float
    update_flops: float
    detect_flops: float
    correct_flops: float
    encode_bytes: float
    detect_bytes: float

    @property
    def detection_path_flops(self) -> float:
        """FLOPs on the always-paid path (everything except correction)."""
        return self.encode_flops + self.update_flops + self.detect_flops

    @property
    def total_flops(self) -> float:
        return self.detection_path_flops + self.correct_flops


class SectionCostModel:
    """FLOP / byte accounting of ABFT work per protection section.

    Parameters
    ----------
    config:
        Model architecture (provides D, H, d_h, sequence length).
    batch_size:
        Training batch size.
    seq_len:
        Sequence length; defaults to ``config.max_seq_len``.
    element_size:
        Bytes per element (4 for the paper's fp32 training, 8 for the NumPy
        reproduction).
    """

    def __init__(
        self,
        config: ModelConfig,
        batch_size: int,
        seq_len: Optional[int] = None,
        element_size: int = 4,
    ) -> None:
        self.config = config
        self.batch_size = batch_size
        self.seq_len = seq_len if seq_len is not None else config.max_seq_len
        self.element_size = element_size

    # -- per-section ABFT costs ---------------------------------------------------

    def section_costs(self, name: str) -> SectionCosts:
        """ABFT cost breakdown for section ``name`` for one attention layer."""
        b = self.batch_size
        s = self.seq_len
        d = self.config.hidden_size
        h = self.config.num_heads
        dh = self.config.head_dim
        es = self.element_size

        if name == "AS":
            # Encode col checksums of X: (2 x S) @ (S x D) per batch sample.
            encode = 2 * 2 * s * d * b
            # Pass through W_Q and W_K: (2 x D) @ (D x D), twice, per sample.
            update = 2 * (2 * 2 * d * d) * b
            # Column side of AS: (2 x dh) @ (dh x S) per head; row side:
            # (S x dh) @ (dh x 2) per head.
            update += (2 * 2 * dh * s + 2 * s * dh * 2) * b * h
            # Detect: recompute weighted+unweighted column and row sums of AS.
            detect = 2 * (2 * s * s) * b * h * 2
            # Correct (worst case, 1D): reconstruct one element per vector.
            correct = 4 * s * b * h
            encode_bytes = (s * d + 2 * d) * b * es
            detect_bytes = (s * s) * b * h * es * 2
        elif name == "CL":
            # Encode col checksums of AP: (2 x S) @ (S x S) per head, plus the
            # per-head row checksums of W_V: (D x dh) @ (dh x 2) per head.
            encode = 2 * 2 * s * s * b * h + 2 * d * dh * 2 * h
            # Row checksums of V: X @ rowcs(W_V): (S x D) @ (D x 2H) per sample;
            # col side of CL: (2 x S) @ (S x dh); row side: (S x S) @ (S x 2).
            update = 2 * s * d * 2 * h * b
            update += (2 * 2 * s * dh + 2 * s * s * 2) * b * h
            detect = 2 * (2 * s * dh) * b * h * 2
            correct = 4 * s * b * h
            encode_bytes = (s * s * h + d * dh * h) * b * es
            detect_bytes = (s * dh) * b * h * es * 2
        elif name == "O":
            # Carry col checksums of CL through W_O: (2 x D) @ (D x D) per sample.
            encode = 0.0
            update = 2 * 2 * d * d * b
            detect = 2 * (2 * s * d) * b
            correct = 4 * d * b
            encode_bytes = 0.0
            detect_bytes = (s * d) * b * es
        elif name == "FF1":
            d_ff = self.config.intermediate_size
            # Encode col checksums of X: (2 x S) @ (S x D) per sample.
            encode = 2 * 2 * s * d * b
            # Carry through W_up: (2 x D) @ (D x D_ff) per sample.
            update = 2 * 2 * d * d_ff * b
            # Detect: recompute weighted+unweighted column sums of H.
            detect = 2 * (2 * s * d_ff) * b
            # Correct (worst case, 1D): one element per column vector.
            correct = 4 * d_ff * b
            encode_bytes = (s * d + 2 * d) * b * es
            detect_bytes = (s * d_ff) * b * es
        elif name == "FF2":
            d_ff = self.config.intermediate_size
            # Encode row checksums of W_down: (D_ff x D) @ (D x 2) — amortised
            # by the weight-encoding cache, charged here like S_CL's W_V.
            encode = 2 * d_ff * d * 2
            # Carry: H' @ rowcs(W_down): (S x D_ff) @ (D_ff x 2) per sample.
            update = 2 * s * d_ff * 2 * b
            # Detect: recompute weighted+unweighted row sums of FO.
            detect = 2 * (2 * s * d) * b
            # Correct (worst case, 1D): one element per row vector.
            correct = 4 * s * b
            encode_bytes = (d_ff * d) * es
            detect_bytes = (s * d) * b * es
        else:
            raise KeyError(f"unknown protection section {name!r}")

        return SectionCosts(
            encode_flops=float(encode),
            update_flops=float(update),
            detect_flops=float(detect),
            correct_flops=float(correct),
            encode_bytes=float(encode_bytes),
            detect_bytes=float(detect_bytes),
        )

    # -- protected-operation FLOPs (needed by the Poisson reliability model) -------

    def operation_flops(self) -> Dict[str, float]:
        """FLOPs of each protected GEMM for one attention layer forward pass."""
        b = self.batch_size
        s = self.seq_len
        d = self.config.hidden_size
        h = self.config.num_heads
        dh = self.config.head_dim
        return {
            "xq": 2.0 * b * s * d * d,
            "xk": 2.0 * b * s * d * d,
            "xv": 2.0 * b * s * d * d,
            "qk": 2.0 * b * h * s * s * dh,
            "apv": 2.0 * b * h * s * s * dh,
            "clo": 2.0 * b * s * d * d,
        }

    # -- host-side dispatch accounting ---------------------------------------------

    @staticmethod
    def python_dispatches_per_layer(backend: str, scope: str = "attention") -> int:
        """Host-side ABFT dispatch points per transformer layer forward pass.

        The per-GEMM reference backend does checksum work inside all six GEMM
        hooks; the fused engine dispatches once per protection section (at the
        boundary GEMM), i.e. three times.  The counts are real dispatch
        counts, not just work counts: when the fused checker is the only
        consumer, :class:`repro.nn.MultiHeadAttention` skips the non-boundary
        GEMM hooks entirely (see ``AttentionHooks.consumes_gemm_outputs``).
        Composing hooks that do consume per-GEMM outputs (a fault injector, a
        recorder) restores those dispatches for *them* — the checker's own
        work still runs at the three boundaries only.  On the GPU substrate
        the paper targets this is the kernel-launch/synchronisation count; on
        the NumPy substrate it is the Python round-trip count — either way the
        fixed per-layer overhead the Section-4.4 fusion removes.

        ``scope`` selects the active section subset (default: the historical
        attention triple — 3 fused / 6 per-GEMM; ``"attention+ffn"`` adds the
        two single-GEMM FFN sections — 5 fused / 8 per-GEMM).
        """
        sections = sections_for_scope(scope)
        if backend == "fused":
            return len(sections)
        if backend == "per_gemm":
            return sum(len(s.operations) for s in sections.values())
        raise KeyError(f"unknown backend {backend!r}; expected 'fused' or 'per_gemm'")

    @staticmethod
    def checksum_gemm_dispatches_per_layer(
        schedule: str, steady_state: bool = True, scope: str = "attention"
    ) -> Dict[str, int]:
        """Checksum GEMM/einsum launches per transformer-layer visit, by section.

        Counts the encode/carry launches of a checksum chain (what
        ``ATTNChecker.dispatch_counts["gemm"]`` measures), with all three
        sections enabled — detection passes (one per section per layer) are
        not GEMM launches and are not counted here.  Bias adjustments are
        elementwise, not GEMMs, and are not counted.

        * ``"unfused"`` — the historical one-GEMM-per-update schedule, which
          the per-GEMM reference backend (``backend="per_gemm"``) runs and
          counts: S_AS encodes ``cs_x`` and carries it through ``W_Q`` and
          ``W_K`` separately (3) plus the two boundary-side carries (2); S_CL
          encodes ``rowcs(W_V)`` and ``col(AP)`` (2) and carries three times
          (3); S_O carries once.
        * ``"fused"`` — the fused engine's schedule: the sibling GEMMs
          collapse into one launch against ``[W_Q | W_K]`` (S_AS drops to 4)
          and, in steady state (``steady_state=True``: weights unchanged
          since the last visit, so the weight-encoding cache hits), the
          ``rowcs(W_V)`` encode disappears from the per-visit path (S_CL
          drops to 4).  A cold visit (``steady_state=False`` — first visit,
          or the first after a weight update) pays the ``rowcs(W_V)`` encode
          once.

        With an FFN-including ``scope`` the two single-GEMM feed-forward
        sections are added:

        * ``FF1`` encodes ``col(X)`` and carries it through ``W_up`` — 2
          launches under either schedule (sibling fusion has no sibling here);
        * ``FF2`` carries ``H'`` through the cached ``rowcs(W_down)`` — 1
          launch in the fused steady state; the unfused schedule (or a cold
          visit) re-encodes ``rowcs(W_down)`` per visit, so 2.

        The totals are exact counts the fused-kernel tests compare against
        the measured counters of both backends.
        """
        if schedule == "unfused":
            counts = {"AS": 5, "CL": 5, "O": 1}
            ffn = {"FF1": 2, "FF2": 2}
        elif schedule == "fused":
            counts = {"AS": 4, "CL": 4 if steady_state else 5, "O": 1}
            ffn = {"FF1": 2, "FF2": 1 if steady_state else 2}
        else:
            raise KeyError(
                f"unknown schedule {schedule!r}; expected 'fused' or 'unfused'"
            )
        if "FF1" in sections_for_scope(scope):
            counts.update(ffn)
        return counts

    @staticmethod
    def serving_decode_checksum_gemm_dispatches_per_layer(
        steady_state: bool = True, scope: str = "attention"
    ) -> Dict[str, int]:
        """Checksum GEMM/einsum launches per *decoded token* per layer.

        The serving decode path is row-side only and incremental: the KV
        cache carries ``cs(X)`` (folded forward per token — an elementwise
        AXPY, not a GEMM) and the per-position row checksums of V, so every
        count here is **constant in the cached sequence length** — the O(1)
        property the serving benchmark counter-verifies at two different
        cache lengths.

        * ``S_AS`` — carry ``cs(X)`` through ``W_K`` (1) and the boundary
          row carry ``q @ row(K)^T`` (1): 2.
        * ``S_CL`` — the new token's ``cs_v`` einsum (1) and the boundary row
          carry ``ap @ row(V)`` (1): 2.  A cold visit (first decode after a
          weight update) additionally encodes ``rowcs(W_V)`` (+1).
        * ``S_O`` — the boundary row carry ``cl @ rowcs(W_O)`` (1): 1.  A
          cold visit additionally encodes ``rowcs(W_O)`` (+1).

        The FFN has no KV cache — it sees only the current token — so its
        decode sections run the training algebra at ``S = 1`` and are O(1)
        per token by construction:

        * ``S_FF1`` — encode ``col(x)`` of the one new row (1) and carry it
          through ``W_up`` (1): 2.
        * ``S_FF2`` — the boundary row carry ``h' @ rowcs(W_down)`` (1): 1.
          A cold visit additionally encodes ``rowcs(W_down)`` (+1).

        Exact counts, compared against ``ProtectionEngine.dispatch_counts``
        deltas by the serving tests and ``benchmarks/bench_serving.py`` /
        ``benchmarks/bench_ffn_overhead.py``.
        """
        if steady_state:
            counts = {"AS": 2, "CL": 2, "O": 1}
            ffn = {"FF1": 2, "FF2": 1}
        else:
            counts = {"AS": 2, "CL": 3, "O": 2}
            ffn = {"FF1": 2, "FF2": 2}
        if "FF1" in sections_for_scope(scope):
            counts.update(ffn)
        return counts

    @staticmethod
    def checksum_workspace_slots(scope: str = "attention") -> int:
        """Distinct reusable workspace buffers of the critical-path arena.

        The fused engine's steady-state hot path serves every *managed*
        checksum intermediate from one of these named slots, shared across
        the homogeneous layers of a model: 9 for the attention sections
        (``cs_x``/``cs_qk``/two ``AS`` sides, ``cs_ap_col``/two ``CL`` sides,
        the merged ``CL`` checksum and the ``O`` side).

        One intermediate is deliberately unmanaged: ``cs_v_row`` (the carried
        row checksums of V) comes from an einsum, and einsum's ``out=`` path
        forfeits NumPy's specialised inner loops (measured ~4x slower at
        attention dims) — so that single buffer allocates per visit by
        design.

        An FFN-including ``scope`` adds three slots — the ``FF1`` input
        encode (``FF1/cs_x``) plus the two boundary-checksum slots
        (``FF1/col``, ``FF2/row``).
        """
        return 12 if "FF1" in sections_for_scope(scope) else 9

    @staticmethod
    def collective_checksum_dispatches_per_step(
        num_gradients: int, world_size: int, num_buckets: Optional[int] = None
    ) -> Dict[str, int]:
        """Checksum dispatches of one protected gradient all-reduce.

        The collective protection of :class:`repro.comm.ProtectedCollective`
        is linear-checksum ABFT over the reduction: every rank encodes each
        contributed tensor once (``encode`` = tensors x ranks), while the
        *verification* recomputes the checksum of the shared reduced result
        exactly once per tensor regardless of the world size (``verify`` =
        tensors) — the first rank through ``finish`` verifies, its peers
        pick the cached verdict up.  ``num_gradients`` counts the payload
        tensors of one flat, unbucketed contribution (parameter gradients
        plus the loss scalar, so pass ``len(params) + 1``).

        With ``num_buckets`` set, the counts model the data-parallel
        trainer's *bucketed* reduction instead: every bucket ships as one
        flat tensor under its own rendezvous key, and the loss scalar is the
        second array of the final bucket's payload, so each rank encodes
        ``num_buckets + 1`` tensors and the shared results are verified
        ``num_buckets + 1`` times — the per-tensor dispatch count collapses
        from ``num_gradients`` to ``num_buckets + 1``, which is the
        measurable Python-dispatch saving of bucketing.  A clean step's
        counts; bucket-granular dirty retries add their own dispatches on
        top.

        Exact counts, compared against ``ProtectedCollective.counters()``
        deltas by the parallel-training tests, ``BENCH_fig12.json`` and
        ``BENCH_overlap.json``.
        """
        if num_gradients < 1:
            raise ValueError(f"num_gradients must be >= 1, got {num_gradients}")
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if num_buckets is None:
            return {
                "encode": num_gradients * world_size,
                "verify": num_gradients,
            }
        # Bucketed: num_gradients includes the loss tensor, which is never
        # bucketed, so at most num_gradients - 1 parameter tensors exist.
        if not 1 <= num_buckets <= max(1, num_gradients - 1):
            raise ValueError(
                f"num_buckets must be in [1, {max(1, num_gradients - 1)}], "
                f"got {num_buckets}"
            )
        return {
            "encode": (num_buckets + 1) * world_size,
            "verify": num_buckets + 1,
        }

    @staticmethod
    def steady_state_hot_path_allocations() -> int:
        """Workspace allocations per layer visit once warm — zero by design.

        The measurable claim behind the fused engine's checksum workspace:
        after the warm-up visit, ``ChecksumWorkspace.allocations`` stays flat while ``reuses``
        grows (counter-verified by the fused-kernel tests and the Figure-7
        perf smoke).
        """
        return 0
