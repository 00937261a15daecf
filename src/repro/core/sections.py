"""Protection sections of the systematic ABFT scheme (Section 4.4), and the
one inventory of the GEMMs they protect.

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

The inventory
-------------
Each section lists its GEMMs once, as :class:`GemmSpec` entries of three
kinds: ``"model"`` (the member GEMMs of the forward pass, in execution
order; the last one ends the section and produces its boundary matrix),
``"encode"`` (checksums built fresh from data or weights) and ``"carry"``
(a checksum carried through a member GEMM).  A shape ``(m, n, k, batch)``
is ``batch`` independent ``(m x k) @ (k x n)`` GEMMs over ``B, S, D, H,
d_h, D_ff``: the projections fold the batch into ``m``, the checksum ops
keep ``B`` as their batch.  Shapes are full-sequence ones; decode only
counts launches.  A checksum op also names the phases it runs in, whether
it is *weight-derived* (the weight-encoding cache serves it on a
steady-state visit) and whether it is a *sibling* (the fused schedule runs
the siblings as one launch against ``[W_Q | W_K]``).  A section also names
the checksum sides its boundary verifies in training.

Everything that prices or counts protected GEMMs derives from this list:
:class:`SectionCostModel` (the per-section ABFT FLOPs ``T_S`` the
adaptive-frequency optimiser of Section 4.5 needs, the protected-GEMM FLOPs
of its reliability model, and both checksum-GEMM dispatch tables), Table 3's
GEMM FLOPs (:mod:`repro.analysis.workload`), the A100 roofline behind
Figures 7, 8, 11 and 12 (:mod:`repro.perfmodel`), and the op → matrix map of
:mod:`repro.core.hooks` that the adaptive model and the fault injector read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:  # annotation-only: core must not import the model layer
    from repro.models.config import ModelConfig

__all__ = [
    "GemmSpec",
    "ProtectionSection",
    "PROTECTION_SECTIONS",
    "SECTION_REGISTRY",
    "PROTECT_SCOPES",
    "sections_for_scope",
    "gemm_geometry",
    "SectionCostModel",
    "SectionCosts",
]

#: Phases of a forward pass (see :attr:`repro.core.hooks.GemmContext.phase`).
PHASES: Tuple[str, ...] = ("train", "prefill", "decode")
#: The full-sequence phases.  A decode step has one query row, so it
#: verifies row sides only, and it folds its input row into the cached
#: ``col(X)`` with an AXPY instead of a GEMM.
_FULL = ("train", "prefill")


@dataclass(frozen=True)
class GemmSpec:
    """One GEMM of a protection section: a model GEMM or a checksum op.

    Attributes
    ----------
    name:
        A model GEMM's op name (:class:`repro.core.hooks.AttentionOp` /
        :class:`~repro.core.hooks.FeedForwardOp` value), or the checksum a
        checksum op produces (``"col(X)"``, ``"rowcs(W_V)"``, ...).
    kind:
        ``"model"``, ``"encode"`` or ``"carry"``.
    shape:
        ``"m, n, k, batch"`` over ``B, S, D, H, d_h, D_ff`` and integers,
        products written with ``*``.
    output:
        The matrix a model GEMM produces (the paper's Table 1 notation).
    phases / weight_derived / sibling:
        See the module docstring.
    """

    name: str
    kind: str
    shape: str
    output: str = ""
    phases: Tuple[str, ...] = PHASES
    weight_derived: bool = False
    sibling: bool = False

    def dims(self, geometry: Mapping[str, int]) -> Tuple[int, ...]:
        """``(m, n, k, batch)`` at one :func:`gemm_geometry`."""
        return tuple(
            math.prod(geometry[f] if f in geometry else int(f) for f in term.strip().split("*"))
            for term in self.shape.split(",")
        )

    def flops(self, geometry: Mapping[str, int]) -> int:
        m, n, k, batch = self.dims(geometry)
        return 2 * m * n * k * batch

    def output_elements(self, geometry: Mapping[str, int]) -> int:
        m, n, _, batch = self.dims(geometry)
        return m * n * batch


@dataclass(frozen=True)
class ProtectionSection:
    """One protection section and its entries of the GEMM inventory.

    Attributes
    ----------
    name:
        Section label — ``"AS"``, ``"CL"``, ``"O"`` (the paper's
        :math:`S_{AS}`, :math:`S_{CL}`, :math:`S_O`), ``"FF1"`` or ``"FF2"``.
    gemms:
        The section's model GEMMs, in execution order, then its checksum ops.
    sides:
        The checksum sides (``"col"``, ``"row"``) its boundary matrix is
        verified with in training.
    block:
        The instrumented block the section belongs to (``"attention"`` or
        ``"ffn"``).
    """

    name: str
    gemms: Tuple[GemmSpec, ...]
    sides: Tuple[str, ...]
    block: str = "attention"

    @property
    def model_gemms(self) -> Tuple[GemmSpec, ...]:
        return tuple(g for g in self.gemms if g.kind == "model")

    @property
    def operations(self) -> Tuple[str, ...]:
        """The op names of the member GEMMs; the last one ends the section."""
        return tuple(g.name for g in self.model_gemms)

    @property
    def boundary_matrix(self) -> str:
        """The matrix detection and correction run on."""
        return self.model_gemms[-1].output

    def checksum_ops(self, phase: str = "train", steady_state: bool = False) -> Tuple[GemmSpec, ...]:
        """The checksum GEMMs of one visit in ``phase``.

        A steady-state visit takes the weight-derived encodes from the
        weight-encoding cache; a cold one (the first visit, or the first
        after a weight update) runs them.
        """
        return tuple(
            g for g in self.gemms
            if g.kind != "model" and phase in g.phases and not (steady_state and g.weight_derived)
        )

    def checksum_launches(self, phase: str, steady_state: bool, fused: bool) -> int:
        """Checksum GEMM launches of one visit; fusion merges the siblings."""
        ops = self.checksum_ops(phase, steady_state)
        siblings = sum(g.sibling for g in ops) if fused else 0
        return len(ops) - siblings + min(siblings, 1)


#: The three protection sections of the paper (the attention block), keyed by
#: name.  This is the historical attention-only view; the whole-model registry
#: is :data:`SECTION_REGISTRY`.
PROTECTION_SECTIONS: Dict[str, ProtectionSection] = {
    "AS": ProtectionSection("AS", sides=("col", "row"), gemms=(
        GemmSpec("xq", "model", "B*S, D, D, 1", output="Q"),
        GemmSpec("xk", "model", "B*S, D, D, 1", output="K"),
        GemmSpec("qk", "model", "S, S, d_h, B*H", output="AS"),
        GemmSpec("col(X)", "encode", "2, D, S, B", phases=_FULL),
        GemmSpec("col(Q)", "carry", "2, D, D, B", phases=_FULL, sibling=True),
        GemmSpec("col(K)", "carry", "2, D, D, B", sibling=True),
        # row(AS) = Q col(K)^T and col(AS) = col(Q) K^T.
        GemmSpec("row(AS)", "carry", "S, 2, d_h, B*H"),
        GemmSpec("col(AS)", "carry", "2, S, d_h, B*H", phases=_FULL),
    )),
    "CL": ProtectionSection("CL", sides=("col", "row"), gemms=(
        GemmSpec("xv", "model", "B*S, D, D, 1", output="V"),
        GemmSpec("apv", "model", "S, d_h, S, B*H", output="CL"),
        GemmSpec("rowcs(W_V)", "encode", "D, 2, d_h, H", weight_derived=True),
        # row(V) = X rowcs(W_V), every head's two columns in one GEMM.
        GemmSpec("row(V)", "carry", "S, 2*H, D, B"),
        GemmSpec("row(CL)", "carry", "S, 2, S, B*H"),
        GemmSpec("col(AP)", "encode", "2, S, S, B*H", phases=_FULL),
        GemmSpec("col(CL)", "carry", "2, d_h, S, B*H", phases=_FULL),
    )),
    "O": ProtectionSection("O", sides=("col",), gemms=(
        GemmSpec("clo", "model", "B*S, D, D, 1", output="O"),
        GemmSpec("col(O)", "carry", "2, D, D, B", phases=_FULL),
        # A decode step has no col(CL) to carry: row(O) = CL rowcs(W_O).
        GemmSpec("rowcs(W_O)", "encode", "D, 2, D, 1", phases=("decode",), weight_derived=True),
        GemmSpec("row(O)", "carry", "S, 2, D, B", phases=("decode",)),
    )),
}

#: Every registered protection section, keyed by name — the attention triple
#: followed by the feed-forward pair, in per-layer execution order.
SECTION_REGISTRY: Dict[str, ProtectionSection] = {
    **PROTECTION_SECTIONS,
    "FF1": ProtectionSection("FF1", sides=("col",), block="ffn", gemms=(
        GemmSpec("ff_up", "model", "B*S, D_ff, D, 1", output="H"),
        GemmSpec("col(X)", "encode", "2, D, S, B"),
        GemmSpec("col(H)", "carry", "2, D_ff, D, B"),
    )),
    "FF2": ProtectionSection("FF2", sides=("row",), block="ffn", gemms=(
        GemmSpec("ff_down", "model", "B*S, D, D_ff, 1", output="FO"),
        GemmSpec("rowcs(W_down)", "encode", "D_ff, 2, D, 1", weight_derived=True),
        GemmSpec("row(FO)", "carry", "S, 2, D_ff, B"),
    )),
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


def gemm_geometry(
    config: ModelConfig, batch_size: int, seq_len: Optional[int] = None
) -> Dict[str, int]:
    """The symbols of the inventory's shapes for one model and workload."""
    return {
        "B": batch_size,
        "S": seq_len if seq_len is not None else config.max_seq_len,
        "D": config.hidden_size,
        "H": config.num_heads,
        "d_h": config.head_dim,
        "D_ff": config.intermediate_size,
    }


@dataclass(frozen=True)
class SectionCosts:
    """ABFT FLOPs added by one section, split by phase.

    ``encode``   — building fresh checksums from data (X, AP) and weights;
    ``update``   — carrying checksums through the member GEMMs;
    ``detect``   — recomputing sums of the boundary matrix and comparing;
    ``correct``  — worst-case correction cost (only paid when a fault hit).
    """

    encode_flops: float
    update_flops: float
    detect_flops: float
    correct_flops: float

    @property
    def detection_path_flops(self) -> float:
        """FLOPs on the always-paid path (everything except correction)."""
        return self.encode_flops + self.update_flops + self.detect_flops

    @property
    def total_flops(self) -> float:
        return self.detection_path_flops + self.correct_flops


class SectionCostModel:
    """FLOP and dispatch accounting of the sections, priced from the inventory.

    Parameters
    ----------
    config:
        Model architecture (provides D, H, d_h, D_ff, sequence length).
    batch_size:
        Training batch size.
    seq_len:
        Sequence length; defaults to ``config.max_seq_len``.
    """

    def __init__(
        self,
        config: ModelConfig,
        batch_size: int,
        seq_len: Optional[int] = None,
    ) -> None:
        self.config = config
        self.batch_size = batch_size
        self.seq_len = seq_len if seq_len is not None else config.max_seq_len
        self.geometry = gemm_geometry(config, batch_size, self.seq_len)

    # -- per-section ABFT costs ---------------------------------------------------

    def section_costs(self, name: str) -> SectionCosts:
        """ABFT FLOPs of section ``name`` for one cold training visit of one layer."""
        if name not in SECTION_REGISTRY:
            raise KeyError(f"unknown protection section {name!r}")
        section = SECTION_REGISTRY[name]
        geometry = self.geometry
        ops = section.checksum_ops("train")
        # Worst-case (1D) correction reconstructs one element per vector of
        # one side, the row side when verified: 4 FLOPs per vector, and the
        # side's checksum holds 2 entries per vector.
        side = "row" if "row" in section.sides else "col"
        side_carry = next(op for op in ops if op.name == f"{side}({section.boundary_matrix})")
        return SectionCosts(
            encode_flops=float(sum(op.flops(geometry) for op in ops if op.kind == "encode")),
            update_flops=float(sum(op.flops(geometry) for op in ops if op.kind == "carry")),
            # Weighted and unweighted sums of the boundary matrix, per side.
            detect_flops=float(
                4 * section.model_gemms[-1].output_elements(geometry) * len(section.sides)
            ),
            correct_flops=float(2 * side_carry.output_elements(geometry)),
        )

    # -- protected-operation FLOPs (needed by the Poisson reliability model) -------

    def operation_flops(self) -> Dict[str, float]:
        """FLOPs of each protected GEMM for one attention layer forward pass."""
        return {
            g.name: float(g.flops(self.geometry))
            for section in PROTECTION_SECTIONS.values() for g in section.model_gemms
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

        Counts the encode/carry launches of a training or prefill visit (what
        ``ATTNChecker.dispatch_counts["gemm"]`` measures) with every section
        enabled; detection passes and the elementwise bias adjustments are
        not GEMM launches.  Derived from the inventory:

        * ``"unfused"`` — the one-GEMM-per-update schedule the per-GEMM
          reference backend (``backend="per_gemm"``) runs: every checksum op,
          weight-derived encodes included on every visit (AS 5, CL 5, O 1,
          FF1 2, FF2 2).
        * ``"fused"`` — the fused engine's schedule: the siblings run as one
          launch (AS 4), and a steady-state visit (``steady_state=True``:
          weights unchanged since the last visit) takes ``rowcs(W_V)`` and
          ``rowcs(W_down)`` from the weight-encoding cache (CL 4, FF2 1).  A
          cold visit pays them once (CL 5, FF2 2).

        The fused-kernel tests and the e2e checks compare these exact counts
        against the measured counters of both backends.
        """
        if schedule not in ("fused", "unfused"):
            raise KeyError(
                f"unknown schedule {schedule!r}; expected 'fused' or 'unfused'"
            )
        fused = schedule == "fused"
        return {
            name: section.checksum_launches("train", fused and steady_state, fused)
            for name, section in sections_for_scope(scope).items()
        }

    @staticmethod
    def serving_decode_checksum_gemm_dispatches_per_layer(
        steady_state: bool = True, scope: str = "attention"
    ) -> Dict[str, int]:
        """Checksum GEMM/einsum launches per *decoded token* per layer.

        The fused engine's decode ops of the inventory.  The serving decode
        path is row-side only and incremental: the KV cache carries ``cs(X)``
        (folded forward per token — an elementwise AXPY, not a GEMM) and the
        per-position row checksums of V, so every count is **constant in the
        cached sequence length** — the O(1) property the serving benchmark
        counter-verifies at two different cache lengths.  Steady state:
        S_AS carries ``cs(X)`` through ``W_K`` and on to ``row(AS)`` (2);
        S_CL runs the new token's ``row(V)`` and ``row(CL)`` (2); S_O carries
        ``row(O) = CL rowcs(W_O)`` (1).  The FFN has no cross-token state,
        so its sections run the training algebra at ``S = 1`` (FF1 2, FF2 1).
        A cold visit (the first decode after a weight update) also encodes
        ``rowcs(W_V)``, ``rowcs(W_O)`` and ``rowcs(W_down)`` (+1 each).

        Exact counts, compared against ``ProtectionEngine.dispatch_counts``
        deltas by the serving tests and ``benchmarks/bench_serving.py`` /
        ``benchmarks/bench_ffn_overhead.py``.
        """
        return {
            name: section.checksum_launches("decode", steady_state, True)
            for name, section in sections_for_scope(scope).items()
        }

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

