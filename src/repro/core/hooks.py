"""Block instrumentation protocol — the nn ↔ core seam.

These types name the instrumented GEMMs of the protected transformer blocks,
the protection-section boundaries of Section 4.4 (generalized to any block),
and the hook interface through which checkers and fault injectors observe
GEMM outputs.  They live in ``repro.core`` — not ``repro.nn`` — because the
protection engine and ATTNChecker *are* hooks: the checker layer must be
importable (and testable) without pulling in the model stack, while the nn
layer imports downward to instrument itself.  :mod:`repro.nn.attention`
re-exports everything attention-side, so model-side code keeps its
historical import path.

Two blocks are declared here, each as an op enum:

* ``"attention"`` — the six GEMMs of the paper's attention execution flow
  (Figure 1, :class:`AttentionOp`), ending the three protection sections
  ``AS`` / ``CL`` / ``O``;
* ``"ffn"`` — the two feed-forward GEMMs ``x·W_up`` and ``h·W_down``
  (:class:`FeedForwardOp`), ending the single-GEMM protection sections
  ``FF1`` (boundary matrix ``H``) and ``FF2`` (boundary matrix ``FO``).

One boundary map, :data:`SECTION_BOUNDARY_OPS`, names the section each of
the five boundary GEMMs ends; it and ``op.output_matrix`` are read off the
GEMM inventory of :mod:`repro.core.sections`.  One lifecycle pair,
:meth:`AttentionHooks.on_block_start` / :meth:`~AttentionHooks.on_block_end`,
announces every block pass with its block name.  The instrumented blocks
dispatch through that map and ``op.output_matrix``; the sections themselves
are described in :data:`repro.core.sections.SECTION_REGISTRY`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.sections import SECTION_REGISTRY

__all__ = [
    "AttentionOp",
    "FeedForwardOp",
    "GemmContext",
    "SectionContext",
    "AttentionHooks",
    "SECTION_BOUNDARY_OPS",
]


class AttentionOp(str, enum.Enum):
    """Names of the six GEMMs in the attention execution flow."""

    XQ = "xq"
    XK = "xk"
    XV = "xv"
    QK = "qk"
    APV = "apv"
    CLO = "clo"

    @property
    def output_matrix(self) -> str:
        """Name of the matrix this GEMM produces (paper's Table 1 notation)."""
        return _OUTPUT_OF_OP[self]


class FeedForwardOp(str, enum.Enum):
    """Names of the two GEMMs in the feed-forward (MLP) execution flow."""

    UP = "ff_up"
    DOWN = "ff_down"

    @property
    def output_matrix(self) -> str:
        """Name of the matrix this GEMM produces (``H`` or ``FO``)."""
        return _OUTPUT_OF_OP[self]


#: The matrix each instrumented GEMM produces and the section each boundary
#: GEMM ends, both read off the GEMM inventory of :mod:`repro.core.sections`.
_OPS = {op.value: op for op in (*AttentionOp, *FeedForwardOp)}
_OUTPUT_OF_OP = {
    _OPS[g.name]: g.output
    for section in SECTION_REGISTRY.values() for g in section.model_gemms
}

#: GEMMs that end a protection section (Section 4.4), mapped to the section
#: they end: each section's last member GEMM.  Attention's boundary matrices
#: ``AS``, ``CL`` and ``O`` are produced by ``qk``, ``apv`` and ``clo``.  Both
#: FFN GEMMs are boundaries: GELU between them is nonlinear, so checksums
#: cannot be carried across it and each GEMM forms its own single-member
#: section.  The section-level hook :meth:`AttentionHooks.on_section_output`
#: fires exactly here, after the per-GEMM hooks have run on the same output.
SECTION_BOUNDARY_OPS = {
    _OPS[section.operations[-1]]: name for name, section in SECTION_REGISTRY.items()
}


@dataclass
class GemmContext:
    """Everything a hook needs to know about one GEMM invocation.

    Attributes
    ----------
    op:
        Which instrumented GEMM is being executed (an :class:`AttentionOp` or
        :class:`FeedForwardOp` member).
    a, b:
        The operand arrays actually fed to the GEMM (post head-split for the
        per-head operations).  Hooks must treat them as read-only.
    layer_index:
        Index of the transformer layer inside the model.
    step:
        Monotonic counter of forward passes for this layer
        (increments once per call, i.e. once per training micro-step).
    num_heads, head_dim, seq_len:
        Geometry of the call, needed by the checksum machinery.  FFN GEMMs
        report the layer's attention geometry unchanged.
    phase:
        ``"train"`` (the default — full-sequence forward), ``"prefill"``
        (full-sequence forward that also seeds a KV cache) or ``"decode"``
        (single-token forward against a populated KV cache).  A checker's
        section chain reads it for three choices: where the input checksums
        come from (computed, also seeded into the KV cache, or extended from
        it), which checksum sides exist, and the carrier of ``S_O``.
    kv_cache:
        The per-layer KV cache object for prefill/decode calls (duck-typed —
        core never imports ``repro.nn``), ``None`` for training forwards.
    """

    op: Any
    a: Any
    b: Any
    layer_index: int
    step: int
    num_heads: int
    head_dim: int
    seq_len: int
    bias: Optional[Any] = None
    phase: str = "train"
    kv_cache: Optional[Any] = None


@dataclass
class SectionContext:
    """Everything a section-level hook needs about one protection section.

    Delivered by :meth:`AttentionHooks.on_section_output` at the *boundary*
    GEMM of each protection section (``qk`` for :math:`S_{AS}`, ``apv`` for
    :math:`S_{CL}`, ``clo`` for :math:`S_O`, ``ff_up`` for :math:`S_{FF1}`,
    ``ff_down`` for :math:`S_{FF2}`), carrying every operand of the whole
    section so a checksum-passing engine can encode the section inputs once
    and carry the checksums through all member GEMMs in a single fused
    dispatch, instead of one Python round-trip per GEMM.

    Attributes
    ----------
    section:
        Section name — ``"AS"``, ``"CL"``, ``"O"``, ``"FF1"`` or ``"FF2"``.
    operands:
        Named operand arrays of the section (read-only for hooks):

        * ``"AS"``: ``x``, ``w_q``, ``w_k``, ``bias_q``, ``bias_k`` (biases
          may be ``None``), plus the boundary GEMM operands ``q`` (split
          heads, ``(B, H, S, dh)``) and ``k_t`` (``(B, H, dh, S)``).
        * ``"CL"``: ``x``, ``w_v``, ``bias_v``, plus ``ap`` (attention
          probabilities actually fed to the GEMM, i.e. post-dropout) and
          ``v`` (split heads).
        * ``"O"``: ``cl`` (merged heads, ``(B, S, D)``) and ``w_o``.
        * ``"FF1"``: ``x`` (the FFN input, ``(B, S, D)``) and ``w_up``
          (``(D, D_ff)``).  The boundary matrix ``H`` is the raw GEMM
          output — the bias add runs outside the section, like attention's
          output-projection bias.
        * ``"FF2"``: ``h`` (the post-activation hidden, ``(B, S, D_ff)``)
          and ``w_down`` (``(D_ff, D)``); boundary ``FO`` is again the raw
          GEMM output.
    layer_index / step / num_heads / head_dim / seq_len:
        Same geometry as :class:`GemmContext`.
    phase:
        ``"train"``, ``"prefill"`` or ``"decode"`` — see
        :attr:`GemmContext.phase`.  Prefill/decode attention sections
        additionally carry the layer's KV cache in ``operands["kv_cache"]``.
    """

    section: str
    operands: Dict[str, Optional[Any]]
    layer_index: int
    step: int
    num_heads: int
    head_dim: int
    seq_len: int
    phase: str = "train"


class AttentionHooks:
    """Base class for block instrumentation.

    Subclasses override any subset of the callbacks.  The default
    implementation is a no-op, so a hook only pays for what it uses.

    Every instrumented block announces its pass window through
    :meth:`on_block_start` / :meth:`on_block_end` with its block name
    (``"attention"`` or ``"ffn"``).
    """

    def on_block_start(self, block: str, layer_index: int, step: int) -> None:
        """Called before any GEMM of a block's pass runs."""

    def on_gemm_output(self, ctx: GemmContext, out: Any) -> Any:
        """Called with the raw output of each GEMM; returns the output to use."""
        return out

    def on_section_output(self, ctx: SectionContext, out: Any) -> Any:
        """Called with the boundary matrix of each protection section.

        Fires after every per-GEMM :meth:`on_gemm_output` hook has processed
        the same array (so an injector registered before a checker corrupts
        the matrix first, exactly as in the per-GEMM protocol).  Returns the
        output to use downstream.
        """
        return out

    def consumes_gemm_outputs(self) -> bool:
        """Whether this hook needs the per-GEMM :meth:`on_gemm_output` calls.

        The instrumented blocks skip per-GEMM dispatch entirely (no
        :class:`GemmContext` is built) for non-boundary GEMMs when no
        attached hook consumes them — this is what reduces a fused
        section-level checker to three attention dispatches per layer
        instead of six.  The default detects an overridden
        :meth:`on_gemm_output`; hooks that override it but do not need every
        GEMM (e.g. a section-level checker) override this to return False.
        """
        return type(self).on_gemm_output is not AttentionHooks.on_gemm_output

    def on_matrix(self, name: str, data: Any, layer_index: int, step: int) -> None:
        """Observation callback for non-GEMM intermediate matrices (e.g. AP)."""

    def on_block_end(self, block: str, layer_index: int, step: int) -> None:
        """Called after a block's pass completes."""
