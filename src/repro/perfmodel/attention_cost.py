"""Attention-block and ABFT cost model (Figures 7 and 8).

For one attention layer the model prices:

* the six protected GEMMs (cuBLAS efficiencies by shape),
* the softmax, masking, dropout and head-permute traffic (bandwidth bound),
* the ABFT work of the three protection sections — the encodes and carries
  of a cold training visit and one detection pass per verified side — in
  two variants:

  - **optimised** (the paper's ATTNChecker): custom coalesced encoding kernel,
    checksum updates fused into the operand GEMMs (no extra kernel launches,
    negligible extra FLOPs), detection kernels that stream the boundary
    matrix once;
  - **non-optimised** ("Non-OPT" in Figure 8): encoding through cuBLAS
    strided-batched GEMMs (<10 % of bandwidth), every checksum update and
    detection issued as its own kernel with an extra pass over the operand.

Every GEMM shape, protected or checksum, comes from the inventory in
:mod:`repro.core.sections`; this module only prices it.

Backward-pass cost is approximated as twice the forward cost (the standard
2x-FLOPs rule for dense layers), so a protected training step pays the ABFT
detection path once per forward execution, as in the paper's integration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.core.sections import PROTECTION_SECTIONS, gemm_geometry
from repro.models.config import ModelConfig
from repro.perfmodel.gpu import A100_SPEC, GPUSpec
from repro.perfmodel.kernels import KernelCostModel

__all__ = ["ABFTOverheadBreakdown", "AttentionCostModel"]

#: Forward + backward cost multiplier for a training step.
BACKWARD_MULTIPLIER = 3.0


@dataclass
class ABFTOverheadBreakdown:
    """Per-section ABFT time (seconds) for one attention layer forward pass."""

    encode: Dict[str, float] = field(default_factory=dict)
    update: Dict[str, float] = field(default_factory=dict)
    detect: Dict[str, float] = field(default_factory=dict)

    def section_total(self, name: str) -> float:
        return self.encode.get(name, 0.0) + self.update.get(name, 0.0) + self.detect.get(name, 0.0)

    def total(self, frequencies: Optional[Mapping[str, float]] = None) -> float:
        """Total ABFT time, optionally weighted by per-section frequencies."""
        total = 0.0
        for name in PROTECTION_SECTIONS:
            f = 1.0 if frequencies is None else float(frequencies.get(name, 0.0))
            total += f * self.section_total(name)
        return total


class AttentionCostModel:
    """Time model of one protected attention layer.

    Parameters
    ----------
    config:
        Model architecture (use the ``paper``-size configs for Figures 7-12).
    batch_size, seq_len:
        Workload geometry.
    gpu, element_size:
        Device and numeric precision (fp32 = 4 bytes, as the paper trains).
    """

    def __init__(
        self,
        config: ModelConfig,
        batch_size: int,
        seq_len: Optional[int] = None,
        gpu: GPUSpec = A100_SPEC,
        element_size: int = 4,
    ) -> None:
        self.config = config
        self.batch_size = batch_size
        self.seq_len = seq_len if seq_len is not None else config.max_seq_len
        self.kernels = KernelCostModel(gpu=gpu, element_size=element_size)
        self.element_size = element_size
        self.geometry = gemm_geometry(config, batch_size, self.seq_len)

    # -- unprotected attention ---------------------------------------------------------

    def attention_forward_time(self) -> float:
        """Forward time of one attention layer (seconds), no ABFT."""
        b, s = self.batch_size, self.seq_len
        d, h = self.config.hidden_size, self.config.num_heads
        k = self.kernels

        time = sum(
            k.gemm(*g.dims(self.geometry))
            for section in PROTECTION_SECTIONS.values() for g in section.model_gemms
        )
        # Softmax over AS (read + write + reduction traffic) and scaling/mask.
        time += k.elementwise(b * h * s * s, passes=3.0, flops_per_element=7.0)
        # Attention dropout on AP.
        time += k.elementwise(b * h * s * s, passes=2.0, flops_per_element=1.0)
        # Head split / merge permutes (PyTorch materialises these copies).
        time += 2 * k.elementwise(b * s * d, passes=2.0, flops_per_element=0.0)
        # Bias additions on the four projections.
        time += k.elementwise(4 * b * s * d, passes=2.0, flops_per_element=1.0)
        return time

    def attention_step_time(self) -> float:
        """Forward + backward time of one attention layer in training."""
        return BACKWARD_MULTIPLIER * self.attention_forward_time()

    # -- ABFT work -----------------------------------------------------------------------

    def abft_breakdown(self, optimized: bool = True) -> ABFTOverheadBreakdown:
        """ABFT time per section and phase for one cold training visit.

        Prices the inventory's encodes and carries of each attention section
        and one detection pass per verified side of its boundary matrix.
        """
        k = self.kernels
        geometry = self.geometry
        fused_rate = k.gpu.peak_flops * 0.5
        breakdown = ABFTOverheadBreakdown()
        for name, section in PROTECTION_SECTIONS.items():
            ops = section.checksum_ops("train")
            # An encode multiplies by a 2-wide weight block: 4 FLOPs per
            # element of the encoded matrix, one block per batch entry.
            encodes = [(op.flops(geometry) // 4, op.dims(geometry)[3])
                       for op in ops if op.kind == "encode"]
            carries = [op for op in ops if op.kind == "carry"]
            boundary = section.model_gemms[-1].output_elements(geometry)
            sides = len(section.sides)
            if optimized:
                # Custom coalesced encoder; carries folded into the operand
                # GEMM (only the extra FLOPs, no launch); one streaming pass
                # over the boundary matrix that sums every verified side.
                breakdown.encode[name] = sum(k.encode_custom(n) for n, _ in encodes)
                breakdown.update[name] = sum(op.flops(geometry) / fused_rate for op in carries)
                breakdown.detect[name] = k.elementwise(
                    boundary, passes=1.0, flops_per_element=2.0 * sides
                )
            else:
                # cuBLAS strided-batched encodes, one GEMM launch per carry,
                # and per-side detection kernels that each re-read the matrix.
                breakdown.encode[name] = sum(
                    k.encode_cublas(n, num_blocks=blocks) for n, blocks in encodes
                )
                breakdown.update[name] = sum(k.gemm(*op.dims(geometry)) for op in carries)
                breakdown.detect[name] = k.elementwise(
                    boundary, passes=2.0, flops_per_element=2.0 * sides, launches=2 * sides
                )
        return breakdown

    def abft_time(self, optimized: bool = True, frequencies: Optional[Mapping[str, float]] = None) -> float:
        """Total ABFT time added to one forward execution of the layer."""
        return self.abft_breakdown(optimized=optimized).total(frequencies)

    # -- overheads --------------------------------------------------------------------------

    def attention_overhead(
        self, optimized: bool = True, frequencies: Optional[Mapping[str, float]] = None
    ) -> float:
        """ABFT overhead relative to the attention block in training (Figure 7/8 left)."""
        return self.abft_time(optimized=optimized, frequencies=frequencies) / self.attention_step_time()

    def correction_time(self, pattern: str = "0D") -> float:
        """Worst-case correction kernel time for one fault (Section 5.5).

        ``"0D"`` repairs one element per boundary vector of one section;
        ``"1D"`` repairs a whole propagated row/column; ``"O"`` repairs the
        merged output matrix, which is larger.
        """
        b, s = self.batch_size, self.seq_len
        d, h, dh = self.config.hidden_size, self.config.num_heads, self.config.head_dim
        if pattern == "0D":
            elements = b * h * s
        elif pattern == "1D":
            elements = b * h * s * 2
        elif pattern == "O":
            elements = b * s * d
        else:
            raise KeyError(f"unknown correction pattern {pattern!r}")
        return self.kernels.elementwise(elements, passes=2.0, flops_per_element=4.0, launches=2)
