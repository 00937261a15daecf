"""Checksum-encoding throughput sweep (Figure 9).

Figure 9 compares the effective memory throughput (TB/s) of checksum encoding
for batched attention operands, as a function of the number of (head x batch)
blocks, between cuBLAS 12.5 and ATTNChecker's custom kernel on an A100 with
2 TB/s peak bandwidth.  The custom kernel reaches up to 91.4 % of peak while
cuBLAS stays below 10 %, a ~13x gap.

The model reproduces the sweep from the kernel cost models: throughput is the
bytes of operand data encoded divided by the modelled kernel time, so the
small-batch regime is launch-overhead dominated (throughput ramps up with
batch size) and the large-batch regime saturates at the respective bandwidth
utilisations.

The measured series beside these modelled A100 numbers — the *real*
throughput of this package's NumPy encoder on the host CPU — is timed by
``benchmarks/bench_fig9_encoding_throughput.py`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.perfmodel.gpu import A100_SPEC, GPUSpec
from repro.perfmodel.kernels import KernelCostModel

__all__ = ["EncoderThroughputPoint", "EncoderThroughputModel"]

#: Default batch-size sweep of Figure 9.
DEFAULT_BATCH_SIZES: Sequence[int] = (24, 48, 96, 192, 384, 768, 1536)


@dataclass
class EncoderThroughputPoint:
    """Throughput of one encoder variant at one batch size."""

    batch_size: int
    bytes_encoded: float
    seconds: float

    @property
    def throughput_tbps(self) -> float:
        """Effective throughput in TB/s."""
        return self.bytes_encoded / self.seconds / 1e12 if self.seconds > 0 else float("inf")


class EncoderThroughputModel:
    """Sweep encoder throughput over batch sizes.

    Parameters
    ----------
    seq_len, block_width:
        Shape of each encoded block.  One "batch" element of Figure 9 is one
        sample's attention operand (sequence length x hidden size, BERT-base
        geometry 128 x 768 by default); the head dimension is folded into the
        width because the encoder streams whole operands.
    element_size:
        4 bytes (fp32) for the modelled GPU kernels.
    """

    def __init__(
        self,
        seq_len: int = 128,
        block_width: int = 768,
        element_size: int = 4,
        gpu: GPUSpec = A100_SPEC,
    ) -> None:
        self.seq_len = seq_len
        self.block_width = block_width
        self.element_size = element_size
        self.gpu = gpu
        self.kernels = KernelCostModel(gpu=gpu, element_size=element_size)

    def _bytes(self, batch_size: int) -> float:
        return float(batch_size * self.seq_len * self.block_width * self.element_size)

    # -- modelled A100 throughput -----------------------------------------------------------

    def model_custom(self, batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES) -> List[EncoderThroughputPoint]:
        """ATTNChecker's custom encoder (modelled)."""
        points = []
        for b in batch_sizes:
            elements = b * self.seq_len * self.block_width
            seconds = self.kernels.encode_custom(elements)
            points.append(EncoderThroughputPoint(b, self._bytes(b), seconds))
        return points

    def model_cublas(self, batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES) -> List[EncoderThroughputPoint]:
        """cuBLAS strided-batched encoding (modelled)."""
        points = []
        for b in batch_sizes:
            elements = b * self.seq_len * self.block_width
            seconds = self.kernels.encode_cublas(elements, num_blocks=b)
            points.append(EncoderThroughputPoint(b, self._bytes(b), seconds))
        return points

    # -- summary ----------------------------------------------------------------------------------

    @staticmethod
    def speedup(custom: Sequence[EncoderThroughputPoint], cublas: Sequence[EncoderThroughputPoint]) -> float:
        """Mean custom/cuBLAS throughput ratio over the sweep (the paper's ~13x)."""
        ratios = [
            c.throughput_tbps / b.throughput_tbps
            for c, b in zip(custom, cublas)
            if b.throughput_tbps > 0
        ]
        return float(np.mean(ratios)) if ratios else float("nan")
