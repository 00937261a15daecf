"""Numerical substrate: NumPy ops and a reverse-mode autograd engine.

The ATTNChecker paper builds on PyTorch + CUDA; this reproduction builds the
equivalent substrate from scratch on NumPy:

``ops``
    Stateless, vectorised array operations (batched GEMM, softmax, GELU,
    layer-norm, …) together with their analytical gradients.  These
    are the kernels everything else is composed from.
``autograd``
    A small but complete reverse-mode automatic differentiation engine.
    :class:`~repro.tensor.autograd.Tensor` wraps an ``ndarray``, records the
    operations applied to it and can back-propagate through arbitrary DAGs.
``init``
    Parameter initialisers (normal, zeros) used by the NN modules.

The protected attention integrates with this engine through the
``forward_hook`` argument of :func:`repro.tensor.autograd.matmul`: the hook
receives the raw GEMM output (a plain ``ndarray``) and may modify it — this is
where fault injection and ABFT detection/correction run, exactly at the
operation boundary the paper instruments.
"""

from repro.tensor.autograd import (
    Tensor,
    add,
    dropout,
    embedding,
    gelu,
    layer_norm,
    log_softmax,
    matmul,
    mean,
    mul,
    reshape,
    softmax,
    split_heads,
    sum as tensor_sum,
    tanh,
    tensor,
    transpose,
)
from repro.tensor.init import normal_init, zeros_init
from repro.tensor import ops

__all__ = [
    "Tensor",
    "tensor",
    "add",
    "mul",
    "matmul",
    "softmax",
    "log_softmax",
    "gelu",
    "tanh",
    "layer_norm",
    "dropout",
    "embedding",
    "reshape",
    "transpose",
    "split_heads",
    "mean",
    "tensor_sum",
    "ops",
    "normal_init",
    "zeros_init",
]
