"""Error-propagation study (reproduces Table 2 of the paper).

For each fault-injection matrix (Q, K, V, AS, CL) and each error class (INF,
NaN, near-INF), a single 0D fault is injected into the GEMM output of one
attention layer and every downstream matrix of the same layer is compared
against a fault-free reference execution.  The comparison yields the paper's
pattern/type notation (``1R-NaN``, ``2D-M``, ...).

Both runs use the same weights, the same inputs and evaluation mode (dropout
disabled), so any difference between reference and faulty matrices is caused
exclusively by the injected fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.patterns import describe_corruption
from repro.core.thresholds import ABFTThresholds
from repro.faults.injector import FaultInjector, FaultSpec
from repro.faults.precision import PrecisionSimulationHooks, precision_value_dtype
from repro.models.classification import SequenceClassificationModel
from repro.nn.attention import ComposedHooks, RecordingHooks
from repro.tensor.autograd import no_grad
from repro.utils.rng import new_rng

__all__ = ["PropagationResult", "PropagationStudy"]


#: Downstream matrices reported in Table 2, in dataflow order.
DOWNSTREAM_ORDER: Sequence[str] = ("Q", "K", "V", "AS", "AP", "CL", "O")


@dataclass
class PropagationResult:
    """Propagation footprint of one injected fault.

    ``patterns[name]`` holds the Table-2 style cell (e.g. ``"1R-NaN"``) for
    every downstream matrix ``name``; matrices untouched by the fault get
    ``"-"``.
    """

    matrix: str
    error_type: str
    layer_index: int
    patterns: Dict[str, str]
    injected_position: Optional[tuple] = None

    def cell(self, downstream: str) -> str:
        return self.patterns.get(downstream, "-")


class PropagationStudy:
    """Run single-fault propagation traces on one model.

    Parameters
    ----------
    model:
        A sequence-classification model from the zoo.
    batch:
        Encoded batch dict (``input_ids``, ``attention_mask``, ``labels``).
    layer_index:
        Which attention layer to instrument (default 0).
    thresholds:
        Thresholds used to classify near-INF values.
    """

    def __init__(
        self,
        model: SequenceClassificationModel,
        batch: Dict[str, np.ndarray],
        layer_index: int = 0,
        thresholds: Optional[ABFTThresholds] = None,
        rng: Optional[np.random.Generator] = None,
        precision: Optional[str] = None,
    ) -> None:
        """``precision`` optionally rounds every GEMM output through a reduced
        training precision (e.g. ``"float32"``) in *both* the reference and the
        faulty run, reproducing the fp32 overflow/transition semantics of the
        paper's Table 2."""
        self.model = model
        self.batch = batch
        self.layer_index = layer_index
        self.thresholds = thresholds or ABFTThresholds()
        self.rng = rng if rng is not None else new_rng()
        self.precision = precision
        self._reference: Optional[Dict[str, np.ndarray]] = None

    # -- reference run ------------------------------------------------------------------

    def _run_forward(self, hooks) -> Dict[str, np.ndarray]:
        """One recorded forward pass; it records no autograd graph."""
        self.model.eval()
        self.model.set_attention_hooks(hooks)
        try:
            with no_grad():
                self.model(
                    self.batch["input_ids"],
                    attention_mask=self.batch.get("attention_mask"),
                )
        finally:
            self.model.set_attention_hooks(None)
            self.model.train()
        recorder = hooks.hooks[-1] if isinstance(hooks, ComposedHooks) else hooks
        return dict(recorder.matrices(self.layer_index))

    def _hook_chain(self, *hooks) -> ComposedHooks:
        chain = []
        if self.precision is not None:
            chain.append(PrecisionSimulationHooks(self.precision))
        chain.extend(hooks)
        return ComposedHooks(chain)

    def reference_matrices(self) -> Dict[str, np.ndarray]:
        """Fault-free matrices of the instrumented layer (cached)."""
        if self._reference is None:
            self._reference = self._run_forward(self._hook_chain(RecordingHooks()))
        return self._reference

    # -- single trace ----------------------------------------------------------------------

    def trace(self, matrix: str, error_type: str, position: Optional[tuple] = None) -> PropagationResult:
        """Inject one fault and report the downstream propagation pattern."""
        reference = self.reference_matrices()
        spec = FaultSpec(
            matrix=matrix,
            error_type=error_type,
            layer_index=self.layer_index,
            position=position,
        )
        injector = FaultInjector(
            [spec], rng=self.rng, value_dtype=precision_value_dtype(self.precision)
        )
        recorder = RecordingHooks()
        faulty = self._run_forward(self._hook_chain(injector, recorder))

        patterns: Dict[str, str] = {}
        for name in DOWNSTREAM_ORDER:
            if name not in faulty or name not in reference:
                patterns[name] = "-"
                continue
            patterns[name] = describe_corruption(
                faulty[name], reference[name], thresholds=self.thresholds
            )
        injected_position = injector.records[0].position if injector.records else None
        return PropagationResult(
            matrix=matrix,
            error_type=error_type,
            layer_index=self.layer_index,
            patterns=patterns,
            injected_position=injected_position,
        )
