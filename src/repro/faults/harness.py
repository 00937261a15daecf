"""One fault trial and one cell loop: the harness behind every fault study.

A *trial* arms one :class:`FaultSpec` and runs the model once through one of
the :data:`CONFIGURATIONS`:

``"unprotected"``, ``"protected"``, ``"recorded"``
    One forward pass in evaluation mode with no autograd tape, with nothing,
    an :class:`ATTNChecker` or a :class:`RecordingHooks` attached behind the
    injector.  The logits are compared with the fault-free pass (the
    Section-5.2 success criterion: the corrupted value was restored), and a
    recorded trial classifies every downstream matrix of the struck layer
    against the fault-free one in the cell notation of Table 2 (``1R-NaN``,
    ``2D-M``, ...).
``"training"``
    Unprotected training of a fresh copy of the model: one step with the
    fault armed and, unless its loss is NaN, one clean step after it, which
    catches faults that corrupt the gradients or weights rather than the
    loss.  Reaching a NaN loss is the non-trainable state of Table 4.

Every configuration builds its hook chain in one place: precision simulation
(when a reduced training precision is simulated), then the injector, then
the checker or recorder.  :meth:`FaultHarness.cells` runs ``trials`` trials
per (matrix, error type) cell and returns one :class:`CellResult` per cell,
whose counts give every rate the studies report: detection, correction,
recovery, benign-masked, per flip kind and non-trainable.  Section 5.2 is
the protected configuration, Table 2 the recorded one and Table 4 the
training one.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.attention_checker import ATTNChecker, ATTNCheckerConfig
from repro.core.patterns import describe_corruption
from repro.faults.injector import FLIP_KINDS, FaultInjector, FaultSpec, InjectionRecord
from repro.faults.precision import PrecisionSimulationHooks, precision_value_dtype
from repro.nn.attention import AttentionHooks, ComposedHooks, RecordingHooks
from repro.tensor.autograd import no_grad
from repro.training.trainer import Trainer

__all__ = [
    "CONFIGURATIONS",
    "DOWNSTREAM_ORDER",
    "CellResult",
    "FaultHarness",
    "Trial",
    "all_corrected",
]

#: Trial configurations; see the module docstring.
CONFIGURATIONS: Tuple[str, ...] = ("unprotected", "protected", "recorded", "training")

#: rtol and atol of the restored-output test: logits this close to the
#: fault-free logits count as restored.
TOLERANCE = 1e-6

#: Downstream matrices of Table 2, in dataflow order.
DOWNSTREAM_ORDER: Tuple[str, ...] = ("Q", "K", "V", "AS", "AP", "CL", "O")

#: One generator shared by every trial, or ``(cell index, trial index) ->``
#: the generator of that trial.
TrialRng = Union[np.random.Generator, Callable[[int, int], np.random.Generator]]


@dataclass
class Trial:
    """What one armed fault did in one configuration."""

    spec: FaultSpec
    #: The injection performed; ``None`` when the targeted GEMM never ran.
    injection: Optional[InjectionRecord]
    #: The checker of a protected trial.
    checker: Optional[ATTNChecker] = None
    #: Logits and loss of a forward trial (the loss is NaN without labels).
    logits: Optional[np.ndarray] = None
    loss: float = float("nan")
    #: Whether the logits are within :data:`TOLERANCE` of the fault-free ones.
    matches: bool = False
    #: Table-2 cell of each downstream matrix of the struck layer.
    patterns: Dict[str, str] = field(default_factory=dict)
    #: Whether a training trial reached a NaN loss on either step.
    non_trainable: bool = False

    @property
    def detected(self) -> bool:
        return self.checker is not None and self.checker.stats.total_detections > 0

    @property
    def corrected(self) -> bool:
        """Corrected with no extreme value left behind."""
        stats = self.checker.stats if self.checker is not None else None
        return stats is not None and stats.total_corrections > 0 and stats.total_residual_extreme == 0

    @property
    def benign_masked(self) -> bool:
        """Nothing was detected and the output still matched: the fault struck
        a value masked out of the computation (e.g. a padded position whose
        attention probability is exactly zero), so there was nothing to do."""
        return not self.detected and self.matches

    def cell(self, downstream: str) -> str:
        """Table-2 cell of ``downstream`` (``"-"``: untouched by the fault)."""
        return self.patterns.get(downstream, "-")


@dataclass
class CellResult:
    """The trials of one (matrix, error type) cell.

    Detection and correction rates count only the trials whose fault
    influenced the computation: benign-masked trials are covered by
    construction and are reported apart from genuine detections.
    """

    matrix: str
    error_type: str
    #: Normalised flip-kind mix the cell drew from.
    flip_kind_mix: Dict[str, float]
    outcomes: List[Trial] = field(default_factory=list)

    def count(self, flag: str, kind: Optional[str] = None) -> int:
        """Trials (of flip kind ``kind``, if given) whose :class:`Trial`
        ``flag`` holds: ``"detected"``, ``"corrected"``, ``"matches"``,
        ``"benign_masked"`` or ``"non_trainable"``."""
        return sum(
            bool(getattr(trial, flag))
            for trial in self.outcomes
            if kind is None or trial.spec.flip_kind == kind
        )

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    @property
    def trials_by_kind(self) -> Dict[str, int]:
        """Trials per flip kind; only kinds that fired appear."""
        return dict(Counter(trial.spec.flip_kind for trial in self.outcomes))

    def kind_rate(self, flag: str, kind: str) -> float:
        """Share of the trials injected with ``kind`` whose ``flag`` holds."""
        n = self.trials_by_kind.get(kind, 0)
        return self.count(flag, kind) / n if n else float("nan")

    def _effective_rate(self, flag: str) -> float:
        n = self.trials - self.count("benign_masked")
        return self.count(flag) / n if n else 1.0

    @property
    def detection_rate(self) -> float:
        return self._effective_rate("detected")

    @property
    def correction_rate(self) -> float:
        return self._effective_rate("corrected")

    @property
    def recovery_rate(self) -> float:
        """Share of all trials whose output equals the fault-free output."""
        return self.count("matches") / self.trials if self.trials else float("nan")

    @property
    def non_trainable_rate(self) -> float:
        """Estimated probability of reaching a non-trainable state."""
        return self.count("non_trainable") / self.trials if self.trials else float("nan")


def all_corrected(cells: Sequence[CellResult]) -> bool:
    """The paper's headline claim: every injected extreme error detected,
    corrected and the output restored."""
    return all(
        r.detection_rate == 1.0 and r.correction_rate == 1.0 and r.recovery_rate == 1.0
        for r in cells
    )


def _flip_kind_mix(weights: Optional[Dict[str, float]]) -> Dict[str, float]:
    """Validate and normalise a flip-kind mix (default: exponent MSB only)."""
    if weights is None:
        return {"exponent_msb": 1.0}
    unknown = set(weights) - set(FLIP_KINDS)
    if unknown:
        raise KeyError(
            f"unknown flip kinds {sorted(unknown)}; expected a subset of {FLIP_KINDS}"
        )
    total = float(sum(weights.values()))
    if total <= 0 or any(w < 0 for w in weights.values()):
        raise ValueError(f"flip-kind weights must be non-negative with a positive sum, got {weights!r}")
    return {kind: float(w) / total for kind, w in weights.items() if w > 0}


class FaultHarness:
    """Runs armed faults through one configuration of one model.

    Parameters
    ----------
    model:
        Sequence-classification model.  Forward trials run it in evaluation
        mode and leave it in training mode; training trials each train a
        fresh copy of it, so every trial starts from the same weights.
    batch:
        Encoded batch of every forward pass and of a training trial's
        faulty step.
    configuration:
        One of :data:`CONFIGURATIONS`.
    checker_config:
        Configuration of a protected trial's :class:`ATTNChecker`.
    precision:
        Reduced training precision (e.g. ``"float32"``, the paper's) to round
        every GEMM output through, in fault-free and faulty runs alike; the
        injector then flips bits in that format, which restores the overflow
        semantics that make near-INF faults dangerous.
    clean_batch:
        Batch of a training trial's clean step (required by ``"training"``).
    """

    def __init__(
        self,
        model,
        batch: Dict[str, np.ndarray],
        configuration: str,
        checker_config: Optional[ATTNCheckerConfig] = None,
        precision: Optional[str] = None,
        clean_batch: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        if configuration not in CONFIGURATIONS:
            raise ValueError(
                f"unknown configuration {configuration!r}; expected one of {CONFIGURATIONS}"
            )
        if configuration == "training" and clean_batch is None:
            raise ValueError("the training configuration needs a clean_batch (inject + verify)")
        self.model = model
        self.batch = batch
        self.configuration = configuration
        self.checker_config = checker_config
        self.precision = precision
        self.clean_batch = clean_batch
        self._reference = None
        self._reference_recorder: Optional[RecordingHooks] = None

    def _chain(self, *hooks: Optional[AttentionHooks]) -> List[AttentionHooks]:
        """Precision simulation, then ``hooks`` in order (``None`` skipped)."""
        chain: List[AttentionHooks] = []
        if self.precision is not None:
            chain.append(PrecisionSimulationHooks(self.precision))
        chain.extend(h for h in hooks if h is not None)
        return chain

    def _forward(self, chain: List[AttentionHooks]):
        """One evaluation-mode pass through ``chain``; no autograd tape."""
        self.model.eval()
        self.model.set_attention_hooks(ComposedHooks(chain) if chain else None)
        try:
            with no_grad():
                return self.model(
                    self.batch["input_ids"],
                    attention_mask=self.batch.get("attention_mask"),
                    labels=self.batch.get("labels"),
                )
        finally:
            self.model.set_attention_hooks(None)
            self.model.train()

    @property
    def reference(self):
        """Output of the fault-free pass (cached): the chain without the
        injector and the checker, with the recorder when recording."""
        if self._reference is None:
            if self.configuration == "recorded":
                self._reference_recorder = RecordingHooks()
            self._reference = self._forward(self._chain(self._reference_recorder))
        return self._reference

    def trial(self, spec: FaultSpec, rng: np.random.Generator) -> Trial:
        """Arm ``spec`` (positions drawn from ``rng``) and run one trial."""
        injector = FaultInjector(
            [spec], rng=rng, value_dtype=precision_value_dtype(self.precision)
        )
        if self.configuration == "training":
            trainer = Trainer(copy.deepcopy(self.model), fault_hooks=self._chain(injector))
            non_trainable = trainer.train_step(self.batch).non_trainable
            if not non_trainable:
                injector.disarm()
                non_trainable = trainer.train_step(self.clean_batch).non_trainable
            return Trial(spec, _injection(injector), non_trainable=non_trainable)

        reference = self.reference
        checker = ATTNChecker(self.checker_config) if self.configuration == "protected" else None
        recorder = RecordingHooks() if self.configuration == "recorded" else None
        output = self._forward(self._chain(injector, checker, recorder))
        if checker is not None:
            # The checker never runs again: keep its counters, not its
            # cached weight encodings, so a cell's memory stays small.
            checker.invalidate_weight_cache()
        trial = Trial(
            spec,
            _injection(injector),
            checker=checker,
            logits=output.logits.data,
            loss=output.loss_value if output.loss is not None else float("nan"),
            matches=bool(np.allclose(
                output.logits.data, reference.logits.data, rtol=TOLERANCE, atol=TOLERANCE
            )),
        )
        if recorder is not None and trial.injection is not None:
            layer = trial.injection.layer_index
            faulty = recorder.matrices(layer)
            clean = self._reference_recorder.matrices(layer)
            trial.patterns = {
                name: describe_corruption(faulty[name], clean[name])
                for name in DOWNSTREAM_ORDER
                if name in faulty and name in clean
            }
        return trial

    def cells(
        self,
        cells: Sequence[Tuple[str, str]],
        trials: int,
        rng: TrialRng,
        flip_kind_weights: Optional[Dict[str, float]] = None,
    ) -> List[CellResult]:
        """Run ``trials`` trials per (matrix, error type) cell, in the given order.

        ``rng`` is either one generator that every trial draws from in turn,
        or a callable giving each ``(cell index, trial index)`` its own.
        ``flip_kind_weights`` maps flip kinds to mix weights for the
        flip-based fault family: each ``"near_inf"`` trial draws its
        mechanism from the normalised mix before its position (assignment
        error types always use the default kind).  ``None`` draws nothing
        and uses the paper's exponent-MSB flip.
        """
        mix = _flip_kind_mix(flip_kind_weights)
        kinds, weights = zip(*sorted(mix.items()))
        results: List[CellResult] = []
        for index, (matrix, error_type) in enumerate(cells):
            cell = CellResult(matrix=matrix, error_type=error_type, flip_kind_mix=dict(mix))
            for trial_index in range(trials):
                generator = rng(index, trial_index) if callable(rng) else rng
                kind = "exponent_msb"
                if error_type == "near_inf" and flip_kind_weights is not None:
                    kind = str(kinds[int(generator.choice(len(kinds), p=weights))])
                spec = FaultSpec(matrix=matrix, error_type=error_type, flip_kind=kind)
                cell.outcomes.append(self.trial(spec, generator))
            results.append(cell)
        return results


def _injection(injector: FaultInjector) -> Optional[InjectionRecord]:
    return injector.records[0] if injector.records else None
