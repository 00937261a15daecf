"""Adaptive ABFT detection frequencies (Section 4.5 of the paper).

The idea: systems differ in soft-error rate and operations differ in how
likely an uncorrected error is to put training into a non-trainable state
(Table 4).  Given

* per-FLOP error rates ``lambda_INF``, ``lambda_NaN``, ``lambda_nINF``,
* per-operation vulnerabilities ``phi^e_OP`` (probability that an unhandled
  error of type ``e`` striking operation ``OP`` leads to a non-trainable
  state), and
* the ABFT overhead ``T_S`` of protecting each section ``S``,

choose per-section detection frequencies ``f_AS``, ``f_CL``, ``f_O`` that
minimise total ABFT time while keeping the *fault coverage* of the attention
mechanism above a target (e.g. at most one uncovered failure per 1e11
executions).

The number of errors striking an operation is modelled as a Poisson process
in its FLOP count (the paper's equation for :math:`P^E_{OP}(k)`); the
optimiser is the greedy Algorithm 1: sections are ranked by fault-coverage
efficiency (coverage gained per unit of ABFT time) and time is allocated to
the most efficient sections first until the target is met.

Note on the paper's ``H`` term: the text defines ``phi`` as the probability an
error *leads to* a non-trainable state and writes
``H = f_S + (1 - f_S) * phi``; for ``H`` to be "handled by ABFT **or** not
handled but benign" the second term must use ``1 - phi`` (and the FCE formula
in the same section indeed uses ``1 - phi``), so this implementation uses
``H = f_S + (1 - f_S) * (1 - phi)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.core.hooks import AttentionOp
from repro.core.sections import PROTECTION_SECTIONS, SectionCostModel

if TYPE_CHECKING:  # annotation-only: core must not import the model layer
    from repro.models.config import ModelConfig

__all__ = [
    "ERROR_TYPES",
    "ErrorRates",
    "OperationVulnerability",
    "TABLE4_VULNERABILITY",
    "SectionReliabilityModel",
    "FrequencyPlan",
    "AdaptiveFrequencyOptimizer",
    "optimize_abft_frequencies",
]

#: The three extreme error classes of the fault model.
ERROR_TYPES: Tuple[str, ...] = ("inf", "nan", "near_inf")

#: Map from fault-injection matrix (paper's Table 4 columns) to the GEMM op
#: that produces it.
MATRIX_TO_OP: Dict[str, str] = {op.output_matrix: op.value for op in AttentionOp}


@dataclass(frozen=True)
class ErrorRates:
    """Soft-error rates per FLOP for each extreme error class."""

    inf: float
    nan: float
    near_inf: float

    @classmethod
    def uniform(cls, rate_per_flop: float) -> "ErrorRates":
        """Same rate for all three classes (the Figure-10 setting)."""
        return cls(inf=rate_per_flop, nan=rate_per_flop, near_inf=rate_per_flop)

    @classmethod
    def from_errors_per_1e25_flops(cls, errors: float) -> "ErrorRates":
        """Figure 10's x-axis unit: errors per 1e25 FLOPs (per class)."""
        return cls.uniform(errors / 1e25)

    def rate(self, error_type: str) -> float:
        if error_type == "inf":
            return self.inf
        if error_type == "nan":
            return self.nan
        if error_type == "near_inf":
            return self.near_inf
        raise KeyError(f"unknown error type {error_type!r}")


#: Table 4 of the paper: probability (in [0,1]) that an *unhandled* error of a
#: given class injected into a given matrix leads to a non-trainable state.
#: Keys: model name -> error type -> fault-injection matrix.
TABLE4_VULNERABILITY: Dict[str, Dict[str, Dict[str, float]]] = {
    "bert-base": {
        "inf": {"Q": 1.00, "K": 1.00, "V": 1.00, "AS": 1.00, "CL": 1.00},
        "nan": {"Q": 1.00, "K": 1.00, "V": 1.00, "AS": 1.00, "CL": 1.00},
        "near_inf": {"Q": 0.459, "K": 0.434, "V": 0.063, "AS": 0.002, "CL": 0.006},
    },
    "gpt2": {
        "inf": {"Q": 0.918, "K": 0.868, "V": 1.00, "AS": 0.569, "CL": 1.00},
        "nan": {"Q": 1.00, "K": 1.00, "V": 1.00, "AS": 0.547, "CL": 1.00},
        "near_inf": {"Q": 0.384, "K": 0.372, "V": 0.010, "AS": 0.005, "CL": 0.007},
    },
    "gpt-neo": {
        "inf": {"Q": 1.00, "K": 0.856, "V": 1.00, "AS": 0.547, "CL": 1.00},
        "nan": {"Q": 1.00, "K": 1.00, "V": 1.00, "AS": 0.547, "CL": 1.00},
        "near_inf": {"Q": 0.103, "K": 0.144, "V": 0.058, "AS": 0.112, "CL": 0.096},
    },
    "roberta": {
        "inf": {"Q": 1.00, "K": 0.999, "V": 1.00, "AS": 1.00, "CL": 1.00},
        "nan": {"Q": 1.00, "K": 1.00, "V": 1.00, "AS": 1.00, "CL": 1.00},
        "near_inf": {"Q": 0.540, "K": 0.499, "V": 0.036, "AS": 0.055, "CL": 0.004},
    },
}


@dataclass
class OperationVulnerability:
    """Per-operation, per-error-type non-trainable-state probabilities (phi).

    ``phi[op][error_type]`` with op in the GEMM naming (``xq``, ``xk``, ...).
    """

    phi: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @classmethod
    def from_table4(cls, model_name: str) -> "OperationVulnerability":
        """Build from the paper's Table 4 for one of the four studied models.

        Table 4 has no column for the output matrix ``O``; its vulnerability is
        conservatively set to the CL values (an error there feeds the residual
        stream directly, much like CL does).
        """
        if model_name not in TABLE4_VULNERABILITY:
            raise KeyError(
                f"no Table-4 data for {model_name!r}; available: {sorted(TABLE4_VULNERABILITY)}"
            )
        table = TABLE4_VULNERABILITY[model_name]
        phi: Dict[str, Dict[str, float]] = {}
        for matrix, op in MATRIX_TO_OP.items():
            phi[op] = {}
            for etype in ERROR_TYPES:
                source = matrix if matrix in table[etype] else "CL"
                phi[op][etype] = float(table[etype][source])
        return cls(phi=phi)

    def get(self, op: str, error_type: str, default: float = 1.0) -> float:
        return float(self.phi.get(op, {}).get(error_type, default))


class SectionReliabilityModel:
    """Poisson reliability model of one model's attention mechanism.

    Implements the quantities of Section 4.5: per-operation error-count
    probabilities, the section-level no-error probability ``R_free``, the
    exactly-one-error probabilities ``R^e_S(j)``, the fault coverage ``FC_S``
    as a function of the detection frequency, and the fault-coverage
    efficiency ``FCE_S``.
    """

    def __init__(
        self,
        config: ModelConfig,
        batch_size: int,
        error_rates: ErrorRates,
        vulnerability: OperationVulnerability,
        seq_len: Optional[int] = None,
        flops_multiplier: float = 1.0,
        section_times: Optional[Dict[str, float]] = None,
    ) -> None:
        """
        Parameters
        ----------
        config, batch_size, seq_len:
            Geometry of the protected attention execution.
        error_rates:
            Per-FLOP rates of the three error classes.
        vulnerability:
            phi values (Table 4 or measured).
        flops_multiplier:
            Scales the per-operation FLOP counts, e.g. ``num_layers * 3`` to
            model a whole training step (forward + backward) instead of a
            single layer forward.
        section_times:
            Per-section ABFT overhead ``T_S`` (seconds or any consistent unit).
            Defaults to the detection-path FLOPs of the section cost model,
            which is proportional to time on a compute-bound device.
        """
        self.config = config
        self.error_rates = error_rates
        self.vulnerability = vulnerability
        self.cost_model = SectionCostModel(config, batch_size, seq_len=seq_len)
        self.flops_multiplier = float(flops_multiplier)
        op_flops = self.cost_model.operation_flops()
        self.op_flops = {op: f * self.flops_multiplier for op, f in op_flops.items()}
        if section_times is None:
            section_times = {
                name: self.cost_model.section_costs(name).detection_path_flops * self.flops_multiplier
                for name in PROTECTION_SECTIONS
            }
        self.section_times = dict(section_times)

    # -- Poisson building blocks -------------------------------------------------

    def p_errors(self, op: str, error_type: str, k: int) -> float:
        """P[k errors of ``error_type`` strike operation ``op``] (Poisson)."""
        lam = self.error_rates.rate(error_type) * self.op_flops[op]
        if lam == 0.0:
            return 1.0 if k == 0 else 0.0
        return math.exp(-lam) * lam**k / math.factorial(k)

    def r_free(self, section: str) -> float:
        """Probability no error of any class strikes any operation of the section."""
        ops = PROTECTION_SECTIONS[section].operations
        prob = 1.0
        for op in ops:
            for etype in ERROR_TYPES:
                prob *= self.p_errors(op, etype, 0)
        return prob

    def r_single(self, section: str, op: str, error_type: str) -> float:
        """Probability of exactly one ``error_type`` error in ``op`` and none elsewhere."""
        ops = PROTECTION_SECTIONS[section].operations
        if op not in ops:
            raise KeyError(f"operation {op!r} is not part of section {section!r}")
        prob = self.p_errors(op, error_type, 1)
        for other_etype in ERROR_TYPES:
            if other_etype != error_type:
                prob *= self.p_errors(op, other_etype, 0)
        for other_op in ops:
            if other_op == op:
                continue
            for etype in ERROR_TYPES:
                prob *= self.p_errors(other_op, etype, 0)
        return prob

    # -- fault coverage ------------------------------------------------------------

    def fault_coverage(self, section: str, frequency: float) -> float:
        """FC_S(f): probability the section produces no uncovered failure."""
        if not 0.0 <= frequency <= 1.0:
            raise ValueError(f"frequency must be in [0, 1], got {frequency}")
        ops = PROTECTION_SECTIONS[section].operations
        fc = self.r_free(section)
        for op in ops:
            for etype in ERROR_TYPES:
                phi = self.vulnerability.get(op, etype)
                handled_or_benign = frequency + (1.0 - frequency) * (1.0 - phi)
                fc += self.r_single(section, op, etype) * handled_or_benign
        return fc

    def attention_fault_coverage(self, frequencies: Mapping[str, float]) -> float:
        """FC of the whole attention mechanism: product over sections."""
        fc = 1.0
        for name in PROTECTION_SECTIONS:
            fc *= self.fault_coverage(name, float(frequencies.get(name, 0.0)))
        return fc

    def vulnerability_mass(self, section: str) -> float:
        """First-order uncovered-failure probability of the section at f = 0.

        ``sum_i sum_e R^e_S(i) * phi^e_i`` — the quantity full-frequency
        protection removes; the greedy optimiser ranks sections by this mass
        per unit of ABFT time.
        """
        ops = PROTECTION_SECTIONS[section].operations
        mass = 0.0
        for op in ops:
            for etype in ERROR_TYPES:
                mass += self.r_single(section, op, etype) * self.vulnerability.get(op, etype)
        return mass

    def fault_coverage_efficiency(self, section: str) -> float:
        """FCE_S: fault coverage gained per unit of ABFT overhead (Section 4.5)."""
        t = self.section_times[section]
        if t <= 0:
            return math.inf
        return self.vulnerability_mass(section) / t


@dataclass
class FrequencyPlan:
    """Result of the frequency optimisation."""

    frequencies: Dict[str, float]
    achieved_coverage: float
    target_coverage: float
    abft_time: float
    full_abft_time: float
    section_times: Dict[str, float]

    @property
    def relative_overhead(self) -> float:
        """ABFT time of the plan relative to always-on ABFT (non-adaptive)."""
        return self.abft_time / self.full_abft_time if self.full_abft_time else 0.0

    @property
    def meets_target(self) -> bool:
        return self.achieved_coverage >= self.target_coverage - 1e-15


class AdaptiveFrequencyOptimizer:
    """Greedy frequency optimiser (Algorithm 1 of the paper).

    Sections are sorted by fault-coverage efficiency; time (equivalently,
    frequency) is allocated to the most efficient sections first until the
    coverage target is reached or every section runs at full frequency.
    """

    def __init__(self, reliability: SectionReliabilityModel) -> None:
        self.reliability = reliability

    def optimize(self, target_coverage: float) -> FrequencyPlan:
        """Find minimal-overhead frequencies meeting ``target_coverage``.

        Parameters
        ----------
        target_coverage:
            Required fault coverage of the attention mechanism, e.g.
            ``1 - 1e-11`` for at most one uncovered failure per 1e11
            executions (the paper's Figure-10 setting).
        """
        if not 0.0 < target_coverage <= 1.0:
            raise ValueError("target_coverage must be in (0, 1]")
        rel = self.reliability
        epsilon = 1.0 - target_coverage

        masses = {name: rel.vulnerability_mass(name) for name in PROTECTION_SECTIONS}
        times = dict(rel.section_times)
        total_mass = sum(masses.values())

        frequencies = {name: 0.0 for name in PROTECTION_SECTIONS}
        if total_mass > epsilon:
            # Uncovered mass we must remove by enabling detection.
            needed = total_mass - epsilon
            # Greedy: highest coverage-per-time first (Algorithm 1's ordering).
            order = sorted(
                PROTECTION_SECTIONS,
                key=lambda name: rel.fault_coverage_efficiency(name),
                reverse=True,
            )
            for name in order:
                if needed <= 0:
                    break
                mass = masses[name]
                if mass <= 0:
                    continue
                f = min(1.0, needed / mass)
                frequencies[name] = f
                needed -= f * mass

        # The greedy allocation above is based on the first-order vulnerability
        # mass.  At very high error rates the exact coverage (which includes
        # multi-error terms the first-order estimate ignores) can fall slightly
        # short of the target; top up the partially-enabled sections — most
        # efficient first — with a binary search for the minimal additional
        # frequency, until the target is met or every section runs at full
        # frequency (the feasibility limit of the scheme).
        achieved = rel.attention_fault_coverage(frequencies)
        if achieved < target_coverage:
            order = sorted(
                PROTECTION_SECTIONS,
                key=lambda name: rel.fault_coverage_efficiency(name),
                reverse=True,
            )
            for name in order:
                if achieved >= target_coverage:
                    break
                if frequencies[name] >= 1.0:
                    continue
                trial = dict(frequencies)
                trial[name] = 1.0
                if rel.attention_fault_coverage(trial) < target_coverage:
                    # Even full frequency is not enough: take it and move on.
                    frequencies[name] = 1.0
                    achieved = rel.attention_fault_coverage(frequencies)
                    continue
                lo, hi = frequencies[name], 1.0
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    trial[name] = mid
                    if rel.attention_fault_coverage(trial) >= target_coverage:
                        hi = mid
                    else:
                        lo = mid
                frequencies[name] = hi
                achieved = rel.attention_fault_coverage(frequencies)

        abft_time = sum(frequencies[name] * times[name] for name in PROTECTION_SECTIONS)
        full_time = sum(times.values())
        return FrequencyPlan(
            frequencies=frequencies,
            achieved_coverage=achieved,
            target_coverage=target_coverage,
            abft_time=abft_time,
            full_abft_time=full_time,
            section_times=times,
        )


def optimize_abft_frequencies(
    config: ModelConfig,
    batch_size: int,
    error_rates: ErrorRates,
    vulnerability: OperationVulnerability,
    target_coverage: float,
    seq_len: Optional[int] = None,
    flops_multiplier: float = 1.0,
    section_times: Optional[Dict[str, float]] = None,
) -> FrequencyPlan:
    """One-call convenience wrapper around the optimiser.

    See :class:`SectionReliabilityModel` and :class:`AdaptiveFrequencyOptimizer`
    for parameter semantics.
    """
    reliability = SectionReliabilityModel(
        config,
        batch_size,
        error_rates,
        vulnerability,
        seq_len=seq_len,
        flops_multiplier=flops_multiplier,
        section_times=section_times,
    )
    return AdaptiveFrequencyOptimizer(reliability).optimize(target_coverage)
