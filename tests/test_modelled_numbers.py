"""Golden pin of every modelled number the protected-GEMM inventory feeds.

The analytical models price ATTNChecker from the GEMM chains of its
protection sections: the per-section ABFT FLOPs and the protected-GEMM FLOPs
(``SectionCostModel``), Table 3's GEMM ratio, the A100 roofline of Figs 7
and 8 (``AttentionCostModel`` / ``TrainingStepCostModel``), the adaptive
plans of Fig 10, the recovery comparison of Fig 11, the scale sweep of
Fig 12, and the two checksum-GEMM dispatch tables.  This test holds each of
them, for the CLI's paper-size models at batch 8 and the CLI's default
Fig-10 and Fig-12 settings, to ``tests/data/golden_modelled_numbers.json``
at ``rel=1e-12``; dispatch counts are integers and compare exactly.

How the golden was recorded:

1. At commit a3765d1, before the shapes moved into one inventory in
   ``repro.core.sections``, ``PYTHONPATH=src python
   tests/test_modelled_numbers.py --write`` wrote every value below.
2. The inventory then corrected one restated shape: the A100 roofline
   priced S_CL's ``row(V) = X rowcs(W_V)`` carry as ``(S x D) @ (D x 2)``
   where the engine runs ``(S x D) @ (D x 2H)``.  Re-running ``--write``
   replaced only the values that moved beyond the tolerance (the script
   keeps every recorded value the current code matches and prints each one
   it replaces): the ``CL`` update of ``abft_breakdown`` (OPT and Non-OPT)
   and what sums it, that is the Fig 7/8 overheads, Fig 11's
   ``abft_step_fraction`` and the quantities derived from it, and Fig 12's
   ABFT seconds and overhead.  Everything else is the parent's value.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Any, Dict

import pytest

from repro.analysis import attention_workload
from repro.cli import OVERHEAD_MODELS, build_parser
from repro.core import (
    PROTECT_SCOPES,
    SECTION_REGISTRY,
    ErrorRates,
    OperationVulnerability,
    SectionCostModel,
    optimize_abft_frequencies,
)
from repro.models import get_config
from repro.perfmodel import MultiGPUScaleModel, RecoveryCostModel, TrainingStepCostModel

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_modelled_numbers.json")
REL = 1e-12
BATCH = 8


def _section_costs() -> Dict[str, Any]:
    out = {}
    for name in OVERHEAD_MODELS:
        model = SectionCostModel(get_config(name, size="paper"), BATCH)
        out[name] = {
            section: {
                "encode": costs.encode_flops,
                "update": costs.update_flops,
                "detect": costs.detect_flops,
                "correct": costs.correct_flops,
            }
            for section, costs in ((s, model.section_costs(s)) for s in SECTION_REGISTRY)
        }
    return out


def _operation_flops() -> Dict[str, Any]:
    return {
        name: SectionCostModel(get_config(name, size="paper"), BATCH).operation_flops()
        for name in OVERHEAD_MODELS
    }


def _table3() -> Dict[str, Any]:
    out = {}
    for name in OVERHEAD_MODELS:
        work = attention_workload(get_config(name, size="paper"), batch_size=BATCH)
        out[name] = {"gemm_flops": work.gemm_flops, "other_flops": work.other_flops,
                     "gemm_ratio": work.gemm_ratio}
    return out


def _roofline() -> Dict[str, Any]:
    out = {}
    for name in OVERHEAD_MODELS:
        cost = TrainingStepCostModel(get_config(name, size="paper"), batch_size=BATCH)
        entry: Dict[str, Any] = {
            "attention_forward_time": cost.attention.attention_forward_time(),
            "ffn_forward_time": cost.ffn_forward_time(),
            "step_time": cost.step_time(),
        }
        for optimized, label in ((True, "opt"), (False, "non_opt")):
            breakdown = cost.attention.abft_breakdown(optimized=optimized)
            entry[f"abft_breakdown_{label}"] = {
                "encode": dict(breakdown.encode),
                "update": dict(breakdown.update),
                "detect": dict(breakdown.detect),
            }
            entry[f"attention_overhead_{label}"] = cost.attention_overhead(optimized=optimized)
            entry[f"step_overhead_{label}"] = cost.step_overhead(optimized=optimized)
        out[name] = entry
    return out


def _fig10() -> Dict[str, Any]:
    config = get_config("bert-base", size="paper")
    vulnerability = OperationVulnerability.from_table4("bert-base")
    out = {}
    for rate in build_parser().parse_args(["fig10"]).rates:
        plan = optimize_abft_frequencies(
            config, batch_size=16, error_rates=ErrorRates.from_errors_per_1e25_flops(rate),
            vulnerability=vulnerability, target_coverage=1 - 1e-11,
            flops_multiplier=12 * 3 * 8,
        )
        out[repr(rate)] = {
            "frequencies": dict(plan.frequencies),
            "achieved_coverage": plan.achieved_coverage,
            "abft_time": plan.abft_time,
            "full_abft_time": plan.full_abft_time,
            "section_times": dict(plan.section_times),
            "relative_overhead": plan.relative_overhead,
        }
    return out


def _fig11() -> Dict[str, Any]:
    out = {}
    for name in OVERHEAD_MODELS:
        c = RecoveryCostModel(get_config(name, size="paper"), batch_size=BATCH).compare()
        out[name] = {
            "step_seconds": c.step_seconds,
            "checkpoint_save_seconds": c.checkpoint_save_seconds,
            "checkpoint_load_seconds": c.checkpoint_load_seconds,
            "abft_step_fraction": c.abft_step_fraction,
            "abft_host_seconds": c.abft_host_seconds,
            "abft_correction_seconds": c.abft_correction_seconds,
            "checkpoint_restore_overhead": c.checkpoint_restore_overhead,
            "attnchecker_overhead": c.attnchecker_overhead,
            "improvement": c.improvement,
        }
    return out


def _fig12() -> Dict[str, Any]:
    gpus = build_parser().parse_args(["fig12"]).gpus
    return {
        p.model_name: {
            "parameters": p.parameters,
            "compute_seconds": p.compute_seconds,
            "allreduce_seconds": p.allreduce_seconds,
            "abft_seconds": p.abft_seconds,
            "step_seconds": p.step_seconds,
            "abft_overhead": p.abft_overhead,
        }
        for p in MultiGPUScaleModel(num_gpus=gpus).sweep()
    }


def _dispatch_tables() -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for scope in PROTECT_SCOPES:
        for steady in (True, False):
            state = "steady" if steady else "cold"
            for schedule in ("fused", "unfused"):
                out[f"train/{schedule}/{state}/{scope}"] = (
                    SectionCostModel.checksum_gemm_dispatches_per_layer(
                        schedule, steady_state=steady, scope=scope
                    )
                )
            out[f"decode/{state}/{scope}"] = (
                SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer(
                    steady_state=steady, scope=scope
                )
            )
        for backend in ("fused", "per_gemm"):
            out[f"python/{backend}/{scope}"] = SectionCostModel.python_dispatches_per_layer(
                backend, scope=scope
            )
    return out


GROUPS = {
    "section_costs": _section_costs,
    "operation_flops": _operation_flops,
    "table3": _table3,
    "roofline": _roofline,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "dispatch_tables": _dispatch_tables,
}


def collect() -> Dict[str, Any]:
    return {group: build() for group, build in GROUPS.items()}


def flatten(tree: Any, prefix: str = "") -> Dict[str, Any]:
    """``{"a/b/c": leaf}`` for a nested dict; dict order is kept."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    flat: Dict[str, Any] = {}
    for key, value in tree.items():
        flat.update(flatten(value, f"{prefix}/{key}" if prefix else str(key)))
    return flat


def matches(recorded: Any, current: Any) -> bool:
    if isinstance(recorded, int) and isinstance(current, int):
        return recorded == current
    return math.isclose(recorded, current, rel_tol=REL, abs_tol=0.0)


def _load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("group", list(GROUPS))
def test_modelled_numbers_match_golden(group):
    recorded = flatten(_load_golden()[group])
    current = flatten(GROUPS[group]())
    # Key order is not a modelled number (operation_flops lists the GEMMs
    # section by section since the inventory).
    assert sorted(current) == sorted(recorded)
    moved = {
        key: (recorded[key], current[key])
        for key in recorded if not matches(recorded[key], current[key])
    }
    assert not moved


def _keep_recorded(recorded: Any, current: Any, prefix: str = "") -> Any:
    """``current`` in ``recorded``'s key order, keeping each recorded value
    the code still matches and printing each one it replaces."""
    if not isinstance(current, dict):
        if recorded is not None and matches(recorded, current):
            return recorded
        print(f"{prefix}: {recorded!r} -> {current!r}")
        return current
    old = recorded if isinstance(recorded, dict) else {}
    keys = [k for k in old if k in current] + [k for k in current if k not in old]
    return {
        k: _keep_recorded(old.get(k), current[k], f"{prefix}/{k}" if prefix else k)
        for k in keys
    }


def _write() -> None:
    """Rewrite the golden from the current code (see the module docstring)."""
    current = collect()
    if os.path.exists(GOLDEN_PATH):
        current = _keep_recorded(_load_golden(), current)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(current, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_modelled_numbers.py --write")
    _write()
