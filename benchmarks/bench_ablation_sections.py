"""Ablation: why ATTNChecker needs all three protection sections.

DESIGN.md calls out the segmented-protection design choice (Section 4.4 of the
paper): the execution flow is split into S_AS, S_CL and S_O so that any single
fault manifests as at most a 1D pattern at a section boundary, which EEC-ABFT
can correct.  This ablation disables the sections one at a time and measures
which injected faults are still corrected and at what cost:

* with all sections enabled every fault is corrected (the Section-5.2 result);
* disabling a section leaves the faults originating in its operations
  uncorrected (they propagate to the output), even though the remaining
  sections still run — empirically demonstrating that the sectioning is
  load-bearing, not redundant;
* the ABFT time drops roughly in proportion to the disabled section's share,
  which is the trade-off the adaptive frequency optimiser (Figure 10) exploits.
"""

import numpy as np

from benchmarks.conftest import make_batch, make_model
from repro.analysis import format_percent, format_table
from repro.core import ATTNChecker, ATTNCheckerConfig
from repro.faults import FaultInjector, FaultSpec
from repro.nn import ComposedHooks

#: Section configurations of the ablation and the faults each one should cover.
CONFIGURATIONS = {
    "all sections": {"AS": 1.0, "CL": 1.0, "O": 1.0},
    "no S_AS": {"AS": 0.0, "CL": 1.0, "O": 1.0},
    "no S_CL": {"AS": 1.0, "CL": 0.0, "O": 1.0},
    "no S_O": {"AS": 1.0, "CL": 1.0, "O": 0.0},
    "S_AS only": {"AS": 1.0, "CL": 0.0, "O": 0.0},
}

#: Fault sites, grouped by the section responsible for them.
FAULTS = {
    "AS": [("Q", "inf"), ("K", "nan"), ("AS", "inf")],
    "CL": [("V", "inf"), ("CL", "nan")],
    "O": [("O", "inf")],
}


def run_ablation(model_name: str = "bert-base", trials: int = 2):
    model = make_model(model_name)
    batch = make_batch(model, n=4, full_mask=True)

    def forward(hooks):
        model.eval()
        model.set_attention_hooks(hooks)
        try:
            out = model(batch["input_ids"], attention_mask=batch["attention_mask"])
        finally:
            model.set_attention_hooks(None)
            model.train()
        return out.logits.data.copy()

    reference = forward(None)
    results = {}
    for label, frequencies in CONFIGURATIONS.items():
        covered = {}
        abft_seconds = 0.0
        for section, faults in FAULTS.items():
            ok = 0
            total = 0
            for matrix, error_type in faults:
                for trial in range(trials):
                    injector = FaultInjector(
                        [FaultSpec(matrix=matrix, error_type=error_type)],
                        rng=np.random.default_rng(100 + trial),
                    )
                    checker = ATTNChecker(ATTNCheckerConfig(frequencies=dict(frequencies)))
                    logits = forward(ComposedHooks([injector, checker]))
                    abft_seconds += checker.overhead_seconds()
                    total += 1
                    if np.allclose(logits, reference, rtol=1e-6, atol=1e-6):
                        ok += 1
            covered[section] = ok / total
        results[label] = {"covered": covered, "abft_seconds": abft_seconds}
    return results


def test_ablation_protection_sections(benchmark, report):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    full_time = results["all sections"]["abft_seconds"]
    rows = []
    for label, entry in results.items():
        covered = entry["covered"]
        rows.append([
            label,
            format_percent(covered["AS"]),
            format_percent(covered["CL"]),
            format_percent(covered["O"]),
            format_percent(entry["abft_seconds"] / full_time if full_time else 0.0, digits=0),
        ])
    report(format_table(
        ["configuration", "S_AS faults recovered", "S_CL faults recovered", "S_O faults recovered", "ABFT time vs full"],
        rows,
        title="Ablation — protection sections (faults grouped by the section that owns them)",
    ))
    benchmark.extra_info["ablation"] = {
        label: entry["covered"] for label, entry in results.items()
    }

    # Full protection covers everything.
    assert all(v == 1.0 for v in results["all sections"]["covered"].values())
    # Removing a section loses coverage for the faults it owns...
    assert results["no S_AS"]["covered"]["AS"] < 1.0
    assert results["no S_CL"]["covered"]["CL"] < 1.0
    assert results["no S_O"]["covered"]["O"] < 1.0
    # ...while the other sections keep covering their own faults.
    assert results["no S_AS"]["covered"]["CL"] == 1.0
    assert results["no S_CL"]["covered"]["AS"] == 1.0
    assert results["no S_O"]["covered"]["AS"] == 1.0
    # Disabling sections reduces ABFT time.
    assert results["S_AS only"]["abft_seconds"] < results["all sections"]["abft_seconds"]
