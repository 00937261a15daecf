"""Ablation: why ATTNChecker needs all three protection sections.

The segmented-protection design choice (Section 4.4 of the paper) splits the
execution flow into S_AS, S_CL and S_O so that any single fault manifests as
at most a 1D pattern at a section boundary, which EEC-ABFT can correct.  This
ablation disables the sections one at a time and measures which injected
faults are still corrected and at what cost:

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
from repro.core import ATTNCheckerConfig
from repro.faults import FaultHarness

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
    faults = [fault for section_faults in FAULTS.values() for fault in section_faults]
    results = {}
    for label, frequencies in CONFIGURATIONS.items():
        harness = FaultHarness(
            model, batch, "protected",
            checker_config=ATTNCheckerConfig(frequencies=dict(frequencies)),
        )
        # Trial t of every fault draws its position from seed 100 + t.
        cells = dict(zip(faults, harness.cells(
            faults, trials, rng=lambda cell, trial: np.random.default_rng(100 + trial),
        )))
        covered = {
            section: sum(cells[f].count("matches") for f in section_faults)
            / sum(cells[f].trials for f in section_faults)
            for section, section_faults in FAULTS.items()
        }
        abft_seconds = sum(
            t.checker.overhead_seconds() for cell in cells.values() for t in cell.outcomes
        )
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
