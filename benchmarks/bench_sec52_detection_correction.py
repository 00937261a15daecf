"""Section 5.2: error detection and correction capability.

Injects one extreme error per protected forward execution into every matrix of
the attention mechanism, for every model family, and verifies the paper's
headline claim: all injected extreme errors are detected and corrected back to
their original values (the protected output equals the fault-free output).
"""

import numpy as np
import pytest

from benchmarks.conftest import MAIN_MODELS, make_batch, make_model
from repro.analysis import format_percent, format_table
from repro.faults import FaultHarness, all_corrected

MATRICES = ("Q", "K", "V", "AS", "CL", "O")
ERROR_TYPES = ("inf", "nan", "near_inf")


def run_campaign(model_name: str, trials: int = 3):
    model = make_model(model_name)
    batch = make_batch(model, n=4, full_mask=True)
    return FaultHarness(model, batch, "protected").cells(
        [(m, e) for m in MATRICES for e in ERROR_TYPES],
        trials=trials, rng=np.random.default_rng(5),
    )


@pytest.mark.parametrize("model_name", MAIN_MODELS)
def test_sec52_all_extreme_errors_detected_and_corrected(benchmark, report, model_name):
    results = benchmark.pedantic(run_campaign, args=(model_name,), rounds=1, iterations=1)

    rows = [
        [r.matrix, r.error_type, r.trials,
         format_percent(r.detection_rate), format_percent(r.correction_rate),
         format_percent(r.recovery_rate)]
        for r in results
    ]
    report(format_table(
        ["matrix", "error", "trials", "detected", "corrected", "output restored"],
        rows,
        title=f"Section 5.2 — detection & correction with ATTNChecker ({model_name}, tiny config)",
    ))
    benchmark.extra_info["all_corrected"] = all_corrected(results)

    assert all_corrected(results)
    for r in results:
        assert r.recovery_rate == 1.0
