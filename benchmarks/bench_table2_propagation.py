"""Table 2: error-propagation patterns in the attention mechanism.

For each fault-injection matrix (Q, K, V, AS, CL) and error class (INF, NaN,
near-INF), a single 0D fault is injected and the downstream matrices of the
layer are classified (0D / 1R / 1C / 2D, value classes).  The harness prints
one row per (error class, injected matrix) in the paper's cell notation.
"""

import numpy as np
import pytest

from benchmarks.conftest import make_batch, make_model
from repro.analysis import format_table
from repro.faults import DOWNSTREAM_ORDER as DOWNSTREAM
from repro.faults import FaultHarness

MATRICES = ("Q", "K", "V", "AS", "CL")
ERROR_TYPES = ("inf", "nan", "near_inf")


def run_propagation_table(model_name: str = "bert-base", trials: int = 2):
    """Trace every (matrix, error class) pair and keep the most severe pattern."""
    model = make_model(model_name)
    batch = make_batch(model, n=4, full_mask=True)
    cells = FaultHarness(model, batch, "recorded").cells(
        [(m, e) for e in ERROR_TYPES for m in MATRICES],
        trials=trials, rng=np.random.default_rng(1),
    )

    severity = {"-": 0, "0D": 1, "1R": 2, "1C": 2, "2D": 3}

    def rank(cell: str) -> int:
        return severity["-"] if cell == "-" else severity[cell.split("-")[0]]

    def worse(a: str, b: str) -> str:
        return a if rank(a) >= rank(b) else b

    table = {}
    for cell in cells:
        worst = {name: "-" for name in DOWNSTREAM}
        for trial in cell.outcomes:
            for name in DOWNSTREAM:
                worst[name] = worse(worst[name], trial.cell(name))
        table[(cell.error_type, cell.matrix)] = worst
    return table


@pytest.mark.parametrize("model_name", ["bert-base"])
def test_table2_error_propagation(benchmark, report, model_name):
    table = benchmark.pedantic(run_propagation_table, args=(model_name,), rounds=1, iterations=1)

    rows = [
        [etype, matrix] + [table[(etype, matrix)][name] for name in DOWNSTREAM]
        for etype in ERROR_TYPES
        for matrix in MATRICES
    ]
    report(format_table(
        ["inject", "into"] + list(DOWNSTREAM), rows,
        title=f"Table 2 — error propagation patterns ({model_name}, tiny config)",
    ))
    benchmark.extra_info["table2"] = {f"{e}:{m}": table[(e, m)] for e, m in table}

    # Shape checks against the paper's Table 2.
    assert table[("inf", "Q")]["AS"].startswith("1R")
    assert table[("inf", "K")]["AS"].startswith("1C")
    assert table[("inf", "K")]["CL"].startswith("2D")
    assert table[("nan", "V")]["CL"].startswith("1C")
    assert table[("nan", "AS")]["O"].startswith("1R")
    assert table[("inf", "CL")]["O"].startswith("1R")
    # Faults never propagate upstream.
    assert table[("inf", "AS")]["Q"] == "-"
    assert table[("nan", "CL")]["AS"] == "-"
