#!/usr/bin/env python3
"""Fault injection and error-propagation study (Tables 2 and 4).

Reproduces, at reduced scale, the two studies of Section 3:

* **Propagation** (Table 2): inject one INF / NaN / near-INF fault into each
  attention matrix and report how it propagates through the downstream
  matrices (0D / 1R / 1C / 2D patterns and value classes).
* **Vulnerability** (Table 4): inject unprotected faults during real training
  steps and measure how often each (matrix, error type) combination puts the
  model into a non-trainable state (NaN loss).

Run with:  python examples/fault_injection_study.py [model-name] [trials]
"""

import sys

import numpy as np

from repro import FaultHarness, build_model
from repro.analysis import format_percent, format_table
from repro.data import SyntheticMRPC
from repro.faults import DOWNSTREAM_ORDER

MATRICES = ("Q", "K", "V", "AS", "CL")
ERROR_TYPES = ("inf", "nan", "near_inf")


def main():
    model_name = sys.argv[1] if len(sys.argv) > 1 else "bert-base"
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    model = build_model(model_name, size="tiny", rng=np.random.default_rng(0))
    data = SyntheticMRPC(
        num_examples=64,
        max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
    )
    batch = data.encode(range(8))

    # --- Table 2: error propagation ------------------------------------------------
    cells = FaultHarness(model, batch, "recorded").cells(
        [(m, e) for e in ERROR_TYPES for m in MATRICES], trials=1, rng=np.random.default_rng(1)
    )
    rows = [
        [cell.error_type, cell.matrix] + [cell.outcomes[0].cell(m) for m in DOWNSTREAM_ORDER]
        for cell in cells
    ]
    print(format_table(
        ["inject", "into", *DOWNSTREAM_ORDER],
        rows,
        title=f"Error propagation in {model_name} attention (Table 2 layout)",
    ))
    print()

    # --- Table 4: vulnerability ------------------------------------------------------
    # Every trial trains a fresh copy of this model: inject on the first
    # batch, then check that the second (clean) step is still trainable.
    fresh = build_model(model_name, size="tiny", rng=np.random.default_rng(0))
    harness = FaultHarness(
        fresh, data.encode(range(0, 8)), "training", clean_batch=data.encode(range(8, 16))
    )
    results = harness.cells(
        [(m, e) for e in ERROR_TYPES for m in MATRICES], trials=trials, rng=np.random.default_rng(2)
    )

    table = {e: {} for e in ERROR_TYPES}
    for result in results:
        table[result.error_type][result.matrix] = result.non_trainable_rate
    rows = [
        [error_type] + [format_percent(table[error_type][m]) for m in MATRICES]
        for error_type in ERROR_TYPES
    ]
    print(format_table(
        ["error type"] + list(MATRICES),
        rows,
        title=f"Probability of a non-trainable state, {trials} trials each (Table 4 layout)",
    ))


if __name__ == "__main__":
    main()
