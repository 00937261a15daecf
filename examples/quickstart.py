#!/usr/bin/env python3
"""Quickstart: protect a model's attention with ATTNChecker.

The script builds a tiny BERT classifier and runs fault trials through
:class:`repro.FaultHarness`: a fault-free forward pass as the reference, then
the pass again with an INF fault injected into the attention-score GEMM —
once unprotected (the output is corrupted and the loss becomes NaN) and once
with ATTNChecker attached (the fault is detected, located and corrected in
place; the output matches the reference).

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import FaultHarness, FaultSpec, build_model
from repro.data import SyntheticMRPC


def main():
    rng = np.random.default_rng(0)
    model = build_model("bert-base", size="tiny", rng=rng)
    data = SyntheticMRPC(
        num_examples=32,
        max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
    )
    batch = data.encode(range(8))
    # An INF fault in the AS = Q K^T GEMM; both runs draw its position from
    # the same generator.
    fault = FaultSpec(matrix="AS", error_type="inf")
    positions = np.random.default_rng(7)

    # 1. Fault-free reference, then an unprotected run with the fault.
    unprotected = FaultHarness(model, batch, "unprotected")
    print(f"fault-free loss          : {unprotected.reference.loss_value:.4f}")
    corrupted = unprotected.trial(fault, positions)
    print(f"unprotected faulty loss  : {corrupted.loss:.4f}   "
          f"(injected at {corrupted.injection.position})")

    # 2. Protected run: the injector corrupts the GEMM output, ATTNChecker
    #    repairs it at the section boundary before anything downstream
    #    consumes it.
    protected = FaultHarness(model, batch, "protected").trial(fault, positions)
    print(f"ATTNChecker-protected    : {protected.loss:.4f}")
    print(protected.checker.summary())

    print(f"protected output matches the fault-free reference: {protected.matches}")
    assert protected.matches, "protected output should equal the fault-free output"


if __name__ == "__main__":
    main()
