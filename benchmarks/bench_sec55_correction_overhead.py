"""Section 5.5: correction micro-overheads per error pattern.

The paper measures the cost of the correction step alone: correcting 1D
propagated errors (from Q/K/V) adds ~0.7 % to a step, 0D errors ~0.3 %, and
errors in the larger merged output matrix O ~3.9 %.  The harness reproduces
the same ordering from the correction-kernel cost model and additionally
measures the real cost of the NumPy correction path on the running host.

Most verifications find nothing, so the harness also times a *clean* check:
``correct_matrix`` on fault-free boundary blocks of serving decode and of
training, beside the full EEC-ABFT passes (``check_columns`` /
``check_rows``) the same blocks cost without the checksum screen.  These
are reported, not gated: wall-clock ratios on a shared host vary too much
from run to run for an assertion.
"""

import timeit

import numpy as np

from repro.analysis import format_percent, format_table
from repro.core.checksums import ChecksumState, encode_column_checksums, encode_row_checksums
from repro.core.correction import correct_matrix
from repro.core.eec_abft import check_columns, check_rows
from repro.core.thresholds import ABFTThresholds
from repro.models import get_config
from repro.perfmodel import RecoveryCostModel

PAPER = {"0D": 0.003, "1D": 0.007, "O": 0.039}


def modelled_overheads():
    model = RecoveryCostModel(get_config("bert-base", size="paper"), batch_size=8)
    return model.correction_overheads()


def corrected_matrix_pass():
    """The measured callable: a full EEC-ABFT pass repairing a 1R corruption."""
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(8, 12, 128, 128))
    checksums = encode_column_checksums(matrix)
    matrix[0, 0, 5, :] = np.inf
    report = check_columns(matrix, checksums, ABFTThresholds())
    return report.num_corrected


def test_sec55_correction_overheads(benchmark, report):
    corrected = benchmark(corrected_matrix_pass)
    assert corrected == 128

    overheads = modelled_overheads()
    rows = [
        [pattern, format_percent(overheads[pattern], digits=2), format_percent(PAPER[pattern], digits=1)]
        for pattern in ("0D", "1D", "O")
    ]
    report(format_table(
        ["pattern", "reproduced correction overhead", "paper"],
        rows,
        title="Section 5.5 — correction-only overhead per error pattern (modelled A100)",
    ))
    benchmark.extra_info["section55"] = overheads

    # Ordering and magnitude: 0D <= 1D, O is the most expensive, all are a few
    # percent of a step at most.
    assert overheads["0D"] <= overheads["1D"]
    assert overheads["O"] >= overheads["1D"]
    assert all(v < 0.05 for v in overheads.values())


#: Clean boundary blocks: (label, shape, checksum sides, calls per repeat).
CLEAN_BLOCKS = [
    ("decode AS", (8, 4, 1, 40), ("row",), 3000),
    ("decode FF1", (8, 1, 256), ("col",), 3000),
    ("decode O", (8, 1, 64), ("row",), 3000),
    ("train AS", (8, 4, 32, 32), ("col", "row"), 300),
]


def clean_block(shape, sides):
    matrix = np.random.default_rng(0).normal(size=shape)
    return matrix, ChecksumState(
        col=encode_column_checksums(matrix) if "col" in sides else None,
        row=encode_row_checksums(matrix) if "row" in sides else None,
    )


def full_passes(matrix, checksums, thresholds):
    """The EEC-ABFT passes a clean block costs without the screen."""
    detected = 0
    if checksums.has_col():
        detected += check_columns(matrix, checksums.col, thresholds).num_detected
    if checksums.has_row():
        detected += check_rows(matrix, checksums.row, thresholds).num_detected
    return detected


def microseconds_per_call(fn, number, repeat=5):
    """Min over ``repeat`` runs of ``number`` calls, per call."""
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def test_sec55_clean_check_cost(benchmark, report):
    thresholds = ABFTThresholds()
    matrix, checksums = clean_block(*CLEAN_BLOCKS[0][1:3])
    screened = benchmark(correct_matrix, matrix, checksums, thresholds)
    assert screened.column_report is None and screened.row_report is None

    rows, measured = [], {}
    for label, shape, sides, number in CLEAN_BLOCKS:
        matrix, checksums = clean_block(shape, sides)
        # The screen's clean report and the full passes agree: nothing found.
        assert correct_matrix(matrix, checksums, thresholds).clean
        assert full_passes(matrix, checksums, thresholds) == 0
        screen_us = microseconds_per_call(
            lambda: correct_matrix(matrix, checksums, thresholds), number
        )
        full_us = microseconds_per_call(
            lambda: full_passes(matrix, checksums, thresholds), number
        )
        measured[label] = {
            "shape": list(shape), "sides": list(sides),
            "correct_matrix_us": screen_us, "eec_abft_passes_us": full_us,
        }
        rows.append([label, str(shape), "+".join(sides),
                     f"{screen_us:.1f}", f"{full_us:.1f}", f"{full_us / screen_us:.1f}x"])
    report(format_table(
        ["block", "shape", "sides", "clean correct_matrix (us)",
         "check_columns/check_rows (us)", "ratio"],
        rows,
        title="Section 5.5 — cost of a clean verification (min of 5 repeats, per call)",
    ))
    benchmark.extra_info["clean_check_us"] = measured
