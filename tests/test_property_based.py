"""Property-based tests (hypothesis) for the core invariants.

The invariants checked here are the load-bearing ones for ABFT correctness:

* checksum linearity (checksums commute with GEMM and bias addition),
* EEC-ABFT exactness (any single extreme error is detected, located and the
  original value restored, for arbitrary shapes, positions and magnitudes —
  also from checksums carried through a chain of GEMMs, Section 4.4's
  checksum passing),
* pattern classification consistency,
* autograd gradients agree with numerical differentiation for random DAG
  shapes,
* the adaptive optimiser always meets the coverage target when feasible and
  never allocates more time than always-on ABFT.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.adaptive import (
    AdaptiveFrequencyOptimizer,
    ErrorRates,
    OperationVulnerability,
    SectionReliabilityModel,
)
from repro.core.checksums import (
    ChecksumState,
    encode_column_checksums,
    encode_row_checksums,
    update_column_checksums_through_gemm,
)
from repro.core.correction import correct_matrix
from repro.core.eec_abft import check_columns, check_rows
from repro.core.patterns import classify_error_pattern, ErrorPattern
from repro.core.thresholds import ABFTThresholds
from repro.models import get_config
from repro.tensor import ops

THRESHOLDS = ABFTThresholds()

# Bounded-magnitude floats keep round-off away from the detection tolerance
# while still exercising sign / scale diversity.
element = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_and_fault(draw):
    """A random matrix plus a random single-fault description."""
    rows = draw(st.integers(min_value=2, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    matrix = np.random.default_rng(seed).uniform(-10, 10, size=(rows, cols))
    row = draw(st.integers(min_value=0, max_value=rows - 1))
    col = draw(st.integers(min_value=0, max_value=cols - 1))
    fault = draw(
        st.sampled_from(["inf", "-inf", "nan", "near_inf", "-near_inf", "numeric"])
    )
    magnitude = draw(st.floats(min_value=1.0, max_value=1e4))
    return matrix, (row, col), fault, magnitude


def carried_chain(seed, chain_length, fault_hook=None):
    """``C = A B_1 ... B_k`` with both checksum sides carried, not re-encoded.

    ``col(A)`` is encoded once and carried through every member GEMM; the row
    side is the last intermediate times ``row(B_k)``.  ``fault_hook(stage,
    out)`` may corrupt a member GEMM's output in place.  Returns the computed
    product, its checksums and the fault-free product.
    """
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 9, size=chain_length + 1)
    rows = int(rng.integers(2, 10))
    a = rng.uniform(-2, 2, size=(rows, int(dims[0])))
    bs = [
        rng.uniform(-2, 2, size=(int(dims[i]), int(dims[i + 1])))
        for i in range(chain_length)
    ]
    expected = a
    for b in bs:
        expected = expected @ b
    col = encode_column_checksums(a)
    out = a
    with np.errstate(invalid="ignore", over="ignore"):
        for stage, b in enumerate(bs):
            penultimate = out
            out = out @ b
            if fault_hook is not None:
                fault_hook(stage, out)
            col = update_column_checksums_through_gemm(col, b)
        row = penultimate @ encode_row_checksums(bs[-1])
    return out, ChecksumState(col=col, row=row), expected


EXTREME_VALUES = {
    "inf": np.inf, "-inf": -np.inf, "nan": np.nan,
    "near_inf": 4.2e13, "-near_inf": -4.2e13,
}


def apply_fault(matrix, position, fault, magnitude):
    if fault == "inf":
        matrix[position] = np.inf
    elif fault == "-inf":
        matrix[position] = -np.inf
    elif fault == "nan":
        matrix[position] = np.nan
    elif fault == "near_inf":
        matrix[position] = 3.3e12 * magnitude
    elif fault == "-near_inf":
        matrix[position] = -4.1e13 * magnitude
    else:
        matrix[position] += magnitude + 1.0


class TestChecksumLinearity:
    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(2, 10),
        k=st.integers(1, 10),
        n=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_column_checksums_commute_with_gemm(self, seed, m, k, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-5, 5, size=(m, k))
        b = rng.uniform(-5, 5, size=(k, n))
        carried = update_column_checksums_through_gemm(encode_column_checksums(a), b)
        assert np.allclose(carried, encode_column_checksums(a @ b), rtol=1e-9, atol=1e-9)

    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 12), n=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_checksums_are_linear_in_the_matrix(self, seed, m, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-5, 5, size=(m, n))
        b = rng.uniform(-5, 5, size=(m, n))
        alpha, beta = rng.uniform(-3, 3, size=2)
        combined = encode_column_checksums(alpha * a + beta * b)
        separate = alpha * encode_column_checksums(a) + beta * encode_column_checksums(b)
        assert np.allclose(combined, separate, rtol=1e-9, atol=1e-9)

    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 10), n=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_row_checksums_are_column_checksums_of_transpose(self, seed, m, n):
        a = np.random.default_rng(seed).uniform(-5, 5, size=(m, n))
        assert np.allclose(encode_row_checksums(a), np.swapaxes(encode_column_checksums(a.T), -1, -2))


class TestEECABFTExactness:
    @given(case=matrix_and_fault())
    @settings(max_examples=80, deadline=None)
    def test_any_single_fault_is_corrected_with_column_checksums(self, case):
        matrix, position, fault, magnitude = case
        checksums = encode_column_checksums(matrix)
        reference = matrix.copy()
        apply_fault(matrix, position, fault, magnitude)
        assume(not np.allclose(matrix, reference, rtol=1e-9, atol=1e-9))
        report = check_columns(matrix, checksums, THRESHOLDS)
        assert report.num_detected >= 1
        assert report.num_aborted == 0
        assert np.allclose(matrix, reference, rtol=1e-5, atol=1e-5)

    @given(case=matrix_and_fault())
    @settings(max_examples=60, deadline=None)
    def test_any_single_fault_is_corrected_with_row_checksums(self, case):
        matrix, position, fault, magnitude = case
        assume(matrix.shape[1] >= 2)
        checksums = encode_row_checksums(matrix)
        reference = matrix.copy()
        apply_fault(matrix, position, fault, magnitude)
        assume(not np.allclose(matrix, reference, rtol=1e-9, atol=1e-9))
        report = check_rows(matrix, checksums, THRESHOLDS)
        assert report.num_detected >= 1
        assert np.allclose(matrix, reference, rtol=1e-5, atol=1e-5)

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(2, 10),
        cols=st.integers(2, 8),
        fault_row=st.integers(0, 9),
    )
    @settings(max_examples=40, deadline=None)
    def test_whole_row_corruption_is_fully_restored(self, seed, rows, cols, fault_row):
        # A 1R pattern (one error per column) is always correctable from the
        # column checksums regardless of where the row lies.
        fault_row = fault_row % rows
        matrix = np.random.default_rng(seed).uniform(-10, 10, size=(rows, cols))
        checksums = encode_column_checksums(matrix)
        reference = matrix.copy()
        matrix[fault_row, :] = np.inf
        report = check_columns(matrix, checksums, THRESHOLDS)
        assert report.num_corrected == cols
        assert np.allclose(matrix, reference, rtol=1e-6, atol=1e-6)

    @given(seed=st.integers(0, 2**31 - 1), chain_length=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_clean_carried_chain_is_left_alone(self, seed, chain_length):
        product, checksums, _ = carried_chain(seed, chain_length)
        snapshot = product.copy()
        report = correct_matrix(product, checksums, THRESHOLDS)
        assert report.clean
        assert np.array_equal(product, snapshot)

    @given(
        seed=st.integers(0, 2**31 - 1),
        chain_length=st.integers(1, 3),
        fault=st.sampled_from(sorted(EXTREME_VALUES)),
        where=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    )
    @settings(max_examples=60, deadline=None)
    def test_carried_checksums_repair_any_single_extreme_fault(
        self, seed, chain_length, fault, where
    ):
        def corrupt(stage, out):
            if stage == chain_length - 1:
                out[int(where[0] * out.shape[0]), int(where[1] * out.shape[1])] = (
                    EXTREME_VALUES[fault]
                )

        product, checksums, expected = carried_chain(seed, chain_length, corrupt)
        report = correct_matrix(product, checksums, THRESHOLDS)
        assert report.detected >= 1
        assert report.fully_corrected
        assert np.allclose(product, expected, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("chain_length,stage", [(2, 0), (3, 0), (3, 1)])
    @pytest.mark.parametrize("fault", ["inf", "nan"])
    def test_fault_in_an_earlier_member_gemm_is_repaired_at_the_boundary(
        self, chain_length, stage, fault
    ):
        # The carried checksums describe the true product, so a fault that
        # struck mid-section still surfaces — and is repaired — at the one
        # boundary verification.
        def corrupt(s, out):
            if s == stage:
                out[1, 0] = EXTREME_VALUES[fault]

        product, checksums, expected = carried_chain(7, chain_length, corrupt)
        assert not np.allclose(product, expected, equal_nan=True)
        report = correct_matrix(product, checksums, THRESHOLDS)
        assert report.detected >= 1
        assert report.fully_corrected
        assert np.allclose(product, expected, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("chain_length", [1, 2, 3])
    def test_carried_whole_row_inf_is_repaired(self, chain_length):
        def corrupt(stage, out):
            if stage == chain_length - 1:
                out[1, :] = np.inf

        product, checksums, expected = carried_chain(11, chain_length, corrupt)
        report = correct_matrix(product, checksums, THRESHOLDS)
        assert report.fully_corrected
        assert np.allclose(product, expected, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("chain_length", [1, 2, 3])
    def test_carried_whole_column_nan_needs_the_row_side(self, chain_length):
        def corrupt(stage, out):
            if stage == chain_length - 1:
                out[:, 1] = np.nan

        product, checksums, expected = carried_chain(13, chain_length, corrupt)
        column_only = product.copy()
        report = correct_matrix(product, checksums, THRESHOLDS)
        assert report.used_row_side and report.fully_corrected
        assert np.allclose(product, expected, rtol=1e-6, atol=1e-8)

        report = correct_matrix(column_only, ChecksumState(col=checksums.col), THRESHOLDS)
        assert not report.fully_corrected

    @pytest.mark.parametrize("chain_length", [1, 2, 3])
    def test_carried_perturbation_below_loose_tolerance_is_left_alone(self, chain_length):
        loose = ABFTThresholds(detect_rtol=0.5, detect_atol=10.0)

        def corrupt(stage, out):
            if stage == chain_length - 1:
                out[1, 1] += 0.5

        product, checksums, expected = carried_chain(17, chain_length, corrupt)
        perturbed = product.copy()
        report = correct_matrix(product, checksums, loose)
        assert report.corrected == 0
        assert np.array_equal(product, perturbed)
        assert not np.array_equal(product, expected)

    @given(seed=st.integers(0, 2**31 - 1), rows=st.integers(2, 12), cols=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_clean_matrices_never_modified(self, seed, rows, cols):
        matrix = np.random.default_rng(seed).uniform(-50, 50, size=(rows, cols))
        checksums = encode_column_checksums(matrix)
        snapshot = matrix.copy()
        report = check_columns(matrix, checksums, THRESHOLDS)
        assert report.clean
        assert np.array_equal(matrix, snapshot)


class TestPatternProperties:
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        points=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=0, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_classification_matches_footprint_definition(self, rows, cols, points):
        mask = np.zeros((rows, cols), dtype=bool)
        for r, c in points:
            mask[r % rows, c % cols] = True
        pattern = classify_error_pattern(mask)
        n_rows = len(np.unique(np.nonzero(mask)[0])) if mask.any() else 0
        n_cols = len(np.unique(np.nonzero(mask)[1])) if mask.any() else 0
        if not mask.any():
            assert pattern is ErrorPattern.NONE
        elif mask.sum() == 1:
            assert pattern is ErrorPattern.ZERO_D
        elif n_rows == 1:
            assert pattern is ErrorPattern.ONE_ROW
        elif n_cols == 1:
            assert pattern is ErrorPattern.ONE_COL
        else:
            assert pattern is ErrorPattern.TWO_D


class TestAutogradProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(1, 6),
        k=st.integers(1, 6),
        n=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_matmul_gradient_matches_numerical(self, seed, m, k, n):
        from repro.tensor.autograd import Tensor, matmul

        rng = np.random.default_rng(seed)
        a = Tensor(rng.uniform(-2, 2, size=(m, k)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, size=(k, n)), requires_grad=True)
        out = matmul(a, b)
        weights = rng.uniform(-1, 1, size=(m, n))
        out.backward(weights)
        idx = (rng.integers(0, m), rng.integers(0, k))
        eps = 1e-6
        perturbed = a.data.copy()
        perturbed[idx] += eps
        numerical = np.sum(weights * (perturbed @ b.data - a.data @ b.data)) / eps
        assert a.grad[idx] == pytest.approx(numerical, rel=1e-3, abs=1e-6)

    @given(seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 6), cols=st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_softmax_output_is_a_probability_distribution(self, seed, rows, cols):
        x = np.random.default_rng(seed).uniform(-30, 30, size=(rows, cols))
        out = ops.softmax(x)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0)


class TestAdaptiveProperties:
    VULN = OperationVulnerability.from_table4("bert-base")
    CONFIG = get_config("bert-base", size="paper")

    @given(rate=st.floats(min_value=1e-26, max_value=1e-16), target_exp=st.integers(6, 14))
    @settings(max_examples=40, deadline=None)
    def test_plan_is_feasible_and_never_exceeds_full_time(self, rate, target_exp):
        reliability = SectionReliabilityModel(
            self.CONFIG, 16, ErrorRates.uniform(rate), self.VULN, flops_multiplier=36.0
        )
        plan = AdaptiveFrequencyOptimizer(reliability).optimize(1 - 10.0 ** (-target_exp))
        assert all(0.0 <= f <= 1.0 for f in plan.frequencies.values())
        assert plan.abft_time <= plan.full_abft_time + 1e-12
        full_coverage = reliability.attention_fault_coverage({"AS": 1.0, "CL": 1.0, "O": 1.0})
        if full_coverage >= plan.target_coverage:
            assert plan.meets_target

    @given(rate_low=st.floats(1e-26, 1e-20), factor=st.floats(1.5, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_overhead_monotone_in_error_rate(self, rate_low, factor):
        # Nearly monotone: the greedy allocates by first-order mass and then
        # refines against the exact coverage, so a tiny non-monotonic ripple
        # (well under the size of one section's share) is permitted.
        def overhead(rate):
            reliability = SectionReliabilityModel(
                self.CONFIG, 16, ErrorRates.uniform(rate), self.VULN, flops_multiplier=36.0
            )
            return AdaptiveFrequencyOptimizer(reliability).optimize(1 - 1e-11).relative_overhead

        assert overhead(rate_low * factor) >= overhead(rate_low) - 0.05
