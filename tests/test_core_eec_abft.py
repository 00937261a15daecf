"""Unit tests for the EEC-ABFT detection / correction kernel."""

import warnings

import numpy as np
import pytest

from repro.core.checksums import ChecksumState, encode_column_checksums, encode_row_checksums
from repro.core.correction import correct_matrix
from repro.core.eec_abft import check_columns, check_rows
from repro.core.thresholds import ABFTThresholds, resolve_thresholds


@pytest.fixture
def rng():
    return np.random.default_rng(23)


@pytest.fixture
def thresholds():
    return ABFTThresholds()


def protected_matrix(rng, shape=(4, 8, 6)):
    m = rng.normal(size=shape)
    return m, encode_column_checksums(m), m.copy()


class TestCleanData:
    def test_no_false_positives(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng)
        report = check_columns(m, cs, thresholds)
        assert report.clean
        assert report.num_corrected == 0 and report.num_aborted == 0
        assert np.array_equal(m, ref)

    def test_no_false_positives_large_values(self, rng, thresholds):
        m = rng.normal(size=(2, 16, 8)) * 1e4
        report = check_columns(m, encode_column_checksums(m), thresholds)
        assert report.clean

    def test_no_false_positives_after_realistic_gemm(self, rng, thresholds):
        # Checksums carried through a GEMM differ from recomputed ones only by
        # round-off; detection must not fire.
        a = rng.normal(size=(8, 64, 32))
        b = rng.normal(size=(32, 48))
        c = a @ b
        carried = np.matmul(encode_column_checksums(a), b)
        report = check_columns(c, carried, thresholds)
        assert report.clean


class TestSingleErrors:
    @pytest.mark.parametrize(
        "inject",
        [np.inf, -np.inf, np.nan, 4.2e12, -7.7e13],
        ids=["+inf", "-inf", "nan", "+near_inf", "-near_inf"],
    )
    def test_extreme_single_error_restored(self, rng, thresholds, inject):
        m, cs, ref = protected_matrix(rng)
        m[1, 3, 2] = inject
        report = check_columns(m, cs, thresholds)
        assert report.num_detected == 1
        assert report.num_corrected == 1
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_numeric_single_error_restored(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng)
        m[2, 5, 1] += 37.5
        report = check_columns(m, cs, thresholds)
        assert report.num_corrected == 1
        assert np.allclose(m, ref, rtol=1e-7, atol=1e-9)

    def test_corrected_index_reported(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng, shape=(1, 8, 6))
        m[0, 5, 2] = np.inf
        report = check_columns(m, cs, thresholds)
        assert report.corrected_indices[0, 2] == 5

    def test_case_classification(self, rng, thresholds):
        m, cs, _ = protected_matrix(rng, shape=(1, 8, 6))
        m[0, 2, 0] = np.inf     # delta1 becomes inf  -> case 2
        m[0, 3, 1] = np.nan     # delta1 becomes nan  -> case 3
        m[0, 4, 2] += 11.0      # finite delta        -> case 1
        report = check_columns(m, cs, thresholds)
        assert report.case2[0, 0] and report.case3[0, 1] and report.case1[0, 2]

    @pytest.mark.parametrize("value", [3.3e6, -2.5e9], ids=["1e6", "-1e9"])
    def test_large_finite_error_located_by_ratio_and_restored(self, rng, thresholds, value):
        # Above T_correct but below T_near-INF: a case-1 vector whose value is
        # rebuilt from the unweighted checksum and the healthy elements.
        assert thresholds.correct < abs(value) < thresholds.near_inf
        m, cs, ref = protected_matrix(rng, shape=(1, 8, 6))
        m[0, 6, 4] = value
        report = check_columns(m, cs, thresholds)
        assert report.case1[0, 4] and not report.case2.any() and not report.case3.any()
        assert report.num_corrected == 1 and report.corrected_indices[0, 4] == 6
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-6)

    def test_tiny_numeric_error_below_tolerance_ignored(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng)
        m[0, 0, 0] += 1e-12
        report = check_columns(m, cs, thresholds)
        assert report.num_corrected == 0


class TestPropagatedPatterns:
    def test_1r_pattern_corrected_by_column_checksums(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng, shape=(2, 3, 8, 6))
        m[0, 1, 4, :] = np.inf  # a whole row: one error per column
        report = check_columns(m, cs, thresholds)
        assert report.num_corrected == 6
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_1c_pattern_corrected_by_row_checksums(self, rng, thresholds):
        m = rng.normal(size=(2, 5, 7))
        rcs = encode_row_checksums(m)
        ref = m.copy()
        m[1, :, 3] = 9.9e11     # a whole column: one error per row
        report = check_rows(m, rcs, thresholds)
        assert report.num_corrected == 5
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_mixed_types_across_columns(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng, shape=(1, 10, 8))
        m[0, 1, 0] = np.inf
        m[0, 2, 1] = np.nan
        m[0, 3, 2] = -2.2e13
        m[0, 4, 3] += 55.0
        report = check_columns(m, cs, thresholds)
        assert report.num_corrected == 4
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_two_errors_in_one_vector_abort(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng, shape=(1, 10, 4))
        m[0, 1, 2] = np.inf
        m[0, 7, 2] = np.nan
        report = check_columns(m, cs, thresholds)
        assert report.num_aborted == 1
        assert report.num_corrected == 0

    def test_consistent_corruption_reported_as_abort(self, rng, thresholds):
        # Checksums computed FROM the corrupted data are consistent with it;
        # extreme values must still be flagged (case 4) rather than silently
        # accepted.
        m = rng.normal(size=(1, 6, 5))
        m[0, 2, 3] = 5e12
        cs = encode_column_checksums(m)  # consistent with the corruption
        report = check_columns(m, cs, thresholds)
        assert report.num_detected >= 1
        assert report.num_aborted >= 1
        assert report.num_corrected == 0


class TestRowColumnEquivalence:
    def test_row_check_is_transposed_column_check(self, rng, thresholds):
        m = rng.normal(size=(3, 6, 9))
        rcs = encode_row_checksums(m)
        ref = m.copy()
        m[2, 4, 7] = np.nan
        report = check_rows(m, rcs, thresholds)
        assert report.num_corrected == 1
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_row_check_corrects_in_place_through_view(self, rng, thresholds):
        # check_rows internally transposes; corrections must land in the
        # original array even though reshape of the transposed view copies.
        m = rng.normal(size=(2, 4, 5))
        rcs = encode_row_checksums(m)
        ref = m.copy()
        m[0, 2, 2] = np.inf
        check_rows(m, rcs, thresholds)
        assert np.isfinite(m).all()
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)


class TestReportLayout:
    def test_masks_keep_the_leading_axes(self, rng, thresholds):
        m, cs, _ = protected_matrix(rng, shape=(2, 3, 8, 6))
        m[1, 2, 4, 5] = np.inf
        report = check_columns(m, cs, thresholds)
        for mask in (report.detected, report.corrected, report.aborted,
                     report.case1, report.case2, report.case3):
            assert mask.shape == (2, 3, 6) and mask.dtype == bool
        assert report.corrected_indices.dtype == np.int64
        expected = np.full((2, 3, 6), -1)
        expected[1, 2, 5] = 4
        assert np.array_equal(report.corrected_indices, expected)
        assert np.argwhere(report.detected).tolist() == [[1, 2, 5]]

    def test_row_report_has_one_entry_per_row(self, rng, thresholds):
        m = rng.normal(size=(5, 7))
        rcs = encode_row_checksums(m)
        m[3, 2] = np.nan
        report = check_rows(m, rcs, thresholds)
        assert report.detected.shape == (5,)
        assert report.detected.tolist() == [False, False, False, True, False]
        assert report.corrected_indices.tolist() == [-1, -1, -1, 2, -1]


class TestValidation:
    def test_shape_mismatch_raises(self, rng, thresholds):
        m = rng.normal(size=(4, 5))
        with pytest.raises(ValueError):
            check_columns(m, np.zeros((2, 4)), thresholds)

    def test_checksum_axis_must_be_two(self, rng, thresholds):
        m = rng.normal(size=(4, 5))
        with pytest.raises(ValueError):
            check_columns(m, np.zeros((3, 5)), thresholds)


class TestThresholds:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ABFTThresholds(near_inf=1e4, correct=1e5)
        with pytest.raises(ValueError):
            ABFTThresholds(detect_rtol=0.0)

    def test_missing_thresholds_follow_the_dtype(self):
        # float64 and dtypes with no precision entry keep the defaults, so a
        # checker built without thresholds changes nothing on float64 data.
        assert resolve_thresholds(None, np.dtype(np.float64)) == ABFTThresholds()
        assert resolve_thresholds(None, np.dtype(np.int64)) == ABFTThresholds()
        assert resolve_thresholds(None, np.dtype(np.float32)) == \
            ABFTThresholds.for_precision("float32")
        explicit = ABFTThresholds(detect_rtol=1e-3)
        assert resolve_thresholds(explicit, np.dtype(np.float32)) is explicit

    def test_is_extreme_mask(self):
        th = ABFTThresholds()
        data = np.array([1.0, np.inf, np.nan, 2e10, 2e9])
        assert th.is_extreme(data).tolist() == [False, True, True, True, False]

    def test_float16_near_inf_test_is_the_non_finite_test(self):
        # near_inf = 1e10 overflows float16 (largest finite 65504): no finite
        # float16 element can exceed it, and comparing must not cast it.
        th = ABFTThresholds()
        data = np.array([1.0, np.inf, -np.inf, np.nan, 65504.0], dtype=np.float16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert th.is_extreme(data).tolist() == [False, True, True, True, False]
            assert th.any_extreme(data)
            assert not th.any_extreme(data[[0, 4]])

    #: Element written into a float16 block (``None``: clean), and whether it
    #: replaces the element or is added to it.
    FLOAT16_FAULTS = {
        "clean": None, "inf": np.inf, "-inf": -np.inf, "nan": np.nan,
        "numeric": 4.0, "large_finite": 6e4,
    }

    @staticmethod
    def _correct_float16(fault, sides, mode):
        m = np.random.default_rng(0).standard_normal((4, 8, 8)).astype(np.float16)
        checksums = ChecksumState(
            col=encode_column_checksums(m) if sides != "row" else None,
            row=encode_row_checksums(m) if sides != "col" else None,
        )
        value = TestThresholds.FLOAT16_FAULTS[fault]
        if fault == "numeric":
            m[1, 3, 6] += np.float16(value)
        elif value is not None:
            m[1, 3, 6] = value
        with warnings.catch_warnings():
            warnings.simplefilter(mode)
            report = correct_matrix(m, checksums)
        counts = (report.detected, report.corrected, report.aborted, report.residual_extreme,
                  report.used_column_side, report.used_row_side)
        return counts, m

    @pytest.mark.parametrize("sides", ["col", "row", "both"])
    @pytest.mark.parametrize("fault", sorted(FLOAT16_FAULTS))
    def test_float16_correct_matrix_warns_nothing_and_decides_as_before(self, fault, sides):
        expected = (0, 0, 0, 0, False, False) if fault == "clean" else (
            1, 1, 0, 0, sides != "row", sides == "row",
        )
        ignored, repaired = self._correct_float16(fault, sides, "ignore")
        assert ignored == expected
        as_errors, repaired_strict = self._correct_float16(fault, sides, "error")
        assert as_errors == expected
        assert np.array_equal(repaired, repaired_strict)

    def test_detection_tolerance_scales_with_magnitude(self):
        th = ABFTThresholds()
        small = th.detection_tolerance(np.array(1.0))
        large = th.detection_tolerance(np.array(1e6))
        assert large > small

    def test_paper_default_values(self):
        th = ABFTThresholds()
        assert th.near_inf == 1e10 and th.correct == 1e5
