"""Unit tests for error-pattern classification and matrix-level correction."""

import numpy as np
import pytest

from repro.core.checksums import ChecksumState, encode_column_checksums, encode_row_checksums
from repro.core.correction import correct_matrix
from repro.core.patterns import (
    ErrorPattern,
    classify_error_pattern,
    classify_error_types,
    describe_corruption,
    error_mask,
)


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestErrorMask:
    def test_reference_based_mask(self, rng):
        ref = rng.normal(size=(4, 4))
        obs = ref.copy()
        obs[1, 2] += 10.0
        mask = error_mask(obs, ref)
        assert mask.sum() == 1 and mask[1, 2]

    def test_nan_in_both_is_not_an_error(self):
        ref = np.array([[np.nan, 1.0]])
        obs = np.array([[np.nan, 1.0]])
        assert not error_mask(obs, ref).any()

    def test_nan_only_in_observed_is_error(self):
        ref = np.array([[2.0, 1.0]])
        obs = np.array([[np.nan, 1.0]])
        assert error_mask(obs, ref)[0, 0]

    def test_without_reference_uses_extremeness(self):
        obs = np.array([[1.0, np.inf], [2e12, 3.0]])
        mask = error_mask(obs)
        assert mask.tolist() == [[False, True], [True, False]]

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            error_mask(rng.normal(size=(2, 2)), rng.normal(size=(3, 3)))


class TestPatternClassification:
    def test_none(self):
        assert classify_error_pattern(np.zeros((4, 4), dtype=bool)) is ErrorPattern.NONE

    def test_zero_d(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        assert classify_error_pattern(mask) is ErrorPattern.ZERO_D

    def test_one_row(self):
        mask = np.zeros((4, 6), dtype=bool)
        mask[2, 1:5] = True
        assert classify_error_pattern(mask) is ErrorPattern.ONE_ROW

    def test_one_col(self):
        mask = np.zeros((5, 4), dtype=bool)
        mask[:, 3] = True
        assert classify_error_pattern(mask) is ErrorPattern.ONE_COL

    def test_two_d(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[2, 3] = True
        assert classify_error_pattern(mask) is ErrorPattern.TWO_D

    def test_batched_masks_collapse(self):
        mask = np.zeros((3, 4, 4), dtype=bool)
        mask[0, 1, 2] = True
        mask[2, 1, 3] = True
        assert classify_error_pattern(mask) is ErrorPattern.ONE_ROW

    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            classify_error_pattern(np.zeros(4, dtype=bool))


class TestTypeClassification:
    def test_single_types(self):
        obs = np.array([[np.inf, 1.0], [1.0, 1.0]])
        mask = np.array([[True, False], [False, False]])
        assert classify_error_types(obs, mask).label() == "INF"
        obs[0, 0] = np.nan
        assert classify_error_types(obs, mask).label() == "NaN"
        obs[0, 0] = 1e12
        assert classify_error_types(obs, mask).label() == "nINF"
        obs[0, 0] = 17.0
        assert classify_error_types(obs, mask).label() == "num"

    def test_mixed_label(self):
        obs = np.array([[np.inf, np.nan]])
        mask = np.array([[True, True]])
        types = classify_error_types(obs, mask)
        assert types.mixed and types.label() == "M"

    def test_empty(self):
        types = classify_error_types(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        assert types.empty and types.label() == "-"

    def test_describe_corruption_table2_format(self, rng):
        ref = rng.normal(size=(5, 5))
        obs = ref.copy()
        assert describe_corruption(obs, ref) == "-"
        obs[2, :] = np.nan
        assert describe_corruption(obs, ref) == "1R-NaN"
        obs = ref.copy()
        obs[:, 1] = np.inf
        assert describe_corruption(obs, ref) == "1C-INF"


class TestCorrectMatrix:
    def test_requires_a_checksum_side(self, rng):
        with pytest.raises(ValueError):
            correct_matrix(rng.normal(size=(4, 4)), ChecksumState())

    def test_column_only_deterministic(self, rng):
        m = rng.normal(size=(2, 6, 5))
        cs = ChecksumState(col=encode_column_checksums(m))
        ref = m.copy()
        m[0, 3, 1] = np.inf
        report = correct_matrix(m, cs)
        assert report.used_column_side and not report.used_row_side
        assert report.fully_corrected
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_row_only_deterministic(self, rng):
        m = rng.normal(size=(2, 6, 5))
        cs = ChecksumState(row=encode_row_checksums(m))
        ref = m.copy()
        m[1, 2, 4] = np.nan
        report = correct_matrix(m, cs)
        assert report.used_row_side and not report.used_column_side
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_nondeterministic_1r_uses_column_side_only(self, rng):
        # A 1R pattern (fault originated in the left operand): the column
        # checksums repair it and the row side must NOT run, because its
        # checksums may derive from the corrupted operand.
        m = rng.normal(size=(1, 6, 5))
        cs = ChecksumState(col=encode_column_checksums(m), row=encode_row_checksums(m))
        ref = m.copy()
        m[0, 3, :] = np.inf
        report = correct_matrix(m, cs)
        assert report.used_column_side and not report.used_row_side
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_nondeterministic_1c_falls_back_to_row_side(self, rng):
        # A 1C pattern whose column checksums were derived from the corrupted
        # operand (consistent corruption): the row side must repair it and the
        # column checksums must be refreshed.
        clean = rng.normal(size=(1, 6, 5))
        corrupted = clean.copy()
        corrupted[0, :, 2] = 7.7e12
        cs = ChecksumState(
            col=encode_column_checksums(corrupted),  # consistent with corruption
            row=encode_row_checksums(clean),          # derived from clean inputs
        )
        report = correct_matrix(corrupted, cs)
        assert report.used_row_side
        assert report.checksums_recomputed
        assert np.allclose(corrupted, clean, rtol=1e-6, atol=1e-8)
        assert np.allclose(cs.col, encode_column_checksums(clean), rtol=1e-6, atol=1e-6)

    def test_clean_matrix_reports_clean(self, rng):
        m = rng.normal(size=(2, 5, 5))
        cs = ChecksumState(col=encode_column_checksums(m), row=encode_row_checksums(m))
        report = correct_matrix(m, cs)
        assert report.clean and report.fully_corrected

    def test_numeric_1c_false_negative_recovered_by_row_side(self, rng):
        # Non-extreme consistent corruption: column side sees nothing (false
        # negative, as the paper describes); row side must still fix it.
        clean = rng.normal(size=(1, 6, 5))
        corrupted = clean.copy()
        corrupted[0, :, 1] += 3.0
        cs = ChecksumState(
            col=encode_column_checksums(corrupted),
            row=encode_row_checksums(clean),
        )
        report = correct_matrix(corrupted, cs)
        assert report.used_row_side
        assert np.allclose(corrupted, clean, rtol=1e-6, atol=1e-7)

    def test_2d_pattern_not_correctable(self, rng):
        m = rng.normal(size=(1, 6, 5))
        cs = ChecksumState(col=encode_column_checksums(m), row=encode_row_checksums(m))
        m[0, 1:4, 1:4] = np.nan
        report = correct_matrix(m, cs)
        assert not report.fully_corrected
        assert report.residual_extreme > 0
