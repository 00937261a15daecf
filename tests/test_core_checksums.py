"""Unit tests for checksum encoding and propagation."""

import numpy as np
import pytest

from repro.core.checksums import (
    ChecksumState,
    adjust_column_checksums_for_bias,
    checksum_weights,
    encode_column_checksums,
    encode_per_head_row_checksums_of_weight,
    encode_row_checksums,
    merge_head_column_checksums,
    recompute_column_sums,
    recompute_row_sums,
    split_head_column_checksums,
    update_column_checksums_through_gemm,
    update_column_checksums_with_appended_rows,
)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestWeights:
    def test_values(self):
        v1, v2 = checksum_weights(4)
        assert np.array_equal(v1, [1, 1, 1, 1])
        assert np.array_equal(v2, [1, 2, 3, 4])

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            checksum_weights(0)


class TestEncoding:
    def test_column_checksums_shape_and_values(self, rng):
        m = rng.normal(size=(3, 5, 4))
        cs = encode_column_checksums(m)
        assert cs.shape == (3, 2, 4)
        assert np.allclose(cs[..., 0, :], m.sum(axis=-2))
        weights = np.arange(1, 6)
        assert np.allclose(cs[..., 1, :], np.einsum("i,bij->bj", weights, m))

    def test_row_checksums_shape_and_values(self, rng):
        m = rng.normal(size=(2, 4, 6))
        cs = encode_row_checksums(m)
        assert cs.shape == (2, 4, 2)
        assert np.allclose(cs[..., 0], m.sum(axis=-1))
        weights = np.arange(1, 7)
        assert np.allclose(cs[..., 1], np.einsum("j,bij->bi", weights, m))

    def test_recompute_matches_encode(self, rng):
        m = rng.normal(size=(2, 3, 7, 5))
        cs = encode_column_checksums(m)
        u, w = recompute_column_sums(m)
        assert np.allclose(cs[..., 0, :], u) and np.allclose(cs[..., 1, :], w)
        rcs = encode_row_checksums(m)
        ru, rw = recompute_row_sums(m)
        assert np.allclose(rcs[..., 0], ru) and np.allclose(rcs[..., 1], rw)


class TestPropagation:
    def test_column_checksums_propagate_through_gemm(self, rng):
        a = rng.normal(size=(2, 6, 4))
        b = rng.normal(size=(4, 3))
        c = a @ b
        carried = update_column_checksums_through_gemm(encode_column_checksums(a), b)
        assert np.allclose(carried, encode_column_checksums(c))

    def test_row_checksums_propagate_through_gemm(self, rng):
        a = rng.normal(size=(2, 6, 4))
        b = rng.normal(size=(4, 3))
        c = a @ b
        carried = a @ encode_row_checksums(b)  # row(AB) = A row(B)
        assert np.allclose(carried, encode_row_checksums(c))

    def test_column_bias_adjustment(self, rng):
        a = rng.normal(size=(5, 4))
        bias = rng.normal(size=4)
        cs = adjust_column_checksums_for_bias(encode_column_checksums(a), bias, num_rows=5)
        assert np.allclose(cs, encode_column_checksums(a + bias))

    def test_chained_propagation_two_gemms(self, rng):
        # col(X) -> col(Q) -> col(AS) through two GEMMs, as section S_AS does.
        x = rng.normal(size=(7, 6))
        w_q = rng.normal(size=(6, 6))
        k_t = rng.normal(size=(6, 7))
        q = x @ w_q
        attention_scores = q @ k_t
        carried = update_column_checksums_through_gemm(
            update_column_checksums_through_gemm(encode_column_checksums(x), w_q), k_t
        )
        assert np.allclose(carried, encode_column_checksums(attention_scores))


class TestAppendedRows:
    """Incremental column checksums of a row-growing (KV-cache) matrix."""

    @pytest.mark.parametrize("appended", [1, 3])
    def test_matches_encoding_of_the_grown_matrix(self, rng, appended):
        # One row exercises the single-token decode path, three the general one.
        prefix = rng.normal(size=(5, 4))
        new_rows = rng.normal(size=(appended, 4))
        cs = update_column_checksums_with_appended_rows(
            encode_column_checksums(prefix), new_rows, first_row_index=5
        )
        assert np.allclose(cs, encode_column_checksums(np.concatenate([prefix, new_rows])))

    def test_token_by_token_growth_matches_one_encoding(self, rng):
        full = rng.normal(size=(9, 6))
        cs = encode_column_checksums(full[:2])
        for position in range(2, 9):
            update_column_checksums_with_appended_rows(cs, full[position : position + 1], position)
        assert np.allclose(cs, encode_column_checksums(full))

    def test_leading_batch_and_head_axes(self, rng):
        prefix = rng.normal(size=(2, 3, 4, 5))
        new_rows = rng.normal(size=(2, 3, 2, 5))
        cs = update_column_checksums_with_appended_rows(
            encode_column_checksums(prefix), new_rows, first_row_index=4
        )
        grown = np.concatenate([prefix, new_rows], axis=-2)
        assert cs.shape == (2, 3, 2, 5)
        assert np.allclose(cs, encode_column_checksums(grown))

    @pytest.mark.parametrize("appended", [1, 2])
    def test_updates_the_buffer_in_place(self, rng, appended):
        buffer = encode_column_checksums(rng.normal(size=(3, 4)))
        returned = update_column_checksums_with_appended_rows(
            buffer, rng.normal(size=(appended, 4)), first_row_index=3
        )
        assert returned is buffer

    def test_low_precision_rows_accumulate_in_float64(self, rng):
        prefix = rng.normal(size=(6, 8))
        new_rows = rng.normal(size=(3, 8)).astype(np.float16)
        cs = update_column_checksums_with_appended_rows(
            encode_column_checksums(prefix), new_rows, first_row_index=6
        )
        reference = encode_column_checksums(
            np.concatenate([prefix, new_rows.astype(np.float64)])
        )
        assert cs.dtype == np.float64
        assert np.allclose(cs, reference, rtol=1e-12, atol=1e-12)


class TestHeadSplitting:
    def test_split_matches_per_head_encoding(self, rng):
        batch, seq, heads, dh = 2, 6, 4, 3
        proj = rng.normal(size=(batch, seq, heads * dh))
        cs_full = encode_column_checksums(proj)
        per_head_cs = split_head_column_checksums(cs_full, heads)
        # Reference: split the data itself, then encode per head.
        split_data = proj.reshape(batch, seq, heads, dh).transpose(0, 2, 1, 3)
        assert per_head_cs.shape == (batch, heads, 2, dh)
        assert np.allclose(per_head_cs, encode_column_checksums(split_data))

    def test_merge_is_inverse_of_split(self, rng):
        cs = rng.normal(size=(3, 2, 12))
        assert np.allclose(merge_head_column_checksums(split_head_column_checksums(cs, 4)), cs)

    def test_split_invalid_args(self, rng):
        with pytest.raises(ValueError):
            split_head_column_checksums(rng.normal(size=(3, 2, 10)), 4)
        with pytest.raises(ValueError):
            split_head_column_checksums(rng.normal(size=(3, 3, 12)), 4)
        with pytest.raises(ValueError):
            merge_head_column_checksums(rng.normal(size=(3, 4, 3, 5)))

    def test_per_head_weight_row_checksums(self, rng):
        d_in, heads, dh = 8, 2, 3
        w = rng.normal(size=(d_in, heads * dh))
        x = rng.normal(size=(4, 5, d_in))
        rowcs_w = encode_per_head_row_checksums_of_weight(w, heads)
        assert rowcs_w.shape == (d_in, heads, 2)
        carried = np.einsum("bsd,dhw->bhsw", x, rowcs_w)
        v = x @ w
        v_heads = v.reshape(4, 5, heads, dh).transpose(0, 2, 1, 3)
        assert np.allclose(carried, encode_row_checksums(v_heads))

    def test_per_head_weight_invalid_divisor(self, rng):
        with pytest.raises(ValueError):
            encode_per_head_row_checksums_of_weight(rng.normal(size=(4, 10)), 4)


class TestChecksumState:
    def test_encode_both_sides(self, rng):
        m = rng.normal(size=(4, 5))
        state = ChecksumState.encode(m, col=True, row=True)
        assert state.has_col() and state.has_row()
        assert state.verify(m)

    def test_verify_detects_corruption(self, rng):
        m = rng.normal(size=(4, 5))
        state = ChecksumState.encode(m)
        m[2, 3] += 5.0
        assert not state.verify(m)

    def test_empty_state_verifies_anything(self, rng):
        assert ChecksumState().verify(rng.normal(size=(3, 3)))


class TestLowPrecisionEncoding:
    """Regression tests for the dtype-unsafe encoding bug.

    The encoders used to build the Huang–Abraham weight vectors in
    ``matrix.dtype``, so fp16/fp32 inputs accumulated the weighted sums in low
    precision and fault-free data failed the default detection tolerances.
    Checksums must always be accumulated in float64.
    """

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_encoders_return_float64(self, rng, dtype):
        m = rng.normal(size=(32, 24)).astype(dtype)
        assert encode_column_checksums(m).dtype == np.float64
        assert encode_row_checksums(m).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_encoding_matches_float64_reference(self, rng, dtype):
        m = rng.normal(size=(64, 48)).astype(dtype)
        reference = encode_column_checksums(m.astype(np.float64))
        assert np.allclose(encode_column_checksums(m), reference, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_fault_free_low_precision_matrix_is_clean(self, rng, dtype):
        # The headline regression: checking an fp16/fp32 matrix against its
        # own freshly-encoded checksums must produce ZERO detections at the
        # default (float64) thresholds.
        from repro.core.eec_abft import check_columns, check_rows
        from repro.core.thresholds import ABFTThresholds

        m = rng.normal(size=(4, 64, 48)).astype(dtype)
        col_report = check_columns(m, encode_column_checksums(m), ABFTThresholds())
        row_report = check_rows(m, encode_row_checksums(m), ABFTThresholds())
        assert col_report.clean and col_report.num_aborted == 0
        assert row_report.clean and row_report.num_aborted == 0

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_fault_free_low_precision_gemm_is_clean(self, rng, dtype):
        # Checksums encoded from fp16/fp32 operands and carried through the
        # GEMM must agree with the (exactly computed) product at the default
        # thresholds: the carried checksum and the product see the same
        # float64 arithmetic once encoding accumulates in float64.
        from repro.core.eec_abft import check_columns
        from repro.core.thresholds import ABFTThresholds

        a = rng.normal(size=(2, 32, 24)).astype(dtype)
        b = rng.normal(size=(24, 16)).astype(dtype)
        product = np.matmul(a.astype(np.float64), b.astype(np.float64))
        carried = update_column_checksums_through_gemm(encode_column_checksums(a), b)
        report = check_columns(product, carried, ABFTThresholds())
        assert report.clean

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_low_precision_error_still_detected_and_corrected(self, rng, dtype):
        from repro.core.eec_abft import check_columns
        from repro.core.thresholds import ABFTThresholds

        m = rng.normal(size=(32, 16)).astype(dtype)
        cs = encode_column_checksums(m)
        ref = m.copy()
        m[7, 3] = np.inf
        report = check_columns(m, cs, ABFTThresholds())
        assert report.num_detected == 1
        assert report.num_corrected == 1
        assert np.allclose(m, ref, rtol=1e-2, atol=1e-3)

    def test_per_head_weight_encoding_accumulates_in_float64(self, rng):
        w = rng.normal(size=(32, 16)).astype(np.float16)
        encoded = encode_per_head_row_checksums_of_weight(w, num_heads=4)
        reference = encode_per_head_row_checksums_of_weight(
            w.astype(np.float64), num_heads=4
        )
        assert encoded.dtype == np.float64
        assert np.allclose(encoded, reference, rtol=1e-12, atol=1e-12)

    def test_recompute_sums_accumulate_in_float64(self, rng):
        m = rng.normal(size=(48, 32)).astype(np.float16)
        unweighted, weighted = recompute_column_sums(m)
        ref_u, ref_w = recompute_column_sums(m.astype(np.float64))
        assert unweighted.dtype == np.float64 and weighted.dtype == np.float64
        assert np.allclose(unweighted, ref_u, rtol=1e-12, atol=1e-12)
        assert np.allclose(weighted, ref_w, rtol=1e-12, atol=1e-12)

    def test_bias_adjust_promotes_to_float64(self, rng):
        col = encode_column_checksums(rng.normal(size=(8, 6)).astype(np.float32))
        col = col.astype(np.float32)
        adjusted = adjust_column_checksums_for_bias(col, rng.normal(size=6), num_rows=8)
        assert adjusted.dtype == np.float64
