"""Unit tests for the pure NumPy kernels in repro.tensor.ops."""

import math

import numpy as np
import pytest

from repro.tensor import ops


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestBatchedMatmul:
    def test_matches_numpy(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(5, 6))
        assert np.allclose(ops.batched_matmul(a, b), a @ b)

    def test_backward_shapes(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        grad = rng.normal(size=(2, 3, 5))
        ga, gb = ops.matmul_backward(grad, a, b)
        assert ga.shape == a.shape and gb.shape == b.shape

    def test_backward_values_against_numerical(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        grad = np.ones((3, 2))
        ga, gb = ops.matmul_backward(grad, a, b)
        eps = 1e-6
        idx = (1, 2)
        a_pert = a.copy()
        a_pert[idx] += eps
        numerical = (np.sum(a_pert @ b) - np.sum(a @ b)) / eps
        assert ga[idx] == pytest.approx(numerical, rel=1e-4)


class TestUnbroadcast:
    def test_no_broadcast_is_identity(self, rng):
        g = rng.normal(size=(3, 4))
        assert np.array_equal(ops.unbroadcast(g, (3, 4)), g)

    def test_sums_leading_axes(self, rng):
        g = rng.normal(size=(5, 3, 4))
        out = ops.unbroadcast(g, (3, 4))
        assert np.allclose(out, g.sum(axis=0))

    def test_sums_size_one_axes(self, rng):
        g = rng.normal(size=(3, 4))
        out = ops.unbroadcast(g, (1, 4))
        assert out.shape == (1, 4)
        assert np.allclose(out, g.sum(axis=0, keepdims=True))

    def test_bias_shape(self, rng):
        g = rng.normal(size=(2, 3, 4))
        out = ops.unbroadcast(g, (4,))
        assert out.shape == (4,)
        assert np.allclose(out, g.sum(axis=(0, 1)))


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(4, 7))
        assert np.allclose(ops.softmax(x).sum(axis=-1), 1.0)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        assert np.allclose(ops.softmax(x), ops.softmax(x + 100.0))

    def test_large_values_stable(self):
        x = np.array([[1000.0, 1000.0]])
        out = ops.softmax(x)
        assert np.allclose(out, 0.5)

    def test_inf_input_produces_nan_row(self):
        # +inf in a row makes the shifted exponent inf - inf = nan somewhere,
        # which is the propagation behaviour Table 2 documents (1R-NaN in AP).
        x = np.array([[1.0, np.inf, 2.0]])
        out = ops.softmax(x)
        assert np.isnan(out).any()

    def test_backward_matches_numerical(self, rng):
        x = rng.normal(size=(2, 5))
        out = ops.softmax(x)
        grad_out = rng.normal(size=(2, 5))
        analytic = ops.softmax_backward(grad_out, out)
        eps = 1e-6
        idx = (1, 3)
        x_pert = x.copy()
        x_pert[idx] += eps
        numerical = np.sum(grad_out * (ops.softmax(x_pert) - out)) / eps
        assert analytic[idx] == pytest.approx(numerical, rel=1e-3, abs=1e-6)


class TestLogSoftmax:
    def test_exp_matches_softmax(self, rng):
        x = rng.normal(size=(3, 6))
        assert np.allclose(np.exp(ops.log_softmax(x)), ops.softmax(x))

    def test_backward_matches_numerical(self, rng):
        x = rng.normal(size=(2, 4))
        out = ops.log_softmax(x)
        grad_out = rng.normal(size=(2, 4))
        analytic = ops.log_softmax_backward(grad_out, out)
        eps = 1e-6
        idx = (0, 2)
        x_pert = x.copy()
        x_pert[idx] += eps
        numerical = np.sum(grad_out * (ops.log_softmax(x_pert) - out)) / eps
        assert analytic[idx] == pytest.approx(numerical, rel=1e-3, abs=1e-6)


class TestActivations:
    def test_gelu_known_values(self):
        assert ops.gelu(np.array(0.0))[0] == pytest.approx(0.0)
        assert float(ops.gelu(np.array(10.0))[0]) == pytest.approx(10.0, rel=1e-3)
        assert float(ops.gelu(np.array(-10.0))[0]) == pytest.approx(0.0, abs=1e-3)

    def test_gelu_backward_numerical(self, rng):
        x = rng.normal(size=7)
        grad = np.ones(7)
        out, t = ops.gelu(x)
        analytic = ops.gelu_backward(grad, x, t)
        eps = 1e-6
        numerical = (ops.gelu(x + eps)[0] - out) / eps
        assert np.allclose(analytic, numerical, rtol=1e-3, atol=1e-5)

    def test_tanh_backward(self, rng):
        x = rng.normal(size=5)
        out = ops.tanh(x)
        eps = 1e-6
        numerical = (ops.tanh(x + eps) - out) / eps
        assert np.allclose(ops.tanh_backward(np.ones(5), out), numerical, rtol=1e-3, atol=1e-6)


_GELU_C = math.sqrt(2.0 / math.pi)
_DBL_MAX = np.finfo(np.float64).max


def _gelu_pow(grad, x):
    """The historical GELU pair, cube by libm ``pow``: ``(out, dx)``."""
    t = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    du_dx = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * x * (1.0 + t), grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du_dx)


def _gelu_mul(grad, x):
    """The same pair with the cube and squares multiplied out."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    du_dx = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    return 0.5 * x * (1.0 + t), grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du_dx)


def _gelu_kernels(grad, x):
    out, t = ops.gelu(x)
    return out, ops.gelu_backward(grad, x, t)


def _assert_bits_equal(actual, expected):
    """Same dtype and values, NaN where NaN, and the same sign on zeros."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)
    finite = ~np.isnan(expected)
    np.testing.assert_array_equal(np.signbit(actual[finite]), np.signbit(expected[finite]))


def _special_values(dtype):
    """Signed zeros, units, saturation, INF/NaN, overflow edges, subnormals."""
    fi = np.finfo(dtype)
    edges = [np.sqrt(fi.max) * 1.5, np.cbrt(fi.max) * 1.5, fi.max]  # x*x, x*x*x, x overflow
    values = [0.0, 1.0, 30.0, np.inf, 5e101, 1e300, _DBL_MAX, *edges, 5e-324, fi.smallest_subnormal]
    with np.errstate(over="ignore"):
        x = np.array(values, dtype=np.float64).astype(dtype)
    return np.concatenate([x, -x, [np.nan]]).astype(dtype)


class TestGeluKernel:
    """GELU multiplies its cube out instead of calling libm ``pow``."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_special_values_bit_equal_to_pow(self, dtype):
        # INF/NaN reaching the FFN must propagate as before (Table 2).
        x = _special_values(dtype)
        grad = np.ones_like(x)
        with np.errstate(all="ignore"):
            actual, expected = _gelu_kernels(grad, x), _gelu_pow(grad, x)
        for a, e in zip(actual, expected):
            _assert_bits_equal(a, e)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_bit_equal_to_multiplied_out_formula(self, rng, dtype):
        # The in-place temporaries keep the plain formula's rounding order.
        x = rng.normal(0.0, 3.0, size=(64, 257)).astype(dtype)
        grad = rng.normal(size=x.shape).astype(dtype)
        for a, e in zip(_gelu_kernels(grad, x), _gelu_mul(grad, x)):
            _assert_bits_equal(a, e)

    def test_close_to_pow_on_gaussian_samples(self, rng):
        # Absolute tolerance only: near gelu(x) = 0 the relative error of
        # either formula is large.  The backward gets 2e-15: 1 - t*t cancels
        # for |x| around 4, so a last-bit change in tanh grows ~10x there
        # (worst seen over 24 x 2**20 samples: 1.6e-15).
        x = rng.normal(0.0, 3.0, size=2**20)
        grad = np.ones_like(x)
        (out, dx), (out_pow, dx_pow) = _gelu_kernels(grad, x), _gelu_pow(grad, x)
        np.testing.assert_allclose(out, out_pow, rtol=0, atol=1e-15)
        np.testing.assert_allclose(dx, dx_pow, rtol=0, atol=2e-15)

    def test_inputs_left_unchanged(self, rng):
        x = rng.normal(size=(4, 6))[:, ::2]  # a strided view, too
        grad = rng.normal(size=x.shape)
        x0, grad0 = x.copy(), grad.copy()
        out, t = ops.gelu(x)
        t0 = t.copy()
        ops.gelu_backward(grad, x, t)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(grad, grad0)
        np.testing.assert_array_equal(t, t0)
        assert not np.shares_memory(out, x) and not np.shares_memory(t, x)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_dim(self, dtype):
        x, grad = np.array(0.7, dtype=dtype), np.array(1.5, dtype=dtype)
        out, t = ops.gelu(x)
        assert np.ndim(out) == 0 and np.ndim(t) == 0
        for a, e in zip((out, ops.gelu_backward(grad, x, t)), _gelu_mul(grad, x)):
            _assert_bits_equal(a, e)


class TestLayerNorm:
    def test_normalises_last_axis(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 8))
        out, _, _ = ops.layer_norm(x, np.ones(8), np.zeros(8))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_applied(self, rng):
        x = rng.normal(size=(2, 4))
        gamma = np.full(4, 2.0)
        beta = np.full(4, 1.0)
        out, x_hat, _ = ops.layer_norm(x, gamma, beta)
        assert np.allclose(out, 2.0 * x_hat + 1.0)

    def test_backward_matches_numerical(self, rng):
        x = rng.normal(size=(3, 6))
        gamma = rng.normal(size=6)
        beta = rng.normal(size=6)
        grad = rng.normal(size=(3, 6))
        out, x_hat, inv_std = ops.layer_norm(x, gamma, beta)
        dx, dgamma, dbeta = ops.layer_norm_backward(grad, x_hat, inv_std, gamma)
        eps = 1e-6
        idx = (1, 4)
        x_pert = x.copy()
        x_pert[idx] += eps
        out_pert, _, _ = ops.layer_norm(x_pert, gamma, beta)
        numerical = np.sum(grad * (out_pert - out)) / eps
        assert dx[idx] == pytest.approx(numerical, rel=1e-3, abs=1e-6)
        g_pert = gamma.copy()
        g_pert[2] += eps
        out_pert, _, _ = ops.layer_norm(x, g_pert, beta)
        numerical = np.sum(grad * (out_pert - out)) / eps
        assert dgamma[2] == pytest.approx(numerical, rel=1e-3, abs=1e-6)
        assert np.allclose(dbeta, grad.sum(axis=0))


class TestDropoutMask:
    def test_p_zero_all_ones(self, rng):
        assert np.all(ops.dropout_mask((10, 10), 0.0, rng) == 1.0)

    def test_scaling_preserves_expectation(self, rng):
        mask = ops.dropout_mask((200, 200), 0.3, rng)
        assert mask.mean() == pytest.approx(1.0, rel=0.05)

    def test_values_are_zero_or_scaled(self, rng):
        mask = ops.dropout_mask((50, 50), 0.5, rng)
        assert set(np.unique(mask)).issubset({0.0, 2.0})

    def test_invalid_p_raises(self, rng):
        with pytest.raises(ValueError):
            ops.dropout_mask((2, 2), 1.0, rng)
        with pytest.raises(ValueError):
            ops.dropout_mask((2, 2), -0.1, rng)


class TestLossHelpers:
    def test_cross_entropy_uniform(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        assert ops.cross_entropy(logits, labels) == pytest.approx(np.log(3))

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        labels = np.array([0, 1])
        assert ops.cross_entropy(logits, labels) == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_nan_propagates(self):
        logits = np.array([[np.nan, 0.0]])
        assert np.isnan(ops.cross_entropy(logits, np.array([0])))

    def test_cross_entropy_backward_numerical(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        grad = ops.cross_entropy_backward(logits, labels)
        eps = 1e-6
        idx = (2, 1)
        pert = logits.copy()
        pert[idx] += eps
        numerical = (ops.cross_entropy(pert, labels) - ops.cross_entropy(logits, labels)) / eps
        assert grad[idx] == pytest.approx(numerical, rel=1e-4, abs=1e-8)
