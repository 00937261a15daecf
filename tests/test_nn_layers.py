"""Unit tests for the standard layers."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Embedding, GELUActivation, LayerNorm, Linear, TanhActivation
from repro.tensor.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        out = layer(Tensor(x))
        assert np.allclose(out.data, x @ layer.weight.data + layer.bias.data)

    def test_weight_orientation_is_in_by_out(self, rng):
        layer = Linear(6, 2, rng=rng)
        assert layer.weight.data.shape == (6, 2)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng=rng, bias=False)
        assert layer.bias is None
        out = layer(Tensor(rng.normal(size=(2, 4))))
        assert out.shape == (2, 3)

    def test_gradients_flow_to_weight_and_bias(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 4))))
        out.sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None
        assert np.allclose(layer.bias.grad, 2.0)

    def test_batched_3d_input(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 3)


class TestLayerNorm:
    def test_output_normalised(self, rng):
        layer = LayerNorm(8)
        x = rng.normal(loc=5, scale=3, size=(4, 8))
        out = layer(Tensor(x))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)

    def test_learnable_affine_changes_output(self, rng):
        layer = LayerNorm(8)
        layer.weight.data = np.full(8, 3.0)
        layer.bias.data = np.full(8, -1.0)
        x = rng.normal(size=(2, 8))
        out = layer(Tensor(x))
        plain = LayerNorm(8)(Tensor(x))
        assert np.allclose(out.data, 3.0 * plain.data - 1.0)

    def test_gradients(self, rng):
        layer = LayerNorm(6)
        out = layer(Tensor(rng.normal(size=(3, 6)), requires_grad=True))
        out.sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = Embedding(20, 8, rng=rng)
        out = emb(np.array([[1, 2, 3], [4, 5, 6]]))
        assert out.shape == (2, 3, 8)

    def test_lookup_matches_rows(self, rng):
        emb = Embedding(10, 4, rng=rng)
        out = emb(np.array([3, 7]))
        assert np.allclose(out.data[0], emb.weight.data[3])
        assert np.allclose(out.data[1], emb.weight.data[7])

    def test_gradient_accumulates_for_repeated_index(self, rng):
        emb = Embedding(10, 4, rng=rng)
        out = emb(np.array([2, 2, 2]))
        out.sum().backward()
        assert np.allclose(emb.weight.grad[2], 3.0)


class TestDropout:
    def test_eval_mode_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        x = Tensor(rng.normal(size=(10, 10)))
        assert np.array_equal(layer(x).data, x.data)

    def test_train_mode_zeroes_elements(self, rng):
        layer = Dropout(0.5, rng=rng)
        out = layer(Tensor(np.ones((50, 50))))
        assert (out.data == 0).any()

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestActivationModules:
    def test_gelu_module(self, rng):
        x = rng.normal(size=(3, 3))
        assert np.allclose(GELUActivation()(Tensor(x)).data, 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3))))

    def test_tanh_module(self):
        out = TanhActivation()(Tensor(np.array([0.0, 100.0])))
        assert out.data[0] == 0.0 and out.data[1] == pytest.approx(1.0)
