"""Unit tests for transformer layers and losses."""

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.losses import CrossEntropyLoss
from repro.nn.transformer import FeedForward, TransformerLayer
from repro.nn.attention import MultiHeadAttention, RecordingHooks
from repro.tensor.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestFeedForward:
    def test_shape_preserved(self, rng):
        ffn = FeedForward(8, 32, rng=rng)
        out = ffn(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_gradients_flow(self, rng):
        ffn = FeedForward(8, 16, rng=rng)
        ffn(Tensor(rng.normal(size=(2, 3, 8)))).sum().backward()
        assert all(p.grad is not None for p in ffn.parameters())


class TestTransformerLayer:
    @pytest.mark.parametrize("style", ["post_ln", "pre_ln"])
    def test_forward_shape(self, rng, style):
        layer = TransformerLayer(8, 2, 16, norm_style=style, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 6, 8))))
        assert out.shape == (2, 6, 8)

    def test_invalid_norm_style_raises(self, rng):
        with pytest.raises(ValueError):
            TransformerLayer(8, 2, 16, norm_style="sandwich", rng=rng)

    def test_residual_connection_present_pre_ln(self, rng):
        # Zeroing all sublayer outputs leaves the input unchanged in pre-LN.
        layer = TransformerLayer(8, 2, 16, norm_style="pre_ln", dropout_p=0.0, rng=rng)
        for module in (layer.attention.w_o, layer.ffn.fc_out):
            module.weight.data[:] = 0.0
            module.bias.data[:] = 0.0
        x = rng.normal(size=(1, 4, 8))
        out = layer(Tensor(x))
        assert np.allclose(out.data, x)

    def test_set_attention_hooks_reaches_every_block(self):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
        blocks = [
            m for _, m in model.named_modules()
            if isinstance(m, (MultiHeadAttention, FeedForward))
        ]
        assert len(blocks) == 2 * model.config.num_layers
        recorder = RecordingHooks()
        model.set_attention_hooks(recorder)
        assert all(block.hooks is recorder for block in blocks)
        model(np.array([[3, 4, 5, 6]]))
        for layer in range(model.config.num_layers):
            assert {"AS", "O", "H", "FO"} <= set(recorder.matrices(layer))
        model.set_attention_hooks(None)
        assert all(block.hooks is None for block in blocks)

    def test_gradients_flow_through_both_sublayers(self, rng):
        layer = TransformerLayer(8, 2, 16, rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert layer.attention.w_q.weight.grad is not None
        assert layer.ffn.fc_in.weight.grad is not None

    def test_causal_flag_forwarded(self, rng):
        layer = TransformerLayer(8, 2, 16, causal=True, rng=rng)
        assert layer.attention.causal


class TestCrossEntropyLossModule:
    def test_matches_manual_value(self, rng):
        logits = Tensor(np.zeros((4, 2)))
        loss = CrossEntropyLoss()(logits, np.array([0, 1, 0, 1]))
        assert float(loss.data) == pytest.approx(np.log(2))

    def test_nan_logits_give_nan_loss(self):
        logits = Tensor(np.array([[np.nan, 0.0]]))
        loss = CrossEntropyLoss()(logits, np.array([0]))
        assert np.isnan(float(loss.data))
