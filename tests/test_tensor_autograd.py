"""Unit tests for the reverse-mode autograd engine."""

import gc
import threading

import numpy as np
import pytest

from repro.models import build_model
from repro.serving import RequestGenerator, ServingEngine
from repro.tensor import autograd as ag
from repro.tensor.autograd import Tensor
from repro.training import Trainer


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def numerical_grad(fn, tensor, index, eps=1e-6):
    """Central-difference numerical gradient of a scalar-valued fn."""
    original = tensor.data[index]
    tensor.data[index] = original + eps
    plus = fn()
    tensor.data[index] = original - eps
    minus = fn()
    tensor.data[index] = original
    return (plus - minus) / (2 * eps)


class TestTensorBasics:
    def test_wraps_and_casts_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.floating)

    def test_shape_and_size(self, rng):
        t = Tensor(rng.normal(size=(2, 3)))
        assert t.shape == (2, 3) and t.size == 6 and t.ndim == 2

    def test_detach_cuts_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad

    def test_backward_shape_mismatch_raises(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = a * 2.0
        with pytest.raises(ValueError):
            b.backward(np.ones((4,)))

    def test_gradient_accumulates(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * 1.0).sum().backward()
        (a * 1.0).sum().backward()
        assert np.allclose(a.grad, 2.0)

    def test_zero_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * 1.0).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestArithmeticGradients:
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_ops_numerical(self, rng, op):
        a = Tensor(rng.normal(size=(3, 4)) + 2.0, requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)) + 2.0, requires_grad=True)
        func = getattr(ag, op)

        def loss_fn():
            return float(func(a, b).data.sum())

        out = func(a, b)
        out.backward(np.ones_like(out.data))
        idx = (1, 2)
        assert a.grad[idx] == pytest.approx(numerical_grad(loss_fn, a, idx), rel=1e-4, abs=1e-6)
        assert b.grad[idx] == pytest.approx(numerical_grad(loss_fn, b, idx), rel=1e-4, abs=1e-6)

    def test_broadcast_bias_gradient(self, rng):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        bias = Tensor(rng.normal(size=(5,)), requires_grad=True)
        out = ag.add(x, bias)
        out.backward(np.ones_like(out.data))
        assert bias.grad.shape == (5,)
        assert np.allclose(bias.grad, 4.0)

    def test_neg_and_rsub(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = (1.0 - a) + (-a)
        out.sum().backward()
        assert np.allclose(a.grad, -2.0)

    def test_operator_overloads_match_functions(self, rng):
        a = Tensor(rng.normal(size=(2, 2)))
        b = Tensor(rng.normal(size=(2, 2)))
        assert np.allclose((a + b).data, ag.add(a, b).data)
        assert np.allclose((a * b).data, ag.mul(a, b).data)
        assert np.allclose((a - b).data, ag.sub(a, b).data)
        assert np.allclose((a / (b + 10.0)).data, ag.div(a, ag.add(b, 10.0)).data)
        assert np.allclose((a @ b).data, ag.matmul(a, b).data)


class TestMatmul:
    def test_batched_gradients_numerical(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def loss_fn():
            return float((ag.matmul(a, b).data ** 2).sum())

        out = ag.matmul(a, b)
        (out * out).sum().backward()
        for tensor, idx in [(a, (1, 2, 3)), (b, (2, 4))]:
            assert tensor.grad[idx] == pytest.approx(numerical_grad(loss_fn, tensor, idx), rel=1e-4, abs=1e-6)

    def test_forward_hook_modifies_output_only(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        captured = {}

        def hook(out):
            captured["raw"] = out.copy()
            out[0, 0] = 99.0
            return out

        out = ag.matmul(a, b, forward_hook=hook)
        assert out.data[0, 0] == 99.0
        # Backward gradients are computed from the inputs, unaffected by the hook.
        out.sum().backward()
        expected_grad_a = np.ones((3, 2)) @ b.data.T
        assert np.allclose(a.grad, expected_grad_a)

    def test_name_is_recorded(self, rng):
        out = ag.matmul(Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(2, 2))), name="AS")
        assert out.name == "AS"


class TestSoftmaxAndActivations:
    @pytest.mark.parametrize("fn", [ag.softmax, ag.log_softmax, ag.gelu, ag.tanh])
    def test_gradients_numerical(self, rng, fn):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        weights = rng.normal(size=(3, 5))

        def loss_fn():
            return float((fn(Tensor(x.data)).data * weights).sum())

        out = fn(x)
        out.backward(weights)
        idx = (2, 3)
        assert x.grad[idx] == pytest.approx(numerical_grad(loss_fn, x, idx), rel=2e-3, abs=1e-6)


class TestLayerNormDropoutEmbedding:
    def test_layer_norm_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        gamma = Tensor(np.ones(6), requires_grad=True)
        beta = Tensor(np.zeros(6), requires_grad=True)
        weights = rng.normal(size=(2, 6))

        def loss_fn():
            return float((ag.layer_norm(Tensor(x.data), Tensor(gamma.data), Tensor(beta.data)).data * weights).sum())

        ag.layer_norm(x, gamma, beta).backward(weights)
        idx = (1, 3)
        assert x.grad[idx] == pytest.approx(numerical_grad(loss_fn, x, idx), rel=2e-3, abs=1e-6)
        assert gamma.grad[2] == pytest.approx(numerical_grad(loss_fn, gamma, (2,)), rel=2e-3, abs=1e-6)

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        out = ag.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_train_masks_and_scales(self, rng):
        x = Tensor(np.ones((100, 100)), requires_grad=True)
        out = ag.dropout(x, 0.5, rng, training=True)
        unique = set(np.unique(out.data))
        assert unique.issubset({0.0, 2.0})
        out.sum().backward()
        assert set(np.unique(x.grad)).issubset({0.0, 2.0})

    def test_embedding_gradient_scatters(self, rng):
        weight = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
        indices = np.array([[1, 1, 3]])
        out = ag.embedding(weight, indices)
        out.sum().backward()
        assert np.allclose(weight.grad[1], 2.0)
        assert np.allclose(weight.grad[3], 1.0)
        assert np.allclose(weight.grad[0], 0.0)


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        out = ag.reshape(x, (3, 4))
        out.backward(np.ones((3, 4)))
        assert x.grad.shape == (2, 6)
        assert np.allclose(x.grad, 1.0)

    def test_transpose_gradient_permutes_back(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = ag.transpose(x, (2, 0, 1))
        grad = rng.normal(size=(4, 2, 3))
        out.backward(grad)
        assert np.allclose(x.grad, np.transpose(grad, (1, 2, 0)))

    def test_split_merge_heads_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
        out = ag.merge_heads(ag.split_heads(x, 4))
        assert np.allclose(out.data, x.data)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_split_heads_invalid_divisor_raises(self, rng):
        with pytest.raises(ValueError):
            ag.split_heads(Tensor(rng.normal(size=(1, 2, 7))), 4)


class TestReductionsAndLoss:
    def test_sum_axis_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = ag.sum(x, axis=0)
        out.backward(np.arange(4.0))
        assert np.allclose(x.grad, np.tile(np.arange(4.0), (3, 1)))

    def test_mean_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        ag.mean(x).backward()
        assert np.allclose(x.grad, 0.1)

    def test_cross_entropy_gradient_numerical(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = np.array([0, 1, 2, 1])

        def loss_fn():
            return float(ag.cross_entropy_loss(Tensor(logits.data), labels).data)

        ag.cross_entropy_loss(logits, labels).backward()
        idx = (2, 2)
        assert logits.grad[idx] == pytest.approx(numerical_grad(loss_fn, logits, idx), rel=1e-4, abs=1e-7)

    def test_loss_decreases_under_gradient_descent(self, rng):
        logits = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        labels = rng.integers(0, 2, size=8)
        losses = []
        for _ in range(20):
            logits.zero_grad()
            loss = ag.cross_entropy_loss(logits, labels)
            losses.append(float(loss.data))
            loss.backward()
            logits.data = logits.data - 1.0 * logits.grad
        assert losses[-1] < losses[0]

    def test_diamond_graph_accumulates_through_shared_node(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        shared = x * 2.0
        out = (shared * 3.0 + shared * 4.0).sum()
        out.backward()
        assert np.allclose(x.grad, 2.0 * (3.0 + 4.0))


class TestBackwardLeavesNoCycle:
    def test_graph_is_freed_without_the_cycle_collector(self, rng):
        # A recorded graph lives until its loss is dropped, not until the
        # cyclic garbage collector happens to run (peak memory of training).
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            loss = ag.softmax(ag.matmul(a, ag.transpose(a, (1, 0)))).sum()
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert a.grad is not None


class TestPostAccumulateGradHooks:
    def test_hook_fires_once_per_backward_with_final_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        seen = []
        a.register_post_accumulate_grad_hook(
            lambda t: seen.append(np.array(t.grad))
        )
        # Diamond graph: the leaf accumulates from two paths but the hook
        # must observe only the fully-accumulated gradient, exactly once.
        shared = a * 2.0
        (shared * 3.0 + shared * 4.0).sum().backward()
        assert len(seen) == 1
        assert np.allclose(seen[0], 14.0)

    def test_hook_fires_each_backward_call(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        count = [0]
        a.register_post_accumulate_grad_hook(lambda t: count.__setitem__(0, count[0] + 1))
        (a * 1.0).sum().backward()
        (a * 1.0).sum().backward()
        assert count[0] == 2

    def test_non_leaf_registration_rejected(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = a * 2.0
        with pytest.raises(ValueError, match="leaf"):
            b.register_post_accumulate_grad_hook(lambda t: None)

    def test_handle_remove_is_idempotent(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        fired = []
        handle = a.register_post_accumulate_grad_hook(lambda t: fired.append(1))
        handle.remove()
        handle.remove()
        (a * 1.0).sum().backward()
        assert fired == []

    def test_hooks_fire_before_backward_returns(self, rng):
        # The overlap machinery relies on hooks running inside backward so a
        # reduction can launch while later-layer grads are still propagating.
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        order = []
        a.register_post_accumulate_grad_hook(lambda t: order.append("a"))
        b.register_post_accumulate_grad_hook(lambda t: order.append("b"))
        (a * 2.0 + b * 3.0).sum().backward()
        assert sorted(order) == ["a", "b"]
        assert a.grad is not None and b.grad is not None


def records_graph(tensor):
    return tensor._backward_fn is not None


class TestNoGrad:
    """``no_grad``: results record no parents and no closure, keep their
    values bit for bit, and the switch is per thread and restoring."""

    def test_results_have_no_parents_and_no_closure(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with ag.no_grad():
            out = ag.softmax(ag.gelu(ag.matmul(a, b) + 1.0) * 2.0)
            total = ag.transpose(out, (1, 0)).sum()
        for result in (out, total):
            assert result._parents == () and result._backward_fn is None
            assert not result.requires_grad
        assert records_graph(ag.matmul(a, b))

    @staticmethod
    def _generate(model, ids, mask, steps):
        """Prefill ``ids`` and greedily decode ``steps`` tokens."""
        caches = model.new_kv_caches(ids.shape[0], max_len=ids.shape[1] + steps)
        hidden = model.prefill(ids, mask[:, : ids.shape[1]], caches)
        results = [hidden, model.lm_logits(hidden)]
        for _ in range(steps):
            next_ids = np.argmax(results[-1].data[:, -1, :], axis=-1)[:, None]
            hidden = model.decode_step(next_ids, caches, attention_mask=mask)
            results += [hidden, model.lm_logits(hidden)]
        return results

    def test_gpt2_prefill_and_decode_are_bit_identical(self):
        model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
        model.eval()
        ids = np.random.default_rng(1).integers(0, model.config.vocab_size, size=(3, 6))
        mask = np.ones((3, 10))
        mask[0, :2] = 0.0  # a left-padded prompt
        recorded = self._generate(model, ids, mask, steps=4)
        assert all(records_graph(t) for t in recorded)
        with ag.no_grad():
            served = self._generate(model, ids, mask, steps=4)
        assert not any(t._parents or records_graph(t) for t in served)
        for with_tape, without in zip(recorded, served):
            assert without.data.tobytes() == with_tape.data.tobytes()

    def test_a_thread_started_inside_still_records_and_backpropagates(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        seen = {}

        def worker():
            loss = (a * a).sum()
            seen["records"] = records_graph(loss)
            loss.backward()

        with ag.no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert not records_graph(a * a)
        assert seen["records"]
        assert np.array_equal(a.grad, 2.0 * a.data)

    def test_restores_the_previous_state_when_nested_and_on_raise(self, rng):
        a = Tensor(rng.normal(size=(2,)), requires_grad=True)
        with ag.no_grad():
            with ag.no_grad():
                assert not records_graph(a * 1.0)
            assert not records_graph(a * 1.0)
            with pytest.raises(KeyError):
                with ag.no_grad():
                    raise KeyError("inner")
            assert not records_graph(a * 1.0)
        assert records_graph(a * 1.0)
        with pytest.raises(RuntimeError):
            with ag.no_grad():
                raise RuntimeError("body failed")
        assert records_graph(a * 1.0)

    def test_trainer_step_after_serving_produces_every_gradient(self):
        model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
        requests = RequestGenerator(
            vocab_size=model.config.vocab_size, prompt_len_range=(3, 6),
            new_tokens_range=(2, 4), seed=2,
        ).generate(3)
        ServingEngine(model).run(requests)
        trainer = Trainer(model)
        batch = {
            "input_ids": np.random.default_rng(3).integers(0, model.config.vocab_size, (2, 8)),
            "attention_mask": np.ones((2, 8)),
            "labels": np.array([0, 1]),
        }
        trainer.train_step(batch)
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert missing == []
