"""Unit tests for the Module / Parameter system."""

import numpy as np
import pytest

from repro.nn.layers import LayerNorm, Linear
from repro.nn.module import Module, ModuleList, Parameter


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))
        self.norm = LayerNorm(8)

    def forward(self, x):
        return self.fc2(self.norm(self.fc1(x)))


class TestRegistration:
    def test_parameters_registered_via_setattr(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names and "norm.weight" in names

    def test_num_parameters(self):
        net = TinyNet()
        expected = 4 * 8 + 8 + 8 * 2 + 2 + 8 + 8
        assert net.num_parameters() == expected

    def test_named_modules_includes_children(self):
        net = TinyNet()
        module_names = [name for name, _ in net.named_modules()]
        assert "" in module_names and "fc1" in module_names and "norm" in module_names

    def test_parameter_is_tensor_with_grad(self):
        p = Parameter(np.zeros((2, 2)))
        assert p.requires_grad


class TestTrainEval:
    def test_train_flag_propagates(self):
        net = TinyNet()
        net.eval()
        assert not net.training and not net.fc1.training
        net.train()
        assert net.training and net.norm.training


class TestGradients:
    def test_zero_grad_clears_all(self):
        net = TinyNet()
        from repro.tensor.autograd import Tensor

        out = net(Tensor(np.random.default_rng(0).normal(size=(3, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_roundtrip(self):
        net = TinyNet()
        state = net.state_dict()
        other = TinyNet()
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_state_dict_is_a_copy(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"][:] = 0.0
        assert not np.array_equal(net.fc1.weight.data, state["fc1.weight"])

    def test_strict_load_rejects_missing_keys(self):
        net = TinyNet()
        state = net.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_strict_load_rejects_unexpected_keys(self):
        net = TinyNet()
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_non_strict_load_ignores_extra(self):
        net = TinyNet()
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        net.load_state_dict(state, strict=False)

    def test_shape_mismatch_raises(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_load_copies_and_casts_to_the_parameter_dtype(self):
        net = TinyNet()
        state = {k: v.astype(np.float32) for k, v in TinyNet().state_dict().items()}
        net.load_state_dict(state)
        for name, param in net.named_parameters():
            assert param.dtype == np.float64
            assert np.array_equal(param.data, state[name])
        state["fc1.weight"][:] = 0.0
        assert not np.array_equal(net.fc1.weight.data, state["fc1.weight"])


class TestModuleList:
    def test_indexing_and_len(self):
        layers = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(layers) == 2
        assert isinstance(layers[1], Linear)

    def test_parameters_of_children_are_visible(self):
        layers = ModuleList([Linear(2, 2, bias=False), Linear(2, 2, bias=False)])
        assert len(layers.parameters()) == 2

    def test_iteration(self):
        layers = ModuleList([Linear(2, 2), Linear(2, 3)])
        out_features = [l.out_features for l in layers]
        assert out_features == [2, 3]

    def test_calling_container_raises(self):
        with pytest.raises(RuntimeError):
            ModuleList([Linear(2, 2)])(None)

    def test_append_registers_module(self):
        layers = ModuleList()
        layers.append(Linear(3, 3))
        assert any(name.startswith("0.") for name, _ in layers.named_parameters())
