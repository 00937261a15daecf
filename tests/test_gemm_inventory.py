"""The checksum GEMMs the checkers execute are the inventory's.

``repro.core.sections`` lists every protected GEMM and checksum op once,
with its shape; the cost models and dispatch tables are derived from that
list.  Here a counting stand-in for ``np.matmul`` / ``np.einsum`` replaces
NumPy inside the checker modules and the encode helpers they call, and one
train-phase forward of a tiny model must execute, per layer, exactly the
inventory's encode + carry FLOPs: on a cold visit and on a steady-state one,
for both protection scopes and both checker backends.  Call by call, too:
each checksum op is one matmul or einsum of its FLOPs, except that the fused
engine runs the siblings as one launch.  The per-GEMM reference re-encodes
weights on every visit, so its steady visit is a cold one.  A fault-free
forward's verifications stop at the clean screen, which runs no matmul or
einsum, so only the checksum chain is counted.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.core.attention_checker
import repro.core.checksums
import repro.core.engine
from repro.core import ATTNChecker, ATTNCheckerConfig, sections_for_scope
from repro.core.sections import gemm_geometry
from repro.data import SyntheticMRPC
from repro.models import build_model

BATCH = 2


class CountingNumpy:
    """NumPy, with the FLOPs of every ``matmul`` and ``einsum`` recorded."""

    def __init__(self) -> None:
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        out = np.matmul(a, b, **kwargs)
        self.calls.append(2 * out.size * np.shape(a)[-1])
        return out

    def einsum(self, subscripts, *operands, **kwargs):
        # Two FLOPs per point of the full index space of the contraction.
        sizes, ellipsis = {}, ()
        for term, operand in zip(subscripts.split("->")[0].split(","), operands):
            shape = np.shape(operand)
            pre, _, post = term.partition("...")
            sizes.update(zip(pre, shape[:len(pre)]))
            sizes.update(zip(post, shape[len(shape) - len(post):]))
            if "..." in term:
                ellipsis = np.broadcast_shapes(ellipsis, shape[len(pre):len(shape) - len(post)])
        self.calls.append(2 * math.prod(sizes.values()) * math.prod(ellipsis))
        return np.einsum(subscripts, *operands, **kwargs)


@pytest.fixture
def counting_numpy(monkeypatch):
    counter = CountingNumpy()
    for module in (repro.core.engine, repro.core.attention_checker, repro.core.checksums):
        monkeypatch.setattr(module, "np", counter)
    return counter


def inventory_calls(config, scope: str, steady_state: bool, fused: bool) -> list:
    """FLOPs of each checksum launch of one train-phase visit of one layer."""
    geometry = gemm_geometry(config, BATCH)
    calls = []
    for section in sections_for_scope(scope).values():
        ops = section.checksum_ops("train", steady_state)
        calls += [op.flops(geometry) for op in ops if not (fused and op.sibling)]
        if fused and any(op.sibling for op in ops):
            calls.append(sum(op.flops(geometry) for op in ops if op.sibling))
    return calls


def inventory_flops(config, scope: str, steady_state: bool) -> int:
    """Encode + carry FLOPs of one train-phase visit of one layer."""
    return sum(inventory_calls(config, scope, steady_state, fused=False))


def test_inventory_matches_the_recorded_probe():
    # bert-base tiny, B=2, S=16, measured before the inventory existed.
    config = build_model("bert-base", size="tiny").config
    assert inventory_flops(config, "attention", False) == 130048
    assert inventory_flops(config, "attention+ffn", False) == 271360
    assert inventory_flops(config, "attention", True) == 120832
    assert inventory_flops(config, "attention+ffn", True) == 225280


@pytest.mark.parametrize("backend", ["fused", "per_gemm"])
@pytest.mark.parametrize("scope", ["attention", "attention+ffn"])
def test_executed_checksum_flops_equal_the_inventory(counting_numpy, backend, scope):
    model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
    data = SyntheticMRPC(num_examples=16, max_seq_len=model.config.max_seq_len,
                         vocab_size=model.config.vocab_size)
    batch = dict(data.encode(range(BATCH)))
    checker = ATTNChecker(ATTNCheckerConfig(backend=backend, protect_scope=scope))
    model.set_attention_hooks(checker)
    model.eval()
    layers = model.config.num_layers

    fused = backend == "fused"
    for steady_state in (False, fused):  # a cold visit of every layer, then a steady one
        start = len(counting_numpy.calls)
        model(batch["input_ids"], attention_mask=batch["attention_mask"])
        executed = counting_numpy.calls[start:]
        expected = layers * inventory_calls(model.config, scope, steady_state, fused)
        assert sorted(executed) == sorted(expected)
        assert sum(executed) == layers * inventory_flops(model.config, scope, steady_state)
    model.set_attention_hooks(None)
    assert checker.stats.total_detections == 0
