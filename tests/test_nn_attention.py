"""Unit tests for the instrumented multi-head attention."""

import numpy as np
import pytest

from repro.nn.attention import (
    ATTENTION_MATRIX_NAMES,
    AttentionHooks,
    AttentionOp,
    ComposedHooks,
    GemmContext,
    MultiHeadAttention,
    RecordingHooks,
)
from repro.tensor.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(3)


@pytest.fixture
def attention(rng):
    return MultiHeadAttention(hidden_size=16, num_heads=4, dropout_p=0.0, rng=rng)


class TestAttentionOp:
    def test_output_matrix_names(self):
        assert AttentionOp.XQ.output_matrix == "Q"
        assert AttentionOp.QK.output_matrix == "AS"
        assert AttentionOp.APV.output_matrix == "CL"
        assert AttentionOp.CLO.output_matrix == "O"

    def test_all_matrices_listed(self):
        assert set(ATTENTION_MATRIX_NAMES) == {"Q", "K", "V", "AS", "AP", "CL", "O"}


class TestForwardShapes:
    def test_output_shape_matches_input(self, attention, rng):
        x = Tensor(rng.normal(size=(2, 6, 16)))
        assert attention(x).shape == (2, 6, 16)

    def test_invalid_head_divisor_raises(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(hidden_size=10, num_heads=3, rng=rng)

    def test_gradients_reach_all_projections(self, attention, rng):
        x = Tensor(rng.normal(size=(2, 6, 16)), requires_grad=True)
        attention(x).sum().backward()
        for proj in (attention.w_q, attention.w_k, attention.w_v, attention.w_o):
            assert proj.weight.grad is not None
        assert x.grad is not None

    def test_attention_output_is_weighted_average_of_values(self, rng):
        # With a single head and uniform scores the context is the mean of V.
        attn = MultiHeadAttention(hidden_size=4, num_heads=1, dropout_p=0.0, rng=rng, bias=False)
        # Force Q and K to zero so all scores are equal -> AP uniform.
        attn.w_q.weight.data[:] = 0.0
        attn.w_k.weight.data[:] = 0.0
        x = rng.normal(size=(1, 5, 4))
        recorder = RecordingHooks()
        attn.set_hooks(recorder)
        attn(Tensor(x))
        matrices = recorder.matrices(0)
        ap = matrices["AP"]
        assert np.allclose(ap, 1.0 / 5)

    def test_recording_hooks_store_copies(self, rng):
        recorder = RecordingHooks()
        data = rng.normal(size=(2, 3))
        recorder.on_matrix("AS", data, layer_index=0, step=1)
        data[:] = 0.0
        assert recorder.matrices(0)["AS"] is not data
        assert np.all(recorder.matrices(0)["AS"] != 0.0)


class TestMasking:
    def test_causal_mask_blocks_future(self, rng):
        attn = MultiHeadAttention(hidden_size=8, num_heads=2, dropout_p=0.0, causal=True, rng=rng)
        recorder = RecordingHooks()
        attn.set_hooks(recorder)
        attn(Tensor(rng.normal(size=(1, 5, 8))))
        ap = recorder.matrices(0)["AP"]
        upper = np.triu(np.ones((5, 5)), k=1).astype(bool)
        assert np.all(ap[0, 0][upper] < 1e-6)

    def test_padding_mask_zeroes_padded_keys(self, rng):
        attn = MultiHeadAttention(hidden_size=8, num_heads=2, dropout_p=0.0, rng=rng)
        recorder = RecordingHooks()
        attn.set_hooks(recorder)
        mask = np.ones((1, 6))
        mask[0, -2:] = 0.0
        attn(Tensor(rng.normal(size=(1, 6, 8))), attention_mask=mask)
        ap = recorder.matrices(0)["AP"]
        assert np.all(ap[..., -2:] < 1e-6)

    def test_local_window_restricts_attention(self, rng):
        attn = MultiHeadAttention(
            hidden_size=8, num_heads=2, dropout_p=0.0, causal=True, local_window=2, rng=rng
        )
        recorder = RecordingHooks()
        attn.set_hooks(recorder)
        attn(Tensor(rng.normal(size=(1, 6, 8))))
        ap = recorder.matrices(0)["AP"]
        # Position 5 may only attend to positions 4 and 5 (window of 2).
        assert np.all(ap[0, 0, 5, :3] < 1e-6)

    def test_build_mask_none_when_not_needed(self, attention):
        assert attention.build_mask(4, None) is None


class TestHooks:
    def test_recording_hooks_capture_all_matrices(self, attention, rng):
        recorder = RecordingHooks()
        attention.set_hooks(recorder)
        attention(Tensor(rng.normal(size=(2, 5, 16))))
        captured = recorder.matrices(0)
        for name in ("Q", "K", "V", "AS", "AP", "CL", "O"):
            assert name in captured

    def test_gemm_context_fields(self, attention, rng):
        seen = []

        class Probe(AttentionHooks):
            def on_gemm_output(self, ctx: GemmContext, out):
                seen.append((ctx.op, ctx.a.shape, ctx.b.shape, out.shape, ctx.num_heads))
                return out

        attention.set_hooks(Probe())
        attention(Tensor(rng.normal(size=(2, 5, 16))))
        ops = [s[0] for s in seen]
        assert ops == [
            AttentionOp.XQ, AttentionOp.XK, AttentionOp.XV,
            AttentionOp.QK, AttentionOp.APV, AttentionOp.CLO,
        ]
        qk = seen[3]
        assert qk[1] == (2, 4, 5, 4) and qk[2] == (2, 4, 4, 5) and qk[3] == (2, 4, 5, 5)

    def test_hook_can_modify_output(self, attention, rng):
        class Corrupt(AttentionHooks):
            def on_gemm_output(self, ctx, out):
                if ctx.op is AttentionOp.CLO:
                    out[...] = 0.0
                return out

        attention.set_hooks(Corrupt())
        out = attention(Tensor(rng.normal(size=(1, 4, 16))))
        # Output equals just the bias of W_O (plus output dropout disabled).
        assert np.allclose(out.data, attention.w_o.bias.data)

    def test_composed_hooks_run_in_order(self, attention, rng):
        order = []

        class A(AttentionHooks):
            def on_gemm_output(self, ctx, out):
                order.append("A")
                return out

        class B(AttentionHooks):
            def on_gemm_output(self, ctx, out):
                order.append("B")
                return out

        attention.set_hooks(ComposedHooks([A(), B()]))
        attention(Tensor(rng.normal(size=(1, 3, 16))))
        assert order[:2] == ["A", "B"]

    def test_start_end_called_once_per_forward(self, attention, rng):
        counts = {"start": 0, "end": 0}

        class Counter(AttentionHooks):
            def on_block_start(self, block, layer_index, step):
                counts["start"] += 1

            def on_block_end(self, block, layer_index, step):
                counts["end"] += 1

        attention.set_hooks(Counter())
        attention(Tensor(rng.normal(size=(1, 3, 16))))
        attention(Tensor(rng.normal(size=(1, 3, 16))))
        assert counts == {"start": 2, "end": 2}

    def test_detaching_hooks_restores_plain_forward(self, attention, rng):
        attention.set_hooks(RecordingHooks())
        attention.set_hooks(None)
        x = Tensor(rng.normal(size=(1, 3, 16)))
        out = attention(x)
        assert out.shape == (1, 3, 16)

    def test_hook_outputs_are_deterministic_given_same_input(self, attention, rng):
        x = rng.normal(size=(1, 4, 16))
        attention.eval()
        rec1, rec2 = RecordingHooks(), RecordingHooks()
        attention.set_hooks(rec1)
        attention(Tensor(x))
        attention.set_hooks(rec2)
        attention(Tensor(x))
        for name in ("Q", "AS", "O"):
            assert np.allclose(rec1.matrices(0)[name], rec2.matrices(0)[name])


class TestMaskCache:
    """Regressions for the bounded, identity-keyed combined-mask cache."""

    def _attn(self, rng):
        return MultiHeadAttention(
            hidden_size=8, num_heads=2, dropout_p=0.0, causal=True, rng=rng
        )

    def test_same_mask_object_is_served_from_cache(self, rng):
        attn = self._attn(rng)
        mask = np.ones((1, 5))
        mask[0, :2] = 0.0
        first = attn.build_mask(5, mask)
        second = attn.build_mask(5, mask)
        assert first is second

    def test_stale_id_entry_is_not_served(self, rng):
        # The cache key includes id(attention_mask); ids are recycled after
        # garbage collection, so a hit must also verify the *stored object*
        # is the caller's mask.  Poison an entry to simulate the collision.
        attn = self._attn(rng)
        old_mask = np.ones((1, 4))
        old_mask[0, 0] = 0.0
        poisoned = attn.build_mask(4, old_mask)
        new_mask = np.ones((1, 4))
        for key, entry in list(attn._combined_mask_cache.items()):
            attn._combined_mask_cache[
                key[:-1] + (id(new_mask),)
            ] = entry
        rebuilt = attn.build_mask(4, new_mask)
        assert rebuilt is not poisoned
        # And the rebuilt mask reflects the new (unpadded) values.
        host = np.asarray(rebuilt)
        assert host[0, 0, -1, :].max() == 0.0

    def test_causal_mask_is_cached_per_geometry(self, rng):
        attn = self._attn(rng)
        first = attn.build_mask(5, None)
        assert attn.build_mask(5, None) is first
        assert attn.build_mask(4, None) is not first
        assert first.shape == (1, 1, 5, 5) and first[0, 0, 0, 1] == -1e9

    def test_cache_is_bounded_fifo(self, rng):
        from repro.nn.attention import _MASK_CACHE_MAX

        attn = self._attn(rng)
        masks = []
        for i in range(_MASK_CACHE_MAX + 4):
            mask = np.ones((1, 5))
            mask[0, : 1 + i % 4] = 0.0
            masks.append(mask)  # keep alive so ids stay distinct
            attn.build_mask(5, mask)
        assert len(attn._combined_mask_cache) <= _MASK_CACHE_MAX


class TestFullyMaskedRows:
    """Fully-masked query rows are zeroed after the softmax (left padding)."""

    def test_fully_masked_query_rows_have_zero_probs(self, rng):
        attn = MultiHeadAttention(
            hidden_size=8, num_heads=2, dropout_p=0.0, causal=True, rng=rng
        )
        recorder = RecordingHooks()
        attn.set_hooks(recorder)
        x = rng.normal(size=(2, 5, 8))
        mask = np.ones((2, 5))
        mask[1, :3] = 0.0  # left padding: rows 0..2 of member 1 see no keys
        attn(Tensor(x), attention_mask=mask)
        ap = recorder.matrices(0)["AP"]
        assert np.array_equal(ap[1, :, :3, :], np.zeros_like(ap[1, :, :3, :]))
        # Live rows are still proper distributions.
        assert np.allclose(ap[1, :, 3:, :].sum(axis=-1), 1.0)
        assert np.allclose(ap[0].sum(axis=-1), 1.0)

    def test_padded_member_does_not_perturb_batch_mates(self, rng):
        attn = MultiHeadAttention(
            hidden_size=8, num_heads=2, dropout_p=0.0, causal=True, rng=rng
        )
        attn.eval()
        x = rng.normal(size=(2, 5, 8))
        mask = np.ones((2, 5))
        mask[1, :4] = 0.0
        batched = attn(Tensor(x), attention_mask=mask).data[0]
        solo = attn(Tensor(x[:1]), attention_mask=np.ones((1, 5))).data[0]
        assert np.allclose(batched, solo, rtol=0.0, atol=1e-15)


class TestKVCachePhases:
    def test_multi_token_forward_on_populated_cache_raises(self, rng):
        # Decode masks no query against a later one, so a chunk of several
        # tokens against a populated cache would attend non-causally.
        from repro.nn.attention import LayerKVCache

        attn = MultiHeadAttention(hidden_size=8, num_heads=2, causal=True, rng=rng)
        cache = LayerKVCache(1, 2, 4, max_len=8)
        attn(Tensor(rng.normal(size=(1, 3, 8))), kv_cache=cache)
        with pytest.raises(ValueError, match="one token at a time"):
            attn(Tensor(rng.normal(size=(1, 2, 8))), kv_cache=cache)
        assert cache.length == 3


class TestDecodeMaskCache:
    """The decode pad mask is built once per mask object and sliced per step."""

    def test_decode_pad_mask_cached_by_identity(self, rng):
        from repro.nn.attention import LayerKVCache

        attn = MultiHeadAttention(
            hidden_size=8, num_heads=2, dropout_p=0.0, causal=True, rng=rng
        )
        attn.eval()
        cache = LayerKVCache(1, 2, 4, max_len=6)
        mask = np.ones((1, 6))
        attn(Tensor(rng.normal(size=(1, 3, 8))), attention_mask=mask[:, :3], kv_cache=cache)
        attn(Tensor(rng.normal(size=(1, 1, 8))), attention_mask=mask, kv_cache=cache)
        first = attn._decode_pad_mask(mask)
        attn(Tensor(rng.normal(size=(1, 1, 8))), attention_mask=mask, kv_cache=cache)
        assert attn._decode_pad_mask(mask) is first
