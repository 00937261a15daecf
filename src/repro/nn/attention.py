"""Instrumented multi-head attention and the shared hooked-GEMM seam.

This module implements the exact execution flow of Figure 1 in the paper —
six GEMMs plus one softmax::

    Q  = X  x W_Q          (op "xq")
    K  = X  x W_K          (op "xk")
    V  = X  x W_V          (op "xv")
    AS = Q  x K^T          (op "qk",  per head)
    AP = softmax(AS / sqrt(d_k) + mask)
    CL = AP x V            (op "apv", per head)
    O  = CL x W_O          (op "clo")

and exposes every GEMM through the :class:`AttentionHooks` interface.  A hook
receives the GEMM's operands and raw output and may return a modified output.
Two subsystems plug in here:

* the fault injector (:mod:`repro.faults.injector`) corrupts outputs to
  simulate transient hardware faults striking the computation, and
* ATTNChecker (:mod:`repro.core.attention_checker`) maintains checksums,
  detects and corrects the corrupted values at the protection-section
  boundaries of Section 4.4.

:class:`InstrumentedBlock` is the seam both instrumented blocks share:
:class:`MultiHeadAttention` and :class:`repro.nn.FeedForward` route every
GEMM through its one hooked GEMM.  One attention forward serves training,
serving prefill and decode; the phase follows from the KV cache.

Hooks run in registration order, so registering ``[injector, checker]``
reproduces the paper's evaluation setup (fault occurs during the operation,
ABFT repairs it before the value is consumed downstream).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.checksums import update_column_checksums_with_appended_rows
from repro.core.hooks import (
    SECTION_BOUNDARY_OPS,
    AttentionHooks,
    AttentionOp,
    FeedForwardOp,
    GemmContext,
    SectionContext,
)
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.tensor import autograd as ag

__all__ = [
    "AttentionOp",
    "FeedForwardOp",
    "GemmContext",
    "SectionContext",
    "AttentionHooks",
    "ComposedHooks",
    "RecordingHooks",
    "LayerKVCache",
    "INCREMENTAL_SECTIONS",
    "InstrumentedBlock",
    "MultiHeadAttention",
    "ATTENTION_MATRIX_NAMES",
    "SECTION_BOUNDARY_OPS",
    "phase_of",
]

#: All matrices observable during one attention forward pass, in dataflow order.
ATTENTION_MATRIX_NAMES = ("Q", "K", "V", "AS", "AP", "CL", "O")

#: Sections whose input checksums a :class:`LayerKVCache` carries from token
#: to token: ``AS`` in ``cs_x``, ``CL`` in ``cs_v_row``.
INCREMENTAL_SECTIONS = ("AS", "CL")

#: Upper bound on cached additive-mask entries per attention layer.  Serving
#: alternates between a handful of geometries (one prefill shape plus one
#: decode shape per cached length bucket); training reuses a single entry.
_MASK_CACHE_MAX = 8


class LayerKVCache:
    """Preallocated per-layer KV cache with incremental checksum side-state.

    The cache owns ``(B, H, max_len, dh)`` key/value buffers written by slice
    assignment, so a decode append copies one row per head and allocates
    nothing.  ``length`` tracks how many
    positions are populated; :meth:`keys` / :meth:`values` return zero-copy
    views of the populated prefix.

    Checksum side-state: the input checksums of the two sections that carry
    state from token to token (:data:`INCREMENTAL_SECTIONS`), seeded at
    prefill (:meth:`seed_checksums`) and extended per decoded token
    (:meth:`append_checksums`) by whichever checker is attached — exactly
    one at a time:

    ``cs_x`` (section ``AS``)
        ``(B, 2, D)`` float64 — incremental Huang–Abraham column checksums of
        the attention *input* rows seen so far (prompt + decoded tokens).
        Updating them per token is O(1) in the cached length
        (:func:`repro.core.checksums.update_column_checksums_with_appended_rows`),
        which is what lets decode-side protection re-derive the K-side
        checksums without re-encoding the whole cache.
    ``cs_v_row`` (section ``CL``)
        ``(B, H, max_len, 2)`` float64 — per-head row checksums of the cached
        ``V`` rows, one slot per position, written incrementally.

    Both are ``None`` until the first seed; an unprotected serving run never
    allocates them.
    """

    def __init__(self, batch_size: int, num_heads: int, head_dim: int, max_len: int) -> None:
        if max_len <= 0:
            raise ValueError(f"max_len must be positive, got {max_len}")
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.max_len = int(max_len)
        self.length = 0
        shape = (batch_size, num_heads, self.max_len, head_dim)
        self.k = np.zeros(shape)
        self.v = np.zeros(shape)
        self.cs_x = None
        self.cs_v_row = None
        #: Positions covered by cs_x / cs_v_row — append_checksums refuses a
        #: gap: incremental checksums are only sound when every appended
        #: token was folded in.
        self.cs_x_len = 0
        self.cs_v_len = 0

    @property
    def batch_size(self) -> int:
        return int(self.k.shape[0])

    def append(self, k_new, v_new) -> None:
        """Append ``(B, H, t, dh)`` key/value blocks at the populated end."""
        t = int(k_new.shape[-2])
        if self.length + t > self.max_len:
            raise ValueError(
                f"KV cache overflow: {self.length} + {t} > max_len {self.max_len}"
            )
        self.k[:, :, self.length:self.length + t, :] = k_new
        self.v[:, :, self.length:self.length + t, :] = v_new
        self.length += t

    def keys(self):
        """View of the populated key prefix, ``(B, H, length, dh)``."""
        return self.k[:, :, :self.length, :]

    def values(self):
        """View of the populated value prefix, ``(B, H, length, dh)``."""
        return self.v[:, :, :self.length, :]

    def seed_checksums(self, section: str, checksums, rows: int) -> None:
        """Prefill: store ``section``'s input checksums over the ``rows``
        prompt positions — ``(B, 2, D)`` column checksums of the input for
        ``AS``, ``(B, H, rows, 2)`` row checksums of ``V`` for ``CL``.

        Copied into the cache's own float64 buffers, allocated at the first
        seed and kept by :meth:`reset`: decode steps fold new rows into
        ``cs_x`` in place and fill the ``cs_v_row`` slots past the prompt.
        """
        if self.cs_x is None:
            self.cs_x = np.zeros(
                (self.batch_size, 2, self.num_heads * self.head_dim), dtype=np.float64
            )
            self.cs_v_row = np.zeros(
                (self.batch_size, self.num_heads, self.max_len, 2), dtype=np.float64
            )
        if section == "AS":
            self.cs_x[...] = checksums
            self.cs_x_len = rows
        else:
            self.cs_v_row[:, :, :rows, :] = checksums
            self.cs_v_len = rows

    def append_checksums(self, section: str, new, position: int):
        """Decode: extend ``section``'s input checksums by the token at
        ``position`` and return the checksums covering positions
        ``0..position``.

        For ``AS``, ``new`` is the token's ``(B, 1, D)`` input row, folded
        into ``cs_x`` elementwise — O(1) in the cached length.  For ``CL`` it
        is the token's ``(B, H, 1, 2)`` row checksums of ``V``, written into
        slot ``position`` of ``cs_v_row``.
        """
        self._require_contiguous(section, position)
        if section == "AS":
            update_column_checksums_with_appended_rows(self.cs_x, new, position)
            self.cs_x_len = position + 1
            return self.cs_x
        self.cs_v_row[:, :, position:position + 1, :] = new
        self.cs_v_len = position + 1
        return self.cs_v_row[:, :, :position + 1, :]

    def _require_contiguous(self, section: str, position: int) -> None:
        """Refuse a gap: incremental checksums are sound only when they
        cover every position before the token being appended."""
        covered = self.cs_x_len if section == "AS" else self.cs_v_len
        if covered != position:
            raise RuntimeError(
                f"decode {section} protection needs contiguous incremental "
                f"checksums: the KV cache's {section} checksums cover {covered} "
                f"of the {position} positions before this token; run a protected "
                f"prefill and keep {section} enabled on every decode step"
            )

    def compact(self, indices) -> None:
        """Shrink the batch axis to ``indices`` (serving slot compaction).

        Every buffer — K/V data *and* the checksum side-state — is sliced
        along the batch axis in one place, so the per-slot incremental
        checksums stay aligned with their slots.  This is sound because the
        checksum state is per-slot-independent: ``cs_x`` is one column
        checksum per sequence and ``cs_v_row`` one row checksum per cached
        position, neither mixes batch rows.  ``length`` and the covered
        prefixes are untouched (compaction never drops positions, only
        slots).
        """
        indices = np.asarray(indices)
        if int(indices.shape[0]) < 1:
            raise ValueError("compact needs at least one slot to keep")
        self.k = self.k[indices]
        self.v = self.v[indices]
        if self.cs_x is not None:
            self.cs_x = self.cs_x[indices]
        if self.cs_v_row is not None:
            self.cs_v_row = self.cs_v_row[indices]

    def reset(self) -> None:
        """Empty the cache for reuse; buffers (data and checksum) are kept
        and fully overwritten by the next prefill."""
        self.length = 0
        self.cs_x_len = 0
        self.cs_v_len = 0


def phase_of(kv_cache: Optional[LayerKVCache]) -> str:
    """Forward phase implied by a KV cache: none ``"train"``, empty
    ``"prefill"``, populated ``"decode"``.  Read it before the pass appends."""
    if kv_cache is None:
        return "train"
    return "decode" if kv_cache.length else "prefill"


class ComposedHooks(AttentionHooks):
    """Run several hooks in sequence; GEMM outputs are threaded through them."""

    def __init__(self, hooks: Sequence[AttentionHooks]) -> None:
        self.hooks: List[AttentionHooks] = list(hooks)

    def on_block_start(self, block: str, layer_index: int, step: int) -> None:
        for h in self.hooks:
            h.on_block_start(block, layer_index, step)

    def on_block_end(self, block: str, layer_index: int, step: int) -> None:
        for h in self.hooks:
            h.on_block_end(block, layer_index, step)

    def on_gemm_output(self, ctx: GemmContext, out: np.ndarray) -> np.ndarray:
        for h in self.hooks:
            out = h.on_gemm_output(ctx, out)
        return out

    def on_section_output(self, ctx: SectionContext, out: np.ndarray) -> np.ndarray:
        for h in self.hooks:
            out = h.on_section_output(ctx, out)
        return out

    def consumes_gemm_outputs(self) -> bool:
        return any(h.consumes_gemm_outputs() for h in self.hooks)

    def on_matrix(self, name: str, data: np.ndarray, layer_index: int, step: int) -> None:
        for h in self.hooks:
            h.on_matrix(name, data, layer_index, step)


class RecordingHooks(AttentionHooks):
    """Record a copy of every intermediate matrix of the forward pass.

    Used by the error-propagation study (Table 2) to compare a faulty run
    against a clean reference run matrix-by-matrix.  Matrices are stored under
    the paper's names (``Q``, ``K``, ``V``, ``AS``, ``AP``, ``CL``, ``O``),
    keyed additionally by layer index.
    """

    def __init__(self) -> None:
        self.records: Dict[int, Dict[str, np.ndarray]] = {}

    def on_block_start(self, block: str, layer_index: int, step: int) -> None:
        self.records.setdefault(layer_index, {})

    def on_gemm_output(self, ctx: GemmContext, out: np.ndarray) -> np.ndarray:
        self.on_matrix(ctx.op.output_matrix, out, ctx.layer_index, ctx.step)
        return out

    def on_matrix(self, name: str, data: np.ndarray, layer_index: int, step: int) -> None:
        self.records.setdefault(layer_index, {})[name] = data.copy()

    def matrices(self, layer_index: int = 0) -> Dict[str, np.ndarray]:
        """All recorded matrices of one layer."""
        return self.records.get(layer_index, {})

    def clear(self) -> None:
        self.records.clear()


class InstrumentedBlock(Module):
    """A block whose GEMMs are routed through :class:`AttentionHooks`.

    Owns what hooks are told about the block (``layer_index``, the layer's
    attention geometry, the pass counter ``_step``) and the one hooked GEMM,
    :meth:`_instrumented_matmul`.
    """

    def __init__(self, hidden_size: int, num_heads: int, layer_index: int) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.num_heads = num_heads
        self.head_dim = hidden_size // num_heads
        self.hooks: Optional[AttentionHooks] = None
        self._step = 0

    def set_hooks(self, hooks: Optional[AttentionHooks]) -> None:
        """Attach (or detach, with ``None``) the instrumentation hooks."""
        self.hooks = hooks

    def _instrumented_matmul(
        self,
        a: ag.Tensor,
        b: ag.Tensor,
        op: AttentionOp | FeedForwardOp,
        bias: Optional[np.ndarray] = None,
        section_operands: Optional[Dict[str, Optional[np.ndarray]]] = None,
        phase: str = "train",
        kv_cache: Optional[LayerKVCache] = None,
    ) -> ag.Tensor:
        """Matmul whose raw output is routed through the hooks.

        Per-GEMM hooks get a :class:`GemmContext` when any attached hook
        consumes them; at a GEMM of :data:`SECTION_BOUNDARY_OPS` the hooks
        then get a :class:`SectionContext` built from ``section_operands``.
        Any other GEMM dispatches nothing (the fused checker's
        3-instead-of-6 attention dispatches per layer).
        """
        hooks = self.hooks
        section = SECTION_BOUNDARY_OPS.get(op)
        consumes_gemms = hooks is not None and hooks.consumes_gemm_outputs()
        if hooks is None or (not consumes_gemms and section is None):
            return ag.matmul(a, b, name=op.output_matrix)
        layer_index, step = self.layer_index, self._step
        a_data, b_data = a.data, b.data

        def hook(out):
            if consumes_gemms:
                ctx = GemmContext(
                    op=op, a=a_data, b=b_data, layer_index=layer_index, step=step,
                    num_heads=self.num_heads, head_dim=self.head_dim,
                    seq_len=out.shape[-2], bias=bias, phase=phase, kv_cache=kv_cache,
                )
                out = hooks.on_gemm_output(ctx, out)
            if section is not None:
                sctx = SectionContext(
                    section=section, operands=section_operands or {},
                    layer_index=layer_index, step=step,
                    num_heads=self.num_heads, head_dim=self.head_dim,
                    seq_len=out.shape[-2], phase=phase,
                )
                out = hooks.on_section_output(sctx, out)
            return out

        return ag.matmul(a, b, forward_hook=hook, name=op.output_matrix)


class MultiHeadAttention(InstrumentedBlock):
    """Multi-head self-attention with operation-boundary instrumentation.

    Parameters
    ----------
    hidden_size:
        Model width ``D``.
    num_heads:
        Number of attention heads ``H`` (``D`` must be divisible by ``H``).
    dropout_p:
        Dropout applied to the attention probabilities (``AP``) and to the
        output projection, as in BERT/GPT-2.
    layer_index:
        Position of this layer in the parent model (reported to hooks).
    causal:
        Whether to apply a causal (autoregressive) mask, as GPT-2/GPT-Neo do.
    local_window:
        If set, restrict attention to the previous ``local_window`` positions
        (GPT-Neo's local-attention layers).
    rng:
        Generator used for weight init and dropout masks.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        dropout_p: float = 0.0,
        layer_index: int = 0,
        causal: bool = False,
        local_window: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
    ) -> None:
        if hidden_size % num_heads:
            raise ValueError(f"hidden_size {hidden_size} not divisible by num_heads {num_heads}")
        super().__init__(hidden_size, num_heads, layer_index)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.causal = causal
        self.local_window = local_window
        self.scale = 1.0 / np.sqrt(self.head_dim)

        self.w_q = Linear(hidden_size, hidden_size, rng=rng, bias=bias)
        self.w_k = Linear(hidden_size, hidden_size, rng=rng, bias=bias)
        self.w_v = Linear(hidden_size, hidden_size, rng=rng, bias=bias)
        self.w_o = Linear(hidden_size, hidden_size, rng=rng, bias=bias)
        self.attn_dropout = Dropout(dropout_p, rng=rng)
        self.out_dropout = Dropout(dropout_p, rng=rng)

        #: geometry -> mask; see :meth:`_causal_mask`.
        self._causal_mask_cache: Dict = {}
        #: geometry + mask identity -> (mask_ref, mask, keep).
        self._combined_mask_cache: Dict = {}

    # -- masking ----------------------------------------------------------------

    def _causal_disallowed(self, seq_len: int, query_offset: int, query_len: int) -> np.ndarray:
        """Host boolean block: query row ``i`` may not see key column ``j``."""
        i = np.arange(query_offset, query_offset + query_len)[:, None]
        j = np.arange(seq_len)[None, :]
        disallowed = j > i
        if self.local_window is not None and self.local_window < seq_len:
            disallowed = disallowed | (j <= i - self.local_window)
        return disallowed

    def _additive_mask(
        self,
        seq_len: int,
        attention_mask: Optional[np.ndarray],
        query_offset: int = 0,
        query_len: Optional[int] = None,
    ):
        """Cached ``(mask, keep)`` pair for one attention geometry.

        ``mask`` is the additive ``-1e9`` mask (broadcastable against
        ``(B, H, query_len, seq_len)`` scores); ``keep`` is a
        ``(B, 1, query_len, 1)`` float64 multiplier that zeroes
        *fully-masked* query rows after the softmax, or ``None``
        when every row attends to at least one position.  Masked positions
        get ``-1e9`` rather than ``-inf`` so no NaN contaminates the
        fault-propagation study — but the softmax of an all ``-1e9`` row is
        *uniform*, silently averaging every cached V row into downstream
        (checksummed) sections, so fully-masked rows must be zeroed
        explicitly rather than left to "degrade gracefully".

        Both arrays are cached per geometry — the causal part keyed by
        ``(seq_len, query_offset, query_len, local_window)``, the
        pad-combined part additionally by the identity of ``attention_mask``
        — so decode steps stop paying a per-token build and O(S²)
        allocation.
        """
        query_len = seq_len if query_len is None else query_len
        if attention_mask is None:
            if not self.causal:
                return None, None
            return self._causal_mask(seq_len, query_offset, query_len), None
        key = (seq_len, query_offset, query_len, self.local_window, id(attention_mask))
        entry = self._combined_mask_cache.get(key)
        if entry is not None and entry[0] is attention_mask:
            return entry[1], entry[2]
        pad = np.asarray(attention_mask, dtype=np.float64)
        # attention_mask is (B, S) with 1 = attend, 0 = padding.
        pad = (1.0 - pad)[:, None, None, :] * -1e9
        if self.causal:
            disallowed = self._causal_disallowed(seq_len, query_offset, query_len)
            combined = np.where(disallowed, -1e9, 0.0)[None, None, :, :] + pad
        else:
            combined = pad  # (B, 1, 1, S) broadcasts over query rows
        keep_host = combined.max(axis=-1, keepdims=True) > -1e8
        keep = None if keep_host.all() else keep_host.astype(np.float64)
        if len(self._combined_mask_cache) >= _MASK_CACHE_MAX:
            self._combined_mask_cache.pop(next(iter(self._combined_mask_cache)))
        self._combined_mask_cache[key] = (attention_mask, combined, keep)
        return combined, keep

    def _causal_mask(self, seq_len: int, query_offset: int, query_len: int):
        key = (seq_len, query_offset, query_len, self.local_window)
        mask = self._causal_mask_cache.get(key)
        if mask is not None:
            return mask
        disallowed = self._causal_disallowed(seq_len, query_offset, query_len)
        mask = np.where(disallowed, -1e9, 0.0)[None, None, :, :]
        if len(self._causal_mask_cache) >= _MASK_CACHE_MAX:
            self._causal_mask_cache.pop(next(iter(self._causal_mask_cache)))
        self._causal_mask_cache[key] = mask
        return mask

    def _decode_pad_mask(self, attention_mask: np.ndarray):
        """Static additive pad mask for decode, ``(B, 1, 1, M)``.

        Built **once per mask object** and sliced to the live cache length
        each step, so steady-state decode pays no mask build.  The mask must span the
        whole cache capacity (1 = attend for every not-yet-generated
        position); the causal structure needs no mask at decode because the
        query is the last position.
        """
        key = ("decode-pad", id(attention_mask))
        entry = self._combined_mask_cache.get(key)
        if entry is not None and entry[0] is attention_mask:
            return entry[1]
        pad = np.asarray(attention_mask, dtype=np.float64)
        pad = (1.0 - pad)[:, None, None, :] * -1e9
        if len(self._combined_mask_cache) >= _MASK_CACHE_MAX:
            self._combined_mask_cache.pop(next(iter(self._combined_mask_cache)))
        self._combined_mask_cache[key] = (attention_mask, pad, None)
        return pad

    def _decode_mask(self, attention_mask: Optional[np.ndarray], total_len: int):
        """Additive mask of one decode step over ``total_len`` cached keys.

        The pad mask (:meth:`_decode_pad_mask`) is sliced to the live cache
        length; a local window adds its band.  No fully-masked-row handling
        is needed: the decode query is the token just appended, which by
        contract is attendable (mask 1) itself.
        """
        mask = None
        if attention_mask is not None:
            pad_full = self._decode_pad_mask(attention_mask)  # (B, 1, 1, M)
            if pad_full.shape[-1] < total_len:
                raise ValueError(
                    f"decode attention_mask covers {pad_full.shape[-1]} positions "
                    f"but the KV cache holds {total_len}"
                )
            mask = pad_full[:, :, :, :total_len]
        if self.local_window is not None and self.local_window < total_len:
            local = self._causal_mask(total_len, total_len - 1, 1)
            mask = local if mask is None else mask + local
        return mask

    def build_mask(self, seq_len: int, attention_mask: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Combine padding, causal and local-window masks into one additive mask.

        Masked positions receive a large negative value (-1e9) rather than
        -inf so no spurious NaN contaminates the fault-propagation study;
        fully-masked query rows are additionally *zeroed after the softmax*
        in the forward pass (see :meth:`_additive_mask`), since their softmax
        would otherwise be uniform rather than empty.  The mask is built once
        per geometry and cached.
        """
        mask, _ = self._additive_mask(seq_len, attention_mask)
        return mask

    # -- forward -----------------------------------------------------------------

    def forward(
        self,
        x: ag.Tensor,
        attention_mask: Optional[np.ndarray] = None,
        kv_cache: Optional[LayerKVCache] = None,
    ) -> ag.Tensor:
        """Run multi-head self-attention on ``x`` of shape ``(B, S, D)``.

        The phase follows from ``kv_cache`` (:func:`phase_of`), and hooks see
        it and the cache on every context:

        * no cache — ``"train"``;
        * an empty cache — *prefill*: the training arithmetic, plus the
          split-head K/V blocks are appended to the cache;
        * a populated cache — *decode* of one token (``x`` is ``(B, 1, D)``):
          its K/V rows are appended and attention runs against the whole
          cached prefix.  ``attention_mask`` then covers the whole cached
          sequence (``(B, M)``, ``M >= kv_cache.length``), e.g. the
          left-padding of a batched prompt.
        """
        phase = phase_of(kv_cache)
        if phase == "decode" and x.shape[1] != 1:
            raise ValueError(f"a populated KV cache decodes one token at a time, got {x.shape[1]}")
        hooks = self.hooks
        self._step += 1
        step = self._step
        if hooks is not None:
            hooks.on_block_start("attention", self.layer_index, step)

        bias_q = self.w_q.bias.data if self.w_q.bias is not None else None
        bias_k = self.w_k.bias.data if self.w_k.bias is not None else None
        bias_v = self.w_v.bias.data if self.w_v.bias is not None else None
        bias_o = self.w_o.bias.data if self.w_o.bias is not None else None

        q_proj = self._instrumented_matmul(
            x, self.w_q.weight, AttentionOp.XQ, bias=bias_q,
            phase=phase, kv_cache=kv_cache)
        k_proj = self._instrumented_matmul(
            x, self.w_k.weight, AttentionOp.XK, bias=bias_k,
            phase=phase, kv_cache=kv_cache)
        v_proj = self._instrumented_matmul(
            x, self.w_v.weight, AttentionOp.XV, bias=bias_v,
            phase=phase, kv_cache=kv_cache)
        if self.w_q.bias is not None:
            q_proj = ag.add(q_proj, self.w_q.bias)
        if self.w_k.bias is not None:
            k_proj = ag.add(k_proj, self.w_k.bias)
        if self.w_v.bias is not None:
            v_proj = ag.add(v_proj, self.w_v.bias)

        q = ag.split_heads(q_proj, self.num_heads)  # (B, H, S, dh)
        k = ag.split_heads(k_proj, self.num_heads)
        v = ag.split_heads(v_proj, self.num_heads)
        if kv_cache is not None:
            kv_cache.append(k.data, v.data)
        if phase == "decode":
            # Attend over the whole cached prefix: (B, H, T, dh) views.
            k = ag.Tensor(kv_cache.keys())
            v = ag.Tensor(kv_cache.values())

        k_t = ag.transpose(k, (0, 1, 3, 2))
        attention_scores = self._instrumented_matmul(
            q, k_t, AttentionOp.QK,
            section_operands={
                "x": x.data,
                "w_q": self.w_q.weight.data,
                "w_k": self.w_k.weight.data,
                "bias_q": bias_q,
                "bias_k": bias_k,
                "q": q.data,
                "k_t": k_t.data,
                "kv_cache": kv_cache,
            },
            phase=phase, kv_cache=kv_cache,
        )

        scaled = ag.mul(attention_scores, self.scale)
        if phase == "decode":
            mask, keep = self._decode_mask(attention_mask, kv_cache.length), None
        else:
            mask, keep = self._additive_mask(x.shape[1], attention_mask)
        if mask is not None:
            scaled = ag.add(scaled, mask)

        attention_probs = ag.softmax(scaled, axis=-1)
        if keep is not None:
            # Zero fully-masked query rows: their softmax is uniform (all
            # logits sit at the -1e9 floor), which would leak an average of
            # every V row into the checksummed CL/O sections.
            attention_probs = ag.mul(attention_probs, keep)
        if hooks is not None:
            hooks.on_matrix("AP", attention_probs.data, self.layer_index, step)
        attention_probs = self.attn_dropout(attention_probs)

        context = self._instrumented_matmul(
            attention_probs, v, AttentionOp.APV,
            section_operands={
                "x": x.data,
                "w_v": self.w_v.weight.data,
                "bias_v": bias_v,
                "ap": attention_probs.data,
                "v": v.data,
                "kv_cache": kv_cache,
            },
            phase=phase, kv_cache=kv_cache,
        )
        context_merged = ag.merge_heads(context)

        output = self._instrumented_matmul(
            context_merged, self.w_o.weight, AttentionOp.CLO, bias=bias_o,
            section_operands={
                "cl": context_merged.data,
                "w_o": self.w_o.weight.data,
                "kv_cache": kv_cache,
            },
            phase=phase, kv_cache=kv_cache,
        )
        if self.w_o.bias is not None:
            output = ag.add(output, self.w_o.bias)
        output = self.out_dropout(output)

        if hooks is not None:
            hooks.on_block_end("attention", self.layer_index, step)
        return output
