"""The nn <-> core seam's callback sequence, pinned.

A hook that logs every callback (name; block, op, section or matrix; layer;
phase; output shape) watches one train forward, one prefill into
``new_kv_caches(2, max_len=8)`` and two decode steps of ``gpt2`` tiny: once
consuming per-GEMM outputs, once only the section boundaries.  Attention and
the FFN share one hooked GEMM, one forward serves all three phases and every
block announces itself through ``on_block_start`` / ``on_block_end``, so any
change to that seam shows up here as a changed callback list.
"""

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import AttentionHooks


class CallbackLog(AttentionHooks):
    """Log one line per callback: ``name key layer phase shape``."""

    def __init__(self, per_gemm: bool) -> None:
        self.per_gemm = per_gemm
        self.lines = []

    def _log(self, name, key, layer, phase=None, out=None):
        shape = "x".join(map(str, out.shape)) if out is not None else "-"
        self.lines.append(f"{name} {key} {layer} {phase or '-'} {shape}")

    def consumes_gemm_outputs(self):
        return self.per_gemm

    def on_block_start(self, block, layer_index, step):
        self._log("on_block_start", block, layer_index)

    def on_block_end(self, block, layer_index, step):
        self._log("on_block_end", block, layer_index)

    def on_gemm_output(self, ctx, out):
        self._log("on_gemm_output", ctx.op.value, ctx.layer_index, ctx.phase, out)
        return out

    def on_section_output(self, ctx, out):
        self._log("on_section_output", ctx.section, ctx.layer_index, ctx.phase, out)
        return out

    def on_matrix(self, name, data, layer_index, step):
        self._log("on_matrix", name, layer_index, out=data)


def callback_lines(per_gemm: bool):
    model = build_model("gpt2", size="tiny", rng=np.random.default_rng(0))
    model.eval()
    log = CallbackLog(per_gemm)
    model.set_attention_hooks(log)
    ids = np.array([[5, 6, 7], [8, 9, 10]])
    model(ids)
    caches = model.new_kv_caches(2, max_len=8)
    model.prefill(ids, None, caches)
    model.decode_step(np.array([[1], [2]]), caches)
    model.decode_step(np.array([[3], [4]]), caches)
    return log.lines


#: Train, prefill and two decode passes over 2 layers with a per-GEMM hook.
PER_GEMM_CONSUMER = """
on_block_start attention 0 - -
on_gemm_output xq 0 train 2x3x48
on_gemm_output xk 0 train 2x3x48
on_gemm_output xv 0 train 2x3x48
on_gemm_output qk 0 train 2x4x3x3
on_section_output AS 0 train 2x4x3x3
on_matrix AP 0 - 2x4x3x3
on_gemm_output apv 0 train 2x4x3x12
on_section_output CL 0 train 2x4x3x12
on_gemm_output clo 0 train 2x3x48
on_section_output O 0 train 2x3x48
on_block_end attention 0 - -
on_block_start ffn 0 - -
on_gemm_output ff_up 0 train 2x3x192
on_section_output FF1 0 train 2x3x192
on_gemm_output ff_down 0 train 2x3x48
on_section_output FF2 0 train 2x3x48
on_block_end ffn 0 - -
on_block_start attention 1 - -
on_gemm_output xq 1 train 2x3x48
on_gemm_output xk 1 train 2x3x48
on_gemm_output xv 1 train 2x3x48
on_gemm_output qk 1 train 2x4x3x3
on_section_output AS 1 train 2x4x3x3
on_matrix AP 1 - 2x4x3x3
on_gemm_output apv 1 train 2x4x3x12
on_section_output CL 1 train 2x4x3x12
on_gemm_output clo 1 train 2x3x48
on_section_output O 1 train 2x3x48
on_block_end attention 1 - -
on_block_start ffn 1 - -
on_gemm_output ff_up 1 train 2x3x192
on_section_output FF1 1 train 2x3x192
on_gemm_output ff_down 1 train 2x3x48
on_section_output FF2 1 train 2x3x48
on_block_end ffn 1 - -
on_block_start attention 0 - -
on_gemm_output xq 0 prefill 2x3x48
on_gemm_output xk 0 prefill 2x3x48
on_gemm_output xv 0 prefill 2x3x48
on_gemm_output qk 0 prefill 2x4x3x3
on_section_output AS 0 prefill 2x4x3x3
on_matrix AP 0 - 2x4x3x3
on_gemm_output apv 0 prefill 2x4x3x12
on_section_output CL 0 prefill 2x4x3x12
on_gemm_output clo 0 prefill 2x3x48
on_section_output O 0 prefill 2x3x48
on_block_end attention 0 - -
on_block_start ffn 0 - -
on_gemm_output ff_up 0 prefill 2x3x192
on_section_output FF1 0 prefill 2x3x192
on_gemm_output ff_down 0 prefill 2x3x48
on_section_output FF2 0 prefill 2x3x48
on_block_end ffn 0 - -
on_block_start attention 1 - -
on_gemm_output xq 1 prefill 2x3x48
on_gemm_output xk 1 prefill 2x3x48
on_gemm_output xv 1 prefill 2x3x48
on_gemm_output qk 1 prefill 2x4x3x3
on_section_output AS 1 prefill 2x4x3x3
on_matrix AP 1 - 2x4x3x3
on_gemm_output apv 1 prefill 2x4x3x12
on_section_output CL 1 prefill 2x4x3x12
on_gemm_output clo 1 prefill 2x3x48
on_section_output O 1 prefill 2x3x48
on_block_end attention 1 - -
on_block_start ffn 1 - -
on_gemm_output ff_up 1 prefill 2x3x192
on_section_output FF1 1 prefill 2x3x192
on_gemm_output ff_down 1 prefill 2x3x48
on_section_output FF2 1 prefill 2x3x48
on_block_end ffn 1 - -
on_block_start attention 0 - -
on_gemm_output xq 0 decode 2x1x48
on_gemm_output xk 0 decode 2x1x48
on_gemm_output xv 0 decode 2x1x48
on_gemm_output qk 0 decode 2x4x1x4
on_section_output AS 0 decode 2x4x1x4
on_matrix AP 0 - 2x4x1x4
on_gemm_output apv 0 decode 2x4x1x12
on_section_output CL 0 decode 2x4x1x12
on_gemm_output clo 0 decode 2x1x48
on_section_output O 0 decode 2x1x48
on_block_end attention 0 - -
on_block_start ffn 0 - -
on_gemm_output ff_up 0 decode 2x1x192
on_section_output FF1 0 decode 2x1x192
on_gemm_output ff_down 0 decode 2x1x48
on_section_output FF2 0 decode 2x1x48
on_block_end ffn 0 - -
on_block_start attention 1 - -
on_gemm_output xq 1 decode 2x1x48
on_gemm_output xk 1 decode 2x1x48
on_gemm_output xv 1 decode 2x1x48
on_gemm_output qk 1 decode 2x4x1x4
on_section_output AS 1 decode 2x4x1x4
on_matrix AP 1 - 2x4x1x4
on_gemm_output apv 1 decode 2x4x1x12
on_section_output CL 1 decode 2x4x1x12
on_gemm_output clo 1 decode 2x1x48
on_section_output O 1 decode 2x1x48
on_block_end attention 1 - -
on_block_start ffn 1 - -
on_gemm_output ff_up 1 decode 2x1x192
on_section_output FF1 1 decode 2x1x192
on_gemm_output ff_down 1 decode 2x1x48
on_section_output FF2 1 decode 2x1x48
on_block_end ffn 1 - -
on_block_start attention 0 - -
on_gemm_output xq 0 decode 2x1x48
on_gemm_output xk 0 decode 2x1x48
on_gemm_output xv 0 decode 2x1x48
on_gemm_output qk 0 decode 2x4x1x5
on_section_output AS 0 decode 2x4x1x5
on_matrix AP 0 - 2x4x1x5
on_gemm_output apv 0 decode 2x4x1x12
on_section_output CL 0 decode 2x4x1x12
on_gemm_output clo 0 decode 2x1x48
on_section_output O 0 decode 2x1x48
on_block_end attention 0 - -
on_block_start ffn 0 - -
on_gemm_output ff_up 0 decode 2x1x192
on_section_output FF1 0 decode 2x1x192
on_gemm_output ff_down 0 decode 2x1x48
on_section_output FF2 0 decode 2x1x48
on_block_end ffn 0 - -
on_block_start attention 1 - -
on_gemm_output xq 1 decode 2x1x48
on_gemm_output xk 1 decode 2x1x48
on_gemm_output xv 1 decode 2x1x48
on_gemm_output qk 1 decode 2x4x1x5
on_section_output AS 1 decode 2x4x1x5
on_matrix AP 1 - 2x4x1x5
on_gemm_output apv 1 decode 2x4x1x12
on_section_output CL 1 decode 2x4x1x12
on_gemm_output clo 1 decode 2x1x48
on_section_output O 1 decode 2x1x48
on_block_end attention 1 - -
on_block_start ffn 1 - -
on_gemm_output ff_up 1 decode 2x1x192
on_section_output FF1 1 decode 2x1x192
on_gemm_output ff_down 1 decode 2x1x48
on_section_output FF2 1 decode 2x1x48
on_block_end ffn 1 - -
"""

#: The same passes with a section-only hook: no non-boundary GEMM dispatches.
SECTION_ONLY = """
on_block_start attention 0 - -
on_section_output AS 0 train 2x4x3x3
on_matrix AP 0 - 2x4x3x3
on_section_output CL 0 train 2x4x3x12
on_section_output O 0 train 2x3x48
on_block_end attention 0 - -
on_block_start ffn 0 - -
on_section_output FF1 0 train 2x3x192
on_section_output FF2 0 train 2x3x48
on_block_end ffn 0 - -
on_block_start attention 1 - -
on_section_output AS 1 train 2x4x3x3
on_matrix AP 1 - 2x4x3x3
on_section_output CL 1 train 2x4x3x12
on_section_output O 1 train 2x3x48
on_block_end attention 1 - -
on_block_start ffn 1 - -
on_section_output FF1 1 train 2x3x192
on_section_output FF2 1 train 2x3x48
on_block_end ffn 1 - -
on_block_start attention 0 - -
on_section_output AS 0 prefill 2x4x3x3
on_matrix AP 0 - 2x4x3x3
on_section_output CL 0 prefill 2x4x3x12
on_section_output O 0 prefill 2x3x48
on_block_end attention 0 - -
on_block_start ffn 0 - -
on_section_output FF1 0 prefill 2x3x192
on_section_output FF2 0 prefill 2x3x48
on_block_end ffn 0 - -
on_block_start attention 1 - -
on_section_output AS 1 prefill 2x4x3x3
on_matrix AP 1 - 2x4x3x3
on_section_output CL 1 prefill 2x4x3x12
on_section_output O 1 prefill 2x3x48
on_block_end attention 1 - -
on_block_start ffn 1 - -
on_section_output FF1 1 prefill 2x3x192
on_section_output FF2 1 prefill 2x3x48
on_block_end ffn 1 - -
on_block_start attention 0 - -
on_section_output AS 0 decode 2x4x1x4
on_matrix AP 0 - 2x4x1x4
on_section_output CL 0 decode 2x4x1x12
on_section_output O 0 decode 2x1x48
on_block_end attention 0 - -
on_block_start ffn 0 - -
on_section_output FF1 0 decode 2x1x192
on_section_output FF2 0 decode 2x1x48
on_block_end ffn 0 - -
on_block_start attention 1 - -
on_section_output AS 1 decode 2x4x1x4
on_matrix AP 1 - 2x4x1x4
on_section_output CL 1 decode 2x4x1x12
on_section_output O 1 decode 2x1x48
on_block_end attention 1 - -
on_block_start ffn 1 - -
on_section_output FF1 1 decode 2x1x192
on_section_output FF2 1 decode 2x1x48
on_block_end ffn 1 - -
on_block_start attention 0 - -
on_section_output AS 0 decode 2x4x1x5
on_matrix AP 0 - 2x4x1x5
on_section_output CL 0 decode 2x4x1x12
on_section_output O 0 decode 2x1x48
on_block_end attention 0 - -
on_block_start ffn 0 - -
on_section_output FF1 0 decode 2x1x192
on_section_output FF2 0 decode 2x1x48
on_block_end ffn 0 - -
on_block_start attention 1 - -
on_section_output AS 1 decode 2x4x1x5
on_matrix AP 1 - 2x4x1x5
on_section_output CL 1 decode 2x4x1x12
on_section_output O 1 decode 2x1x48
on_block_end attention 1 - -
on_block_start ffn 1 - -
on_section_output FF1 1 decode 2x1x192
on_section_output FF2 1 decode 2x1x48
on_block_end ffn 1 - -
"""


@pytest.mark.parametrize(
    "per_gemm, expected",
    [(True, PER_GEMM_CONSUMER), (False, SECTION_ONLY)],
    ids=["per_gemm_consumer", "section_only"],
)
def test_callback_sequence_is_pinned(per_gemm, expected):
    expected = expected.strip().splitlines()
    assert len(expected) == (144 if per_gemm else 80)
    assert callback_lines(per_gemm) == expected
