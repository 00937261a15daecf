"""Unit tests for the model configuration system and the model zoo."""

import inspect
import math

import numpy as np
import pytest

from repro.core import ATTNChecker, ATTNCheckerConfig, SectionCostModel
from repro.data import SyntheticMRPC
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model, get_config, list_models
from repro.models.classification import ClassificationHead
from repro.models.config import ModelConfig
from repro.models.registry import OVERHEAD_MODEL_NAMES, PAPER_CONFIGS, PAPER_MODEL_NAMES, TINY_CONFIGS
from repro.nn.attention import RecordingHooks
from repro.nn.layers import Embedding, LayerNorm, Linear
from repro.training import Trainer, TrainerConfig
from repro.training.optimizer import SGD


def gemm_flops(config, batch_size):
    """FLOPs of the six attention GEMMs of one forward pass (the inventory's)."""
    return sum(SectionCostModel(config, batch_size).operation_flops().values())

#: Parameter names of one transformer layer, in ``named_parameters()`` order.
LAYER_PARAMETERS = [
    "attention.w_q.weight", "attention.w_q.bias", "attention.w_k.weight", "attention.w_k.bias",
    "attention.w_v.weight", "attention.w_v.bias", "attention.w_o.weight", "attention.w_o.bias",
    "attn_norm.weight", "attn_norm.bias", "ffn.fc_in.weight", "ffn.fc_in.bias",
    "ffn.fc_out.weight", "ffn.fc_out.bias", "ffn_norm.weight", "ffn_norm.bias",
]

#: Per family, the parameter names before and after the layers.  These are
#: the state-dict keys, so a change here breaks every saved checkpoint.
_CLASSIFIER_HEAD = [
    "head.dense.weight", "head.dense.bias", "head.out_proj.weight", "head.out_proj.bias",
]
_DECODER_HEAD = ["final_norm.weight", "final_norm.bias", "score.weight"]
OUTER_PARAMETERS = {
    "bert-base": (
        ["token_embeddings.weight", "position_embeddings.weight", "token_type_embeddings.weight",
         "embedding_norm.weight", "embedding_norm.bias"],
        _CLASSIFIER_HEAD,
    ),
    "roberta": (
        ["token_embeddings.weight", "position_embeddings.weight",
         "embedding_norm.weight", "embedding_norm.bias"],
        _CLASSIFIER_HEAD,
    ),
    "gpt2": (["token_embeddings.weight", "position_embeddings.weight"], _DECODER_HEAD),
    "gpt-neo": (["token_embeddings.weight", "position_embeddings.weight"], _DECODER_HEAD),
}


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestModelConfig:
    def test_head_dim(self):
        config = get_config("bert-base", size="paper")
        assert config.head_dim == 64

    def test_invalid_heads_raises(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="x", family="bert", vocab_size=10, hidden_size=10, num_layers=1,
                num_heads=3, intermediate_size=10, max_seq_len=8,
            )

    def test_invalid_family_raises(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="x", family="mamba", vocab_size=10, hidden_size=8, num_layers=1,
                num_heads=2, intermediate_size=10, max_seq_len=8,
            )

    def test_scaled_returns_new_config(self):
        config = get_config("bert-base", size="paper")
        smaller = config.scaled(hidden_size=96, num_heads=4)
        assert smaller.hidden_size == 96 and config.hidden_size == 768

    def test_parameter_count_bert_base_order_of_magnitude(self):
        config = get_config("bert-base", size="paper")
        # BERT-base has ~110M parameters; embeddings at seq 128 shrink it a bit.
        assert 80e6 < config.parameter_count() < 130e6

    @pytest.mark.parametrize("name", sorted(TINY_CONFIGS))
    def test_parameter_count_is_what_build_model_builds(self, name):
        # The cost models (training step, checkpoint bytes) read this count.
        assert get_config(name).parameter_count() == build_model(name).num_parameters()

    def test_local_attention_alternation(self):
        config = get_config("gpt-neo", size="paper")
        assert not config.layer_uses_local_attention(0)
        assert config.layer_uses_local_attention(1)
        assert not config.layer_uses_local_attention(2)

    def test_attention_flops_scale_with_batch(self):
        config = get_config("bert-base", size="paper")
        assert gemm_flops(config, 16) == 2 * gemm_flops(config, 8)

    def test_attention_other_flops_linear_in_batch_and_small(self):
        config = get_config("bert-base", size="paper")
        assert config.attention_other_flops(16) == 2 * config.attention_other_flops(8)
        assert config.attention_other_flops(8) < 0.01 * gemm_flops(config, 8)

    @pytest.mark.parametrize("name", ["bert-base", "roberta", "gpt2", "gpt-neo"])
    def test_attention_parameter_count_matches_built_block(self, name, rng):
        model = build_model(name, size="tiny", rng=rng)
        for attention in model.attention_layers():
            assert attention.num_parameters() == model.config.attention_parameter_count()

    @pytest.mark.parametrize("name", ["bert-base", "roberta", "gpt2", "gpt-neo"])
    def test_layer_parameter_count_matches_built_layer(self, name, rng):
        model = build_model(name, size="tiny", rng=rng)
        for layer in model.layers:
            assert layer.num_parameters() == model.config.layer_parameter_count()


class TestRegistry:
    def test_list_models_sizes(self):
        assert set(list_models("paper")) == set(PAPER_CONFIGS)
        assert set(list_models("tiny")) == set(TINY_CONFIGS)

    def test_paper_model_names_subset(self):
        assert set(PAPER_MODEL_NAMES) <= set(PAPER_CONFIGS)
        assert set(OVERHEAD_MODEL_NAMES) <= set(PAPER_CONFIGS)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_config("llama-7b")

    def test_unknown_size_raises(self):
        with pytest.raises(ValueError):
            get_config("bert-base", size="huge")

    @pytest.mark.parametrize("name", ["bert-base", "roberta"])
    def test_encoder_families_pool_through_the_classification_head(self, name, rng):
        model = build_model(name, rng=rng)
        assert isinstance(model.embedding_norm, LayerNorm)
        assert isinstance(model.head, ClassificationHead)
        assert not hasattr(model, "final_norm") and not hasattr(model, "score")
        assert all(layer.norm_style == "post_ln" for layer in model.layers)
        assert not any(attention.causal for attention in model.attention_layers())
        # Only BERT has segment embeddings; RoBERTa drops them.
        assert hasattr(model, "token_type_embeddings") == (name == "bert-base")
        if name == "bert-base":
            assert isinstance(model.token_type_embeddings, Embedding)

    @pytest.mark.parametrize("name", ["gpt2", "gpt-neo"])
    def test_decoder_families_score_the_last_token(self, name, rng):
        model = build_model(name, rng=rng)
        assert isinstance(model.final_norm, LayerNorm)
        assert isinstance(model.score, Linear) and model.score.bias is None
        for absent in ("head", "embedding_norm", "token_type_embeddings"):
            assert not hasattr(model, absent), absent
        assert all(layer.norm_style == "pre_ln" for layer in model.layers)
        assert all(attention.causal for attention in model.attention_layers())

    def test_gpt_neo_odd_layers_attend_locally(self, rng):
        model = build_model("gpt-neo", size="tiny", rng=rng, num_layers=4)
        windows = [attention.local_window for attention in model.attention_layers()]
        window = model.config.local_attention_window
        assert window is not None
        assert windows == [None, window, None, window]
        gpt2 = build_model("gpt2", size="tiny", rng=rng, num_layers=4)
        assert [a.local_window for a in gpt2.attention_layers()] == [None] * 4

    @pytest.mark.parametrize("name", sorted(OUTER_PARAMETERS))
    def test_parameter_names_pinned(self, name, rng):
        model = build_model(name, rng=rng)
        before, after = OUTER_PARAMETERS[name]
        layers = [
            f"layers.{i}.{param}"
            for i in range(model.config.num_layers)
            for param in LAYER_PARAMETERS
        ]
        assert [n for n, _ in model.named_parameters()] == before + layers + after
        assert list(model.state_dict()) == before + layers + after

    def test_build_model_parameters(self):
        assert list(inspect.signature(build_model).parameters) == [
            "name", "size", "rng", "num_labels", "overrides",
        ]

    def test_build_model_num_labels_override(self, rng):
        model = build_model("bert-base", rng=rng, num_labels=5)
        assert model.config.num_labels == 5

    def test_bert_sizes_ordered_by_parameters(self, rng):
        sizes = [build_model(n, rng=np.random.default_rng(0)).num_parameters()
                 for n in ("bert-small", "bert-base", "bert-large")]
        assert sizes[0] < sizes[1] < sizes[2]


class TestForwardPasses:
    @pytest.mark.parametrize("name", ["bert-base", "roberta", "gpt2", "gpt-neo"])
    def test_forward_and_loss(self, name, rng):
        model = build_model(name, rng=np.random.default_rng(1))
        config = model.config
        ids = rng.integers(0, config.vocab_size, size=(3, config.max_seq_len))
        mask = np.ones((3, config.max_seq_len))
        labels = np.array([0, 1, 0])
        out = model(ids, attention_mask=mask, labels=labels)
        assert out.logits.shape == (3, config.num_labels)
        assert np.isfinite(out.loss_value)
        assert out.hidden_states.shape == (3, config.max_seq_len, config.hidden_size)

    @pytest.mark.parametrize("name", ["bert-base", "gpt2"])
    def test_backward_populates_all_gradients(self, name, rng):
        model = build_model(name, rng=np.random.default_rng(1))
        config = model.config
        ids = rng.integers(0, config.vocab_size, size=(2, config.max_seq_len))
        out = model(ids, attention_mask=np.ones((2, config.max_seq_len)), labels=np.array([0, 1]))
        out.loss.backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_forward_without_labels_has_no_loss(self, tiny_bert, small_batch):
        out = tiny_bert(small_batch["input_ids"], attention_mask=small_batch["attention_mask"])
        assert out.loss is None and out.loss_value is None

    def test_attention_layers_enumeration(self, tiny_bert):
        layers = tiny_bert.attention_layers()
        assert len(layers) == tiny_bert.config.num_layers

    def test_set_attention_hooks_attaches_everywhere(self, rng):
        model = build_model("gpt2", rng=np.random.default_rng(2))
        recorder = RecordingHooks()
        model.set_attention_hooks(recorder)
        config = model.config
        ids = rng.integers(0, config.vocab_size, size=(2, config.max_seq_len))
        model(ids, attention_mask=np.ones((2, config.max_seq_len)))
        assert set(recorder.records) == set(range(config.num_layers))
        model.set_attention_hooks(None)

    def test_gpt2_last_token_pooling_uses_mask(self, rng):
        model = build_model("gpt2", rng=np.random.default_rng(3))
        config = model.config
        ids = rng.integers(4, config.vocab_size, size=(1, config.max_seq_len))
        full_mask = np.ones((1, config.max_seq_len))
        short_mask = np.ones((1, config.max_seq_len))
        short_mask[0, 4:] = 0.0
        model.eval()
        logits_full = model(ids, attention_mask=full_mask).logits.data
        logits_short = model(ids, attention_mask=short_mask).logits.data
        model.train()
        assert not np.allclose(logits_full, logits_short)

    def test_deterministic_given_seed(self, rng):
        a = build_model("bert-base", rng=np.random.default_rng(5))
        b = build_model("bert-base", rng=np.random.default_rng(5))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_eval_mode_is_deterministic(self, rng):
        model = build_model("roberta", rng=np.random.default_rng(6))
        config = model.config
        ids = rng.integers(0, config.vocab_size, size=(2, config.max_seq_len))
        mask = np.ones((2, config.max_seq_len))
        model.eval()
        first = model(ids, attention_mask=mask).logits.data
        second = model(ids, attention_mask=mask).logits.data
        model.train()
        assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# Golden seed outputs: byte-identical to the historical pure-NumPy engine
# ---------------------------------------------------------------------------

#: Captured from the pure-NumPy substrate before the array-backend port
#: (seed 7 weights, SyntheticMRPC seed 5, one INF fault into AS layer 0 with
#: injector seed 3, SGD lr=1e-3, fused immediate checker).  float repr
#: round-trips exactly, so equality below is bit-for-bit.
NUMPY_GOLDENS = {
    "bert-base": {
        "eval_loss": 0.6867275859147438,
        "train_losses": [0.6876505481681406, 0.6838802173853776, 0.687099831686353],
        "weight_sum": 238.9193632777852,
    },
    "gpt2": {
        "eval_loss": 0.6149454360417236,
        "train_losses": [0.6163925784059808, 0.598823111037262, 0.5969231659807177],
        "weight_sum": 237.37362011253674,
    },
    "gpt-neo": {
        "eval_loss": 0.6178459100594017,
        "train_losses": [0.619277882736872, 0.5968320334827545, 0.599659002867734],
        "weight_sum": 237.37356645387507,
    },
    "roberta": {
        "eval_loss": 0.6909992629799849,
        "train_losses": [0.6886603620038225, 0.6901893593304964, 0.6919492997779798],
        "weight_sum": 239.01045094450163,
    },
}


def _golden_batch(model, seed=5, batch=4):
    data = SyntheticMRPC(
        num_examples=16 + batch,
        max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
        seed=seed,
    )
    return dict(data.encode(range(batch)))


def run_protected_training(model_name, steps=3):
    """A short single-fault protected fine-tuning run, seeded as
    :data:`NUMPY_GOLDENS` was captured."""
    model = build_model(model_name, size="tiny", rng=np.random.default_rng(7))
    batch = _golden_batch(model)
    injector = FaultInjector(
        [FaultSpec(matrix="AS", error_type="inf", layer_index=0)],
        rng=np.random.default_rng(3),
    )
    checker = ATTNChecker(ATTNCheckerConfig())
    trainer = Trainer(
        model,
        config=TrainerConfig(learning_rate=1e-3),
        optimizer=SGD(model.parameters(), lr=1e-3),
        checker=checker,
        fault_hooks=[injector],
    )
    losses = [trainer.train_step(batch).loss for _ in range(steps)]
    return {
        "losses": losses,
        "detections": checker.stats.total_detections,
        "corrections": checker.stats.total_corrections,
        "weight_sum": float(sum(
            float(np.sum(p.data.astype(np.float64))) for p in model.parameters()
        )),
    }


@pytest.mark.parametrize("model_name", sorted(NUMPY_GOLDENS))
def test_numpy_substrate_matches_pre_refactor_goldens(model_name):
    golden = NUMPY_GOLDENS[model_name]
    model = build_model(model_name, size="tiny", rng=np.random.default_rng(7))
    batch = _golden_batch(model)
    model.eval()
    out = model(batch["input_ids"], attention_mask=batch["attention_mask"],
                labels=batch["labels"])
    assert out.loss_value == golden["eval_loss"]

    result = run_protected_training(model_name)
    assert result["losses"] == golden["train_losses"]
    assert result["weight_sum"] == golden["weight_sum"]
    assert result["detections"] == 1 and result["corrections"] == 1


def test_non_integer_inputs_and_labels_are_coerced():
    """Float token ids and labels are cast to int64, as they always were."""
    model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
    model.eval()
    out = model(np.array([[1.0, 2.0, 3.0, 4.0]]), labels=np.array([1.0]))
    assert math.isfinite(out.loss_value)
    reference = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
    reference.eval()
    expected = reference(np.array([[1, 2, 3, 4]]), labels=np.array([1])).loss_value
    assert out.loss_value == expected


def test_parameters_are_plain_ndarrays():
    for p in build_model("bert-base", size="tiny").parameters():
        assert type(p.data) is np.ndarray
