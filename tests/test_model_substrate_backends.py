"""Device-resident model substrate: autograd + model zoo on array backends.

PR 3 made the *checker* stack backend-generic; this suite pins the port of the
model substrate itself (``build_model(..., array_backend=...)``):

* **Golden seed outputs** — the pure-NumPy path is byte-identical to the
  pre-refactor engine: eval loss, three protected training-step losses and
  the final weight sum of every model family match hard-coded goldens
  captured before the port.
* **Zero host round-trips** — a counting/spy backend substrate runs full
  protected training steps (fused engine and the per-GEMM reference, both
  following the model) with *zero* backend
  conversion calls: one shared backend means a device-resident step never
  crosses to the host.
* **Foreign substrate end to end** — the simulated-foreign backend (an
  ndarray-subclass array type) carries parameters, activations, gradients
  and optimizer state natively; decisions equal the NumPy
  reference; on-disk checkpoints export through the backend (timed under
  ``xfer/d2h``) and restore adopts back (``xfer/h2d``).
* **Torch substrate** (skipped without torch; the CPU-torch CI job runs it) —
  full-model training campaigns byte-compare detection/correction decisions
  against the NumPy reference and match losses numerically.
"""

import math
import tempfile

import numpy as np
import pytest

from repro.backend import (
    backend_available,
    clear_dispatch_cache,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.core import CHECKER_BACKENDS, ATTNChecker, ATTNCheckerConfig
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.data import SyntheticMRPC
from repro.training import Trainer, TrainerConfig
from repro.training.checkpoint import CheckpointManager
from repro.training.optimizer import SGD, AdamW
from repro.utils.timing import TimingRegistry, XFER_D2H, XFER_H2D

from test_backend_dispatch import CountingBackend, SimForeignBackend, _SimArray

#: Captured from the pure-NumPy substrate immediately before the port
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

def _batch_for(model, seed=5, batch=4, offset=0):
    data = SyntheticMRPC(
        num_examples=16 + offset + batch,
        max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
        seed=seed,
    )
    return dict(data.encode(range(offset, offset + batch)))


def run_protected_training(
    model_name,
    array_backend=None,
    backend="fused",
    steps=3,
    matrix="AS",
    error_type="inf",
    optimizer_cls=SGD,
):
    """A short single-fault protected fine-tuning run on one substrate.

    Returns losses, detection/correction counters and the model+checker for
    further inspection.  Seeds match the :data:`NUMPY_GOLDENS` capture.
    """
    model = build_model(
        model_name, size="tiny", rng=np.random.default_rng(7),
        array_backend=array_backend,
    )
    batch = _batch_for(model)
    injector = FaultInjector(
        [FaultSpec(matrix=matrix, error_type=error_type, layer_index=0)],
        rng=np.random.default_rng(3),
    )
    checker = ATTNChecker(ATTNCheckerConfig(backend=backend))
    trainer = Trainer(
        model,
        config=TrainerConfig(learning_rate=1e-3),
        optimizer=optimizer_cls(model.parameters(), lr=1e-3),
        checker=checker,
        fault_hooks=[injector],
    )
    losses = [trainer.train_step(batch).loss for _ in range(steps)]
    return {
        "model": model,
        "trainer": trainer,
        "checker": checker,
        "losses": losses,
        "detections": checker.stats.total_detections,
        "corrections": checker.stats.total_corrections,
        "weight_sum": float(sum(
            float(p.xp.sum(p.xp.astype(p.data, p.xp.float64)))
            for p in model.parameters()
        )),
    }


# ---------------------------------------------------------------------------
# NumPy path: byte-identical to the pre-refactor substrate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name", sorted(NUMPY_GOLDENS))
def test_numpy_substrate_matches_pre_refactor_goldens(model_name):
    golden = NUMPY_GOLDENS[model_name]
    model = build_model(model_name, size="tiny", rng=np.random.default_rng(7))
    batch = _batch_for(model)
    model.eval()
    out = model(batch["input_ids"], attention_mask=batch["attention_mask"],
                labels=batch["labels"])
    assert out.loss_value == golden["eval_loss"]

    result = run_protected_training(model_name)
    assert result["losses"] == golden["train_losses"]
    assert result["weight_sum"] == golden["weight_sum"]
    assert result["detections"] == 1 and result["corrections"] == 1


@pytest.mark.parametrize("array_backend", [None, "numpy"])
def test_non_integer_inputs_and_labels_are_coerced(array_backend):
    """Owning the array type must not skip the historical int64 coercion:
    float token ids / labels worked before the port and must keep working on
    both the default and the explicitly-named NumPy substrate."""
    model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0),
                        array_backend=array_backend)
    model.eval()
    input_ids = np.array([[1.0, 2.0, 3.0, 4.0]])
    out = model(input_ids, labels=np.array([1.0]))
    assert math.isfinite(out.loss_value)
    reference = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
    reference.eval()
    expected = reference(np.array([[1, 2, 3, 4]]), labels=np.array([1])).loss_value
    assert out.loss_value == expected


def test_numpy_substrate_parameters_are_plain_ndarrays():
    model = build_model("bert-base", size="tiny")
    assert model.array_backend is None
    for p in model.parameters():
        assert type(p.data) is np.ndarray
        assert p.backend is get_backend("numpy")


# ---------------------------------------------------------------------------
# build_model plumbing
# ---------------------------------------------------------------------------

class TestBuildModelPlumbing:
    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError, match="known backends"):
            build_model("bert-base", size="tiny", array_backend="jax")

    def test_accepts_backend_instance_and_name(self):
        instance = get_backend("numpy")
        by_instance = build_model("bert-base", size="tiny", array_backend=instance)
        by_name = build_model("bert-base", size="tiny", array_backend="numpy")
        assert by_instance.array_backend is instance
        assert by_name.array_backend is instance  # registry instances are cached

    def test_backend_threads_to_every_layer(self):
        backend = get_backend("numpy")
        model = build_model("gpt-neo", size="tiny", array_backend=backend)
        for layer in model.attention_layers():
            assert layer.array_backend is backend
        for p in model.parameters():
            assert p.backend is backend

    def test_trainer_surfaces_model_substrate_backend(self):
        model = build_model("bert-base", size="tiny", array_backend="numpy")
        trainer = Trainer(model, config=TrainerConfig())
        assert trainer.model_array_backend == "numpy"


# ---------------------------------------------------------------------------
# Counting/spy substrate: zero host round-trips on a shared backend
# ---------------------------------------------------------------------------

@pytest.fixture
def counting_substrate():
    backend = CountingBackend()
    register_backend("counting-substrate", lambda: backend)
    clear_dispatch_cache()
    yield backend
    unregister_backend("counting-substrate")
    clear_dispatch_cache()


@pytest.mark.parametrize("backend", CHECKER_BACKENDS)
def test_full_protected_step_zero_conversions_on_shared_backend(counting_substrate, backend):
    """Acceptance criterion: a full protected training step (fused engine
    and the per-GEMM reference) on a
    non-NumPy-named backend performs zero host round-trips — the checker
    runs on the model's backend.

    The spy's arrays *are* ndarrays, so everything (forward, checker chain,
    backward, optimizer update, state snapshots) is native — the counters
    prove no ``to_numpy`` / ``from_numpy`` / ``asarray`` backend conversion
    runs anywhere in the step.
    """
    result = run_protected_training(
        "bert-base", array_backend="counting-substrate", backend=backend,
        error_type="near_inf", optimizer_cls=AdamW,
    )
    assert result["detections"] >= 1
    assert counting_substrate.conversions == {
        "to_numpy": 0, "from_numpy": 0, "asarray": 0,
    }
    # The substrate handle survived the whole op chain: every parameter and
    # optimizer slot still belongs to the spy instance.
    for p in result["model"].parameters():
        assert p.backend is counting_substrate


def test_counting_substrate_matches_numpy_goldens(counting_substrate):
    """The spy wrapper changes ownership bookkeeping only — same math,
    bit for bit, as the NumPy goldens."""
    result = run_protected_training("bert-base", array_backend="counting-substrate")
    golden = NUMPY_GOLDENS["bert-base"]
    assert result["losses"] == golden["train_losses"]
    assert result["weight_sum"] == golden["weight_sum"]
    assert counting_substrate.conversions["to_numpy"] == 0


# ---------------------------------------------------------------------------
# Simulated-foreign substrate: adoption, state, checkpoint transfer keys
# ---------------------------------------------------------------------------

@pytest.fixture
def foreign_substrate():
    backend = SimForeignBackend()
    register_backend("simforeign-substrate", lambda: backend)
    clear_dispatch_cache()
    yield backend
    unregister_backend("simforeign-substrate")
    clear_dispatch_cache()


class TestForeignSubstrate:
    def test_everything_stays_native_and_decisions_match_numpy(self, foreign_substrate):
        reference = run_protected_training("bert-base")
        result = run_protected_training(
            "bert-base", array_backend="simforeign-substrate")
        assert result["losses"] == reference["losses"]
        assert result["detections"] == reference["detections"]
        assert result["corrections"] == reference["corrections"]
        model, trainer = result["model"], result["trainer"]
        for p in model.parameters():
            assert isinstance(p.data, _SimArray)
            if p.grad is not None:
                assert isinstance(p.grad, _SimArray)
        # state_dict snapshots are backend-native (device state stays put).
        assert all(isinstance(v, _SimArray) for v in model.state_dict().values())
        for slot in trainer.optimizer._velocity:
            if slot is not None:
                assert isinstance(slot, _SimArray)

    def test_disk_checkpoint_exports_and_adopts_through_backend(self, foreign_substrate):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(7),
                            array_backend="simforeign-substrate")
        batch = _batch_for(model)
        timers = TimingRegistry()
        with tempfile.TemporaryDirectory() as directory:
            manager = CheckpointManager(directory=directory, timers=timers)
            optimizer = AdamW(model.parameters(), lr=1e-3)
            trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3),
                              optimizer=optimizer)
            trainer.train_step(batch)
            exported_before = foreign_substrate.exported
            manager.save(trainer.global_step, model, optimizer)
            assert foreign_substrate.exported > exported_before        # d2h export
            assert timers.elapsed(XFER_D2H) > 0.0

            trainer.train_step(batch)
            adopted_before = foreign_substrate.adopted
            manager.restore(model, optimizer)
            assert foreign_substrate.adopted > adopted_before          # h2d adopt
            assert timers.elapsed(XFER_H2D) > 0.0
            for p in model.parameters():
                assert isinstance(p.data, _SimArray)
            for slot in optimizer._m:
                if slot is not None:
                    assert isinstance(slot, _SimArray)

    def test_in_memory_checkpoint_never_crosses_host(self, foreign_substrate):
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(7),
                            array_backend="simforeign-substrate")
        batch = _batch_for(model)
        timers = TimingRegistry()
        manager = CheckpointManager(timers=timers)   # in-memory
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3))
        trainer.train_step(batch)
        exported_before = foreign_substrate.exported
        manager.save(trainer.global_step, model, trainer.optimizer)
        manager.restore(model, trainer.optimizer)
        assert foreign_substrate.exported == exported_before
        assert timers.elapsed(XFER_D2H) == 0.0 and timers.elapsed(XFER_H2D) == 0.0
        for p in model.parameters():
            assert isinstance(p.data, _SimArray)


# ---------------------------------------------------------------------------
# Module/optimizer state-dict adoption contract
# ---------------------------------------------------------------------------

def test_load_state_dict_adopts_host_arrays(foreign_substrate):
    model = build_model("bert-base", size="tiny", rng=np.random.default_rng(7),
                        array_backend="simforeign-substrate")
    host_state = {k: np.asarray(v).view(np.ndarray).copy()
                  for k, v in model.state_dict().items()}
    model.load_state_dict(host_state)
    for p in model.parameters():
        assert isinstance(p.data, _SimArray)


def test_backward_seeds_root_gradient_on_owning_backend(foreign_substrate):
    from repro.tensor.autograd import Tensor

    x = Tensor(foreign_substrate.from_numpy(np.ones((2, 3))), requires_grad=True)
    loss = (x * 2.0).sum()
    loss.backward()
    assert isinstance(x.grad, _SimArray)
    np.testing.assert_array_equal(np.asarray(x.grad), np.full((2, 3), 2.0))


# ---------------------------------------------------------------------------
# Torch substrate (CPU wheels in CI; skipped when torch is absent)
# ---------------------------------------------------------------------------

needs_torch = pytest.mark.skipif(
    not backend_available("torch"), reason="torch not installed"
)


@needs_torch
class TestTorchSubstrate:
    def test_parameters_are_torch_tensors(self):
        backend = get_backend("torch")
        model = build_model("bert-base", size="tiny", array_backend="torch")
        for p in model.parameters():
            assert backend.is_backend_array(p.data)

    @pytest.mark.parametrize("error_type", ["inf", "nan", "near_inf"])
    def test_training_campaign_decisions_match_numpy_reference(self, error_type):
        reference = run_protected_training("bert-base", error_type=error_type)
        result = run_protected_training(
            "bert-base", array_backend="torch", error_type=error_type)
        # Decisions byte-compare; losses agree numerically (different BLAS).
        assert result["detections"] == reference["detections"]
        assert result["corrections"] == reference["corrections"]
        np.testing.assert_allclose(result["losses"], reference["losses"],
                                   rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(result["weight_sum"], reference["weight_sum"],
                                   rtol=1e-7)

    def test_checker_buffers_stay_on_the_substrate(self):
        backend = get_backend("torch")
        result = run_protected_training("gpt2", array_backend="torch",
                                        error_type="near_inf")
        assert result["detections"] >= 1
        buffers = [entry[2] for entry in result["checker"].engine.workspace._slots.values()]
        assert buffers
        assert all(backend.is_backend_array(buffer) for buffer in buffers)

    def test_checkpoint_roundtrip_and_evaluate(self):
        backend = get_backend("torch")
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(7),
                            array_backend="torch")
        batch = _batch_for(model)
        with tempfile.TemporaryDirectory() as directory:
            manager = CheckpointManager(directory=directory, timers=TimingRegistry())
            trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3))
            trainer.train_step(batch)
            manager.save(trainer.global_step, model, trainer.optimizer)
            trainer.train_step(batch)
            manager.restore(model, trainer.optimizer)
        for p in model.parameters():
            assert backend.is_backend_array(p.data)
        metrics = trainer.evaluate([batch])
        assert math.isfinite(metrics["loss"])
        assert 0.0 <= metrics["accuracy"] <= 1.0
