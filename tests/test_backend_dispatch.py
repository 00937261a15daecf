"""Cross-array-backend dispatch, registry, and kernel-equivalence suite.

Parametrised over every *registered and installed* array backend — NumPy is
always present, Torch is auto-skipped when its library is absent (the
CI torch job installs CPU torch so the adapter is exercised on every PR).

What this file pins down:

* **Registry contract** — ``get_backend("auto")`` is the NumPy backend on a
  NumPy-only host; unknown names list known vs. installed backends;
  registration/unregistration round-trips.
* **Kernel equivalence** — the generic :mod:`repro.tensor.ops` kernels and
  the checksum/EEC-ABFT stack produce the NumPy reference's results on every
  backend.
* **Fault campaign** — a synthetic single-layer attention pass per backend,
  one injected fault per scenario: detection/correction decisions must be
  byte-identical to the NumPy reference and repaired boundaries numerically
  identical.
* **Spy backends** — a counting backend wrapped around NumPy and a
  simulated foreign backend, which ``test_model_substrate_backends.py`` runs
  as model substrates (zero host round-trips on a shared backend).
"""

import math

import numpy as np
import pytest

from repro.backend import (
    KNOWN_ARRAY_BACKENDS,
    BackendUnavailable,
    NumpyBackend,
    available_array_backends,
    backend_of,
    clear_dispatch_cache,
    get_backend,
    known_array_backends,
    namespace_of,
    register_backend,
    resolve_backend_name,
    unregister_backend,
)
from repro.core.engine import ProtectionEngine
from repro.nn.attention import SectionContext
from repro.tensor import ops
from repro.utils.floatbits import flip_exponent_msb, flip_exponent_msb_inplace

BACKENDS = list(available_array_backends())

SECTIONS_ENABLED = {"AS": True, "CL": True, "O": True}
TARGETS = ("Q", "K", "AS", "CL", "O")
ERRORS = ("inf", "nan", "near_inf")


def to_numpy(backend, value):
    return backend.to_numpy(value)


# ---------------------------------------------------------------------------
# Registry and dispatch contract
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_array_backends()
        assert set(available_array_backends()) <= set(KNOWN_ARRAY_BACKENDS)

    def test_auto_resolves_to_numpy_without_gpu_backend(self):
        # Acceptance criterion: with only NumPy installed, auto IS numpy.
        if available_array_backends() == ("numpy",):
            assert get_backend("auto") is get_backend("numpy")
            assert resolve_backend_name("auto") == "numpy"
        else:  # torch present (CI job): auto must still resolve cleanly
            assert resolve_backend_name("auto") in KNOWN_ARRAY_BACKENDS

    def test_backends_are_cached_singletons(self):
        for name in BACKENDS:
            assert get_backend(name) is get_backend(name)

    def test_unknown_name_lists_known_and_installed(self):
        with pytest.raises(ValueError, match=r"known backends.*installed"):
            get_backend("jax")
        with pytest.raises(ValueError, match="jax"):
            resolve_backend_name("jax")

    def test_missing_library_raises_backend_unavailable(self):
        missing = [n for n in KNOWN_ARRAY_BACKENDS if n not in BACKENDS]
        for name in missing:
            with pytest.raises(BackendUnavailable, match="installed"):
                resolve_backend_name(name)

    def test_register_unregister_roundtrip(self):
        register_backend("unit-test-backend", NumpyBackend)
        try:
            assert "unit-test-backend" in known_array_backends()
            assert get_backend("unit-test-backend").name == "numpy"
        finally:
            unregister_backend("unit-test-backend")
            clear_dispatch_cache()
        assert "unit-test-backend" not in known_array_backends()
        # The static in-tree tuple is never mutated by registration.
        assert KNOWN_ARRAY_BACKENDS == ("numpy", "torch")

    def test_numpy_backend_cannot_be_unregistered(self):
        with pytest.raises(ValueError):
            unregister_backend("numpy")

    def test_dispatch_follows_array_type(self):
        a = np.zeros(3)
        assert backend_of(a) is get_backend("numpy")
        assert namespace_of(a).matmul is np.matmul
        # Scalars and lists fall back to the NumPy reference.
        assert backend_of(1.5) is get_backend("numpy")
        assert backend_of([1, 2]) is get_backend("numpy")


@pytest.mark.parametrize("name", BACKENDS)
class TestBackendProtocol:
    def test_roundtrip_and_identity(self, name):
        backend = get_backend(name)
        host = np.arange(12.0).reshape(3, 4)
        dev = backend.from_numpy(host)
        assert backend.is_backend_array(dev)
        assert np.array_equal(backend.to_numpy(dev), host)
        assert backend.dtype_of(dev) == np.dtype(np.float64)

    def test_copy_is_independent(self, name):
        backend = get_backend(name)
        dev = backend.from_numpy(np.zeros(4))
        clone = backend.copy(dev)
        clone[0] = 7.0
        assert float(backend.to_numpy(dev)[0]) == 0.0

    def test_uint_view_bitflip_in_place(self, name):
        backend = get_backend(name)
        dev = backend.asarray(np.array([1.0, 2.0]))
        view = backend.uint_view(dev)
        one = backend.xp.asarray(1, dtype=view.dtype)
        view[0] = view[0] ^ (one << 62)
        host = backend.to_numpy(dev)
        assert host[0] != 1.0 and host[1] == 2.0

    def test_synchronize_is_safe(self, name):
        get_backend(name).synchronize()


# ---------------------------------------------------------------------------
# Kernel equivalence vs the NumPy reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestKernelEquivalence:
    def _pair(self, name, dtype, shape, seed=0, scale=1.0):
        host = (np.random.default_rng(seed).normal(size=shape) * scale).astype(dtype)
        return host, get_backend(name).from_numpy(host.copy())

    def test_softmax_and_matmul(self, name, dtype):
        backend = get_backend(name)
        a_host, a_dev = self._pair(name, dtype, (2, 4, 5), seed=1)
        b_host, b_dev = self._pair(name, dtype, (2, 5, 3), seed=2)
        np.testing.assert_allclose(
            to_numpy(backend, ops.batched_matmul(a_dev, b_dev)),
            ops.batched_matmul(a_host, b_host), rtol=1e-5, atol=1e-6,
        )
        np.testing.assert_allclose(
            to_numpy(backend, ops.softmax(a_dev)), ops.softmax(a_host),
            rtol=1e-5, atol=1e-6,
        )

    def test_layer_norm_uses_biased_variance(self, name, dtype):
        backend = get_backend(name)
        x_host, x_dev = self._pair(name, dtype, (3, 6), seed=3)
        gamma = np.ones(6, dtype=dtype)
        beta = np.zeros(6, dtype=dtype)
        out_host, _, inv_host = ops.layer_norm(x_host, gamma, beta)
        out_dev, _, inv_dev = ops.layer_norm(
            x_dev, backend.from_numpy(gamma), backend.from_numpy(beta)
        )
        np.testing.assert_allclose(to_numpy(backend, out_dev), out_host,
                                   rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(to_numpy(backend, inv_dev), inv_host,
                                   rtol=1e-4, atol=1e-5)

    def test_gelu_and_backward(self, name, dtype):
        backend = get_backend(name)
        x_host, x_dev = self._pair(name, dtype, (4, 4), seed=4)
        g_host, g_dev = self._pair(name, dtype, (4, 4), seed=5)
        out_host, t_host = ops.gelu(x_host)
        out_dev, t_dev = ops.gelu(x_dev)
        np.testing.assert_allclose(to_numpy(backend, out_dev), out_host, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(to_numpy(backend, t_dev), t_host, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(
            to_numpy(backend, ops.gelu_backward(g_dev, x_dev, t_dev)),
            ops.gelu_backward(g_host, x_host, t_host), rtol=1e-5, atol=1e-6,
        )

    def test_full_reductions_honor_keepdims(self, name, dtype):
        """NumPy semantics: ``axis=None, keepdims=True`` keeps every axis as 1
        (Torch's native reductions silently drop it)."""
        xp = get_backend(name).xp
        _host, dev = self._pair(name, dtype, (2, 3, 4), seed=7)
        for fn in ("sum", "mean", "var", "max", "min"):
            assert tuple(getattr(xp, fn)(dev, keepdims=True).shape) == (1, 1, 1), fn
        assert tuple(xp.any(dev > 0, keepdims=True).shape) == (1, 1, 1)
        assert tuple(xp.all(xp.isfinite(dev), keepdims=True).shape) == (1, 1, 1)

    def test_cross_entropy_matches(self, name, dtype):
        backend = get_backend(name)
        logits_host, logits_dev = self._pair(name, dtype, (6, 3), seed=6)
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert ops.cross_entropy(logits_dev, backend.from_numpy(labels)) == pytest.approx(
            ops.cross_entropy(logits_host, labels), rel=1e-5
        )


# ---------------------------------------------------------------------------
# Synthetic single-layer fault campaign, engine level
# ---------------------------------------------------------------------------

def _split_heads(xp, a, heads):
    b, s, d = a.shape
    return xp.moveaxis(a.reshape(b, s, heads, d // heads), -2, -3)


def _merge_heads(xp, a):
    b, h, s, dh = a.shape
    return xp.moveaxis(a, -3, -2).reshape(b, s, h * dh)


def _layer_params(seed, dtype=np.float64):
    rng = np.random.default_rng(900 + seed)
    b, s, heads, dh = 2, 5, 2, 4
    d = heads * dh
    make = lambda *shape: rng.normal(size=shape).astype(dtype)
    return {
        "geom": (b, s, heads, dh),
        "x": make(b, s, d),
        "w_q": make(d, d), "w_k": make(d, d), "w_v": make(d, d), "w_o": make(d, d),
        "bias_q": make(d), "bias_k": make(d), "bias_v": make(d),
    }


def _inject(boundary, error_type, position):
    if error_type == "inf":
        boundary[position] = math.inf
    elif error_type == "nan":
        boundary[position] = math.nan
    else:  # near_inf: in-place exponent-MSB flip on the owning backend
        flip_exponent_msb_inplace(boundary, position)


def run_layer_campaign(backend_name, seed, target, error_type, dtype=np.float64):
    """One synthetic attention layer, natively on ``backend_name``'s arrays.

    Builds the six GEMMs by hand (so every operand is a native backend
    array), injects one fault, and drives the fused engine through its three
    section dispatches exactly as ``MultiHeadAttention`` would.  Returns the
    per-section decision signature and the (possibly repaired) boundary
    matrices exported to NumPy.
    """
    backend = get_backend(backend_name)
    xp = backend.xp
    p = _layer_params(seed, dtype=dtype)
    b, s, heads, dh = p["geom"]

    dev = {k: backend.from_numpy(np.array(v, copy=True))
           for k, v in p.items() if k != "geom"}
    engine = ProtectionEngine()
    engine.begin_layer(0, SECTIONS_ENABLED)

    def ctx(section, operands):
        return SectionContext(
            section=section, operands=operands, layer_index=0, step=1,
            num_heads=heads, head_dim=dh, seq_len=s, backend=backend,
        )

    outcomes = []
    q_proj = xp.matmul(dev["x"], dev["w_q"]) + dev["bias_q"]
    k_proj = xp.matmul(dev["x"], dev["w_k"]) + dev["bias_k"]
    v_proj = xp.matmul(dev["x"], dev["w_v"]) + dev["bias_v"]
    if target == "Q":
        _inject(q_proj, error_type, (0, 1, 2))
    if target == "K":
        _inject(k_proj, error_type, (1, 2, 3))
    q = _split_heads(xp, q_proj, heads)
    k_t = xp.swapaxes(_split_heads(xp, k_proj, heads), -1, -2)
    v = _split_heads(xp, v_proj, heads)

    as_out = xp.matmul(q, k_t)
    if target == "AS":
        _inject(as_out, error_type, (0, 1, 2, 3))
    outcomes.append(engine.protect_section(ctx("AS", {
        "x": dev["x"], "w_q": dev["w_q"], "w_k": dev["w_k"],
        "bias_q": dev["bias_q"], "bias_k": dev["bias_k"], "q": q, "k_t": k_t,
    }), as_out))

    ap = ops.softmax(as_out * (1.0 / math.sqrt(dh)), axis=-1)
    cl_out = xp.matmul(ap, v)
    if target == "CL":
        _inject(cl_out, error_type, (1, 0, 2, 1))
    outcomes.append(engine.protect_section(ctx("CL", {
        "x": dev["x"], "w_v": dev["w_v"], "bias_v": dev["bias_v"], "ap": ap, "v": v,
    }), cl_out))

    merged = _merge_heads(xp, cl_out)
    o_out = xp.matmul(merged, dev["w_o"])
    if target == "O":
        _inject(o_out, error_type, (0, 2, 5))
    outcomes.append(engine.protect_section(ctx("O", {
        "cl": merged, "w_o": dev["w_o"],
    }), o_out))
    engine.end_layer(0)

    signature = tuple(
        (o.section, o.report.detected, o.report.corrected, o.report.aborted,
         o.report.residual_extreme, o.operand_repairs)
        for o in outcomes if o is not None and o.report is not None
    )
    boundaries = {
        "AS": backend.to_numpy(as_out),
        "CL": backend.to_numpy(cl_out),
        "O": backend.to_numpy(o_out),
    }
    return signature, boundaries


@pytest.mark.parametrize("name", BACKENDS)
class TestSyntheticFaultCampaign:
    def test_decisions_match_numpy_reference(self, name):
        for seed, target in enumerate(TARGETS):
            for error_type in ERRORS:
                ref_sig, ref_bounds = run_layer_campaign(
                    "numpy", seed, target, error_type)
                sig, bounds = run_layer_campaign(name, seed, target, error_type)
                assert sig == ref_sig, (name, target, error_type)
                for section in ("AS", "CL", "O"):
                    np.testing.assert_allclose(
                        bounds[section], ref_bounds[section],
                        rtol=1e-9, atol=1e-9, equal_nan=True,
                        err_msg=f"{name}/{target}/{error_type}/{section}",
                    )

    def test_clean_pass_detects_nothing(self, name):
        signature, _ = run_layer_campaign(name, 0, "none", "inf")
        assert signature  # every enabled section produced a verified report
        assert all(detected == 0 for _, detected, *_ in signature)

    def test_float32_data_corrects_against_float64_checksums(self, name):
        """The paper's fp32 training regime: data float32, checksums float64.

        Pins the mixed-dtype paths (promotion in carried-checksum GEMMs,
        float64 repair values cast back into the float32 matrix) that a
        float64-only campaign cannot reach — on every installed backend.
        """
        for target in ("AS", "O"):
            ref_sig, ref_bounds = run_layer_campaign(
                "numpy", 1, target, "inf", dtype=np.float32)
            sig, bounds = run_layer_campaign(
                name, 1, target, "inf", dtype=np.float32)
            assert sig == ref_sig, (name, target)
            assert any(detected for _, detected, *_ in sig)
            assert any(corrected for _, _, corrected, *_ in sig)
            for section in ("AS", "CL", "O"):
                np.testing.assert_allclose(
                    bounds[section], ref_bounds[section],
                    rtol=1e-4, atol=1e-5, equal_nan=True,
                    err_msg=f"{name}/{target}/{section}",
                )


# ---------------------------------------------------------------------------
# Counting / spy backends
# ---------------------------------------------------------------------------

class CountingBackend(NumpyBackend):
    """NumPy backend that counts every host<->backend conversion call."""

    name = "counting"

    def __init__(self):
        super().__init__()
        self.conversions = {"to_numpy": 0, "from_numpy": 0, "asarray": 0}

    def asarray(self, data, dtype=None):
        self.conversions["asarray"] += 1
        return super().asarray(data, dtype=dtype)

    def from_numpy(self, array, dtype=None):
        self.conversions["from_numpy"] += 1
        return super().from_numpy(array, dtype=dtype)

    def to_numpy(self, array):
        self.conversions["to_numpy"] += 1
        return super().to_numpy(array)


class _SimArray(np.ndarray):
    """Array type of the simulated foreign backend (a plain ndarray view)."""


class SimForeignBackend(NumpyBackend):
    """Simulates a foreign array library on top of NumPy.

    Its native type is the :class:`_SimArray` view subclass, so plain
    ``np.ndarray`` inputs are *foreign* to it — a model substrate on this
    backend exercises adoption and the checkpoint ``xfer/*`` timers without
    needing Torch installed.
    """

    name = "simforeign"

    def __init__(self):
        super().__init__()
        self.adopted = 0
        self.exported = 0

    def asarray(self, data, dtype=None):
        self.adopted += 1
        return np.asarray(data, dtype=dtype).view(_SimArray)

    def to_numpy(self, array):
        self.exported += 1
        return np.asarray(array).view(np.ndarray)

    def is_backend_array(self, obj):
        return isinstance(obj, _SimArray)


# ---------------------------------------------------------------------------
# Creation-follows-input: per-device namespace binding
# ---------------------------------------------------------------------------

class _TaggedArray(np.ndarray):
    """Array type of the device-tagged backend; carries a ``device`` label."""

    device = "dev0"


class _TaggedNamespace:
    """Namespace whose creation functions record the device they allocate on."""

    def __init__(self, base, device):
        self._base = base
        self.device = device

    def zeros(self, shape, dtype=None):
        out = np.zeros(shape, dtype=dtype).view(_TaggedArray)
        out.device = self.device
        return out

    def __getattr__(self, name):
        return getattr(self._base, name)


class DeviceTaggedBackend(NumpyBackend):
    """Simulates a multi-device library: a default device plus per-array
    namespace binding, without needing CUDA (or even torch) installed."""

    name = "devtagged"

    def __init__(self, default_device="dev1"):
        super().__init__()
        self.default_device = default_device
        self.xp = _TaggedNamespace(self.xp, default_device)
        self.namespace_requests = []

    def is_backend_array(self, obj):
        return isinstance(obj, _TaggedArray)

    def namespace_for(self, array):
        device = getattr(array, "device", self.default_device)
        self.namespace_requests.append(device)
        return _TaggedNamespace(NumpyBackend().xp, device)


class TestCreationFollowsInput:
    """Regression for the ROADMAP known gap: creation functions allocating on
    the backend's *default* device instead of the input's device."""

    def test_namespace_of_binds_to_the_arrays_device(self):
        backend = DeviceTaggedBackend(default_device="dev1")
        register_backend("devtagged", lambda: backend)
        clear_dispatch_cache()
        try:
            cpu_like = np.zeros((2, 2)).view(_TaggedArray)
            xp = namespace_of(cpu_like)
            # The namespace is bound to the array's own device, so a mask
            # created inside a kernel lands beside its input — not on the
            # backend's defaulting device.
            assert xp.device == "dev0"
            assert xp.zeros((1,)).device == "dev0"
            assert backend.xp.zeros((1,)).device == "dev1"
            assert backend.namespace_requests[-1] == "dev0"
        finally:
            unregister_backend("devtagged")
            clear_dispatch_cache()

    def test_default_namespace_for_is_xp(self):
        backend = NumpyBackend()
        assert backend.namespace_for(np.zeros(3)) is backend.xp


@pytest.mark.skipif("torch" not in BACKENDS, reason="torch not installed")
class TestTorchCreationDevice:
    """The Torch adapter's creation functions must follow the input's device.

    The ``meta`` device allocates without data, so a meta-defaulting backend
    exercises the cross-device case on a CPU-only host: before the fix, a CPU
    tensor driven through it met meta-resident checksum weights and report
    masks; with per-device namespace binding everything stays on CPU.
    """

    def test_namespace_follows_cpu_input_through_foreign_default(self):
        import torch

        from repro.backend.torch_backend import TorchBackend

        backend = TorchBackend(device="meta")
        assert backend.xp.zeros((2,)).device.type == "meta"
        cpu = torch.zeros(3)
        ns = backend.namespace_for(cpu)
        assert ns.zeros((2,)).device.type == "cpu"
        assert ns.ones((2,)).device.type == "cpu"
        assert ns.arange(4).device.type == "cpu"
        assert ns.full((2,), 7.0).device.type == "cpu"

    def test_namespace_instances_are_cached_per_device(self):
        import torch

        from repro.backend.torch_backend import TorchBackend

        backend = TorchBackend(device="meta")
        cpu = torch.zeros(3)
        assert backend.namespace_for(cpu) is backend.namespace_for(torch.ones(2))
        assert backend.namespace_for(cpu) is not backend.xp
        meta = torch.zeros(2, device="meta")
        assert backend.namespace_for(meta) is backend.xp

    def test_embedding_indices_and_grad_seed_adopt_beside_weight(self):
        """Host token ids and explicit host gradients adopt onto the data's
        device (via the device-bound namespace), not the backend's default."""
        import torch

        from repro.backend.torch_backend import TorchBackend
        from repro.tensor import autograd as ag
        from repro.tensor.autograd import Tensor

        backend = TorchBackend(device="meta")
        weight = Tensor(torch.randn(8, 4, dtype=torch.float64),
                        backend=backend, requires_grad=True)
        out = ag.embedding(weight, np.array([[0, 3], [2, 1]]))
        assert out.data.device.type == "cpu"
        total = out.sum()
        total.backward(np.asarray(1.0))     # host seed adopts beside the data
        assert weight.grad.device.type == "cpu"

    def test_registry_backend_checksums_stay_on_input_device(self):
        """End to end through the generic kernels: checksum weight vectors
        created inside ``encode_column_checksums`` land on the input's
        device (dispatch routes through ``namespace_for``)."""
        import torch

        from repro.core.checksums import encode_column_checksums

        x = get_backend("torch").from_numpy(np.random.default_rng(0).normal(size=(2, 3, 4)))
        cs = encode_column_checksums(x)
        assert cs.device == x.device


# ---------------------------------------------------------------------------
# Device-resident fault injection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inplace_exponent_flip_matches_host_reference(name, dtype):
    backend = get_backend(name)
    host = (np.arange(1, 7, dtype=dtype) / 3.0).reshape(2, 3)
    dev = backend.from_numpy(host.copy())
    flip_exponent_msb_inplace(dev, (1, 2), backend=backend)
    expected = host.copy()
    expected[1, 2] = flip_exponent_msb(expected[1, 2], dtype=dtype)
    np.testing.assert_array_equal(backend.to_numpy(dev), expected)
    # Flipping again restores the original bits exactly.
    flip_exponent_msb_inplace(dev, (1, 2), backend=backend)
    np.testing.assert_array_equal(backend.to_numpy(dev), host)


def test_inplace_flip_rejects_unsupported_dtype():
    with pytest.raises(TypeError):
        flip_exponent_msb_inplace(np.zeros(3, dtype=np.int64), (0,))
