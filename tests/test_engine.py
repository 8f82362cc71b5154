"""Tests for the execution engine: backends, grad modes, and the tape.

Covers the three tentpole pieces of the engine refactor:

* the named default dtypes (:class:`~repro.nn.backend.Backend`) and the
  dtype threading (``use_backend`` / ``CompressionSpec.dtype``),
* the grad-mode switch (``no_grad`` / ``enable_grad`` + eval-mode
  modules running tape-free),
* the recorded-op tape (registered ops, profiling hooks, and the
  regression guarantee that inference paths allocate zero tape nodes).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro import nn
from repro.core.trainer import ClassifierTrainer, evaluate_accuracy
from repro.data import DataLoader, make_synthetic_dataset
from repro.models import lenet
from repro.nn import functional as F
from repro.nn.backend import (
    _initial_backend,
    available_backends,
    current_backend,
    get_backend,
    get_default_dtype,
    set_backend,
    use_backend,
)
from repro.nn.tensor import (
    Tensor,
    enable_grad,
    is_grad_enabled,
    no_grad,
    observe_ops,
    registered_ops,
    tape_nodes_created,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def dataset():
    return make_synthetic_dataset(128, num_classes=4, image_shape=(1, 12, 12), seed=3)


def tape_delta(fn):
    """Tape nodes allocated while running ``fn()``."""
    before = tape_nodes_created()
    fn()
    return tape_nodes_created() - before


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "numpy" in names and "numpy32" in names and "numpy64" in names

    def test_numpy32_defaults_to_float32(self):
        assert get_backend("numpy32").dtype == np.float32
        assert get_backend("numpy64").dtype == np.float64

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_backend("tpu-v7")

    def test_use_backend_scopes_default_dtype(self):
        outer = get_default_dtype()
        with use_backend("numpy32"):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).dtype == np.float32
        assert get_default_dtype() == outer

    def test_dtype_only_override(self):
        with use_backend(dtype="float32"):
            assert current_backend().dtype == np.float32
            assert nn.zeros((3,)).dtype == np.float32

    def test_numpy32_is_a_float32_default(self):
        assert get_backend("numpy32") == get_backend("numpy", "float32")
        with use_backend(dtype="float32"):
            assert current_backend() == get_backend("numpy32")

    def test_backend_names_are_exact(self):
        # A second spelling would give identical work a second cache key.
        api.CompressionSpec(method="magnitude", backend="numpy32").validate()
        with pytest.raises(KeyError, match="unknown backend 'NumPy32'"):
            api.CompressionSpec(method="magnitude",
                                backend="NumPy32").validate()

    def test_models_built_under_float32_backend_are_float32(self, rng):
        with use_backend("numpy32"):
            model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        assert all(p.dtype == np.float32 for p in model.parameters())
        for _, buf in model.named_buffers():
            assert buf.dtype == np.float32

    def test_loader_emits_backend_dtype(self, dataset):
        loader = DataLoader(dataset, batch_size=16)
        with use_backend("numpy32"):
            images, _ = next(iter(loader))
            assert images.dtype == np.float32
        images, _ = next(iter(loader))
        assert images.dtype == get_default_dtype()


def _via_env(value, monkeypatch):
    monkeypatch.setenv("REPRO_DEFAULT_DTYPE", value)
    _initial_backend()


def _via_set_default_dtype(value, monkeypatch):
    with use_backend():  # a scope, so a wrongly accepted value cannot leak
        nn.set_default_dtype(value)


def _via_set_backend(value, monkeypatch):
    previous = current_backend()
    try:
        set_backend("numpy", dtype=value)
    finally:
        set_backend(previous)


def _via_use_backend(value, monkeypatch):
    with use_backend(dtype=value):
        pass


def _via_spec(value, monkeypatch):
    api.CompressionSpec(method="magnitude", dtype=value).validate()


@pytest.mark.parametrize("entry", [_via_env, _via_set_default_dtype,
                                   _via_set_backend, _via_use_backend,
                                   _via_spec])
@pytest.mark.parametrize("value", ["int32", "int64", "bool", "complex128",
                                   "flaot32"])
def test_default_dtype_must_be_floating_at_every_entry_point(
        entry, value, monkeypatch):
    # An integer default would silently truncate: Tensor([1.5]) -> [1].
    before = get_default_dtype()
    with pytest.raises(ValueError, match=f"'{value}'"):
        entry(value, monkeypatch)
    assert get_default_dtype() == before


class TestGradModes:
    def test_no_grad_skips_tape(self):
        a = Tensor(np.ones((4, 4)), requires_grad=True)
        with no_grad():
            delta = tape_delta(lambda: ((a * 2.0) + 1.0).sum())
        assert delta == 0

    def test_no_grad_output_does_not_require_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = a * 3.0
        assert not out.requires_grad
        with pytest.raises(RuntimeError):
            out.sum().backward()

    def test_enable_grad_restores_inside_no_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            with enable_grad():
                assert is_grad_enabled()
                out = (a * 2.0).sum()
        out.backward()
        assert np.allclose(a.grad, 2.0)

    def test_grad_mode_nesting_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_decorator_form(self):
        @no_grad()
        def inference(x):
            return (x * 2.0).sum()

        a = Tensor(np.ones(3), requires_grad=True)
        assert not inference(a).requires_grad

    def test_eval_module_forward_is_tape_free(self, rng):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        x = Tensor(rng.standard_normal((2, 1, 12, 12)))
        model.eval()
        assert tape_delta(lambda: model(x)) == 0

    def test_train_module_forward_records_tape(self, rng):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        x = Tensor(rng.standard_normal((2, 1, 12, 12)))
        model.train()
        assert tape_delta(lambda: model(x)) > 0

    def test_eval_module_honors_explicit_enable_grad(self, rng):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        x = Tensor(rng.standard_normal((2, 1, 12, 12)), requires_grad=True)
        model.eval()
        with enable_grad():
            out = model(x).sum()
        out.backward()
        assert x.grad is not None

    def test_frozen_submodule_does_not_detach_training_graph(self, rng):
        # A frozen (eval-mode) layer inside a training model must stay on
        # the tape: gradients have to reach the layers upstream of it.
        conv = nn.Conv2d(1, 2, 3, rng=rng)
        bn = nn.BatchNorm2d(2)
        head = nn.Sequential(nn.Flatten(), nn.Linear(2 * 8 * 8, 2, rng=rng))
        model = nn.Sequential(conv, bn, head)
        model.train()
        bn.eval()  # e.g. frozen running statistics
        out = model(Tensor(rng.standard_normal((2, 1, 10, 10)))).sum()
        out.backward()
        assert conv.weight.grad is not None
        assert np.any(conv.weight.grad != 0)

    def test_set_default_dtype_does_not_corrupt_registry_cache(self):
        previous = current_backend()
        try:
            set_backend("numpy32")
            nn.set_default_dtype("float64")
            assert get_default_dtype() == np.float64
            # The cached registry instance must be untouched.
            assert get_backend("numpy32").dtype == np.float32
        finally:
            set_backend(previous)

    def test_conv2d_bias_grad_keeps_bias_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 3, 1, 1)), requires_grad=True)
        F.conv2d(x, w, b).sum().backward()
        assert b.grad.shape == (1, 3, 1, 1)

    def test_backward_still_works_after_eval_roundtrip(self, rng):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        x = Tensor(rng.standard_normal((2, 1, 12, 12)))
        model.eval()
        model(x)
        model.train()
        out = model(x).sum()
        out.backward()
        assert all(p.grad is not None for p in model.parameters())


class TestInferenceIsTapeFree:
    """Regression tests for the no-tape guarantee on every accuracy probe."""

    def test_trainer_evaluate_allocates_no_tape_nodes(self, rng, dataset):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        trainer = ClassifierTrainer(model, lr=0.05)
        loader = DataLoader(dataset, batch_size=32)
        assert tape_delta(lambda: trainer.evaluate(loader)) == 0

    def test_evaluate_accuracy_allocates_no_tape_nodes(self, rng, dataset):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        loader = DataLoader(dataset, batch_size=32)
        assert tape_delta(lambda: evaluate_accuracy(model, loader)) == 0

    def test_evaluate_restores_training_mode(self, rng, dataset):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        loader = DataLoader(dataset, batch_size=64)
        model.train()
        evaluate_accuracy(model, loader)
        assert model.training

    def test_pipeline_accuracy_probe_allocates_no_tape_nodes(self, dataset):
        # epochs=0 exercises the dense profile and both accuracy probes of
        # the pipeline without any training: nothing may touch the tape.
        delta = tape_delta(lambda: api.compress(
            "lenet", method="magnitude", data=dataset, hardware=None, epochs=0))
        assert delta == 0


class TestFloat32Parity:
    """float32 end-to-end compress() stays within tolerance of float64."""

    @pytest.mark.parametrize("method", ["alf", "magnitude"])
    def test_compress_accuracy_parity(self, method, dataset):
        reports = {
            dtype: api.compress("lenet", method=method, data=dataset,
                                hardware=None, epochs=1, seed=0, dtype=dtype)
            for dtype in ("float64", "float32")
        }
        acc64 = reports["float64"].accuracy
        acc32 = reports["float32"].accuracy
        assert all(p.dtype == np.float32
                   for p in reports["float32"].model.parameters())
        # One epoch on the small synthetic task: the fast path must report
        # an accuracy within a few points of the float64 reference.
        assert abs(acc64 - acc32) <= 0.08
        # The cost accounting is dtype-independent.
        assert reports["float32"].cost == reports["float64"].cost

    def test_sweep_dtype_override(self, dataset):
        specs = [api.CompressionSpec(method="magnitude"),
                 api.CompressionSpec(method="lowrank")]
        result = api.run_sweep(specs, model="lenet", input_shape=(1, 12, 12),
                               data=dataset, hardware=None, dtype="float32")
        for report in result.reports:
            assert all(p.dtype == np.float32 for p in report.model.parameters())

    def test_sweep_rejects_mixed_dtypes(self):
        specs = [api.CompressionSpec(method="magnitude", dtype="float32"),
                 api.CompressionSpec(method="lowrank", dtype="float64")]
        with pytest.raises(ValueError):
            api.run_sweep(specs, model="lenet", input_shape=(1, 12, 12))


class TestTapeIntrospection:
    def test_core_ops_are_registered(self):
        ops = registered_ops()
        for name in ("add", "mul", "matmul", "conv2d", "max_pool2d",
                     "avg_pool2d", "ste_bridge", "clip_mask"):
            assert name in ops

    def test_profile_ops_counts_conv(self, rng):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        x = Tensor(rng.standard_normal((2, 1, 12, 12)))
        records = []
        with observe_ops(records.append):
            model(x)
        convs = [record for record in records if record.op.name == "conv2d"]
        assert len(convs) >= 2
        assert all(record.seconds >= 0.0 for record in convs)
        assert all(record.out.shape[0] == 2 for record in convs)

    def test_spec_validates_dtype_and_backend(self):
        with pytest.raises(ValueError):
            api.CompressionSpec(method="magnitude", dtype="int32").validate()
        with pytest.raises(KeyError):
            api.CompressionSpec(method="magnitude", backend="nope").validate()
