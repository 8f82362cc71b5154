"""Determinism / isolation / failure-path tests for sharded ``run_sweep()``.

A parallel sweep runner is only trustworthy if (a) every executor strategy
produces the *same* :class:`SweepResult` as the serial reference, (b) no
shard leaks backend / dtype / grad-mode / op-hook state into its
neighbours or into the caller, and (c) one poisoned spec cannot take the
other shards' reports down with it.  This module pins all three down, plus
the serialization guarantees process shards rely on.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

import repro.api as api
from repro import nn
from repro.api.executor import (
    EngineState,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from repro.data import make_synthetic_dataset
from repro.models import lenet
from repro.nn import Tensor, no_grad
from repro.nn.backend import current_backend, get_default_dtype
from repro.nn.tensor import (
    grad_mode_override,
    installed_op_hooks,
    tape_nodes_created,
)

EXECUTORS = ["serial", "thread", "process"]
INPUT_SHAPE = (1, 12, 12)

#: Light method set for cost-only determinism runs (no agent search).
LIGHT_METHODS = ["magnitude", "lowrank", "lcnn"]


def build_model(seed: int = 0):
    return lenet(num_classes=4, in_channels=1, width=8,
                 rng=np.random.default_rng(seed))


def sweep_table(sweep: api.SweepResult):
    """Every table-level quantity of a sweep, for exact comparison."""
    rows = [(r.method, r.cost["params"], r.cost["macs"], r.cost["ops"],
             r.accuracy, r.remaining_filter_fraction,
             r.energy_reduction, r.latency_reduction)
            for r in sweep.reports]
    return (sweep.dense.cost, sweep.dense.accuracy, rows)


def cost_specs(**overrides):
    return [api.CompressionSpec(method=m, **overrides) for m in LIGHT_METHODS]


# --------------------------------------------------------------------------- #
# Executor registry / resolution
# --------------------------------------------------------------------------- #
class TestExecutorRegistry:
    def test_builtin_executors_registered(self):
        for name in EXECUTORS:
            assert name in api.available_executors()

    def test_unknown_executor_raises(self):
        with pytest.raises(KeyError, match="unknown executor"):
            api.get_executor("gpu-cluster")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            api.register_executor("serial", SerialExecutor)

    def test_env_var_selects_default_executor(self, monkeypatch):
        monkeypatch.setenv(api.EXECUTOR_ENV_VAR, "thread")
        assert isinstance(resolve_executor(None), ThreadExecutor)

    def test_explicit_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(api.EXECUTOR_ENV_VAR, "thread")
        assert isinstance(resolve_executor("process"), ProcessExecutor)

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(api.EXECUTOR_ENV_VAR, raising=False)
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_executor_instances_pass_through(self):
        instance = ThreadExecutor()
        assert resolve_executor(instance) is instance

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            SerialExecutor().pool_capacity(0)


# --------------------------------------------------------------------------- #
# Determinism: every executor == the serial reference
# --------------------------------------------------------------------------- #
class TestDeterministicMerge:
    @pytest.fixture(scope="class")
    def serial_cost_sweep(self):
        return api.run_sweep(cost_specs(), model=build_model(), hardware=None,
                             input_shape=INPUT_SHAPE, executor="serial")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_cost_sweep_matches_serial(self, executor, serial_cost_sweep):
        sweep = api.run_sweep(cost_specs(), model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE, executor=executor,
                              max_workers=2)
        assert sweep_table(sweep) == sweep_table(serial_cost_sweep)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_reports_merge_in_spec_order(self, executor):
        sweep = api.run_sweep(cost_specs(), model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE, executor=executor,
                              max_workers=3)
        assert sweep.methods() == LIGHT_METHODS

    def test_trained_sweep_identical_across_executors(self):
        dataset = make_synthetic_dataset(80, num_classes=4,
                                         image_shape=INPUT_SHAPE, seed=0)
        specs = [api.CompressionSpec(method="magnitude", epochs=1),
                 api.CompressionSpec(method="lowrank", epochs=1)]
        tables = []
        for executor in EXECUTORS:
            sweep = api.run_sweep(specs, model=build_model(), data=dataset,
                                  hardware=None, input_shape=INPUT_SHAPE,
                                  executor=executor, max_workers=2)
            tables.append(sweep_table(sweep))
        assert tables[0] == tables[1] == tables[2]

    def test_float32_sweep_identical_across_executors(self):
        """The float32 fast path must shard exactly like float64."""
        dataset = make_synthetic_dataset(80, num_classes=4,
                                         image_shape=INPUT_SHAPE, seed=0)
        specs = [api.CompressionSpec(method="magnitude", epochs=1,
                                     dtype="float32"),
                 api.CompressionSpec(method="lcnn", dtype="float32")]
        tables = []
        for executor in EXECUTORS:
            sweep = api.run_sweep(specs, model=build_model(), data=dataset,
                                  hardware=None, input_shape=INPUT_SHAPE,
                                  executor=executor, max_workers=2)
            tables.append(sweep_table(sweep))
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_hardware_tables_match_serial(self, executor):
        specs = [api.CompressionSpec(method="magnitude"),
                 api.CompressionSpec(method="fpgm")]
        reference = api.run_sweep(specs, model=build_model(),
                                  hardware=api.EYERISS_PAPER,
                                  input_shape=INPUT_SHAPE, executor="serial")
        sweep = api.run_sweep(specs, model=build_model(),
                              hardware=api.EYERISS_PAPER,
                              input_shape=INPUT_SHAPE, executor=executor,
                              max_workers=2)
        assert sweep_table(sweep) == sweep_table(reference)
        assert sweep.reports[0].energy_reduction is not None

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_dense_baseline_identity_is_preserved(self, executor):
        """Worker copies of the dense baseline are dropped in the merge."""
        sweep = api.run_sweep(cost_specs(), model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE, executor=executor,
                              max_workers=2)
        assert all(report.dense is sweep.dense for report in sweep.reports)

    def test_parent_backend_scope_reaches_workers(self):
        """A use_backend scope around run_sweep applies inside every shard."""
        for executor in EXECUTORS:
            with nn.use_backend("numpy32"):
                sweep = api.run_sweep(
                    [api.CompressionSpec(method="magnitude")],
                    model=build_model(), hardware=None,
                    input_shape=INPUT_SHAPE, executor=executor, max_workers=2)
            model = sweep.reports[0].model
            assert all(p.dtype == np.float32 for p in model.parameters()), executor

    def test_env_selected_executor_runs_the_sweep(self, monkeypatch):
        monkeypatch.setenv(api.EXECUTOR_ENV_VAR, "thread")
        reference = api.run_sweep(cost_specs(), model=build_model(),
                                  hardware=None, input_shape=INPUT_SHAPE,
                                  executor="serial")
        sweep = api.run_sweep(cost_specs(), model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE, max_workers=2)
        assert sweep_table(sweep) == sweep_table(reference)


# --------------------------------------------------------------------------- #
# Isolation: no engine state leaks across shards or into the caller
# --------------------------------------------------------------------------- #
class TestShardIsolation:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_backend_spec_does_not_leak(self, executor):
        backend_before = current_backend()
        dtype_before = get_default_dtype()
        specs = [api.CompressionSpec(method=m, backend="numpy32")
                 for m in LIGHT_METHODS]
        api.run_sweep(specs, model=build_model(), hardware=None,
                      input_shape=INPUT_SHAPE, executor=executor,
                      max_workers=2)
        assert current_backend() is backend_before
        assert get_default_dtype() == dtype_before

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_grad_mode_and_tape_stay_clean(self, executor):
        """After a sweep: default grad mode, and eval stays tape-free."""
        api.run_sweep(cost_specs(), model=build_model(), hardware=None,
                      input_shape=INPUT_SHAPE, executor=executor,
                      max_workers=2)
        assert grad_mode_override() is None
        assert nn.is_grad_enabled()
        probe = build_model()
        probe.eval()
        x = Tensor(np.random.default_rng(0).standard_normal((2,) + INPUT_SHAPE))
        before = tape_nodes_created()
        probe(x)
        assert tape_nodes_created() - before == 0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_caller_no_grad_scope_survives_the_sweep(self, executor):
        with no_grad():
            api.run_sweep([api.CompressionSpec(method="magnitude")],
                          model=build_model(), hardware=None,
                          input_shape=INPUT_SHAPE, executor=executor)
            assert grad_mode_override() is False
        assert grad_mode_override() is None

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_leaked_op_hooks_are_restored(self, executor, leaky_method):
        hooks_before = installed_op_hooks()
        api.run_sweep([api.CompressionSpec(method=leaky_method),
                       api.CompressionSpec(method="magnitude")],
                      model=build_model(), hardware=None,
                      input_shape=INPUT_SHAPE, executor=executor,
                      max_workers=2)
        assert installed_op_hooks() == hooks_before

    def test_serial_sweep_accepts_unregistered_backend_instances(self):
        """A backend is a (name, dtype) record: one outside the built-in
        names is captured and re-applied like any other."""
        with nn.use_backend(nn.Backend("anon-unregistered", np.float64)):
            sweep = api.run_sweep([api.CompressionSpec(method="magnitude")],
                                  model=build_model(), hardware=None,
                                  input_shape=INPUT_SHAPE, executor="serial")
        assert sweep.methods() == ["magnitude"]

    def test_engine_state_round_trips_by_pickle(self):
        with nn.use_backend("numpy32"):
            state = EngineState.capture()
        dtype_before = get_default_dtype()
        restored = pickle.loads(pickle.dumps(state))
        with restored.scope():
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == dtype_before


# --------------------------------------------------------------------------- #
# Failure path: a poisoned spec must not lose the other shards
# --------------------------------------------------------------------------- #
@pytest.fixture
def boom_method():
    """A registered method whose fit always raises."""
    from dataclasses import dataclass

    from repro.api.adapters import CompressionAdapter

    @dataclass
    class BoomConfig:
        message: str = "poisoned spec"

    @api.register_method("boom-test", BoomConfig, policy="—",
                         summary="always raises (test only)")
    class BoomMethod(CompressionAdapter):
        def fit(self, train_loader=None, val_loader=None, epochs: int = 0):
            raise RuntimeError(self.config.message)

    yield "boom-test"
    api.unregister_method("boom-test")


@pytest.fixture
def leaky_method():
    """A registered method that installs an op hook and never removes it."""
    from dataclasses import dataclass

    from repro.api.adapters import MagnitudeMethod
    from repro.api.spec import MagnitudeSpec
    from repro.nn.tensor import add_op_hook

    @dataclass
    class LeakyConfig(MagnitudeSpec):
        pass

    @api.register_method("leaky-test", LeakyConfig, policy="—",
                         summary="leaks an op hook (test only)")
    class LeakyMethod(MagnitudeMethod):
        def fit(self, train_loader=None, val_loader=None, epochs: int = 0):
            add_op_hook(lambda record: None)  # deliberately leaked
            return super().fit(train_loader, val_loader, epochs)

    yield "leaky-test"
    api.unregister_method("leaky-test")


class TestFailurePath:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_on_error_raise_propagates(self, executor, boom_method):
        with pytest.raises(RuntimeError, match="poisoned spec"):
            api.run_sweep([api.CompressionSpec(method=boom_method)],
                          model=build_model(), hardware=None,
                          input_shape=INPUT_SHAPE, executor=executor)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_on_error_skip_keeps_healthy_shards(self, executor, boom_method):
        specs = [api.CompressionSpec(method="magnitude"),
                 api.CompressionSpec(method=boom_method),
                 api.CompressionSpec(method="lowrank")]
        sweep = api.run_sweep(specs, model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE, executor=executor,
                              max_workers=2, on_error="skip")
        assert sweep.methods() == ["magnitude", "lowrank"]
        assert len(sweep.failures) == 1
        failure = sweep.failures[0]
        assert failure.index == 1
        assert failure.spec.method == boom_method
        assert failure.error_type == "RuntimeError"
        assert "poisoned spec" in failure.message
        assert boom_method in str(failure)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_skipped_failure_matches_serial_tables(self, executor, boom_method):
        """The healthy shards' numbers are unaffected by the poisoned one."""
        healthy = api.run_sweep(cost_specs(), model=build_model(),
                                hardware=None, input_shape=INPUT_SHAPE,
                                executor="serial")
        specs = cost_specs()
        specs.insert(1, api.CompressionSpec(method=boom_method))
        sweep = api.run_sweep(specs, model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE, executor=executor,
                              max_workers=2, on_error="skip")
        assert sweep_table(sweep) == sweep_table(healthy)

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            api.run_sweep([api.CompressionSpec(method="magnitude")],
                          model=build_model(), hardware=None,
                          input_shape=INPUT_SHAPE, on_error="ignore")

    def test_successful_sweep_has_no_failures(self):
        sweep = api.run_sweep([api.CompressionSpec(method="magnitude")],
                              model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE, on_error="skip")
        assert sweep.failures == []


# --------------------------------------------------------------------------- #
# Serialization: the wire formats process shards rely on
# --------------------------------------------------------------------------- #
class TestSerialization:
    def test_spec_pickle_round_trip(self):
        for spec in api.table2_specs(seed=3):
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spec_dict_round_trip_through_json(self):
        for spec in api.table2_specs(seed=3):
            payload = json.loads(json.dumps(spec.to_dict()))
            assert api.CompressionSpec.from_dict(payload) == spec

    def test_spec_dict_preserves_int_stage_keys(self):
        spec = api.CompressionSpec(
            method="alf",
            config=api.ALFSpec(stage_remaining={16: 0.45, 64: 0.28}))
        payload = json.loads(json.dumps(spec.to_dict()))
        restored = api.CompressionSpec.from_dict(payload)
        assert restored.config.stage_remaining == {16: 0.45, 64: 0.28}

    def test_spec_dict_rejects_built_models(self):
        spec = api.CompressionSpec(method="magnitude", model=build_model(),
                                   input_shape=INPUT_SHAPE)
        with pytest.raises(TypeError, match="registry name"):
            spec.to_dict()

    def test_spec_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            api.CompressionSpec.from_dict(
                {**api.CompressionSpec(method="alf").to_dict(), "gpu": True})

    @pytest.fixture(scope="class")
    def report(self):
        return api.compress(build_model(), method="magnitude",
                            input_shape=INPUT_SHAPE,
                            hardware=api.EYERISS_PAPER)

    def test_report_pickle_round_trip(self, report):
        restored = pickle.loads(pickle.dumps(report))
        assert restored.summary() == report.summary()
        assert restored.model is not None

    def test_report_dict_round_trip_through_json(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        restored = api.CompressionReport.from_dict(payload)
        assert restored.summary() == report.summary()
        assert restored.spec == report.spec
        assert [s.name for s in restored.compressed.layer_shapes] == \
            [s.name for s in report.compressed.layer_shapes]
        assert restored.render()  # table rendering works on the wire form

    def test_report_dict_is_model_free(self, report):
        restored = api.CompressionReport.from_dict(report.to_dict())
        assert restored.compressed.model is None
