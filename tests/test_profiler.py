"""Tests for the layer-scoped op profiler and its end-to-end surfacing.

Covers four layers of the profiling subsystem:

* :mod:`repro.nn.profiler` unit behaviour — recording, layer attribution,
  top-k ranking, deterministic merging, and the JSON wire format;
* op-hook lifecycle bugfixes — idempotent :func:`repro.nn.remove_op_hook`
  and the restore-during-active-profile regression;
* the :func:`repro.nn.backend._initial_backend` env-parsing bugfix
  (``REPRO_DEFAULT_DTYPE`` typos must fail with a clear message, not an
  opaque numpy ``TypeError`` at import time);
* pipeline / sweep integration — ``compress(profile=True)`` phases,
  report round-trips, identical per-layer op *counts* across the
  ``serial`` / ``thread`` / ``process`` executors, the zero-overhead
  no-profile path, and the golden-rendered ``SweepResult`` table.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.api as api
from repro import deploy, nn
from repro.api.executor import op_hook_isolation
from repro.data import make_synthetic_dataset
from repro.models import bench_input_shape, lenet
from repro.models import build_model as build_named_model
from repro.nn.backend import _initial_backend
from repro.nn.profiler import (
    PROFILE_SCHEMA,
    OpProfile,
    OpStat,
    RunProfile,
    collect_profile,
    layer_op_seconds,
    profile_inference,
)
from repro.nn.tensor import (
    Tensor,
    add_op_hook,
    current_layer,
    installed_op_hooks,
    observe_ops,
    op_hooks_active,
    remove_op_hook,
    restore_op_hooks,
)

EXECUTORS = ["serial", "thread", "process"]
INPUT_SHAPE = (1, 12, 12)


def build_model(seed: int = 0):
    return lenet(num_classes=4, in_channels=1, width=8,
                 rng=np.random.default_rng(seed))


def layer_counts(profile: OpProfile):
    """Per-layer op call counts only — the executor-invariant quantity."""
    return {layer: {op: stat.calls for op, stat in per_layer.items()}
            for layer, per_layer in profile.layers.items()}


# --------------------------------------------------------------------------- #
# OpProfile / RunProfile unit behaviour
# --------------------------------------------------------------------------- #
class TestOpProfile:
    def test_record_aggregates_per_op_and_per_layer(self):
        profile = OpProfile()
        profile.record("matmul", 0.5, "net.fc1")
        profile.record("matmul", 0.25, "net.fc2")
        profile.record("add", 0.125, "net.fc1")
        assert profile.ops["matmul"].calls == 2
        assert profile.ops["matmul"].seconds == pytest.approx(0.75)
        assert profile.layers["net.fc1"]["matmul"].calls == 1
        assert profile.total_calls == 3
        assert profile.total_seconds == pytest.approx(0.875)
        assert not profile.is_empty()

    def test_layer_seconds_and_layer_op_seconds(self):
        profile = OpProfile()
        profile.record("conv2d", 1.0, "net.conv1")
        profile.record("relu", 0.5, "net.conv1")
        profile.record("conv2d", 2.0, "net.conv2")
        assert profile.layer_seconds() == {"net.conv1": 1.5, "net.conv2": 2.0}
        assert layer_op_seconds(profile, "conv2d") == {
            "net.conv1": 1.0, "net.conv2": 2.0}

    def test_top_ops_ranked_by_seconds_name_tiebroken(self):
        profile = OpProfile()
        profile.record("b-op", 1.0)
        profile.record("a-op", 1.0)
        profile.record("slow", 9.0)
        top = profile.top_ops(2)
        assert [name for name, _ in top] == ["slow", "a-op"]
        assert [name for name, _ in profile.top_layers(1)] == [""]

    def test_merge_is_order_deterministic(self):
        left = OpProfile()
        left.record("conv2d", 1.0, "layer0")
        right = OpProfile()
        right.record("relu", 0.5, "layer1")
        right.record("conv2d", 0.25, "layer0")
        merged = OpProfile().merge(left).merge(right)
        assert list(merged.ops) == ["conv2d", "relu"]
        assert list(merged.layers) == ["layer0", "layer1"]
        assert merged.ops["conv2d"].calls == 2
        assert merged.ops["conv2d"].seconds == pytest.approx(1.25)

    def test_round_trips_through_dict(self):
        profile = OpProfile()
        profile.record("conv2d", 0.125, "net.conv")
        profile.record("add", 0.0625)
        payload = profile.to_dict()
        assert payload["schema"] == PROFILE_SCHEMA
        restored = OpProfile.from_dict(payload)
        assert restored.to_dict() == payload
        assert layer_counts(restored) == layer_counts(profile)

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="unsupported op-profile schema"):
            OpProfile.from_dict({"schema": "bogus/9"})

    def test_render_top_mentions_ops_and_layers(self):
        profile = OpProfile()
        profile.record("conv2d", 0.25, "net.conv")
        text = profile.render_top(k=5)
        assert "conv2d" in text
        assert "net.conv" in text
        assert "1 calls" in text


class TestRunProfile:
    def test_phases_and_combined(self):
        train = OpProfile()
        train.record("matmul", 1.0, "fc")
        eval_profile = OpProfile()
        eval_profile.record("matmul", 0.5, "fc")
        run = RunProfile(train=train, eval=eval_profile)
        assert list(run.phases()) == ["train", "eval"]
        combined = run.combined()
        assert combined.ops["matmul"].calls == 2
        assert combined.ops["matmul"].seconds == pytest.approx(1.5)

    def test_round_trips_through_dict(self):
        train = OpProfile()
        train.record("conv2d", 0.25, "net.conv")
        run = RunProfile(train=train)
        restored = RunProfile.from_dict(run.to_dict())
        assert restored.dense is None
        assert restored.eval is None
        assert restored.to_dict() == run.to_dict()

    def test_render_handles_empty(self):
        assert RunProfile().render() == "RunProfile(empty)"


# --------------------------------------------------------------------------- #
# Layer attribution through Module.__call__
# --------------------------------------------------------------------------- #
class TestLayerAttribution:
    def test_collect_profile_attributes_ops_to_module_paths(self, tiny_model):
        x = Tensor(np.zeros((2,) + (1, 10, 10)))
        tiny_model.eval()
        with collect_profile() as profile:
            tiny_model(x)
        convs = layer_op_seconds(profile, "conv2d")
        assert len(convs) == 2  # lenet: two conv layers, forward order
        assert all("." in path for path in convs)
        assert all(seconds >= 0.0 for seconds in convs.values())
        # Distinct layers recorded separately, aggregate matches.
        assert profile.ops["conv2d"].calls == sum(
            per_layer["conv2d"].calls
            for per_layer in profile.layers.values() if "conv2d" in per_layer)

    def test_ops_outside_any_module_get_empty_layer(self):
        with collect_profile() as profile:
            t = Tensor(np.ones((2, 2)))
            (t + t).sum()
        assert set(profile.layers) == {""}

    def test_no_scope_pushed_without_hooks(self):
        observed = []

        class Probe(nn.Module):
            def forward(self, x):
                observed.append(current_layer())
                return x

        probe = Probe()
        probe(Tensor(np.ones((1,))))
        assert observed[-1] == ""  # hook-free path never pushes a scope
        with collect_profile():
            probe(Tensor(np.ones((1,))))
        assert observed[-1] == "Probe"

    def test_scope_uses_parent_attribute_names(self):
        seen = []

        class Leaf(nn.Module):
            def forward(self, x):
                seen.append(current_layer())
                return x

        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.branch = Leaf()

            def forward(self, x):
                return self.branch(x)

        with collect_profile():
            Net()(Tensor(np.ones((1,))))
        assert seen == ["Net.branch"]

    def test_profile_inference_restores_training_mode(self, tiny_model):
        tiny_model.train()
        profile = profile_inference(tiny_model, (1, 10, 10), batch=2)
        assert tiny_model.training
        assert profile.ops["conv2d"].calls == 2
        assert not installed_op_hooks()


# --------------------------------------------------------------------------- #
# Op-hook lifecycle bugfixes
# --------------------------------------------------------------------------- #
class TestHookLifecycle:
    def test_remove_op_hook_is_idempotent(self):
        hook = add_op_hook(lambda record: None)
        remove_op_hook(hook)
        remove_op_hook(hook)  # pre-fix: ValueError: list.remove(x) ...
        assert hook not in installed_op_hooks()

    def test_restore_during_active_profile_context(self):
        """Regression: a snapshot restore firing mid-profile must not break exit.

        This reproduces a sweep shard's ``restore_op_hooks`` /
        ``op_hook_isolation`` resetting the thread's hook list while an
        ``observe_ops`` context opened around it is still active: the
        context's own hook is already gone when its ``finally`` runs.
        """
        snapshot = installed_op_hooks()
        seen = []
        with observe_ops(lambda record: seen.append(record.op.name)):
            t = Tensor(np.ones((2, 2)))
            t + t
            restore_op_hooks(snapshot)  # shard-style reset, profile active
            t + t  # no longer observed — and exit must not raise
        assert seen == ["add"]
        assert installed_op_hooks() == snapshot

    def test_op_hook_isolation_closing_over_profile(self):
        with observe_ops(lambda record: None):
            with op_hook_isolation():
                add_op_hook(lambda record: None)  # leaked
            # isolation restored its snapshot (profile hook included)
            assert len(installed_op_hooks()) == 1
        assert not installed_op_hooks()

    def test_collect_profile_survives_external_reset(self):
        with collect_profile() as profile:
            restore_op_hooks([])
        assert profile.is_empty()
        assert not installed_op_hooks()

    def test_op_hooks_active_tracks_install_state(self):
        assert not op_hooks_active()
        with collect_profile():
            assert op_hooks_active()
        assert not op_hooks_active()


# --------------------------------------------------------------------------- #
# One observer list: plan tracing and profiling side by side
# --------------------------------------------------------------------------- #
class TestObserverChannel:
    def test_concurrent_compile_and_profile_stay_apart(self):
        """A plan traced in one thread and a profile collected in another
        share nothing: the plan bytes equal a solo compile and the profile
        holds only the profiled thread's own lenet ops."""
        resnet = build_named_model("resnet20", rng=np.random.default_rng(0))
        shape = bench_input_shape("resnet20")
        solo = deploy.compile(resnet, shape).to_bytes()
        small = build_model()
        x = Tensor(np.zeros((2,) + INPUT_SHAPE))
        with collect_profile() as reference:
            small(x)
        started, compiled = threading.Event(), threading.Event()

        def compile_plan():
            try:
                assert started.wait(timeout=60)
                return deploy.compile(resnet, shape).to_bytes()
            finally:
                compiled.set()

        def profile_lenet():
            runs = 0
            with collect_profile() as profile:
                started.set()
                while runs == 0 or not compiled.is_set():
                    small(x)
                    runs += 1
            return profile, runs

        with ThreadPoolExecutor(max_workers=2) as pool:
            plan_bytes = pool.submit(compile_plan)
            profiled = pool.submit(profile_lenet)
            assert plan_bytes.result(timeout=300) == solo
            profile, runs = profiled.result(timeout=300)
        assert layer_counts(profile) == {
            layer: {op: runs * calls for op, calls in per_layer.items()}
            for layer, per_layer in layer_counts(reference).items()}
        assert not installed_op_hooks()


# --------------------------------------------------------------------------- #
# REPRO_DEFAULT_DTYPE env parsing (import-time bugfix)
# --------------------------------------------------------------------------- #
class TestDefaultDtypeEnvParsing:
    def test_typo_raises_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_DTYPE", "flaot32")
        with pytest.raises(ValueError, match="REPRO_DEFAULT_DTYPE.*'flaot32'"):
            _initial_backend()

    def test_non_float_dtype_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_DTYPE", "int32")
        with pytest.raises(ValueError, match="not a floating dtype"):
            _initial_backend()

    @pytest.mark.parametrize("value, expected",
                             [("float32", np.float32), ("float64", np.float64)])
    def test_valid_values_accepted(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_DEFAULT_DTYPE", value)
        assert _initial_backend().dtype == np.dtype(expected)

    def test_unset_defaults_to_float64(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_DTYPE", raising=False)
        assert _initial_backend().dtype == np.dtype(np.float64)

    def test_import_failure_names_the_variable(self):
        """A typo'd env var fails `import repro` with the curated message."""
        env = dict(os.environ, REPRO_DEFAULT_DTYPE="flaot32")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.nn.backend"],
            env=env, capture_output=True, text=True)
        assert proc.returncode != 0
        assert "REPRO_DEFAULT_DTYPE" in proc.stderr
        assert "float32" in proc.stderr


# --------------------------------------------------------------------------- #
# Pipeline integration: compress(profile=True)
# --------------------------------------------------------------------------- #
class TestPipelineProfiling:
    def test_cost_only_run_profiles_dense_and_inference(self):
        report = api.compress(build_model(), method="magnitude",
                              hardware=None, input_shape=INPUT_SHAPE,
                              profile=True)
        profile = report.profile
        assert profile is not None
        assert profile.dense is not None and not profile.dense.is_empty()
        # Cost-only runs profile one synthetic inference batch as "eval".
        assert profile.eval is not None
        assert profile.eval.ops["conv2d"].calls == 2
        assert profile.eval.total_seconds > 0.0
        assert not installed_op_hooks()

    def test_trained_run_splits_train_and_eval(self):
        dataset = make_synthetic_dataset(80, num_classes=4,
                                         image_shape=INPUT_SHAPE, seed=0)
        report = api.compress(build_model(), method="magnitude",
                              data=dataset, hardware=None,
                              input_shape=INPUT_SHAPE, epochs=1,
                              finetune_epochs=1, profile=True)
        profile = report.profile
        assert profile is not None
        assert set(profile.phases()) == {"dense", "train", "eval"}
        # Training records backward/update arithmetic the eval probe lacks.
        assert profile.train.total_calls > profile.eval.total_calls
        combined = profile.combined()
        assert combined.total_calls == sum(
            phase.total_calls for phase in profile.phases().values())

    def test_no_profile_keeps_fast_path_untouched(self):
        report = api.compress(build_model(), method="magnitude",
                              hardware=None, input_shape=INPUT_SHAPE)
        assert report.profile is None
        assert not op_hooks_active()
        assert not installed_op_hooks()
        assert report.to_dict()["profile"] is None

    def test_report_profile_round_trips_wire_and_pickle(self):
        report = api.compress(build_model(), method="magnitude",
                              hardware=None, input_shape=INPUT_SHAPE,
                              profile=True)
        restored = api.CompressionReport.from_dict(report.to_dict())
        assert restored.profile is not None
        assert restored.profile.to_dict() == report.profile.to_dict()
        pickled = pickle.loads(pickle.dumps(report))
        assert pickled.profile.to_dict() == report.profile.to_dict()

    def test_spec_profile_round_trips(self):
        spec = api.CompressionSpec(method="magnitude", profile=True)
        assert api.CompressionSpec.from_dict(spec.to_dict()).profile is True
        assert api.CompressionSpec.from_dict(
            api.CompressionSpec(method="magnitude").to_dict()).profile is False


# --------------------------------------------------------------------------- #
# Sweep integration: determinism across executors
# --------------------------------------------------------------------------- #
class TestSweepProfiling:
    def profiled_sweep(self, executor):
        specs = [api.CompressionSpec(method=m, profile=True)
                 for m in ("magnitude", "lowrank")]
        return api.run_sweep(specs, model=build_model(), hardware=None,
                             input_shape=INPUT_SHAPE, executor=executor,
                             max_workers=2)

    @pytest.fixture(scope="class")
    def serial_sweep(self):
        return self.profiled_sweep("serial")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_per_layer_op_counts_match_serial(self, executor, serial_sweep):
        sweep = self.profiled_sweep(executor)
        for reference, report in zip(serial_sweep.reports, sweep.reports):
            assert report.profile is not None
            for phase, ref_profile in reference.profile.phases().items():
                profile = report.profile.phases()[phase]
                assert layer_counts(profile) == layer_counts(ref_profile)
                # Counts are bit-identical; seconds are wall-clock and only
                # need to be positive wherever ops actually ran.
                if not profile.is_empty():
                    assert profile.total_seconds > 0.0
        combined = sweep.combined_profile()
        assert layer_counts(combined) == layer_counts(
            serial_sweep.combined_profile())

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_no_hooks_leak_out_of_profiled_sweeps(self, executor):
        before = installed_op_hooks()
        self.profiled_sweep(executor)
        assert installed_op_hooks() == before

    def test_unprofiled_sweep_has_no_profile(self):
        sweep = api.run_sweep([api.CompressionSpec(method="magnitude")],
                              model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE)
        assert sweep.combined_profile() is None
        assert all(r.profile is None for r in sweep.reports)

    def test_mixed_profile_flags_merge_only_profiled(self):
        sweep = api.run_sweep(
            [api.CompressionSpec(method="magnitude", profile=True),
             api.CompressionSpec(method="lowrank")],
            model=build_model(), hardware=None, input_shape=INPUT_SHAPE)
        assert sweep.reports[0].profile is not None
        assert sweep.reports[1].profile is None
        assert sweep.combined_profile() is not None


# --------------------------------------------------------------------------- #
# SweepResult.render(): golden table (accuracy-missing fallback normalized)
# --------------------------------------------------------------------------- #
class TestSweepRender:
    GOLDEN = (
        "Compression sweep\n"
        "Method    | Policy      | Params | OPs   | ΔParams | ΔOPs | ΔEnergy | ΔLatency | Acc[%]\n"
        "----------+-------------+--------+-------+---------+------+---------+----------+-------\n"
        "dense     | —           | 0.00M  | 0.10M | -       | -    | -       | -        | -     \n"
        "magnitude | Handcrafted | 0.00M  | 0.03M | -73%    | -70% | -       | -        | -     \n"
        "lowrank   | Handcrafted | 0.00M  | 0.07M | -38%    | -32% | -       | -        | -     "
    )

    def test_cost_only_golden_string(self):
        sweep = api.run_sweep([api.CompressionSpec(method="magnitude"),
                               api.CompressionSpec(method="lowrank")],
                              model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE)
        assert sweep.render() == self.GOLDEN

    def test_missing_cells_share_one_fallback_token(self):
        sweep = api.run_sweep([api.CompressionSpec(method="magnitude")],
                              model=build_model(), hardware=None,
                              input_shape=INPUT_SHAPE)
        dense_row = sweep.render().splitlines()[3]
        cells = [cell.strip() for cell in dense_row.split("|")]
        # ΔParams..Acc[%]: every not-applicable cell uses the same token.
        assert cells[4:] == ["-"] * 5

    def test_measured_accuracy_renders_as_percentage(self):
        dataset = make_synthetic_dataset(80, num_classes=4,
                                         image_shape=INPUT_SHAPE, seed=0)
        sweep = api.run_sweep([api.CompressionSpec(method="magnitude")],
                              model=build_model(), data=dataset,
                              hardware=None, input_shape=INPUT_SHAPE)
        rendered = sweep.render()
        acc_cell = rendered.splitlines()[3].split("|")[-1].strip()
        assert acc_cell == f"{sweep.dense.accuracy * 100:.1f}"


# --------------------------------------------------------------------------- #
# Experiments surfacing
# --------------------------------------------------------------------------- #
class TestExperimentProfiles:
    def test_hardware_breakdown_measured_columns(self):
        from repro.experiments import hardware_breakdown

        result = hardware_breakdown.run(architecture="plain20", batch=2,
                                        profile=True)
        assert result.vanilla_profile is not None
        assert result.alf_profile is not None
        assert all(row.vanilla_seconds is not None for row in result.rows)
        assert all(row.alf_seconds is not None for row in result.rows)
        rendered = result.render()
        assert "t (van) [s]" in rendered and "t (ALF) [s]" in rendered

    def test_hardware_breakdown_resnet20_seconds_follow_labels(self):
        from repro.experiments import hardware_breakdown
        from repro.nn.profiler import layer_op_seconds

        result = hardware_breakdown.run(architecture="resnet20", batch=1,
                                        profile=True)
        seconds = layer_op_seconds(result.vanilla_profile, "conv2d")
        rows = {row.name: row for row in result.rows}
        # The 1x1 shortcuts take no label, so CONV311 is the block's
        # first 3x3 conv, not the projection that runs before it.
        assert rows["CONV311"].vanilla_seconds == seconds[
            "ResNetCIFAR.layers.layer3.conv1"]
        assert rows["CONV432"].vanilla_seconds == seconds[
            "ResNetCIFAR.layers.layer8.conv2"]
        assert all(row.alf_seconds is not None for row in result.rows)

    def test_hardware_breakdown_unprofiled_stays_clean(self):
        from repro.experiments import hardware_breakdown

        result = hardware_breakdown.run(architecture="plain20", batch=2)
        assert result.vanilla_profile is None
        assert all(row.alf_seconds is None for row in result.rows)
        assert "t (van) [s]" not in result.render()

    def test_table2_render_measured_column(self):
        from repro.experiments.cifar_comparison import Table2Result, TableRow

        result = Table2Result(rows=[
            TableRow("ResNet-20", "—", 1e5, 2e6, None,
                     measured_seconds=0.0125),
            TableRow("ALF", "Automatic", 3e4, 8e5, None),
        ])
        rendered = result.render()
        assert "t [ms]" in rendered
        assert "12.5" in rendered
        plain = Table2Result(rows=[TableRow("ResNet-20", "—", 1e5, 2e6, None)])
        assert "t [ms]" not in plain.render()
