"""Tests for the unified ``repro.api`` compression pipeline."""

import numpy as np
import pytest

import repro.api as api
from repro.core import ALFConfig
from repro.data import DataLoader, make_synthetic_dataset

INPUT_SHAPE = (1, 10, 10)

#: Fast operating points for the end-to-end smoke tests (methods not listed
#: use their registered defaults).
FAST_CONFIGS = {
    "alf": api.ALFSpec(alf=ALFConfig(lr_task=0.05, threshold=5e-2,
                                     lr_autoencoder=5e-2, pr_max=0.6,
                                     mask_init=0.2)),
    "amc": api.AMCSpec(target_ops_fraction=0.6, iterations=1, population=2),
    "lcnn": api.LCNNSpec(dictionary_fraction=0.5, sparsity=2,
                         kmeans_iterations=3),
}

#: ``payload_digest`` prefixes of the cost-only Table II reports on
#: ResNet-20 (identical in float64 and float32).
TABLE2_REPORT_DIGESTS = {
    "magnitude": "ac65403deea0328b",
    "fpgm": "6ebb60e3e740fe76",
    "amc": "0e60427bbcf36e96",
    "lcnn": "49ceec0575e55271",
    "lowrank": "6b99dc6bce44ae95",
    "alf": "dc7a2ef1623e8ce4",
}


class TestRegistry:
    def test_all_six_methods_registered(self):
        assert api.available_methods() == [
            "alf", "amc", "fpgm", "lcnn", "lowrank", "magnitude"]

    @pytest.mark.parametrize("name", ["alf", "magnitude", "fpgm", "amc",
                                      "lcnn", "lowrank"])
    def test_resolution_by_name(self, name):
        entry = api.get_method(name)
        assert entry.name == name
        assert entry.policy in ("Automatic", "Handcrafted", "RL-Agent")
        assert entry.config_type is not None

    def test_aliases_resolve(self):
        assert api.canonical_name("Low-Rank") == "lowrank"
        assert api.canonical_name("svd") == "lowrank"
        assert api.get_method("low_rank").name == "lowrank"

    def test_unknown_method_lists_alternatives(self):
        with pytest.raises(KeyError, match="alf"):
            api.get_method("deep-compression")

    def test_spec_rejects_mismatched_config(self):
        spec = api.CompressionSpec(method="fpgm", config=api.LCNNSpec())
        with pytest.raises(TypeError):
            spec.validate()

    def test_config_defaults_resolved_per_method(self):
        spec = api.CompressionSpec(method="magnitude")
        assert isinstance(spec.resolved_config(), api.MagnitudeSpec)

    def test_alf_spec_rejects_out_of_range_forced_fractions(self):
        with pytest.raises(ValueError):
            api.ALFSpec(remaining_fraction=1.5).validate()
        with pytest.raises(ValueError):
            api.ALFSpec(stage_remaining={64: 1.5}).validate()
        with pytest.raises(ValueError):
            api.ALFSpec(layer_fractions={"CONV312": 0.0}).validate()
        api.ALFSpec(stage_remaining={64: 1.0}, layer_fractions={"CONV312": 0.5}).validate()


class TestProtocolConformance:
    @pytest.mark.parametrize("name", ["alf", "magnitude", "fpgm", "amc",
                                      "lcnn", "lowrank"])
    def test_adapter_implements_protocol(self, name):
        spec = api.CompressionSpec(method=name, input_shape=INPUT_SHAPE)
        adapter = api.create_method(spec)
        assert isinstance(adapter, api.CompressionMethod)
        assert adapter.name == name
        assert adapter.policy == api.get_method(name).policy

    @pytest.mark.parametrize("name", ["magnitude", "fpgm", "lcnn", "lowrank"])
    def test_prepare_finalize_without_training(self, name, tiny_model):
        spec = api.CompressionSpec(method=name, input_shape=INPUT_SHAPE,
                                   hardware_batch=1)
        adapter = api.create_method(spec)
        adapter.prepare(tiny_model)
        compressed = adapter.finalize()
        assert isinstance(compressed, api.CompressedModel)
        assert compressed.method == name
        assert compressed.cost["params"] > 0
        assert compressed.cost["ops"] > 0
        assert compressed.layer_shapes, "hardware workloads must be produced"

    def test_finalize_requires_prepare(self):
        spec = api.CompressionSpec(method="magnitude", input_shape=INPUT_SHAPE)
        adapter = api.create_method(spec)
        with pytest.raises(RuntimeError):
            adapter.finalize()


class TestCompressEndToEnd:
    @pytest.mark.parametrize("method", ["alf", "magnitude", "fpgm", "amc",
                                        "lcnn", "lowrank"])
    def test_compress_smoke(self, method, tiny_model, tiny_loaders):
        report = api.compress(
            tiny_model, method=method, config=FAST_CONFIGS.get(method),
            data=tiny_loaders, input_shape=INPUT_SHAPE, epochs=1,
            hardware_batch=1, seed=0,
        )
        assert isinstance(report, api.CompressionReport)
        assert report.method == method
        # Cost block: params / OPs for both executions plus the reductions.
        assert report.dense.cost["params"] > 0 and report.dense.cost["ops"] > 0
        assert report.cost["params"] > 0 and report.cost["ops"] > 0
        assert np.isfinite(report.params_reduction)
        assert np.isfinite(report.ops_reduction)
        # Hardware block: Eyeriss energy and latency of both executions.
        assert report.dense_hardware is not None
        assert report.compressed_hardware is not None
        assert report.compressed_hardware.total_energy > 0
        assert report.compressed_hardware.total_latency > 0
        assert np.isfinite(report.energy_reduction)
        assert np.isfinite(report.latency_reduction)
        # Accuracy measured on the returned runnable model.
        assert 0.0 <= report.accuracy <= 1.0
        summary = report.summary()
        for key in ("params_reduction", "ops_reduction", "energy_reduction",
                    "latency_reduction", "accuracy"):
            assert key in summary

    def test_finetuned_pruned_model_stays_pruned(self, tiny_model, tiny_loaders):
        """Regression: fine-tuning must not regrow the zeroed filters."""
        report = api.compress(
            tiny_model, method="magnitude",
            config=api.MagnitudeSpec(prune_ratio=0.5),
            data=tiny_loaders, input_shape=INPUT_SHAPE, epochs=2,
            hardware=None)
        plan = report.compressed.detail
        modules = dict(report.model.named_modules())
        for decision in plan.decisions:
            conv = modules[decision.name]
            keep = np.zeros(decision.total_filters, dtype=bool)
            keep[decision.kept_filters] = True
            assert np.abs(conv.weight.data[~keep]).sum() == 0.0, (
                f"pruned filters of {decision.name} regrew during fine-tuning")

    def test_pruning_actually_reduces_cost(self, tiny_model):
        report = api.compress(tiny_model, method="magnitude",
                              config=api.MagnitudeSpec(prune_ratio=0.5),
                              input_shape=INPUT_SHAPE, hardware=None)
        assert report.cost["params"] < report.dense.cost["params"]
        assert report.cost["ops"] < report.dense.cost["ops"]
        assert report.remaining_filter_fraction == pytest.approx(0.5, abs=0.1)

    def test_caller_model_is_not_mutated_by_default(self, tiny_model):
        before = tiny_model.conv1.weight.data.copy()
        api.compress(tiny_model, method="magnitude", input_shape=INPUT_SHAPE,
                     hardware=None)
        np.testing.assert_array_equal(tiny_model.conv1.weight.data, before)

    def test_registry_name_builds_model(self):
        report = api.compress("lenet", method="lowrank", hardware=None)
        assert report.cost["params"] > 0

    def test_dense_profile_carried_in_report(self, tiny_model):
        """The report ships the dense baseline profile (no rebuilding)."""
        report = api.compress(tiny_model, method="fpgm",
                              input_shape=INPUT_SHAPE, hardware=None,
                              conv_only=False)
        profile = report.dense_profile
        assert profile.total_params() == report.dense.cost["params"]
        assert profile.total_ops() == report.dense.cost["ops"]

    def test_alf_report_exposes_deployment_records(self, tiny_model):
        report = api.compress(
            tiny_model, method="alf",
            config=api.ALFSpec(remaining_fraction=0.5),
            input_shape=INPUT_SHAPE, hardware=None)
        records = report.compressed.detail.records
        assert records and all(r.kept_filters <= r.original_filters
                               for r in records)
        assert report.remaining_filter_fraction == pytest.approx(0.5, abs=0.1)

    def test_render_mentions_method(self, tiny_model):
        report = api.compress(tiny_model, method="fpgm",
                              input_shape=INPUT_SHAPE, hardware=None)
        assert "fpgm" in report.render()


class TestRunSweep:
    def test_table2_specs_cover_the_method_set(self):
        methods = [spec.method for spec in api.table2_specs()]
        assert sorted(methods) == api.available_methods()

    def test_sweep_runs_all_methods_with_shared_baseline(self, rng):
        from repro.models import lenet
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        specs = [api.CompressionSpec(method=m, config=FAST_CONFIGS.get(m))
                 for m in api.available_methods()]
        sweep = api.run_sweep(specs, model=model, hardware=None,
                              input_shape=INPUT_SHAPE)
        assert sweep.methods() == api.available_methods()
        # The dense baseline is computed once and shared by every report.
        assert all(report.dense is sweep.dense for report in sweep.reports)
        table = sweep.comparison_table()
        assert {row.method for row in table.rows} == set(api.available_methods())
        rendered = sweep.render()
        for method in api.available_methods():
            assert method in rendered

    def test_sweep_with_data_measures_accuracy(self, rng):
        from repro.models import lenet
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        dataset = make_synthetic_dataset(80, num_classes=4,
                                         image_shape=INPUT_SHAPE, seed=0)
        specs = [api.CompressionSpec(method="magnitude", epochs=1)]
        sweep = api.run_sweep(specs, model=model, data=dataset,
                              hardware=None, input_shape=INPUT_SHAPE)
        report = sweep.by_method("magnitude")
        assert report.accuracy is not None
        assert sweep.dense.accuracy is not None

    @pytest.mark.parametrize("spec", api.table2_specs(seed=0),
                             ids=lambda spec: spec.method)
    def test_table2_report_bytes_pinned(self, spec):
        """Cost-only Table II reports are byte-stable across refactors.

        The digest covers the whole report payload (costs, layer
        workloads, Eyeriss energy/latency) and is the same in float64
        and float32.
        """
        report = api.run_sweep([spec], model="resnet20").reports[0]
        assert api.payload_digest(report.to_dict()).startswith(
            TABLE2_REPORT_DIGESTS[spec.method])

    def test_sweep_rejects_empty_specs(self):
        with pytest.raises(ValueError):
            api.run_sweep([], model="lenet")

    def test_sweep_rejects_mismatched_accounting_conventions(self):
        """The dense baseline is shared, so conventions must be uniform."""
        specs = [api.CompressionSpec(method="magnitude", conv_only=False),
                 api.CompressionSpec(method="fpgm")]
        with pytest.raises(ValueError, match="dense baseline"):
            api.run_sweep(specs, model="lenet")

    def test_sweep_trains_the_dense_accuracy_probe(self, rng):
        """With training requested, the dense row is trained too (on a copy)."""
        from repro.models import lenet
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        before = model.conv1.weight.data.copy()
        dataset = make_synthetic_dataset(80, num_classes=4,
                                         image_shape=INPUT_SHAPE, seed=0)
        sweep = api.run_sweep(
            [api.CompressionSpec(method="magnitude", epochs=2)],
            model=model, data=dataset, hardware=None, input_shape=INPUT_SHAPE)
        assert sweep.dense.accuracy is not None
        np.testing.assert_array_equal(model.conv1.weight.data, before)


class TestFormatting:
    def test_format_reduction_handles_growth(self):
        from repro.metrics import format_reduction
        assert format_reduction(0.61) == "-61%"
        assert format_reduction(-0.23) == "+23%"
        assert format_reduction(None) == "-"


class TestBackwardCompatibility:
    def test_top_level_facade_reexports(self):
        import repro
        assert repro.compress is api.compress
        assert repro.run_sweep is api.run_sweep

    def test_legacy_imports_still_work(self):
        from repro.core import ALFConfig, ALFTrainer, compress_model, convert_to_alf  # noqa: F401
        from repro.baselines import AMCPruner, FPGMPruner, LCNNCompressor  # noqa: F401
        from repro.baselines import LowRankDecomposer, MagnitudePruner  # noqa: F401
