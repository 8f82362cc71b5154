"""Tests for the experiment harnesses (one per paper table / figure)."""

import numpy as np
import pytest

from repro.experiments import (
    SCALES,
    ablations,
    cifar_comparison,
    config_space,
    get_scale,
    hardware_breakdown,
    imagenet_comparison,
    method_taxonomy,
    paper_values,
)
from repro.metrics import pareto_front


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"ci", "small", "paper"}
        assert get_scale("paper").image_size == 32
        assert get_scale("paper").train_samples == 50_000

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_proxy_builders(self):
        preset = get_scale("ci")
        plain = preset.build_proxy("plain", rng=np.random.default_rng(0))
        resnet = preset.build_proxy("resnet", rng=np.random.default_rng(0))
        assert plain.depth == 8 and resnet.depth == 8
        with pytest.raises(KeyError):
            preset.build_proxy("vgg")

    def test_loaders_shapes(self):
        preset = get_scale("ci")
        train_loader, test_loader = preset.build_loaders(seed=0)
        images, labels = next(iter(train_loader))
        assert images.shape[1:] == (3, preset.image_size, preset.image_size)
        assert labels.max() < preset.num_classes


class TestTable1Taxonomy:
    def test_derived_matches_paper(self):
        assert method_taxonomy.taxonomy_matches_paper()

    def test_alf_has_all_three_advantages(self):
        rows = {r.method: r for r in method_taxonomy.derived_taxonomy()}
        alf = rows["ALF"]
        assert alf.no_pretrained and alf.learning_policy and alf.no_exploration

    def test_rule_based_methods_have_none(self):
        rows = {r.method: r for r in method_taxonomy.derived_taxonomy()}
        for name in ("Low-Rank Decomposition", "Prune (Handcrafted)"):
            row = rows[name]
            assert not (row.no_pretrained or row.learning_policy or row.no_exploration)

    def test_render_contains_all_methods(self):
        text = method_taxonomy.render()
        for method in paper_values.TABLE1_TAXONOMY:
            assert method in text


class TestTable2Cifar:
    def test_cost_columns_match_paper(self):
        result = cifar_comparison.run(measure_accuracy=False)
        resnet = result.by_method("ResNet-20")
        assert resnet.params / 1e6 == pytest.approx(0.27, abs=0.01)
        assert resnet.ops / 1e6 == pytest.approx(81.1, rel=0.05)
        alf = result.by_method("ALF")
        # Headline claims: ~70% fewer parameters, ~61% fewer operations.
        reductions = cifar_comparison.headline_reductions(result)
        assert reductions["params_reduction"] == pytest.approx(0.70, abs=0.08)
        assert reductions["ops_reduction"] == pytest.approx(0.61, abs=0.10)

    def test_alf_has_fewest_params_and_ops(self):
        result = cifar_comparison.run(measure_accuracy=False)
        alf = result.by_method("ALF")
        for method in ("Plain-20", "ResNet-20", "AMC", "FPGM"):
            row = result.by_method(method)
            assert alf.ops <= row.ops
            assert alf.params <= (row.params if row.params is not None else np.inf)

    def test_render_includes_paper_reference_columns(self):
        result = cifar_comparison.run(measure_accuracy=False)
        text = result.render()
        assert "Paper OPs" in text and "ALF" in text

    def test_alf_cost_tracks_remaining_fraction(self):
        sparse = cifar_comparison.alf_compressed_cost(remaining_fraction=0.2)
        dense = cifar_comparison.alf_compressed_cost(remaining_fraction=0.8)
        assert sparse["ops"] < dense["ops"]
        assert sparse["params"] < dense["params"]

    @pytest.mark.slow
    def test_accuracy_measurement_orders_methods(self):
        measurements = cifar_comparison.measure_accuracies(scale="ci", seed=0)
        # The uncompressed baseline should not be (meaningfully) worse than ALF
        # at this tiny proxy scale.
        assert measurements.resnet >= measurements.alf - 5.0
        assert 0.0 <= measurements.alf <= 100.0
        assert 0.0 < measurements.alf_remaining_filters <= 1.0


class TestTable3ImageNet:
    @pytest.fixture(scope="class")
    def table3(self):
        return imagenet_comparison.run(seed=0)

    @pytest.mark.slow
    def test_reference_architecture_costs(self, table3):
        resnet = table3.by_method("ResNet-18")
        assert resnet.params / 1e6 == pytest.approx(11.83, rel=0.05)
        assert resnet.ops / 1e6 == pytest.approx(3743, rel=0.05)
        squeeze = table3.by_method("SqueezeNet")
        assert squeeze.params / 1e6 == pytest.approx(1.23, rel=0.05)

    @pytest.mark.slow
    def test_costs_pinned(self, table3):
        expected = {
            "ResNet-18": (11_679_912, 3_595_411_456),
            "LCNN": (2_010_624, 483_493_888),
            "FPGM": (7_487_252.296875, 2_298_490_854),
            "AMC": (7_058_967.796875, 1_935_597_690),
            "ALF": (4_769_207, 1_375_502_336),
            "SqueezeNet": (1_248_424, 1_671_629_824),
            "GoogleNet": (6_998_552, 2_863_112_704),
        }
        for method, (params, ops) in expected.items():
            row = table3.by_method(method)
            assert (row.params, row.ops) == (params, ops), method

    @pytest.mark.slow
    def test_alf_relative_ops_factors(self, table3):
        factors = imagenet_comparison.relative_ops_factors(table3)
        # Paper: x1.4 / x2.4 / x3.0 fewer OPs than SqueezeNet / GoogLeNet / ResNet-18.
        assert factors["vs_squeezenet"] == pytest.approx(1.4, abs=0.4)
        assert factors["vs_googlenet"] == pytest.approx(2.4, abs=0.6)
        assert factors["vs_resnet18"] == pytest.approx(3.0, abs=0.7)

    @pytest.mark.slow
    def test_alf_on_pareto_front(self, table3):
        front = {r.method for r in pareto_front(table3.method_results())}
        assert "ALF" in front

    @pytest.mark.slow
    def test_pruned_variants_cheaper_than_resnet18(self, table3):
        base_ops = table3.by_method("ResNet-18").ops
        for method in ("LCNN", "FPGM", "AMC", "ALF"):
            assert table3.by_method(method).ops < base_ops


class TestFig3Hardware:
    @pytest.fixture(scope="class")
    def fig3(self):
        return hardware_breakdown.run(architecture="plain20", batch=16)

    def test_headline_energy_and_latency_reductions(self, fig3):
        summary = hardware_breakdown.summary_vs_paper(fig3)
        assert summary["measured_energy_reduction"] == pytest.approx(
            summary["paper_energy_reduction"], abs=0.10)
        assert summary["measured_latency_reduction"] == pytest.approx(
            summary["paper_latency_reduction"], abs=0.10)

    def test_rows_cover_all_19_convolutions(self, fig3):
        from repro.models.plain import plain_layer_names
        assert [r.name for r in fig3.rows] == plain_layer_names()

    def test_rf_energy_dominates_deeper_layers(self, fig3):
        deep = [r for r in fig3.rows if r.name.startswith("CONV4")]
        for row in deep:
            assert row.vanilla_register_file > row.vanilla_dram

    def test_dram_energy_increases_in_early_alf_layers(self, fig3):
        """The expansion layer adds off-chip traffic, most visible early on."""
        early = [r for r in fig3.rows if r.name.startswith("CONV2")]
        assert any(r.alf_dram > r.vanilla_dram for r in early)

    def test_alf_total_energy_lower(self, fig3):
        total_vanilla = sum(r.vanilla_total_energy for r in fig3.rows)
        total_alf = sum(r.alf_total_energy for r in fig3.rows)
        assert total_alf < total_vanilla

    def test_per_layer_fraction_override(self):
        result = hardware_breakdown.run(
            architecture="plain20", batch=4,
            per_layer_fractions={"CONV312": 0.05})
        # The override reaches the labelled layer and only it: CONV312's
        # code conv keeps round(32 * 0.05) = 2 of its 32 filters, every
        # other layer the default round(C * 0.386), the stem included.
        kept = {r.layer.name: r.layer.out_channels
                for r in result.alf_report.layers
                if not r.layer.name.endswith("_exp")}
        full = {r.layer.name: r.layer.out_channels
                for r in result.vanilla_report.layers}
        assert kept["CONV312"] == 2
        assert kept == {name: 2 if name == "CONV312"
                        else max(1, round(channels * 0.386))
                        for name, channels in full.items()}
        row = [r for r in result.rows if r.name == "CONV312"][0]
        assert row.alf_latency < row.vanilla_latency

    def test_resnet20_variant_runs(self):
        result = hardware_breakdown.run(architecture="resnet20", batch=2)
        assert result.energy_reduction > 0

    def test_render(self, fig3):
        text = fig3.render()
        assert "CONV312" in text


class TestFig2ConfigSpace:
    def test_fig2a_config_list_matches_paper_axes(self):
        labels = [c[0] for c in config_space.FIG2A_CONFIGS]
        assert "xavier|nc|nc" in labels and "he|relu|bn" in labels
        assert len(labels) == 6

    def test_fig2b_config_list_matches_paper_axes(self):
        labels = [c[0] for c in config_space.FIG2B_CONFIGS]
        assert len(labels) == 9
        assert "xavier|tanh" in labels and "rand|relu" in labels

    def test_fig2c_variants_match_paper(self):
        labels = [v[0] for v in config_space.FIG2C_VARIANTS]
        assert len(labels) == 5
        assert "lr=1e-3,t=1e-4" in labels

    @pytest.mark.slow
    def test_fig2a_runs_and_reports(self):
        results = config_space.run_fig2a(scale="ci", seeds=(0,), epochs=2)
        assert len(results) == 6
        assert all(0.0 <= r.mean_accuracy <= 1.0 for r in results)
        text = config_space.render_config_results(results, "Fig. 2a")
        assert "xavier|nc|nc" in text

    @pytest.mark.slow
    def test_fig2c_threshold_ordering(self):
        curves = config_space.run_fig2c(scale="ci", seed=0)
        by_label = {c.label: c for c in curves}
        # Larger clipping threshold prunes at least as aggressively.
        assert (by_label["lr=1e-3,t=5e-4"].final_remaining_percent
                <= by_label["lr=1e-3,t=5e-5"].final_remaining_percent + 1e-9)
        # A slower autoencoder optimizer prunes less.
        assert (by_label["lr=1e-5,t=1e-4"].final_remaining_percent
                >= by_label["lr=1e-3,t=1e-4"].final_remaining_percent - 1e-9)


class TestAblations:
    def test_ccode_max_sweep(self):
        points = ablations.sweep_ccode_max(channel_counts=(16, 64), kernel_sizes=(1, 3))
        assert len(points) == 4
        for point in points:
            ratio = ablations.alf_block_cost_ratio(
                point.in_channels, point.out_channels, point.kernel_size, point.bound)
            assert ratio <= 1.0 + 1e-9
        text = ablations.render_ccode_max(points)
        assert "Ccode,max" in text

    def test_bound_fraction_grows_with_kernel(self):
        points = ablations.sweep_ccode_max(channel_counts=(64,), kernel_sizes=(1, 3, 5))
        fractions = [p.bound_fraction for p in points]
        assert fractions == sorted(fractions)

    def test_schedule_curve_monotone(self):
        curve = ablations.schedule_curve()
        values = [v for _, v in curve]
        assert values[0] > 0.9
        assert values[-1] == 0.0
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.slow
    def test_ste_ablation_runs(self):
        runs = ablations.run_ste_ablation(scale="ci", epochs=3)
        assert len(runs) == 2
        assert {r.label for r in runs} == {"STE (paper)", "no STE (naive gradient)"}
        text = ablations.render_ablation(runs, "STE ablation")
        assert "STE" in text

    @pytest.mark.slow
    def test_schedule_ablation_constant_prunes_at_least_as_much(self):
        runs = ablations.run_schedule_ablation(scale="ci", epochs=4)
        by_label = {r.label: r for r in runs}
        scheduled = by_label["nu_prune schedule (paper)"]
        constant = by_label["constant regularization"]
        assert constant.remaining_filters <= scheduled.remaining_filters + 0.15


class TestPaperValues:
    def test_headline_claims_present(self):
        claims = paper_values.HEADLINE_CLAIMS
        assert claims["params_reduction"] == 0.70
        assert claims["ops_reduction"] == 0.61
        assert claims["latency_reduction"] == 0.41
        assert claims["energy_reduction"] == 0.29

    def test_tables_contain_alf_rows(self):
        assert "ALF" in paper_values.TABLE2_CIFAR
        assert "ALF" in paper_values.TABLE3_IMAGENET
        assert paper_values.TABLE2_CIFAR["ALF"]["params_m"] == 0.07
