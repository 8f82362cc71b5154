"""Tests for the analytical Eyeriss hardware model: spec, dataflow, mapper, energy, latency."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ALFConfig, convert_to_alf
from repro.hardware import (
    EYERISS_PAPER,
    ConvLayerShape,
    EnergyTable,
    EyerissSpec,
    compare_networks,
    energy_breakdown,
    evaluate_layers,
    latency_estimate,
    map_row_stationary,
    search_mapping,
)
from repro.hardware.mapper import _search_geometry
from repro.metrics import profile_model
from repro.models import plain8, plain20
from repro.models.plain import plain_layer_names


def make_layer(name="conv", ci=16, co=16, k=3, hw=(16, 16), stride=1, padding=1, batch=1):
    return ConvLayerShape(name=name, in_channels=ci, out_channels=co, kernel_size=k,
                          input_hw=hw, stride=stride, padding=padding, batch=batch)


class TestSpec:
    def test_paper_spec_values(self):
        spec = EYERISS_PAPER
        assert spec.num_pes == 256
        assert spec.rf_words_per_pe == 220
        assert spec.global_buffer_bytes == 128 * 1024
        assert spec.word_bits == 16
        assert spec.word_bytes == 2
        assert spec.global_buffer_words == 64 * 1024

    def test_energy_ordering(self):
        energy = EnergyTable()
        assert energy.register_file < energy.global_buffer < energy.dram

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            EyerissSpec(pe_rows=0).validate()
        with pytest.raises(ValueError):
            EyerissSpec(rf_weight_words=1000).validate()
        with pytest.raises(ValueError):
            EyerissSpec(word_bits=12).validate()
        with pytest.raises(ValueError):
            EyerissSpec(dram_bytes_per_cycle=0).validate()


class TestLayerShape:
    def test_output_geometry(self):
        layer = make_layer(hw=(32, 32), stride=2)
        assert layer.output_hw == (16, 16)

    def test_macs_formula(self):
        layer = make_layer(ci=4, co=8, k=3, hw=(8, 8), batch=2)
        assert layer.macs == 2 * 4 * 8 * 9 * 8 * 8

    def test_word_counts(self):
        layer = make_layer(ci=4, co=8, k=3, hw=(8, 8), batch=2)
        assert layer.weight_words == 4 * 8 * 9
        assert layer.input_words == 2 * 4 * 64
        assert layer.output_words == 2 * 8 * 64

    def test_validation(self):
        with pytest.raises(ValueError):
            make_layer(ci=0).validate()
        with pytest.raises(ValueError):
            ConvLayerShape("bad", 4, 4, 7, (3, 3), stride=1, padding=0).validate()

    def test_with_batch(self):
        layer = make_layer(batch=1)
        assert layer.with_batch(16).macs == 16 * layer.macs


class TestRowStationaryMapping:
    def test_utilization_bounded(self):
        mapping = map_row_stationary(make_layer(), EYERISS_PAPER)
        assert 0.0 < mapping.utilization <= 1.0
        assert mapping.used_pes <= EYERISS_PAPER.num_pes

    def test_small_layer_underutilizes_array(self):
        # Few output channels and a small map limit replication -> low utilization.
        small = map_row_stationary(make_layer(ci=1, co=2, hw=(8, 8)), EYERISS_PAPER)
        large = map_row_stationary(make_layer(ci=64, co=64, hw=(16, 16)), EYERISS_PAPER)
        assert small.utilization < large.utilization

    def test_spatial_folding_for_tall_outputs(self):
        mapping = map_row_stationary(make_layer(hw=(32, 32)), EYERISS_PAPER)
        assert mapping.spatial_folds == 2

    def test_temporal_passes_cover_all_work(self):
        layer = make_layer(ci=8, co=8, hw=(8, 8), batch=2)
        mapping = map_row_stationary(layer, EYERISS_PAPER)
        total_sets = layer.in_channels * layer.out_channels * layer.batch * mapping.spatial_folds
        assert mapping.temporal_passes >= total_sets / mapping.replication - 1

    def test_pruned_layer_loses_parallelism(self):
        """The conv312 anomaly: very few output channels -> idle PEs."""
        dense = map_row_stationary(make_layer(ci=32, co=32, hw=(16, 16)), EYERISS_PAPER)
        pruned = map_row_stationary(make_layer(ci=32, co=3, hw=(16, 16)), EYERISS_PAPER)
        assert pruned.used_pes < dense.used_pes


class TestMapperEnergyLatency:
    def test_mapping_found_for_typical_layers(self):
        for layer in [make_layer(), make_layer(ci=64, co=64, hw=(8, 8), batch=16),
                      make_layer(ci=3, co=16, hw=(32, 32), batch=16)]:
            mapping = search_mapping(layer, EYERISS_PAPER)
            assert mapping.energy > 0
            assert mapping.accesses.register_file == 4 * layer.macs

    def test_energy_breakdown_sums_to_total(self):
        mapping = search_mapping(make_layer(batch=4), EYERISS_PAPER)
        breakdown = energy_breakdown(mapping, EYERISS_PAPER)
        assert breakdown.total == pytest.approx(
            breakdown.register_file + breakdown.global_buffer + breakdown.dram)
        assert breakdown.total == pytest.approx(mapping.energy)

    def test_rf_energy_dominates_for_compute_heavy_layers(self):
        """Fig. 3 trend: the register files dominate energy for the deeper layers."""
        mapping = search_mapping(make_layer(ci=64, co=64, hw=(8, 8), batch=16), EYERISS_PAPER)
        breakdown = energy_breakdown(mapping, EYERISS_PAPER)
        assert breakdown.register_file > breakdown.dram
        assert breakdown.register_file > breakdown.global_buffer

    def test_energy_scales_with_macs(self):
        small = search_mapping(make_layer(ci=8, co=8), EYERISS_PAPER)
        large = search_mapping(make_layer(ci=32, co=32), EYERISS_PAPER)
        assert large.energy > small.energy

    def test_latency_positive_and_bound_reported(self):
        mapping = search_mapping(make_layer(batch=16), EYERISS_PAPER)
        latency = latency_estimate(mapping, EYERISS_PAPER)
        assert latency.total_cycles > 0
        assert latency.bound in ("compute", "memory")
        assert latency.total_cycles == pytest.approx(
            max(latency.compute_cycles, latency.dram_cycles))

    def test_lower_utilization_increases_latency(self):
        dense = search_mapping(make_layer(ci=32, co=32, hw=(16, 16), batch=16), EYERISS_PAPER)
        pruned = search_mapping(make_layer(ci=32, co=2, hw=(16, 16), batch=16), EYERISS_PAPER)
        dense_latency = latency_estimate(dense, EYERISS_PAPER)
        pruned_latency = latency_estimate(pruned, EYERISS_PAPER)
        # Per-MAC cost is higher when the array is underutilized.
        assert (pruned_latency.compute_cycles / pruned.layer.macs
                >= dense_latency.compute_cycles / dense.layer.macs)

    def test_infeasible_layer_raises(self):
        huge = ConvLayerShape("huge", 4, 4, 500, (600, 600), stride=1, padding=0)
        with pytest.raises(RuntimeError):
            search_mapping(huge, EYERISS_PAPER)


class TestMappingMemo:
    """``search_mapping`` is memoized per geometry; reports never show it."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _search_geometry.cache_clear()
        yield
        _search_geometry.cache_clear()

    def test_reports_are_byte_equal_cold_and_warm(self, rng):
        dense = plain8(rng=rng)
        alf = plain8(rng=rng)
        convert_to_alf(alf, ALFConfig(), rng=rng)

        def payloads():
            return [json.dumps(evaluate_layers(
                        profile_model(model, (3, 16, 16)).workloads(batch=2),
                        name=name).to_dict())
                    for name, model in (("dense", dense), ("alf", alf))]

        cold = payloads()
        misses = _search_geometry.cache_info().misses
        warm = payloads()
        assert warm == cold
        info = _search_geometry.cache_info()
        assert info.misses == misses and info.hits >= misses
        _search_geometry.cache_clear()
        assert payloads() == cold

    def test_same_geometry_keeps_each_layer_name(self):
        report = evaluate_layers([make_layer(name="conv_a"),
                                  make_layer(name="conv_b")])
        assert _search_geometry.cache_info().misses == 1
        for entry, name in zip(report.layers, ("conv_a", "conv_b")):
            assert entry.mapping.layer.name == name
            assert entry.energy.name == name
            assert entry.latency.name == name
            assert entry.to_dict()["energy"]["name"] == name
            assert entry.to_dict()["latency"]["name"] == name

    def test_max_candidates_and_spec_are_part_of_the_key(self):
        layer = make_layer(batch=4)
        small_buffer = EyerissSpec(global_buffer_bytes=8 * 1024).validate()
        variants = [(EYERISS_PAPER, 100_000), (EYERISS_PAPER, 1),
                    (small_buffer, 100_000)]
        cold = []
        for spec, limit in variants:
            _search_geometry.cache_clear()
            cold.append(search_mapping(layer, spec, max_candidates=limit))
        assert len({(m.tiling, m.energy) for m in cold}) == len(variants)
        _search_geometry.cache_clear()
        warm = [search_mapping(layer, spec, max_candidates=limit)
                for spec, limit in variants]
        assert warm == cold
        assert _search_geometry.cache_info().misses == len(variants)

    def test_shared_mappings_are_frozen(self):
        mapping = search_mapping(make_layer(), EYERISS_PAPER)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mapping.energy = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            mapping.accesses.dram = 0

    def test_infeasible_error_names_the_callers_layer(self):
        for name in ("first", "second"):
            huge = ConvLayerShape(name, 4, 4, 500, (600, 600))
            with pytest.raises(RuntimeError, match=f"layer '{name}'"):
                search_mapping(huge, EYERISS_PAPER)


class TestNetworkReports:
    def test_evaluate_layers_totals(self):
        layers = [make_layer(name="a"), make_layer(name="b", ci=32, co=32, hw=(8, 8))]
        report = evaluate_layers(layers, name="net")
        assert len(report.layers) == 2
        assert report.total_energy == pytest.approx(sum(r.energy.total for r in report.layers))
        assert report.total_latency == pytest.approx(
            sum(r.latency.total_cycles for r in report.layers))
        levels = report.energy_by_level()
        assert set(levels) == {"register_file", "global_buffer", "dram"}

    def test_conv_shapes_from_vanilla_model(self, rng):
        model = plain8(rng=rng)
        shapes = profile_model(model, (3, 16, 16)).workloads(batch=2)
        assert len(shapes) == 7   # 1 stem + 6 stage convs for plain-8
        assert all(s.batch == 2 for s in shapes)

    def test_conv_shapes_from_alf_model_include_expansion(self, rng):
        model = plain8(rng=rng)
        convert_to_alf(model, ALFConfig(), rng=rng)
        shapes = profile_model(model, (3, 16, 16)).workloads()
        expansion = [s for s in shapes if s.name.endswith("_exp")]
        assert len(expansion) == 7
        assert all(s.kernel_size == 1 for s in expansion)

    def test_grouping_merges_expansion_layers(self, rng):
        model = plain8(rng=rng)
        convert_to_alf(model, ALFConfig(), rng=rng)
        report = evaluate_layers(profile_model(model, (3, 16, 16)).workloads(batch=2))
        grouped = report.grouped_energy()
        assert len(grouped) == 7
        assert not any(name.endswith("_exp") for name in grouped)

    def test_layer_names_applied(self, rng):
        model = plain20(rng=rng)
        names = plain_layer_names()
        report = evaluate_layers(
            profile_model(model, (3, 32, 32)).workloads(batch=1, names=names))
        assert report.layer_names() == names

    def test_comparison_reductions(self, rng):
        baseline_layers = [make_layer(name="a", ci=32, co=32, batch=4)]
        compressed_layers = [make_layer(name="a", ci=32, co=12, batch=4),
                             make_layer(name="a_exp", ci=12, co=32, k=1, padding=0, batch=4)]
        baseline = evaluate_layers(baseline_layers, name="vanilla")
        compressed = evaluate_layers(compressed_layers, name="alf")
        comparison = compare_networks(baseline, compressed)
        assert comparison.energy_reduction == pytest.approx(
            1.0 - compressed.total_energy / baseline.total_energy)
        summary = comparison.summary()
        assert set(summary) >= {"energy_reduction", "latency_reduction"}


# --------------------------------------------------------------------------- #
# Property-based invariants of the hardware model
# --------------------------------------------------------------------------- #
@given(ci=st.integers(1, 64), co=st.integers(1, 64), hw=st.integers(4, 32),
       batch=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_mapper_access_counts_cover_minimum_traffic(ci, co, hw, batch):
    """Every input/output/weight word must cross DRAM at least once."""
    layer = ConvLayerShape("prop", ci, co, 3, (hw, hw), stride=1, padding=1, batch=batch)
    mapping = search_mapping(layer, EYERISS_PAPER)
    minimum = layer.input_words + layer.output_words + layer.weight_words
    assert mapping.accesses.dram >= minimum
    assert mapping.accesses.register_file >= layer.macs


@given(co_small=st.integers(1, 16), co_large=st.integers(32, 64))
@settings(max_examples=20, deadline=None)
def test_energy_monotone_in_output_channels(co_small, co_large):
    small = search_mapping(make_layer(co=co_small, batch=2), EYERISS_PAPER)
    large = search_mapping(make_layer(co=co_large, batch=2), EYERISS_PAPER)
    assert large.energy > small.energy
