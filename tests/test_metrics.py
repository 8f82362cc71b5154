"""Tests for metrics: profiling, OPs/Params counters, comparison helpers, tables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ALFConfig, convert_to_alf, compress_model, alf_blocks
from repro.hardware import conv_shapes_from_model
from repro.metrics import (
    ComparisonTable,
    MethodResult,
    OPS_PER_MAC,
    compression_summary,
    count_macs,
    count_ops,
    count_params,
    dominates,
    format_count,
    format_percent,
    pareto_front,
    profile_model,
    render_table,
)
from repro.models import lenet, plain8, resnet20
from repro.nn import Conv2d, Flatten, GlobalAvgPool2d, Linear, ReLU, Sequential


class TestProfiling:
    def test_conv_macs_and_params_closed_form(self, rng):
        model = Sequential(Conv2d(3, 8, 3, padding=1, bias=False, rng=rng))
        profile = profile_model(model, (3, 16, 16))
        layer = profile.layers[0]
        assert layer.params == 3 * 8 * 9
        assert layer.macs == 3 * 8 * 9 * 16 * 16
        assert layer.ops == OPS_PER_MAC * layer.macs

    def test_linear_costs(self, rng):
        model = Sequential(Flatten(), Linear(48, 10, rng=rng))
        profile = profile_model(model, (3, 4, 4))
        layer = profile.layers[0]
        assert layer.kind == "linear"
        assert layer.params == 48 * 10 + 10
        assert layer.macs == 480

    def test_strided_conv_costs_shrink(self, rng):
        dense = Sequential(Conv2d(4, 4, 3, padding=1, stride=1, rng=rng))
        strided = Sequential(Conv2d(4, 4, 3, padding=1, stride=2, rng=rng))
        assert (profile_model(strided, (4, 16, 16)).total_macs()
                == profile_model(dense, (4, 16, 16)).total_macs() // 4)

    def test_conv_only_excludes_linear(self, rng):
        model = lenet(num_classes=5, in_channels=1, width=4, rng=rng)
        profile = profile_model(model, (1, 12, 12))
        assert profile.total_params(conv_only=True) < profile.total_params()

    def test_counts_are_per_image_regardless_of_batch(self, rng):
        model = plain8(rng=rng)
        a = profile_model(model, (3, 16, 16), batch_size=1).total_macs()
        b = profile_model(model, (3, 16, 16), batch_size=4).total_macs()
        assert a == b

    def test_alf_block_profiled_in_deployed_form(self, rng):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        convert_to_alf(model, ALFConfig(), rng=rng)
        for block in alf_blocks(model):
            block.autoencoder.pruning_mask.mask.data[::2] = 0.0
        alf_profile = profile_model(model, (1, 12, 12))
        compressed = compress_model(model)
        compressed_profile = profile_model(compressed.model, (1, 12, 12))
        assert alf_profile.total_params() == compressed_profile.total_params()
        assert alf_profile.total_macs() == compressed_profile.total_macs()

    def test_fully_pruned_alf_block_costed_as_deployed(self, rng):
        """A block whose mask is all zero deploys with one filter, not none."""
        model = resnet20(rng=rng)
        blocks = dict(convert_to_alf(model, ALFConfig(), rng=rng))
        name = "layers.layer1.conv1"
        blocks[name].autoencoder.pruning_mask.mask.data[:] = 0.0
        alf_profile = profile_model(model, (3, 32, 32))
        deployed_profile = profile_model(compress_model(model).model, (3, 32, 32))
        alf_layer = alf_profile.by_name(name)
        deployed_layer = deployed_profile.by_name(name)
        assert (alf_layer.params, alf_layer.macs) == (160, 163_840)
        assert (deployed_layer.params, deployed_layer.macs) == (160, 163_840)
        assert (alf_profile.total_params(conv_only=True)
                == deployed_profile.total_params(conv_only=True))
        assert (alf_profile.total_macs(conv_only=True)
                == deployed_profile.total_macs(conv_only=True))
        # The Eyeriss workloads of that block add up to the same cost.
        shapes = [s for s in conv_shapes_from_model(model, (3, 32, 32))
                  if s.name in (name, f"{name}_exp")]
        assert [s.out_channels for s in shapes] == [1, 16]
        assert sum(s.weight_words for s in shapes) == alf_layer.params
        assert sum(s.macs for s in shapes) == alf_layer.macs

    def test_profiling_restores_forward_methods(self, rng):
        model = plain8(rng=rng)
        profile_model(model, (3, 16, 16))
        # No instance-level "forward" attribute should remain after profiling.
        for module in model.modules():
            assert "forward" not in module.__dict__

    def test_by_name_lookup(self, rng):
        model = Sequential(Conv2d(1, 2, 3, rng=rng))
        profile = profile_model(model, (1, 5, 5))
        assert profile.by_name(profile.layers[0].name).kind == "conv"
        with pytest.raises(KeyError):
            profile.by_name("missing")

    def test_count_helpers_consistent(self, rng):
        model = plain8(rng=rng)
        shape = (3, 16, 16)
        assert count_ops(model, shape) == 2 * count_macs(model, shape)
        assert count_params(model, shape) == profile_model(model, shape).total_params()


class TestComparisonHelpers:
    def _rows(self):
        return [
            MethodResult("baseline", "—", 100.0, 100.0, 90.0),
            MethodResult("better", "auto", 50.0, 50.0, 89.0),
            MethodResult("dominated", "rule", 80.0, 90.0, 85.0),
        ]

    def test_reductions(self):
        rows = self._rows()
        table = ComparisonTable(baseline=rows[0], rows=rows[1:])
        reductions = table.reductions()
        assert reductions["better"]["params_reduction"] == pytest.approx(0.5)
        assert reductions["better"]["accuracy_drop"] == pytest.approx(1.0)

    def test_dominates(self):
        rows = self._rows()
        assert dominates(rows[1], rows[2])
        assert not dominates(rows[2], rows[1])
        assert not dominates(rows[1], rows[0])   # baseline has higher accuracy

    def test_pareto_front_contains_non_dominated(self):
        rows = self._rows()
        front = pareto_front(rows)
        names = {r.method for r in front}
        assert "better" in names and "baseline" in names
        assert "dominated" not in names

    def test_unknown_params_never_dominate(self):
        a = MethodResult("a", "x", None, 10.0, 90.0)
        b = MethodResult("b", "x", 5.0, 20.0, 80.0)
        assert not dominates(a, b)

    def test_compression_summary(self):
        summary = compression_summary(100, 200, 30, 80)
        assert summary["params_reduction"] == pytest.approx(0.7)
        assert summary["ops_reduction"] == pytest.approx(0.6)

    def test_method_result_reductions(self):
        row = MethodResult("m", "p", 30.0, 40.0, 88.0)
        assert row.params_reduction(100.0) == pytest.approx(0.7)
        assert row.ops_reduction(80.0) == pytest.approx(0.5)
        assert row.accuracy_drop(90.0) == pytest.approx(2.0)
        assert MethodResult("m", "p", None, 1.0, 1.0).params_reduction(10.0) is None


class TestTables:
    def test_format_count(self):
        assert format_count(1_500_000) == "1.50M"
        assert format_count(2_000, unit="K") == "2.00K"
        assert format_count(None) == "-"

    def test_format_percent(self):
        assert format_percent(0.375) == "37.5%"
        assert format_percent(0.1, signed=True) == "+10.0%"
        assert format_percent(None) == "-"

    def test_render_table_alignment(self):
        text = render_table(["a", "column"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "column" in lines[1]
        assert len(lines) == 5


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 3), st.integers(4, 12))
@settings(max_examples=20, deadline=None)
def test_conv_profile_matches_closed_form_property(ci, co, k, size):
    if size < k:
        return
    model = Sequential(Conv2d(ci, co, k, bias=False, rng=np.random.default_rng(0)))
    profile = profile_model(model, (ci, size, size))
    out = size - k + 1
    assert profile.total_macs() == ci * co * k * k * out * out
    assert profile.total_params() == ci * co * k * k
