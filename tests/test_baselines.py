"""Tests for baseline compression methods: magnitude, FPGM, AMC, LCNN, low-rank."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    AMCPruner,
    FPGMPruner,
    LCNNCompressor,
    LowRankDecomposer,
    MagnitudePruner,
    apply_filter_masks,
    geometric_median,
    keep_top_filters,
    prunable_convolutions,
)
from repro.baselines.lcnn import _kmeans, _nearest
from repro.metrics import profile_model
from repro.models import lenet, resnet8
from repro.nn import Conv2d, Sequential, Tensor


@pytest.fixture
def small_cnn(rng):
    return Sequential(
        Conv2d(3, 8, 3, padding=1, rng=rng),
        Conv2d(8, 16, 3, padding=1, rng=rng),
        Conv2d(16, 16, 1, rng=rng),       # 1x1: excluded from pruning by default
    )


class TestCommonInfrastructure:
    def test_prunable_convolutions_excludes_1x1(self, small_cnn):
        layers = prunable_convolutions(small_cnn)
        assert len(layers) == 2
        assert all(conv.kernel_size[0] >= 2 for _, conv in layers)

    def test_keep_top_filters_selects_highest(self):
        scores = np.array([0.1, 5.0, 0.2, 3.0])
        assert list(keep_top_filters(scores, 2)) == [1, 3]

    def test_keep_top_filters_clamps_count(self):
        scores = np.array([1.0, 2.0])
        assert len(keep_top_filters(scores, 10)) == 2
        assert len(keep_top_filters(scores, 0)) == 1

    def test_plan_respects_prune_ratio(self, small_cnn):
        plan = MagnitudePruner().plan(small_cnn, prune_ratio=0.5)
        for decision in plan.decisions:
            assert decision.num_kept == max(1, round(decision.total_filters * 0.5))
        assert plan.overall_filter_reduction == pytest.approx(0.5, abs=0.1)

    def test_plan_rejects_invalid_ratio(self, small_cnn):
        with pytest.raises(ValueError):
            MagnitudePruner().plan(small_cnn, prune_ratio=1.0)

    def test_apply_filter_masks_zeroes_pruned_filters(self, small_cnn):
        pruner = MagnitudePruner()
        plan = pruner.prune(small_cnn, prune_ratio=0.5)
        modules = dict(small_cnn.named_modules())
        for decision in plan.decisions:
            weights = modules[decision.name].weight.data
            pruned = np.setdiff1d(np.arange(decision.total_filters), decision.kept_filters)
            assert np.allclose(weights[pruned], 0.0)
            assert not np.allclose(weights[decision.kept_filters], 0.0)

    def test_effective_cost_decreases_with_pruning(self, small_cnn):
        base = profile_model(small_cnn, (3, 16, 16))
        plan = MagnitudePruner().plan(small_cnn, prune_ratio=0.5)
        cost = base.pruned(plan.survival).cost()
        assert cost["params"] < base.total_params()
        assert cost["ops"] < base.total_ops()
        assert cost["ops"] == 2 * cost["macs"]

    def test_effective_cost_no_pruning_matches_profile(self, small_cnn):
        from repro.baselines.common import PruningPlan
        base = profile_model(small_cnn, (3, 16, 16))
        empty = PruningPlan(method="none")
        cost = base.pruned(empty.survival).cost()
        assert cost["params"] == pytest.approx(base.total_params())
        assert cost["ops"] == pytest.approx(base.total_ops())


class TestMagnitudePruner:
    def test_scores_are_filter_norms(self, rng):
        conv = Conv2d(2, 3, 3, rng=rng)
        scores = MagnitudePruner(norm="l1").score_filters("c", conv)
        expected = np.abs(conv.weight.data.reshape(3, -1)).sum(axis=1)
        assert np.allclose(scores, expected)

    def test_l2_norm_option(self, rng):
        conv = Conv2d(2, 3, 3, rng=rng)
        scores = MagnitudePruner(norm="l2").score_filters("c", conv)
        expected = np.sqrt((conv.weight.data.reshape(3, -1) ** 2).sum(axis=1))
        assert np.allclose(scores, expected)

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            MagnitudePruner(norm="linf")

    def test_keeps_large_filters(self, rng):
        conv = Conv2d(1, 4, 3, rng=rng)
        conv.weight.data[1] = 10.0   # clearly the most salient filter
        conv.weight.data[3] = 0.001  # clearly the least
        model = Sequential(conv)
        plan = MagnitudePruner().plan(model, prune_ratio=0.5)
        kept = set(plan.decisions[0].kept_filters)
        assert 1 in kept and 3 not in kept


class TestFPGMPruner:
    def test_geometric_median_of_symmetric_points(self):
        points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        median = geometric_median(points)
        assert np.allclose(median, [0.0, 0.0], atol=1e-6)

    def test_prunes_filters_closest_to_median(self, rng):
        conv = Conv2d(1, 5, 3, rng=rng)
        # Make filter 2 exactly the mean of the others -> closest to the median.
        conv.weight.data[2] = conv.weight.data[[0, 1, 3, 4]].mean(axis=0)
        model = Sequential(conv)
        plan = FPGMPruner().plan(model, prune_ratio=0.2)
        assert 2 not in plan.decisions[0].kept_filters

    def test_scores_are_distances(self, rng):
        conv = Conv2d(2, 4, 3, rng=rng)
        scores = FPGMPruner().score_filters("c", conv)
        assert scores.shape == (4,)
        assert np.all(scores >= 0)


class TestAMCPruner:
    def test_search_returns_result_with_ratios(self, rng):
        model = resnet8(rng=rng)
        pruner = AMCPruner(iterations=2, population=4, seed=0)
        result = pruner.search(model, ops_budget=0.5)
        assert len(result.per_layer_ratios) == len(prunable_convolutions(model))
        assert all(0.0 <= r <= pruner.max_ratio for r in result.per_layer_ratios.values())
        assert len(result.reward_history) == 2

    def test_plan_meets_rough_ops_budget(self, rng):
        model = resnet8(rng=rng)
        pruner = AMCPruner(iterations=4, population=8, seed=0)
        plan = pruner.plan(model, prune_ratio=0.5)
        profile = profile_model(model, (3, 16, 16))
        cost = profile.pruned(plan.survival).cost(conv_only=True)
        base = profile.total_ops(conv_only=True)
        assert cost["ops"] < base  # strictly compressed

    def test_reward_uses_accuracy_and_budget(self):
        from repro.baselines import default_reward
        assert default_reward(0.9, 0.4, 0.5) == pytest.approx(0.9)
        assert default_reward(0.9, 0.7, 0.5) < 0.9

    def test_custom_evaluate_callback_is_used(self, rng):
        model = resnet8(rng=rng)
        calls = []

        def evaluate(m, plan):
            calls.append(plan)
            return 0.5

        pruner = AMCPruner(evaluate=evaluate, iterations=1, population=2, seed=0)
        pruner.plan(model, prune_ratio=0.5)
        assert len(calls) == 2

    def test_layer_state_vector(self, rng):
        model = resnet8(rng=rng)
        pruner = AMCPruner(seed=0)
        states = pruner.layer_states(model)
        name, state = states[0]
        vector = state.as_vector()
        assert vector.shape == (6,)
        assert vector[2] == state.out_channels

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            AMCPruner(seed=0).search(Sequential(), ops_budget=0.5)


class TestLCNN:
    def test_dictionary_shapes(self, rng):
        conv = Conv2d(3, 8, 3, rng=rng)
        compressor = LCNNCompressor(dictionary_fraction=0.5, sparsity=2, seed=0)
        dictionary = compressor.compress_layer("c", conv)
        assert dictionary.atoms.shape == (4, 27)
        assert dictionary.assignments.shape == (8, 2)
        assert dictionary.reconstruct_filters().shape == (8, 3, 3, 3)

    def test_costs_smaller_than_dense(self, rng):
        model = Sequential(Conv2d(3, 16, 3, padding=1, rng=rng))
        compressor = LCNNCompressor(dictionary_fraction=0.25, sparsity=2, seed=0)
        result = compressor.compress(model)
        base = profile_model(model, (3, 8, 8))
        cost = base.factored({d.name: d for d in result.dictionaries}).cost()
        assert cost["params"] < base.total_params()
        assert cost["ops"] < base.total_ops()

    def test_apply_replaces_weights_with_reconstruction(self, rng):
        model = Sequential(Conv2d(2, 8, 3, rng=rng))
        original = model[0].weight.data.copy()
        LCNNCompressor(dictionary_fraction=0.5, seed=0).compress(model, apply=True)
        assert not np.array_equal(model[0].weight.data, original)

    def test_reconstruction_better_with_larger_dictionary(self, rng):
        conv = Conv2d(3, 16, 3, rng=rng)
        errors = []
        for fraction in (0.125, 1.0):
            dictionary = LCNNCompressor(dictionary_fraction=fraction, sparsity=3,
                                        seed=0).compress_layer("c", conv)
            reconstruction = dictionary.reconstruct_filters()
            errors.append(np.linalg.norm(reconstruction - conv.weight.data))
        assert errors[1] <= errors[0] + 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LCNNCompressor(dictionary_fraction=0.0)
        with pytest.raises(ValueError):
            LCNNCompressor(sparsity=0)

    @pytest.mark.parametrize("points, clusters, dim, dtype", [
        (8, 4, 27, np.float64), (64, 8, 144, np.float64),
        (128, 15, 576, np.float64), (96, 12, 288, np.float32)])
    def test_kmeans_gemm_form_matches_the_broadcast_form(self, points,
                                                         clusters, dim, dtype):
        # The GEMM distance picks the same nearest centroid as the
        # (P × C × D) broadcast, so Lloyd's iterations give equal centroids.
        def broadcast_nearest(p, c):
            return ((p[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).argmin(1)

        def broadcast_kmeans(p, k, iterations, rng):
            centroids = p[rng.choice(len(p), size=k, replace=False)].copy()
            for _ in range(iterations):
                labels = broadcast_nearest(p, centroids)
                for cluster in range(k):
                    members = p[labels == cluster]
                    if len(members):
                        centroids[cluster] = members.mean(axis=0)
            return centroids

        data = np.random.default_rng(points + dim)
        p = data.standard_normal((points, dim)).astype(dtype)
        c = data.standard_normal((clusters, dim)).astype(dtype)
        np.testing.assert_array_equal(_nearest(p, c), broadcast_nearest(p, c))
        got = _kmeans(p, clusters, 10, np.random.default_rng(3))
        want = broadcast_kmeans(p, clusters, 10, np.random.default_rng(3))
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestLowRank:
    def test_rank_selection_by_fraction(self, rng):
        conv = Conv2d(3, 8, 3, rng=rng)
        factorization = LowRankDecomposer(rank_fraction=0.5).decompose_layer("c", conv)
        assert factorization.rank == 4
        assert factorization.code_weight.shape == (4, 3, 3, 3)
        assert factorization.expansion_weight.shape == (8, 4, 1, 1)

    def test_full_rank_reconstruction_is_exact(self, rng):
        conv = Conv2d(2, 4, 3, rng=rng)
        factorization = LowRankDecomposer(rank_fraction=1.0).decompose_layer("c", conv)
        # "Exact" up to the working precision of the engine's default dtype
        # (the float32 fast path carries ~1e-7 relative SVD round-off).
        tol = 1e-8 if conv.weight.dtype == np.float64 else 1e-5
        assert np.allclose(factorization.reconstruct(), conv.weight.data, atol=tol)
        assert factorization.approximation_error == pytest.approx(0.0, abs=tol)

    def test_energy_threshold_selection(self, rng):
        conv = Conv2d(2, 8, 3, rng=rng)
        # Make the weight matrix effectively rank-2.
        base = rng.standard_normal((2, 18))
        conv.weight.data = (rng.standard_normal((8, 2)) @ base).reshape(8, 2, 3, 3)
        factorization = LowRankDecomposer(rank_fraction=None,
                                          energy_threshold=0.999).decompose_layer("c", conv)
        assert factorization.rank <= 3

    def test_mutually_exclusive_selection_modes(self):
        with pytest.raises(ValueError):
            LowRankDecomposer(rank_fraction=0.5, energy_threshold=0.9)
        with pytest.raises(ValueError):
            LowRankDecomposer(rank_fraction=None, energy_threshold=None)

    def test_costs_reduced(self, rng):
        model = Sequential(Conv2d(3, 16, 3, padding=1, rng=rng))
        decomposer = LowRankDecomposer(rank_fraction=0.25)
        result = decomposer.decompose(model)
        base = profile_model(model, (3, 8, 8))
        cost = base.factored({f.name: f for f in result.factorizations}).cost()
        assert cost["params"] < base.total_params()
        assert cost["ops"] < base.total_ops()

    def test_error_decreases_with_rank(self, rng):
        conv = Conv2d(3, 16, 3, rng=rng)
        low = LowRankDecomposer(rank_fraction=0.25).decompose_layer("c", conv)
        high = LowRankDecomposer(rank_fraction=0.75).decompose_layer("c", conv)
        assert high.approximation_error <= low.approximation_error + 1e-12


@given(st.integers(2, 16), st.integers(1, 9))
@settings(max_examples=20, deadline=None)
def test_keep_top_filters_count_property(total, keep):
    scores = np.arange(total, dtype=float)
    kept = keep_top_filters(scores, keep)
    assert len(kept) == min(max(keep, 1), total)
    # Highest scores are always retained.
    assert total - 1 in kept
