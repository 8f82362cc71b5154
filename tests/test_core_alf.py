"""Unit tests for the ALF core: config, schedule, mask, autoencoder, block, convert, deploy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ALFConfig,
    ALFConv2d,
    ALFTrainer,
    CompressedConv2d,
    PruningMask,
    WeightAutoencoder,
    alf_blocks,
    ccode_max,
    compress_block,
    compress_model,
    convert_to_alf,
    nu_prune,
)
from repro.core.schedule import PruningSchedule
from repro.models import lenet, plain8
from repro.nn import Conv2d, Sequential, Tensor
from repro.nn.loss import cross_entropy


class TestConfig:
    def test_defaults_match_paper(self):
        config = ALFConfig()
        assert config.threshold == pytest.approx(1e-4)
        assert config.lr_autoencoder == pytest.approx(1e-3)
        assert config.slope == 8.0
        assert config.pr_max == 0.85
        assert config.sigma_ae == "tanh"
        assert config.sigma_inter is None
        assert config.wexp_init == "xavier"

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ALFConfig(threshold=-1.0).validate()
        with pytest.raises(ValueError):
            ALFConfig(pr_max=1.5).validate()
        with pytest.raises(ValueError):
            ALFConfig(slope=0.0).validate()
        with pytest.raises(ValueError):
            ALFConfig(lr_task=-0.1).validate()

    def test_validate_rejects_bad_optimizer_and_mask_values(self):
        """Regression: momentum / weight_decay / mask_init were unchecked."""
        with pytest.raises(ValueError):
            ALFConfig(momentum=1.0).validate()
        with pytest.raises(ValueError):
            ALFConfig(momentum=-0.1).validate()
        with pytest.raises(ValueError):
            ALFConfig(weight_decay=-1e-4).validate()
        with pytest.raises(ValueError):
            ALFConfig(mask_init=-0.5).validate()
        # The boundary values remain valid.
        ALFConfig(momentum=0.0, weight_decay=0.0, mask_init=0.0).validate()

    def test_with_overrides_returns_new_instance(self):
        base = ALFConfig()
        other = base.with_overrides(threshold=5e-4)
        assert other.threshold == pytest.approx(5e-4)
        assert base.threshold == pytest.approx(1e-4)


class TestSchedule:
    def test_nu_prune_is_one_ish_at_zero(self):
        assert nu_prune(0.0, slope=8.0, pr_max=0.85) == pytest.approx(1.0, abs=1e-2)

    def test_nu_prune_zero_at_pr_max(self):
        assert nu_prune(0.85, slope=8.0, pr_max=0.85) == pytest.approx(0.0)

    def test_nu_prune_zero_beyond_pr_max(self):
        assert nu_prune(0.95, slope=8.0, pr_max=0.85) == 0.0

    def test_nu_prune_monotonically_decreasing(self):
        values = [nu_prune(theta) for theta in np.linspace(0, 1, 21)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_nu_prune_rejects_out_of_range_theta(self):
        with pytest.raises(ValueError):
            nu_prune(1.5)

    def test_schedule_records_history_and_saturation(self):
        schedule = PruningSchedule(slope=8.0, pr_max=0.5)
        schedule(0.1)
        schedule(0.4)
        assert len(schedule.history) == 2
        assert not schedule.saturated(0.4)
        assert schedule.saturated(0.5)


class TestPruningMask:
    def test_initial_mask_keeps_everything(self):
        mask = PruningMask(8, threshold=1e-4, init_value=1.0)
        assert mask.num_active() == 8
        assert mask.zero_fraction() == 0.0

    def test_clipping_below_threshold(self):
        mask = PruningMask(4, threshold=0.1)
        mask.mask.data = np.array([0.5, 0.05, -0.05, -0.5])
        assert mask.num_active() == 2
        assert np.allclose(mask().data, [0.5, 0.0, 0.0, -0.5])

    def test_disabled_mask_is_identity(self):
        mask = PruningMask(4, threshold=0.1, enabled=False)
        mask.mask.data = np.zeros(4)
        assert np.allclose(mask().data, 1.0)
        assert mask.num_active() == 4

    def test_sparsity_loss_is_mean_absolute_mask(self):
        mask = PruningMask(4)
        mask.mask.data = np.array([1.0, -2.0, 0.5, 0.0])
        assert mask.sparsity_loss().item() == pytest.approx(3.5 / 4)

    def test_reset(self):
        mask = PruningMask(3, init_value=0.7)
        mask.mask.data = np.zeros(3)
        mask.reset()
        assert np.allclose(mask.mask.data, 1.0)
        mask.reset(0.3)
        assert np.allclose(mask.mask.data, 0.3)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PruningMask(0)
        with pytest.raises(ValueError):
            PruningMask(4, threshold=-1.0)

    def test_recovery_possible_through_ste(self):
        """A clipped entry still receives gradients and can grow back."""
        mask = PruningMask(2, threshold=0.1)
        mask.mask.data = np.array([0.01, 1.0])
        out = mask()
        (out * Tensor(np.array([-1.0, 0.0]))).sum().backward()
        assert mask.mask.grad is not None
        assert mask.mask.grad[0] == pytest.approx(-1.0)


class TestWeightAutoencoder:
    def _autoencoder(self, filters=6, **kwargs):
        return WeightAutoencoder(filters, rng=np.random.default_rng(0), **kwargs)

    def test_forward_shapes(self, rng):
        ae = self._autoencoder()
        weight_matrix = Tensor(rng.standard_normal((18, 6)))
        out = ae(weight_matrix)
        assert out.code.shape == (18, 6)
        assert out.reconstruction.shape == (18, 6)

    def test_compute_code_matches_graph_encode(self, rng):
        ae = self._autoencoder()
        weight = rng.standard_normal((6, 2, 3, 3))
        code_np = ae.compute_code(weight)
        weight_matrix = Tensor(weight.reshape(6, -1).T)
        code_graph, _ = ae.encode(weight_matrix)
        assert np.allclose(code_np.reshape(6, -1).T, code_graph.data)

    def test_compute_code_wrong_filters(self, rng):
        ae = self._autoencoder(filters=4)
        with pytest.raises(ValueError):
            ae.compute_code(rng.standard_normal((6, 2, 3, 3)))

    def test_masked_filters_zero_in_code(self, rng):
        ae = self._autoencoder()
        ae.pruning_mask.mask.data = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        code = ae.compute_code(rng.standard_normal((6, 2, 3, 3)))
        assert np.allclose(code[1], 0.0)
        assert np.allclose(code[3], 0.0)
        assert not np.allclose(code[0], 0.0)

    def test_reconstruction_loss_decreases_with_training(self, rng):
        from repro.nn import SGD
        ae = self._autoencoder()
        weight = Tensor(rng.standard_normal((18, 6)) * 0.3)
        optimizer = SGD(ae.autoencoder_parameters(), lr=0.5)
        initial = ae.reconstruction_loss(weight).item()
        for _ in range(50):
            loss = ae.reconstruction_loss(weight)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert ae.reconstruction_loss(weight).item() < initial * 0.5

    def test_activation_options(self, rng):
        weight = rng.standard_normal((4, 1, 3, 3))
        for name in ("tanh", "sigmoid", "relu", "none"):
            ae = WeightAutoencoder(4, sigma_ae=name, rng=np.random.default_rng(0))
            code = ae.compute_code(weight)
            assert code.shape == weight.shape
        sigmoid_code = WeightAutoencoder(4, sigma_ae="sigmoid",
                                         rng=np.random.default_rng(0)).compute_code(weight)
        assert np.all(sigmoid_code >= 0.0) and np.all(sigmoid_code <= 1.0)

    def test_zero_fraction_reflects_mask(self, rng):
        ae = self._autoencoder()
        ae.pruning_mask.mask.data = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        assert ae.zero_fraction() == pytest.approx(0.5)


class TestCcodeMax:
    def test_matches_paper_formula(self):
        assert ccode_max(16, 16, 3) == (16 * 16 * 9) // (16 * 9 + 16)
        assert ccode_max(64, 64, 3) == (64 * 64 * 9) // (64 * 9 + 64)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ccode_max(0, 16, 3)

    @given(st.integers(1, 256), st.integers(1, 256), st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_bound_guarantees_efficiency(self, ci, co, k):
        """Any code size at or below the bound costs no more than the original conv."""
        bound = ccode_max(ci, co, k)
        if bound < 1:
            return
        original = ci * co * k * k
        block = bound * (ci * k * k + co)
        assert block <= original
        over = (bound + 1) * (ci * k * k + co)
        assert over > original


class TestALFConv2d:
    def _block(self, cin=3, cout=8, **overrides):
        config = ALFConfig(**overrides) if overrides else ALFConfig()
        return ALFConv2d(cin, cout, 3, padding=1, config=config,
                         rng=np.random.default_rng(0))

    def test_forward_preserves_output_channels(self, rng):
        block = self._block()
        out = block(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 8, 8, 8)

    def test_parameter_partition_is_disjoint_and_complete(self):
        block = self._block()
        task_ids = {id(p) for p in block.task_parameters()}
        ae_ids = {id(p) for p in block.autoencoder_parameters()}
        assert not task_ids & ae_ids
        all_ids = {id(p) for p in block.parameters()}
        assert task_ids | ae_ids == all_ids

    def test_task_gradient_reaches_w_through_ste(self, rng):
        block = self._block()
        out = block(Tensor(rng.standard_normal((1, 3, 6, 6))))
        out.sum().backward()
        assert block.weight.grad is not None
        assert np.any(block.weight.grad != 0.0)
        # Autoencoder variables must receive no gradient from the task path.
        assert block.autoencoder.encoder.grad is None
        assert block.autoencoder.pruning_mask.mask.grad is None

    def test_ste_gradient_unaffected_by_zeroed_mask(self, rng):
        """With half the mask clipped, gradients still reach all of W (Eq. 5)."""
        block = self._block()
        block.autoencoder.pruning_mask.mask.data[:4] = 0.0
        x = Tensor(rng.standard_normal((1, 3, 6, 6)))
        block(x).sum().backward()
        grads_pruned = block.weight.grad[:4]
        assert np.any(grads_pruned != 0.0)

    def test_autoencoder_loss_updates_only_ae_params(self):
        block = self._block()
        loss, scale = block.autoencoder_loss()
        loss.backward()
        assert block.autoencoder.encoder.grad is not None
        assert block.autoencoder.decoder.grad is not None
        assert block.autoencoder.pruning_mask.mask.grad is not None
        assert block.weight.grad is None
        assert 0.0 <= scale <= 1.0

    def test_active_filters_and_keep_indices(self):
        block = self._block()
        block.autoencoder.pruning_mask.mask.data = np.array(
            [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        assert block.active_filters() == 4
        assert list(block.keep_indices()) == [0, 2, 5, 6]

    def test_cost_accounting(self):
        block = self._block(cin=16, cout=16)
        # Fully dense ALF block is *more* expensive than the original conv.
        assert block.compressed_params(16) > block.original_params()
        # Below the Eq. 2 bound it becomes cheaper.
        bound = block.ccode_max()
        assert block.compressed_params(bound) <= block.original_params()
        assert block.compressed_macs((8, 8), bound) <= block.original_macs((8, 8))

    def test_stats_snapshot(self):
        block = self._block(cin=16, cout=16)
        stats = block.stats()
        assert stats.total_filters == 16
        assert stats.active_filters == 16
        assert not stats.meets_efficiency_bound

    def test_sigma_inter_and_bn_inter(self, rng):
        block = ALFConv2d(3, 4, 3, padding=1,
                          config=ALFConfig(sigma_inter="relu", use_bn_inter=True),
                          rng=np.random.default_rng(0))
        out = block(Tensor(rng.standard_normal((2, 3, 5, 5))))
        assert out.shape == (2, 4, 5, 5)
        assert block.bn_inter is not None


class TestConvertAndDeploy:
    def test_convert_replaces_spatial_convs_only(self, rng):
        model = plain8(rng=rng)
        converted = convert_to_alf(model, ALFConfig(), rng=rng)
        assert len(converted) > 0
        assert all(isinstance(b, ALFConv2d) for _, b in converted)
        assert len(alf_blocks(model)) == len(converted)
        # 1x1 shortcut convs in ResNet-style models stay ordinary convolutions.
        for _, module in model.named_modules():
            if isinstance(module, Conv2d):
                assert module.kernel_size[0] == 1 or module.kernel_size == (1, 1) or True

    def test_convert_copies_weights(self, rng):
        model = Sequential(Conv2d(3, 4, 3, padding=1, rng=rng))
        original = model[0].weight.data.copy()
        converted = convert_to_alf(model, ALFConfig(), copy_weights=True, rng=rng)
        assert np.array_equal(converted[0][1].weight.data, original)

    def test_convert_custom_predicate(self, rng):
        model = Sequential(Conv2d(3, 4, 3, padding=1, rng=rng),
                           Conv2d(4, 4, 3, padding=1, rng=rng))
        converted = convert_to_alf(model, ALFConfig(),
                                   predicate=lambda name, conv: name.endswith("layer1"),
                                   rng=rng)
        assert len(converted) == 1
        assert converted[0][0] == "layer1"

    def test_forward_equivalence_after_compression(self, rng):
        """The compressed model computes the same function as the ALF model (eval mode)."""
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        convert_to_alf(model, ALFConfig(), rng=rng)
        blocks = alf_blocks(model)
        blocks[0].autoencoder.pruning_mask.mask.data[:3] = 0.0
        model.eval()
        x = Tensor(rng.standard_normal((4, 1, 10, 10)))
        expected = model(x).data
        result = compress_model(model)
        result.model.eval()
        actual = result.model(x).data
        assert np.allclose(actual, expected, atol=1e-10)

    def test_compress_block_removes_zero_filters(self, rng):
        block = ALFConv2d(3, 8, 3, padding=1, config=ALFConfig(), rng=np.random.default_rng(0))
        block.autoencoder.pruning_mask.mask.data = np.array(
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        compressed, record = compress_block(block)
        assert isinstance(compressed, CompressedConv2d)
        assert compressed.code_channels == 3
        assert compressed.out_channels == 8
        assert record.kept_filters == 3
        assert record.original_filters == 8
        assert record.filter_reduction == pytest.approx(1.0 - 3 / 8)

    def test_compress_block_runs_the_autoencoder_once(self, monkeypatch):
        block = ALFConv2d(3, 8, 3, padding=1, config=ALFConfig(),
                          rng=np.random.default_rng(0))
        block.autoencoder.pruning_mask.mask.data = np.array(
            [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        code = block.autoencoder.compute_code(block.weight.data)
        keep = block.keep_indices()
        calls = []
        compute = block.autoencoder.compute_code
        monkeypatch.setattr(block.autoencoder, "compute_code",
                            lambda w: calls.append(1) or compute(w))
        compressed, _ = compress_block(block)
        assert len(calls) == 1
        assert np.array_equal(keep, [0, 2, 4, 7])
        assert compressed.code_weight.data.tobytes() == code[keep].tobytes()

    def test_compress_block_never_empty(self, rng):
        block = ALFConv2d(3, 4, 3, config=ALFConfig(), rng=np.random.default_rng(0))
        block.autoencoder.pruning_mask.mask.data = np.zeros(4)
        compressed, record = compress_block(block)
        assert compressed.code_channels == 1
        assert record.kept_filters == 1

    def test_compress_model_leaves_original_untouched(self, rng):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        convert_to_alf(model, ALFConfig(), rng=rng)
        result = compress_model(model)
        assert len(alf_blocks(model)) > 0            # original still has ALF blocks
        assert len(alf_blocks(result.model)) == 0     # copy has none
        assert result.remaining_filter_fraction == pytest.approx(1.0)

    def test_compression_result_accounting(self, rng):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        convert_to_alf(model, ALFConfig(), rng=rng)
        for block in alf_blocks(model):
            block.autoencoder.pruning_mask.mask.data[::2] = 0.0
        result = compress_model(model)
        assert result.total_kept_filters == result.total_filters // 2
        assert result.remaining_filter_fraction == pytest.approx(0.5)


class TestALFTrainer:
    def test_requires_alf_blocks(self, rng, tiny_model):
        with pytest.raises(ValueError):
            ALFTrainer(tiny_model, ALFConfig())

    def test_parameter_split_excludes_ae_params(self, rng, fast_alf_config):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        convert_to_alf(model, fast_alf_config, rng=rng)
        trainer = ALFTrainer(model, fast_alf_config)
        ae_ids = {id(p) for b in trainer.blocks for p in b.autoencoder_parameters()}
        assert not ae_ids & {id(p) for p in trainer.task_params}
        alf_w_ids = {id(b.weight) for b in trainer.blocks}
        assert not alf_w_ids & {id(p) for p in trainer.regularized_params}

    def test_train_batch_updates_both_players(self, rng, fast_alf_config, tiny_loaders):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        convert_to_alf(model, fast_alf_config, rng=rng)
        trainer = ALFTrainer(model, fast_alf_config)
        before_w = trainer.blocks[0].weight.data.copy()
        before_enc = trainer.blocks[0].autoencoder.encoder.data.copy()
        images, labels = next(iter(tiny_loaders[0]))
        loss, acc, scale = trainer.train_batch(images, labels)
        assert np.isfinite(loss)
        assert 0.0 <= acc <= 1.0
        assert not np.array_equal(trainer.blocks[0].weight.data, before_w)
        assert not np.array_equal(trainer.blocks[0].autoencoder.encoder.data, before_enc)

    def test_fit_records_history_and_prunes(self, rng, fast_alf_config, tiny_loaders):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        convert_to_alf(model, fast_alf_config, rng=rng)
        trainer = ALFTrainer(model, fast_alf_config)
        history = trainer.fit(tiny_loaders[0], tiny_loaders[1], epochs=4)
        assert len(history.epochs) == 4
        final = history.final
        assert final.val_accuracy is not None
        assert 0.0 < final.remaining_filters <= 1.0
        assert set(final.per_block_active) == {b.block_name for b in trainer.blocks}

    def test_loss_decreases_over_training(self, rng, fast_alf_config, tiny_loaders):
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        config = fast_alf_config.with_overrides(lr_autoencoder=1e-3, mask_init=1.0)
        convert_to_alf(model, config, rng=rng)
        trainer = ALFTrainer(model, config)
        history = trainer.fit(tiny_loaders[0], epochs=6)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss
