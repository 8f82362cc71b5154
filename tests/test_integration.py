"""Integration tests: full pipelines across modules.

These tests exercise the ALF workflow end to end (build -> convert -> train
-> compress -> profile -> evaluate on the hardware model) and compare the
ALF path against a baseline pruner on the same data.
"""

import numpy as np
import pytest

from repro.baselines import FPGMPruner
from repro.core import (
    ALFConfig,
    ALFTrainer,
    ClassifierTrainer,
    alf_blocks,
    compress_model,
    convert_to_alf,
)
from repro.data import DataLoader, make_synthetic_dataset
from repro.hardware import compare_networks, evaluate_layers
from repro.metrics import profile_model
from repro.models import lenet, plain8
from repro.nn import Tensor
from repro.nn.utils import seed_everything


def small_problem(seed=0, image=10, classes=4, samples=200):
    dataset = make_synthetic_dataset(samples, num_classes=classes,
                                     image_shape=(1, image, image), seed=seed)
    train, test = dataset.split(0.75)
    return (DataLoader(train, batch_size=25, shuffle=True, seed=seed),
            DataLoader(test, batch_size=64))


class TestEndToEndALF:
    def test_full_pipeline_train_compress_deploy(self):
        """Convert -> two-player training -> deployment keeps the model usable."""
        rng = seed_everything(0)
        train_loader, test_loader = small_problem()
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        config = ALFConfig(lr_task=0.05, threshold=1e-1, lr_autoencoder=4e-2,
                           pr_max=0.6, mask_init=0.6)
        convert_to_alf(model, config, rng=rng)
        trainer = ALFTrainer(model, config)
        history = trainer.fit(train_loader, test_loader, epochs=8)

        # Training made progress over random guessing (25% for 4 classes).
        assert history.final.val_accuracy > 0.30
        # Deployment: compressed model agrees with the ALF model exactly.
        result = compress_model(model)
        model.eval(), result.model.eval()
        images, labels = test_loader.full_batch()
        alf_logits = model(Tensor(images)).data
        compressed_logits = result.model(Tensor(images)).data
        assert np.allclose(alf_logits, compressed_logits, atol=1e-8)
        # The compressed model is a dense model: no ALF blocks remain.
        assert not alf_blocks(result.model)

    def test_alf_compresses_params_when_pruning_engages(self):
        rng = seed_everything(1)
        train_loader, test_loader = small_problem(seed=1)
        model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
        # Aggressive settings guarantee visible pruning within a few epochs.
        config = ALFConfig(lr_task=0.05, threshold=8e-2, lr_autoencoder=8e-2,
                           pr_max=0.7, mask_init=0.15)
        convert_to_alf(model, config, rng=rng)
        trainer = ALFTrainer(model, config)
        trainer.fit(train_loader, epochs=6)
        assert trainer.remaining_filter_fraction() < 1.0

        compressed = compress_model(model)
        dense = lenet(num_classes=4, in_channels=1, width=8, rng=np.random.default_rng(1))
        dense_params = profile_model(dense, (1, 10, 10)).total_params(conv_only=True)
        compressed_params = profile_model(compressed.model, (1, 10, 10)).total_params(conv_only=True)
        # With pruning engaged, the deployed conv layers must not exceed ~ the
        # original cost by more than the expansion overhead allows.
        assert compressed_params < dense_params * 1.6

    def test_alf_vs_fpgm_on_same_task(self):
        """Both compression routes stay usable on the same synthetic task."""
        rng = seed_everything(2)
        train_loader, test_loader = small_problem(seed=2)

        # Baseline: train a dense model, prune with FPGM, fine-tune.
        baseline = lenet(num_classes=4, in_channels=1, width=8,
                         rng=np.random.default_rng(2))
        baseline_trainer = ClassifierTrainer(baseline, lr=0.05)
        baseline_trainer.fit(train_loader, test_loader, epochs=5)
        plan = FPGMPruner().prune(baseline, prune_ratio=0.4)
        baseline_trainer.fit(train_loader, test_loader, epochs=3)
        fpgm_accuracy = baseline_trainer.evaluate(test_loader)

        # ALF route on an identical architecture.
        alf_model = lenet(num_classes=4, in_channels=1, width=8,
                          rng=np.random.default_rng(2))
        config = ALFConfig(lr_task=0.05, threshold=5e-2, lr_autoencoder=1e-2,
                           pr_max=0.5, mask_init=0.8)
        convert_to_alf(alf_model, config, rng=rng)
        alf_trainer = ALFTrainer(alf_model, config)
        alf_history = alf_trainer.fit(train_loader, test_loader, epochs=10)

        assert fpgm_accuracy > 0.3
        assert alf_history.final.val_accuracy > 0.3
        cost = profile_model(baseline, (1, 10, 10)).pruned(plan.survival).cost()
        assert cost["ops"] > 0


class TestHardwareIntegration:
    def test_compressed_model_cheaper_on_accelerator(self):
        """ALF-compressed plain-8 consumes less modelled energy than vanilla."""
        vanilla = plain8(rng=np.random.default_rng(0))
        vanilla_report = evaluate_layers(
            profile_model(vanilla, (3, 16, 16)).workloads(batch=4), name="vanilla")

        compressed = plain8(rng=np.random.default_rng(0))
        blocks = convert_to_alf(compressed, ALFConfig(), rng=np.random.default_rng(1))
        for _, block in blocks:
            keep = max(1, block.out_channels // 3)
            mask = np.zeros(block.out_channels)
            mask[:keep] = 1.0
            block.autoencoder.pruning_mask.mask.data = mask
        alf_report = evaluate_layers(
            profile_model(compressed, (3, 16, 16)).workloads(batch=4), name="alf")

        comparison = compare_networks(vanilla_report, alf_report)
        assert comparison.energy_reduction > 0.0

    def test_profile_consistent_with_hardware_macs(self):
        """The profiler's MAC count equals the sum of the hardware workloads' MACs."""
        model = plain8(rng=np.random.default_rng(0))
        profile = profile_model(model, (3, 16, 16))
        shapes = profile.workloads(batch=1)
        assert sum(s.macs for s in shapes) == profile.total_macs(conv_only=True)


class TestDeterminism:
    def test_alf_training_is_reproducible(self):
        def run():
            rng = seed_everything(7)
            train_loader, _ = small_problem(seed=7, samples=80)
            model = lenet(num_classes=4, in_channels=1, width=8, rng=rng)
            config = ALFConfig(lr_task=0.05, threshold=4e-2, lr_autoencoder=2e-2,
                               mask_init=0.2, pr_max=0.6)
            convert_to_alf(model, config, rng=np.random.default_rng(7))
            trainer = ALFTrainer(model, config)
            trainer.fit(train_loader, epochs=2)
            return [p.data.copy() for p in model.parameters()]

        first = run()
        second = run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
