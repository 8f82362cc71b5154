"""Adapters wrapping ALF and every baseline behind :class:`CompressionMethod`.

Each adapter translates one method's bespoke calling convention
(``convert_to_alf`` + ``ALFTrainer`` + ``compress_model``;
``FPGMPruner.plan`` + ``apply_filter_masks``; ``LCNNCompressor.compress``;
``LowRankDecomposer.decompose``; ...) into the uniform
prepare → fit → finalize lifecycle, including the method's own effective
cost model and the per-layer workloads the Eyeriss model consumes.

Both are views of one layer table (:func:`~repro.metrics.profile_model`):
ALF and the dense baseline read it as profiled, the pruning baselines
through :meth:`~repro.metrics.ModelProfile.pruned`, and LCNN and low-rank,
which deploy each eligible convolution as a code convolution plus a 1x1
expansion, through :meth:`~repro.metrics.ModelProfile.factored`.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple

import numpy as np

from ..baselines import (
    AMCPruner,
    FPGMPruner,
    MagnitudePruner,
    LCNNCompressor,
    LowRankDecomposer,
    PruningPlan,
    apply_filter_masks,
)
from ..core import ALFConfig, ALFTrainer, ClassifierTrainer, compress_model, convert_to_alf
from ..core.trainer import evaluate_accuracy
from ..metrics.ops import ModelProfile, profile_model
from ..nn.module import Module
from .protocol import CompressedModel
from .registry import register_method
from .spec import (
    ALFSpec,
    AMCSpec,
    CompressionSpec,
    FPGMSpec,
    LCNNSpec,
    LowRankSpec,
    MagnitudeSpec,
)


def _load_matching_state(model: Module, state) -> bool:
    """Load a checkpoint into ``model`` iff it matches *exactly*.

    Stricter than :meth:`Module.load_state_dict` (which skips unknown and
    missing keys): the checkpoint's parameter names must equal the model's
    and every shape must agree, otherwise nothing is touched and ``False``
    is returned.  A warm start seeded from a partially-matching checkpoint
    would silently mix trained and untrained layers — worse than the cold
    path it replaces.  Buffers (e.g. BatchNorm statistics) load when
    present.  Arrays are cast to each parameter's dtype so a checkpoint
    never changes the run's compute dtype.
    """
    params = dict(model.named_parameters())
    state_params = {key for key in state if not key.startswith("buffer:")}
    if state_params != set(params):
        return False
    for name, param in params.items():
        if tuple(param.data.shape) != tuple(np.shape(state[name])):
            return False
    for name, param in params.items():
        param.data = np.asarray(state[name], dtype=param.data.dtype).copy()
    for name, buf in model.named_buffers():
        key = f"buffer:{name}"
        if key in state and tuple(buf.shape) == tuple(np.shape(state[key])):
            buf[...] = state[key]
    return True


class CompressionAdapter:
    """Shared state management for the concrete adapters."""

    name = "base"
    policy = "—"

    def __init__(self, config, spec: CompressionSpec):
        self.config = config
        self.spec = spec
        self.model: Optional[Module] = None
        self.history = None
        #: True once a cached checkpoint seeded the prepared model; the
        #: concrete adapters use it to skip the from-dense (pre-)training
        #: the checkpoint already paid for.
        self.warm = False

    # -- CompressionMethod interface ----------------------------------- #
    def prepare(self, model: Module) -> Module:
        self.model = model
        return model

    def fit(self, train_loader=None, val_loader=None, epochs: int = 0):
        return None

    def warm_start(self, state) -> bool:
        """Seed the prepared model from a cached checkpoint, strictly.

        Returns ``True`` (and flags the run as warm) only when the state
        matches the prepared model exactly — a checkpoint taken from a
        differently-shaped finalization (e.g. a deployed ALF model against
        a freshly-converted one) is rejected and the run stays cold.
        """
        if _load_matching_state(self._require_model(), state):
            self.warm = True
        return self.warm

    def finalize(self) -> CompressedModel:
        raise NotImplementedError

    # -- helpers -------------------------------------------------------- #
    @property
    def input_shape(self) -> Tuple[int, int, int]:
        if self.spec.input_shape is None:
            raise ValueError(
                "input_shape is unresolved; run the adapter through "
                "CompressionPipeline or set CompressionSpec.input_shape")
        return tuple(self.spec.input_shape)

    def _require_model(self) -> Module:
        if self.model is None:
            raise RuntimeError(f"{type(self).__name__}.prepare() was not called")
        return self.model

    def _compressed(self, model: Module, table: ModelProfile,
                    remaining_filter_fraction: float, detail) -> CompressedModel:
        """Package ``model`` with its cost and workloads, both views of ``table``."""
        return CompressedModel(
            model=model,
            method=self.name,
            cost=table.cost(conv_only=self.spec.conv_only),
            layer_shapes=table.workloads(self.spec.hardware_batch,
                                         self.spec.layer_names),
            remaining_filter_fraction=remaining_filter_fraction,
            detail=detail,
        )


# --------------------------------------------------------------------------- #
# ALF
# --------------------------------------------------------------------------- #
@register_method("alf", ALFSpec, policy="Automatic",
                 summary="Autoencoder-based low-rank filter sharing (this paper)")
class ALFMethod(CompressionAdapter):
    """The paper's method: ALF blocks + two-player training + deployment."""

    def __init__(self, config: ALFSpec, spec: CompressionSpec):
        super().__init__(config, spec)
        self.blocks = []
        self.trainer: Optional[ALFTrainer] = None
        self._trained = False

    def prepare(self, model: Module) -> Module:
        self.model = model
        self.blocks = convert_to_alf(
            model, self.config.alf, rng=np.random.default_rng(self.spec.seed + 1))
        return model

    def fit(self, train_loader=None, val_loader=None, epochs: int = 0):
        if train_loader is None or epochs <= 0:
            return None
        if self.warm:
            # The checkpoint already carries the two-player-trained weights
            # and pruning masks; re-running ALFTrainer would retrain them
            # and forcing masks in finalize() would erase them.
            self._trained = True
            return None
        self.trainer = ALFTrainer(self._require_model(), self.config.alf)
        self.history = self.trainer.fit(train_loader, val_loader, epochs=epochs)
        self._trained = True
        return self.history

    def _force_masks(self) -> None:
        """Set the pruning masks to the configured compression profile."""
        labels = list(self.config.layer_labels or [])
        for index, (qualified, block) in enumerate(self.blocks):
            label = labels[index] if index < len(labels) else qualified
            fraction = None
            if self.config.layer_fractions is not None:
                fraction = self.config.layer_fractions.get(label)
            if fraction is None and self.config.stage_remaining is not None:
                fraction = self.config.stage_remaining.get(block.out_channels)
            if fraction is None:
                fraction = (self.config.remaining_fraction
                            if self.config.remaining_fraction is not None else 0.386)
            keep = max(1, int(round(block.out_channels * fraction)))
            target = block.autoencoder.pruning_mask.mask
            mask = np.zeros(block.out_channels, dtype=target.data.dtype)
            mask[:keep] = 1.0
            target.data = mask

    def finalize(self) -> CompressedModel:
        model = self._require_model()
        if not self._trained and self.config.forced_fractions():
            self._force_masks()
        table = profile_model(model, self.input_shape)
        active = sum(block.active_filters() for _, block in self.blocks)
        total = sum(block.out_channels for _, block in self.blocks)
        deployment = compress_model(model) if self.config.deploy else None
        return self._compressed(
            deployment.model if deployment is not None else model, table,
            active / max(1, total), deployment)


# --------------------------------------------------------------------------- #
# Structured filter pruning (magnitude / FPGM / AMC)
# --------------------------------------------------------------------------- #
class _FilterPruningAdapter(CompressionAdapter):
    """Shared pre-train → prune → fine-tune lifecycle of the pruning baselines."""

    def __init__(self, config, spec: CompressionSpec):
        super().__init__(config, spec)
        self.plan: Optional[PruningPlan] = None
        self._val_loader = None

    def _build_pruner(self):
        raise NotImplementedError

    def _prune_ratio(self) -> float:
        return self.config.prune_ratio

    def _ensure_plan(self) -> PruningPlan:
        if self.plan is None:
            model = self._require_model()
            pruner = self._build_pruner()
            self.plan = pruner.plan(model, prune_ratio=self._prune_ratio(),
                                    min_kernel=self.config.min_kernel)
            apply_filter_masks(model, self.plan)
        return self.plan

    def fit(self, train_loader=None, val_loader=None, epochs: int = 0):
        self._val_loader = val_loader
        model = self._require_model()
        if train_loader is None or epochs <= 0:
            return None
        trainer = ClassifierTrainer(model, lr=self.spec.lr)
        if not self.warm:
            # A warm start already holds the trained dense weights; the
            # pruning plan and fine-tune loop below still run in full.
            trainer.fit(train_loader, val_loader, epochs=epochs)
        self._ensure_plan()
        # Fine-tune with the masks re-applied after every epoch: plain SGD
        # gradients would otherwise regrow the zeroed filters, leaving the
        # model inconsistent with the plan's cost accounting.
        for _ in range(self.spec.resolved_finetune_epochs()):
            trainer.fit(train_loader, val_loader, epochs=1)
            apply_filter_masks(model, self.plan)
        self.history = trainer.history
        return self.history

    def finalize(self) -> CompressedModel:
        model = self._require_model()
        plan = self._ensure_plan()
        # Idempotent re-application: the returned model must match the
        # plan the cost / hardware numbers are derived from.
        apply_filter_masks(model, plan)
        table = profile_model(model, self.input_shape).pruned(plan.survival)
        return self._compressed(model, table,
                                1.0 - plan.overall_filter_reduction, plan)


@register_method("magnitude", MagnitudeSpec, policy="Handcrafted",
                 summary="L1/L2 magnitude filter pruning (Han et al. style)")
class MagnitudeMethod(_FilterPruningAdapter):

    def _build_pruner(self) -> MagnitudePruner:
        return MagnitudePruner(norm=self.config.norm)


@register_method("fpgm", FPGMSpec, policy="Handcrafted",
                 summary="Filter pruning via geometric median (He et al., CVPR'19)")
class FPGMMethod(_FilterPruningAdapter):

    def _build_pruner(self) -> FPGMPruner:
        return FPGMPruner(iterations=self.config.iterations)


@register_method("amc", AMCSpec, policy="RL-Agent",
                 summary="Agent-searched per-layer ratios under an OPs budget (He et al., ECCV'18)")
class AMCMethod(_FilterPruningAdapter):

    def _prune_ratio(self) -> float:
        # AMC's "ratio" is the fraction of operations to remove; the agent
        # distributes per-layer ratios to hit the complementary OPs budget.
        return 1.0 - self.config.target_ops_fraction

    def _accuracy_evaluator(self):
        if not self.config.accuracy_eval or self._val_loader is None:
            return None
        val_loader = self._val_loader

        def evaluate(model: Module, plan: PruningPlan) -> float:
            candidate = copy.deepcopy(model)
            apply_filter_masks(candidate, plan)
            return evaluate_accuracy(candidate, val_loader)

        return evaluate

    def _build_pruner(self) -> AMCPruner:
        return AMCPruner(
            evaluate=self._accuracy_evaluator(),
            target_ops_fraction=self.config.target_ops_fraction,
            iterations=self.config.iterations,
            population=self.config.population,
            elite_fraction=self.config.elite_fraction,
            max_ratio=self.config.max_ratio,
            seed=self.spec.seed,
        )


# --------------------------------------------------------------------------- #
# Code + 1x1 expansion factorizations (LCNN / low-rank)
# --------------------------------------------------------------------------- #
class _FactorizationAdapter(CompressionAdapter):
    """Shared lifecycle of the methods that deploy each eligible convolution
    as a narrow code convolution followed by a 1x1 expansion.

    The factors are learned from the weights, so training is the optional
    classifier pre-training that gives them something to share.  Each
    subclass names its factorizer; the reported remaining-filter fraction
    is the realized code width, ``Σ code_channels / Σ out_channels``.
    """

    def __init__(self, config, spec: CompressionSpec):
        super().__init__(config, spec)
        self.result = None

    def _factorize(self, model: Module) -> List:
        """Factor every eligible convolution; store the result on ``self.result``."""
        raise NotImplementedError

    def fit(self, train_loader=None, val_loader=None, epochs: int = 0):
        if train_loader is None or epochs <= 0 or self.warm:
            return None
        trainer = ClassifierTrainer(self._require_model(), lr=self.spec.lr)
        self.history = trainer.fit(train_loader, val_loader, epochs=epochs)
        return self.history

    def finalize(self) -> CompressedModel:
        model = self._require_model()
        # Profiled before the (optional) weight rewrite; costs and workload
        # shapes depend only on the layer geometry.
        table = profile_model(model, self.input_shape)
        factors = self._factorize(model)
        kept = (sum(f.code_channels for f in factors)
                / max(1, sum(f.out_channels for f in factors)))
        return self._compressed(
            model, table.factored({f.name: f for f in factors}), kept,
            self.result)


@register_method("lcnn", LCNNSpec, policy="Automatic",
                 summary="Lookup/dictionary filter sharing (Bagherinezhad et al.)")
class LCNNMethod(_FactorizationAdapter):
    """Per-layer dictionaries: one conv with the D atoms, then a sparse recombination."""

    def _factorize(self, model: Module) -> List:
        compressor = LCNNCompressor(
            dictionary_fraction=self.config.dictionary_fraction,
            sparsity=self.config.sparsity,
            kmeans_iterations=self.config.kmeans_iterations,
            seed=self.spec.seed,
        )
        self.result = compressor.compress(model, min_kernel=self.config.min_kernel,
                                          apply=self.config.apply)
        return self.result.dictionaries


@register_method("lowrank", LowRankSpec, policy="Handcrafted",
                 summary="Truncated-SVD factorization into code + 1x1 expansion")
class LowRankMethod(_FactorizationAdapter):
    """Truncated SVD: a rank-r code convolution, then a 1x1 expansion."""

    def _factorize(self, model: Module) -> List:
        decomposer = LowRankDecomposer(
            rank_fraction=self.config.rank_fraction,
            energy_threshold=self.config.energy_threshold,
        )
        self.result = decomposer.decompose(model, min_kernel=self.config.min_kernel,
                                           apply=self.config.apply)
        return self.result.factorizations
