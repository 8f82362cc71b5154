"""Shared infrastructure for the baseline compression methods.

Every baseline (magnitude pruning, FPGM, AMC-style RL agent, LCNN, low-rank
decomposition) implements the :class:`FilterPruner` interface: given a
model it decides, per convolution, which output filters to keep, applies
structured masks, and can report the resulting Params / OPs so the
comparison tables (Tables II and III) can be regenerated on the same
substrate as ALF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..metrics.ops import OPS_PER_MAC, profile_model
from ..nn.layers import Conv2d
from ..nn.module import Module


@dataclass
class LayerPruningDecision:
    """Which output filters of one convolution survive pruning."""

    name: str
    total_filters: int
    kept_filters: np.ndarray  # indices of kept filters

    @property
    def num_kept(self) -> int:
        return int(len(self.kept_filters))

    @property
    def prune_ratio(self) -> float:
        return 1.0 - self.num_kept / self.total_filters


@dataclass
class PruningPlan:
    """Complete structured-pruning decision over a model."""

    method: str
    decisions: List[LayerPruningDecision] = field(default_factory=list)

    def decision_for(self, name: str) -> LayerPruningDecision:
        for decision in self.decisions:
            if decision.name == name:
                return decision
        raise KeyError(f"no pruning decision recorded for layer '{name}'")

    @property
    def overall_filter_reduction(self) -> float:
        total = sum(d.total_filters for d in self.decisions)
        kept = sum(d.num_kept for d in self.decisions)
        return 1.0 - kept / max(1, total)


def prunable_convolutions(model: Module, min_kernel: int = 2) -> List[Tuple[str, Conv2d]]:
    """Named convolutions eligible for structured filter pruning.

    1x1 projection shortcuts are excluded by default (``min_kernel=2``),
    mirroring the convention used when converting a model to ALF form.
    """
    layers: List[Tuple[str, Conv2d]] = []
    for name, module in model.named_modules():
        if isinstance(module, Conv2d) and module.kernel_size[0] >= min_kernel:
            layers.append((name, module))
    return layers


def apply_filter_masks(model: Module, plan: PruningPlan) -> None:
    """Zero the weights of pruned filters in place (structured sparsity).

    The filters are not physically removed (removal would require rewiring
    the next layer's input channels); zeroing is sufficient both for
    accuracy evaluation and for the *effective* Params / OPs accounting in
    :func:`effective_cost`, which is how the compared papers report their
    numbers.
    """
    modules = dict(model.named_modules())
    for decision in plan.decisions:
        module = modules[decision.name]
        keep = np.zeros(decision.total_filters, dtype=bool)
        keep[decision.kept_filters] = True
        module.weight.data[~keep] = 0.0
        if module.bias is not None:
            module.bias.data[~keep] = 0.0


def effective_cost(model: Module, plan: PruningPlan,
                   input_shape: Tuple[int, int, int],
                   conv_only: bool = False, profile=None) -> Dict[str, float]:
    """Params / MACs / OPs of the model with pruned filters removed.

    Structured filter pruning removes entire output filters; the following
    convolution loses the corresponding input channels.  This function
    re-computes costs layer by layer, propagating the channel reductions the
    same way the compared methods do in their papers.  ``profile`` accepts a
    precomputed :func:`profile_model` result for the same model/geometry.
    """
    if profile is None:
        profile = profile_model(model, input_shape)
    decisions = {d.name: d for d in plan.decisions}
    modules = dict(model.named_modules())

    params = 0.0
    macs = 0.0
    # Fraction of surviving output channels per layer name (used to shrink the
    # *input* side of the consumer layer).
    survival: Dict[str, float] = {
        name: decisions[name].num_kept / decisions[name].total_filters
        for name in decisions
    }
    previous_survival = 1.0
    for layer in profile.layers:
        if conv_only and layer.kind == "linear":
            continue
        module = modules.get(layer.name)
        out_fraction = survival.get(layer.name, 1.0)
        if isinstance(module, Conv2d):
            in_fraction = previous_survival
            params += layer.params * out_fraction * in_fraction
            macs += layer.macs * out_fraction * in_fraction
            previous_survival = out_fraction
        else:
            params += layer.params * previous_survival
            macs += layer.macs * previous_survival
            previous_survival = 1.0
    return {"params": params, "macs": macs, "ops": macs * OPS_PER_MAC}


def factored_cost(profile, factors: Mapping[str, object],
                  conv_only: bool = False) -> Dict[str, float]:
    """Params / MACs / OPs of a profiled model with some layers factored.

    ``factors`` maps a layer name to its factored replacement — an LCNN
    :class:`~repro.baselines.LayerDictionary` or a low-rank
    :class:`~repro.baselines.LayerFactorization` — whose ``params()`` and
    ``macs(output_hw)`` stand in for the dense layer's cost; every other
    layer of ``profile`` (a :func:`profile_model` result) counts as is.
    """
    params = 0.0
    macs = 0.0
    for layer in profile.layers:
        if conv_only and layer.kind == "linear":
            continue
        factor = factors.get(layer.name)
        if factor is None:
            params += layer.params
            macs += layer.macs
        else:
            params += factor.params()
            macs += factor.macs(tuple(layer.output_shape[1:]))
    return {"params": params, "macs": macs, "ops": macs * OPS_PER_MAC}


def keep_top_filters(scores: np.ndarray, keep_count: int) -> np.ndarray:
    """Indices of the ``keep_count`` highest-scoring filters (stable order)."""
    keep_count = int(np.clip(keep_count, 1, len(scores)))
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:keep_count])


class FilterPruner:
    """Interface implemented by every baseline pruning method."""

    method_name = "base"
    policy = "—"

    def score_filters(self, name: str, conv: Conv2d) -> np.ndarray:
        """Per-filter saliency scores (higher = more important)."""
        raise NotImplementedError

    def plan(self, model: Module, prune_ratio: float,
             min_kernel: int = 2) -> PruningPlan:
        """Decide which filters to keep so that ``prune_ratio`` of them are removed."""
        if not 0.0 <= prune_ratio < 1.0:
            raise ValueError("prune_ratio must lie in [0, 1)")
        plan = PruningPlan(method=self.method_name)
        for name, conv in prunable_convolutions(model, min_kernel=min_kernel):
            scores = self.score_filters(name, conv)
            keep_count = max(1, int(round(conv.out_channels * (1.0 - prune_ratio))))
            plan.decisions.append(LayerPruningDecision(
                name=name,
                total_filters=conv.out_channels,
                kept_filters=keep_top_filters(scores, keep_count),
            ))
        return plan

    def prune(self, model: Module, prune_ratio: float,
              min_kernel: int = 2) -> PruningPlan:
        """Plan and immediately apply structured masks to the model."""
        plan = self.plan(model, prune_ratio, min_kernel=min_kernel)
        apply_filter_masks(model, plan)
        return plan
