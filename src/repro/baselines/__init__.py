"""``repro.baselines`` — compression methods ALF is compared against.

* :class:`MagnitudePruner` — rule-based magnitude filter pruning (Han et al. style).
* :class:`FPGMPruner` — filter pruning via geometric median (He et al., CVPR'19).
* :class:`AMCPruner` — learning-based agent searching per-layer ratios (He et al., ECCV'18).
* :class:`LCNNCompressor` — lookup/dictionary filter sharing (Bagherinezhad et al.).
* :class:`LowRankDecomposer` — SVD low-rank factorization (rule-based).
"""

from .amc import AMCPruner, AMCResult, LayerState, default_reward
from .common import (
    FilterPruner,
    LayerPruningDecision,
    PruningPlan,
    apply_filter_masks,
    effective_cost,
    factored_cost,
    keep_top_filters,
    prunable_convolutions,
)
from .fpgm import FPGMPruner, geometric_median
from .lcnn import LayerDictionary, LCNNCompressionResult, LCNNCompressor
from .lowrank import LayerFactorization, LowRankDecomposer, LowRankResult
from .magnitude import MagnitudePruner

__all__ = [
    "FilterPruner", "PruningPlan", "LayerPruningDecision",
    "prunable_convolutions", "apply_filter_masks", "effective_cost", "factored_cost",
    "keep_top_filters",
    "MagnitudePruner",
    "FPGMPruner", "geometric_median",
    "AMCPruner", "AMCResult", "LayerState", "default_reward",
    "LCNNCompressor", "LCNNCompressionResult", "LayerDictionary",
    "LowRankDecomposer", "LowRankResult", "LayerFactorization",
]
