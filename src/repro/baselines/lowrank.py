"""Low-rank decomposition baseline (rule-based compression).

Classic low-rank methods (Zhang et al. TPAMI'16, Tucker/CP variants)
factorize a convolution's ``(Co, Ci*K*K)`` weight matrix into two thin
matrices of rank ``r``; at inference the layer becomes a ``K x K``
convolution with ``r`` output channels followed by a 1x1 convolution with
``Co`` outputs — structurally identical to the deployed ALF block, which is
why the paper groups the two under "low-rank" techniques.  Here the rank is
chosen either explicitly or from an energy (singular-value mass) threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..nn.layers import Conv2d
from ..nn.module import Module
from .common import prunable_convolutions


@dataclass
class LayerFactorization:
    """SVD factorization of one convolution layer."""

    name: str
    rank: int
    code_weight: np.ndarray       # (rank, Ci, K, K)
    expansion_weight: np.ndarray  # (Co, rank, 1, 1)
    in_channels: int
    out_channels: int
    kernel_size: int
    approximation_error: float

    @property
    def code_channels(self) -> int:
        """The rank: the width of the code convolution."""
        return self.rank

    def params(self) -> int:
        return int(self.code_weight.size + self.expansion_weight.size)

    def macs(self, output_hw: Tuple[int, int]) -> int:
        oh, ow = output_hw
        code = self.in_channels * self.rank * self.kernel_size ** 2 * oh * ow
        expansion = self.rank * self.out_channels * oh * ow
        return code + expansion

    def reconstruct(self) -> np.ndarray:
        """Reassemble the dense filter bank from the two factors."""
        code = self.code_weight.reshape(self.rank, -1)                 # (r, Ci*K*K)
        expansion = self.expansion_weight.reshape(self.out_channels, self.rank)
        return (expansion @ code).reshape(
            self.out_channels, self.in_channels, self.kernel_size, self.kernel_size)


@dataclass
class LowRankResult:
    factorizations: List[LayerFactorization] = field(default_factory=list)


class LowRankDecomposer:
    """Factorize convolutions with a truncated SVD over the output channels."""

    method_name = "Low-Rank"
    policy = "Handcrafted"

    def __init__(self, rank_fraction: Optional[float] = 0.5,
                 energy_threshold: Optional[float] = None):
        """Choose the rank as ``rank_fraction * Co`` or from an energy threshold.

        Exactly one of the two selection modes must be provided.
        """
        if (rank_fraction is None) == (energy_threshold is None):
            raise ValueError("provide exactly one of rank_fraction / energy_threshold")
        if rank_fraction is not None and not 0.0 < rank_fraction <= 1.0:
            raise ValueError("rank_fraction must lie in (0, 1]")
        if energy_threshold is not None and not 0.0 < energy_threshold <= 1.0:
            raise ValueError("energy_threshold must lie in (0, 1]")
        self.rank_fraction = rank_fraction
        self.energy_threshold = energy_threshold

    def _select_rank(self, singular_values: np.ndarray, out_channels: int) -> int:
        if self.rank_fraction is not None:
            return max(1, int(round(out_channels * self.rank_fraction)))
        energy = np.cumsum(singular_values ** 2)
        energy /= energy[-1]
        return int(np.searchsorted(energy, self.energy_threshold) + 1)

    def decompose_layer(self, name: str, conv: Conv2d) -> LayerFactorization:
        weights = conv.weight.data.reshape(conv.out_channels, -1)     # (Co, Ci*K*K)
        u, s, vt = np.linalg.svd(weights, full_matrices=False)
        rank = min(self._select_rank(s, conv.out_channels), len(s))
        code = (np.diag(s[:rank]) @ vt[:rank]).reshape(
            rank, conv.in_channels, conv.kernel_size[0], conv.kernel_size[1])
        expansion = u[:, :rank].reshape(conv.out_channels, rank, 1, 1)
        approx = (u[:, :rank] * s[:rank]) @ vt[:rank]
        error = float(np.linalg.norm(weights - approx) / (np.linalg.norm(weights) + 1e-12))
        return LayerFactorization(
            name=name, rank=rank, code_weight=code, expansion_weight=expansion,
            in_channels=conv.in_channels, out_channels=conv.out_channels,
            kernel_size=conv.kernel_size[0], approximation_error=error,
        )

    def decompose(self, model: Module, min_kernel: int = 2,
                  apply: bool = False) -> LowRankResult:
        """Factorize every eligible convolution; optionally write back the low-rank weights."""
        result = LowRankResult()
        for name, conv in prunable_convolutions(model, min_kernel=min_kernel):
            factorization = self.decompose_layer(name, conv)
            if apply:
                conv.weight.data = factorization.reconstruct()
            result.factorizations.append(factorization)
        return result
