"""LCNN-style lookup / dictionary-sharing convolution (Bagherinezhad et al.).

LCNN learns a small dictionary of shared filter components per layer; every
filter is expressed as a sparse combination of dictionary atoms, so
inference convolves the input with the dictionary once and reassembles the
layer outputs with cheap lookups.  The paper identifies LCNN as the closest
prior work to ALF (both share filters), so this baseline implements the
same cost structure: a per-layer dictionary of ``D`` atoms and ``S``-sparse
combination weights.  Dictionaries are obtained by a numpy k-means over the
layer's filters, which captures the weight-sharing behaviour without
requiring end-to-end retraining on this substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..nn.layers import Conv2d
from ..nn.module import Module
from .common import prunable_convolutions


@dataclass
class LayerDictionary:
    """Shared-filter dictionary of one convolution layer."""

    name: str
    atoms: np.ndarray          # (D, Ci*K*K)
    assignments: np.ndarray    # (Co, S) atom indices per filter
    coefficients: np.ndarray   # (Co, S) combination weights
    kernel_size: int
    in_channels: int
    out_channels: int

    @property
    def code_channels(self) -> int:
        """Dictionary atoms: the width of the code convolution."""
        return self.atoms.shape[0]

    @property
    def sparsity(self) -> int:
        return self.assignments.shape[1]

    def reconstruct_filters(self) -> np.ndarray:
        """Approximate the original filters from the dictionary."""
        flat = np.zeros((self.out_channels, self.atoms.shape[1]))
        for filter_index in range(self.out_channels):
            atoms = self.atoms[self.assignments[filter_index]]
            flat[filter_index] = self.coefficients[filter_index] @ atoms
        return flat.reshape(self.out_channels, self.in_channels,
                            self.kernel_size, self.kernel_size)

    def macs(self, output_hw: Tuple[int, int]) -> int:
        """Inference cost: dictionary convolution + sparse recombination."""
        oh, ow = output_hw
        dictionary_conv = (self.code_channels * self.in_channels
                           * self.kernel_size ** 2 * oh * ow)
        recombination = self.out_channels * self.sparsity * oh * ow
        return dictionary_conv + recombination

    def params(self) -> int:
        return int(self.atoms.size + self.coefficients.size)


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid (squared Euclidean distance).

    Uses the GEMM form ``‖p‖² − 2·p·cᵀ + ‖c‖²``: one ``(P × C)`` matrix
    product instead of a ``(P × C × D)`` broadcast temporary.
    """
    distances = points @ centroids.T
    distances *= -2.0
    distances += (points ** 2).sum(axis=1)[:, None]
    distances += (centroids ** 2).sum(axis=1)[None, :]
    return distances.argmin(axis=1)


def _kmeans(points: np.ndarray, clusters: int, iterations: int,
            rng: np.random.Generator) -> np.ndarray:
    """Plain Lloyd's k-means returning the cluster centroids."""
    clusters = min(clusters, len(points))
    centroids = points[rng.choice(len(points), size=clusters, replace=False)].copy()
    for _ in range(iterations):
        labels = _nearest(points, centroids)
        for cluster in range(clusters):
            members = points[labels == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return centroids


@dataclass
class LCNNCompressionResult:
    """Dictionary compression of a whole model."""

    dictionaries: List[LayerDictionary] = field(default_factory=list)


class LCNNCompressor:
    """Learn per-layer filter dictionaries (costed by ``ModelProfile.factored``)."""

    method_name = "LCNN"
    policy = "Automatic"

    def __init__(self, dictionary_fraction: float = 0.25, sparsity: int = 3,
                 kmeans_iterations: int = 10, seed: int = 0):
        if not 0.0 < dictionary_fraction <= 1.0:
            raise ValueError("dictionary_fraction must lie in (0, 1]")
        if sparsity < 1:
            raise ValueError("sparsity must be at least 1")
        self.dictionary_fraction = dictionary_fraction
        self.sparsity = sparsity
        self.kmeans_iterations = kmeans_iterations
        self.rng = np.random.default_rng(seed)

    def compress_layer(self, name: str, conv: Conv2d) -> LayerDictionary:
        filters = conv.weight.data.reshape(conv.out_channels, -1)
        dictionary_size = max(1, int(round(conv.out_channels * self.dictionary_fraction)))
        atoms = _kmeans(filters, dictionary_size, self.kmeans_iterations, self.rng)
        sparsity = min(self.sparsity, len(atoms))

        assignments = np.zeros((conv.out_channels, sparsity), dtype=int)
        coefficients = np.zeros((conv.out_channels, sparsity))
        # Greedy matching-pursuit style assignment of atoms to each filter.
        for filter_index, target in enumerate(filters):
            residual = target.copy()
            for slot in range(sparsity):
                projections = atoms @ residual
                norms = (atoms ** 2).sum(axis=1) + 1e-12
                scores = projections ** 2 / norms
                best = int(np.argmax(scores))
                coefficient = projections[best] / norms[best]
                assignments[filter_index, slot] = best
                coefficients[filter_index, slot] = coefficient
                residual = residual - coefficient * atoms[best]
        return LayerDictionary(
            name=name, atoms=atoms, assignments=assignments, coefficients=coefficients,
            kernel_size=conv.kernel_size[0], in_channels=conv.in_channels,
            out_channels=conv.out_channels,
        )

    def compress(self, model: Module, min_kernel: int = 2,
                 apply: bool = False) -> LCNNCompressionResult:
        """Build dictionaries for every eligible convolution.

        With ``apply=True`` the convolution weights are replaced by their
        dictionary reconstruction (useful to measure the accuracy impact).
        """
        result = LCNNCompressionResult()
        for name, conv in prunable_convolutions(model, min_kernel=min_kernel):
            dictionary = self.compress_layer(name, conv)
            if apply:
                conv.weight.data = dictionary.reconstruct_filters()
            result.dictionaries.append(dictionary)
        return result
