"""Deployment-stage post-processing of an ALF-trained model.

After training, the autoencoders are discarded; the code filter bank
``Wcode`` contains a number of all-zero filters which are physically
removed, together with the corresponding input channels of the expansion
layer (Sec. III-C).  The result is a dense, structurally-compressed model
consisting only of standard convolutions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.layers import BatchNorm2d
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .alf_block import ALFConv2d


class CompressedConv2d(Module):
    """Deployed form of an ALF block: reduced code conv followed by 1x1 expansion."""

    def __init__(self, code_weight: np.ndarray, expansion_weight: np.ndarray,
                 stride: int = 1, padding: int = 0, bias: Optional[np.ndarray] = None,
                 sigma_inter: Optional[str] = None, bn_inter: Optional[BatchNorm2d] = None,
                 name: Optional[str] = None):
        super().__init__()
        self.code_weight = Parameter(np.asarray(code_weight))
        self.expansion_weight = Parameter(np.asarray(expansion_weight))
        self.bias = Parameter(np.asarray(bias)) if bias is not None else None
        self.stride = stride
        self.padding = padding
        self.block_name = name or "compressed_conv"
        self._sigma_inter = F.get_activation(sigma_inter)
        self.bn_inter = bn_inter

        self.code_channels = self.code_weight.shape[0]
        self.in_channels = self.code_weight.shape[1]
        self.out_channels = self.expansion_weight.shape[0]
        self.kernel_size = self.code_weight.shape[2]

    def forward(self, x: Tensor) -> Tensor:
        a_tilde = F.conv2d(x, self.code_weight, stride=self.stride, padding=self.padding)
        a_tilde = self._sigma_inter(a_tilde)
        if self.bn_inter is not None:
            a_tilde = self.bn_inter(a_tilde)
        return F.conv2d(a_tilde, self.expansion_weight, self.bias, stride=1, padding=0)

    def macs(self, input_hw: Tuple[int, int]) -> int:
        out_h = F.conv_output_size(input_hw[0], self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(input_hw[1], self.kernel_size, self.stride, self.padding)
        code = self.in_channels * self.code_channels * self.kernel_size ** 2 * out_h * out_w
        expansion = self.code_channels * self.out_channels * out_h * out_w
        return code + expansion

    def num_weight_params(self) -> int:
        total = self.code_weight.size + self.expansion_weight.size
        if self.bias is not None:
            total += self.bias.size
        return int(total)

    def __repr__(self) -> str:
        return (f"CompressedConv2d(in={self.in_channels}, code={self.code_channels}, "
                f"out={self.out_channels}, k={self.kernel_size})")


@dataclass
class CompressionRecord:
    """Per-block record of what deployment removed."""

    name: str
    original_filters: int
    kept_filters: int
    original_params: int
    compressed_params: int

    @property
    def filter_reduction(self) -> float:
        return 1.0 - self.kept_filters / self.original_filters


@dataclass
class CompressionResult:
    """Deployment output: the compressed model plus per-block records."""

    model: Module
    records: List[CompressionRecord]

    @property
    def total_kept_filters(self) -> int:
        return sum(r.kept_filters for r in self.records)

    @property
    def total_filters(self) -> int:
        return sum(r.original_filters for r in self.records)

    @property
    def remaining_filter_fraction(self) -> float:
        if not self.records:
            return 1.0
        return self.total_kept_filters / self.total_filters


def compress_block(block: ALFConv2d) -> Tuple[CompressedConv2d, CompressionRecord]:
    """Build the deployed form of a single ALF block."""
    code = block.autoencoder.compute_code(block.weight.data)
    keep = block.keep_indices(code)
    if keep.size == 0:
        # Never produce an empty layer: keep the single most salient filter.
        magnitudes = np.abs(block.weight.data).reshape(block.out_channels, -1).sum(axis=1)
        keep = np.array([int(np.argmax(magnitudes))])

    code_weight = code[keep]                                  # (Ccode_nz, Ci, K, K)
    expansion_weight = block.expansion.data[:, keep, :, :]    # (Co, Ccode_nz, 1, 1)
    bias = block.bias.data.copy() if block.bias is not None else None
    bn_inter = copy.deepcopy(block.bn_inter) if block.bn_inter is not None else None

    compressed = CompressedConv2d(
        code_weight, expansion_weight, stride=block.stride, padding=block.padding,
        bias=bias, sigma_inter=block.config.sigma_inter, bn_inter=bn_inter,
        name=block.block_name,
    )
    record = CompressionRecord(
        name=block.block_name,
        original_filters=block.out_channels,
        kept_filters=int(keep.size),
        original_params=block.original_params(),
        compressed_params=compressed.num_weight_params(),
    )
    return compressed, record


def compress_model(model: Module) -> CompressionResult:
    """Replace every ALF block of ``model`` with its dense deployed form.

    The input model is left untouched: a deep copy is compressed and
    returned.
    """
    target = copy.deepcopy(model)
    records: List[CompressionRecord] = []
    for parent_name, parent in target.named_modules():
        for child_name, child in list(parent._modules.items()):
            if isinstance(child, ALFConv2d):
                compressed, record = compress_block(child)
                setattr(parent, child_name, compressed)
                records.append(record)
    return CompressionResult(model=target, records=records)


def compressed_blocks(model: Module) -> List[CompressedConv2d]:
    """All deployed (compressed) blocks in a model."""
    return [m for m in model.modules() if isinstance(m, CompressedConv2d)]
