"""The ALF block: autoencoder-compressed convolution plus expansion layer.

An :class:`ALFConv2d` is a drop-in replacement for a standard
:class:`repro.nn.Conv2d`.  During training the convolution does not use the
raw filter bank ``W`` but the autoencoder code ``Wcode`` (with pruned
filters zeroed); a point-wise expansion convolution ``Wexp`` maps the
intermediate feature map back to the original number of output channels so
downstream layers are unaffected (Eq. 1 of the paper).  Gradients of the
task loss reach ``W`` through a straight-through estimator (Eq. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn import init as init_mod
from ..nn.layers import BatchNorm2d
from ..nn.module import Module, Parameter
from ..nn.ste import ste_bridge
from ..nn.tensor import Tensor
from .autoencoder import WeightAutoencoder
from .config import ALFConfig
from .schedule import nu_prune


def ccode_max(in_channels: int, out_channels: int, kernel_size: int) -> int:
    """Maximum code size for which the ALF block beats a standard convolution.

    Eq. 2 of the paper: the code convolution plus the point-wise expansion
    layer are only cheaper than the original convolution if
    ``Ccode < Ci*Co*K^2 / (Ci*K^2 + Co)``.
    """
    if min(in_channels, out_channels, kernel_size) <= 0:
        raise ValueError("channel counts and kernel size must be positive")
    numerator = in_channels * out_channels * kernel_size ** 2
    denominator = in_channels * kernel_size ** 2 + out_channels
    return numerator // denominator


@dataclass
class ALFBlockStats:
    """Snapshot of an ALF block's compression state."""

    name: str
    total_filters: int
    active_filters: int
    zero_fraction: float
    ccode_max: int
    meets_efficiency_bound: bool


class ALFConv2d(Module):
    """Convolution whose filters are compressed online by a sparse autoencoder."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = False,
                 config: Optional[ALFConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 name: Optional[str] = None):
        super().__init__()
        self.config = (config or ALFConfig()).validate()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = int(kernel_size)
        self.stride = stride
        self.padding = padding
        self.block_name = name or f"alf_{in_channels}x{out_channels}x{kernel_size}"

        rng = rng or np.random.default_rng(self.config.seed)

        # Task-trainable variables: the original filter bank W, the expansion
        # layer Wexp and (optionally) a bias on the expansion output.
        self.weight = Parameter(init_mod.he_normal(
            (out_channels, in_channels, self.kernel_size, self.kernel_size), rng=rng))
        wexp_init = init_mod.get_initializer(self.config.wexp_init)
        self.expansion = Parameter(wexp_init((out_channels, out_channels, 1, 1), rng=rng))
        self.bias = Parameter(init_mod.zeros((out_channels,))) if bias else None

        # Autoencoder variables (trained by the dedicated AE optimizer only).
        self.autoencoder = WeightAutoencoder(
            out_channels,
            threshold=self.config.threshold,
            sigma_ae=self.config.sigma_ae,
            weight_init=self.config.wae_init,
            mask_init=self.config.mask_init,
            enable_mask=self.config.enable_mask,
            rng=rng,
        )

        # Optional intermediate activation / BN between code conv and expansion.
        self._sigma_inter = F.get_activation(self.config.sigma_inter)
        self.bn_inter = BatchNorm2d(out_channels) if self.config.use_bn_inter else None

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        code_values = self.autoencoder.compute_code(self.weight.data)
        # Straight-through estimator: the conv uses Wcode's values but the
        # task gradient lands directly on W (Eq. 5).
        wcode = ste_bridge(code_values, self.weight)
        a_tilde = F.conv2d(x, wcode, stride=self.stride, padding=self.padding)
        a_tilde = self._sigma_inter(a_tilde)
        if self.bn_inter is not None:
            a_tilde = self.bn_inter(a_tilde)
        return F.conv2d(a_tilde, self.expansion, self.bias, stride=1, padding=0)

    # ------------------------------------------------------------------ #
    # Parameter bookkeeping for the two-player training scheme
    # ------------------------------------------------------------------ #
    def task_parameters(self) -> List[Parameter]:
        """Variables updated by the task optimizer (W, Wexp, bias, BN)."""
        params = [self.weight, self.expansion]
        if self.bias is not None:
            params.append(self.bias)
        if self.bn_inter is not None:
            params.extend([self.bn_inter.gamma, self.bn_inter.beta])
        return params

    def regularized_parameters(self) -> List[Parameter]:
        """Task parameters that receive weight decay.

        The paper explicitly exempts ``W`` (and therefore ``Wcode``) from any
        regularization because the autoencoder already injects noise into its
        gradient; the expansion layer and BN affine terms are regular
        parameters and keep their weight decay.
        """
        params = [self.expansion]
        if self.bias is not None:
            params.append(self.bias)
        if self.bn_inter is not None:
            params.extend([self.bn_inter.gamma, self.bn_inter.beta])
        return params

    def autoencoder_parameters(self) -> List[Parameter]:
        """Variables updated by the autoencoder optimizer (Wenc, Wdec, M)."""
        return self.autoencoder.autoencoder_parameters()

    # ------------------------------------------------------------------ #
    # Autoencoder loss (second player)
    # ------------------------------------------------------------------ #
    def autoencoder_loss(self) -> Tuple[Tensor, float]:
        """Return ``(Lae, nu_prune)`` for the current state of the block."""
        weight_matrix = Tensor(
            self.weight.data.reshape(self.out_channels, -1).T.copy()
        )
        output = self.autoencoder(weight_matrix)
        rec_loss = self.autoencoder.reconstruction_loss(weight_matrix, output)
        theta = self.autoencoder.zero_fraction()
        scale = nu_prune(theta, slope=self.config.slope, pr_max=self.config.pr_max)
        loss = rec_loss + self.autoencoder.sparsity_loss() * scale
        return loss, scale

    # ------------------------------------------------------------------ #
    # Compression accounting
    # ------------------------------------------------------------------ #
    def active_filters(self) -> int:
        """Number of code filters that currently survive the pruning mask."""
        return int(self.keep_indices().size)

    def keep_indices(self, code: Optional[np.ndarray] = None) -> np.ndarray:
        """Indices of the code filters kept at deployment time.

        ``code`` is the block's current code when the caller has already
        computed it; otherwise the autoencoder computes it.
        """
        if code is None:
            code = self.autoencoder.compute_code(self.weight.data)
        per_filter = np.abs(code).reshape(self.out_channels, -1).sum(axis=1)
        return np.nonzero(per_filter > 0)[0]

    def ccode_max(self) -> int:
        return ccode_max(self.in_channels, self.out_channels, self.kernel_size)

    def stats(self) -> ALFBlockStats:
        active = self.active_filters()
        bound = self.ccode_max()
        return ALFBlockStats(
            name=self.block_name,
            total_filters=self.out_channels,
            active_filters=active,
            zero_fraction=1.0 - active / self.out_channels,
            ccode_max=bound,
            meets_efficiency_bound=active < bound,
        )

    def original_macs(self, input_hw: Tuple[int, int]) -> int:
        """MACs of the standard convolution this block replaces."""
        out_h = F.conv_output_size(input_hw[0], self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(input_hw[1], self.kernel_size, self.stride, self.padding)
        return (self.in_channels * self.out_channels * self.kernel_size ** 2) * out_h * out_w

    def compressed_macs(self, input_hw: Tuple[int, int],
                        active: Optional[int] = None) -> int:
        """MACs of the deployed block (code conv + expansion) with pruned filters removed."""
        active = self.active_filters() if active is None else active
        out_h = F.conv_output_size(input_hw[0], self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(input_hw[1], self.kernel_size, self.stride, self.padding)
        code_macs = self.in_channels * active * self.kernel_size ** 2 * out_h * out_w
        expansion_macs = active * self.out_channels * out_h * out_w
        return code_macs + expansion_macs

    def original_params(self) -> int:
        return self.in_channels * self.out_channels * self.kernel_size ** 2

    def compressed_params(self, active: Optional[int] = None) -> int:
        active = self.active_filters() if active is None else active
        code_params = self.in_channels * active * self.kernel_size ** 2
        expansion_params = active * self.out_channels
        return code_params + expansion_params

    def __repr__(self) -> str:
        return (f"ALFConv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
                f"stride={self.stride}, active={self.active_filters()}/{self.out_channels})")
