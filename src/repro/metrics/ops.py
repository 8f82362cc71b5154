"""Layer-wise profiling: parameter and operation (MAC / OP) counting.

The paper reports "Params" and "OPs" where one multiply-accumulate counts
as two OPs (Table II: ResNet-20's convolutional layers = 0.27 M parameters
and 81.1 M OPs at 32x32, which equals 2x the MAC count).  Profiling works
by running a single forward pass while temporarily instrumenting every leaf
layer, so arbitrary architectures (including ALF blocks and their deployed
compressed form) are measured from their true input geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.alf_block import ALFConv2d
from ..core.deploy import CompressedConv2d
from ..nn.backend import get_default_dtype
from ..nn.layers import Conv2d, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor

#: Operations per multiply-accumulate (multiply + add), as used in the paper.
OPS_PER_MAC = 2


@dataclass
class LayerProfile:
    """Cost record of one profiled layer."""

    name: str
    kind: str
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    params: int
    macs: int

    @property
    def ops(self) -> int:
        return self.macs * OPS_PER_MAC


@dataclass
class ModelProfile:
    """Aggregated profiling result of a model."""

    layers: List[LayerProfile] = field(default_factory=list)

    def total_params(self, conv_only: bool = False) -> int:
        return sum(l.params for l in self.layers if not conv_only or l.kind != "linear")

    def total_macs(self, conv_only: bool = False) -> int:
        return sum(l.macs for l in self.layers if not conv_only or l.kind != "linear")

    def total_ops(self, conv_only: bool = False) -> int:
        return self.total_macs(conv_only=conv_only) * OPS_PER_MAC

    def by_name(self, name: str) -> LayerProfile:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no profiled layer named '{name}'")

    def conv_layers(self) -> List[LayerProfile]:
        return [l for l in self.layers if l.kind in ("conv", "alf", "compressed")]


def _conv_macs(in_channels: int, out_channels: int, kernel: Tuple[int, int],
               output_hw: Tuple[int, int]) -> int:
    return in_channels * out_channels * kernel[0] * kernel[1] * output_hw[0] * output_hw[1]


def profile_model(model: Module, input_shape: Tuple[int, int, int],
                  batch_size: int = 1) -> ModelProfile:
    """Profile a model with a dummy input of ``(batch_size, *input_shape)``.

    Parameters / MACs are reported **per image** (independent of the batch
    size used for profiling).  ALF blocks are accounted in their deployed
    form: a code convolution with only the currently-active filters plus the
    1x1 expansion layer.
    """
    records: List[LayerProfile] = []
    originals: List[Tuple[Module, object]] = []

    def instrument(name: str, module: Module) -> None:
        original_forward = module.forward

        def wrapped(x, _name=name, _module=module, _original=original_forward):
            out = _original(x)
            records.append(_profile_layer(_name, _module, x, out))
            return out

        originals.append((module, original_forward))
        object.__setattr__(module, "forward", wrapped)

    try:
        for name, module in model.named_modules():
            if isinstance(module, (Conv2d, Linear, ALFConv2d, CompressedConv2d)):
                instrument(name or type(module).__name__.lower(), module)
        was_training = model.training
        model.eval()
        # Eval mode makes this forward tape-free; the dummy uses the
        # backend default dtype so float32 models are profiled as float32.
        dummy = Tensor(np.zeros((batch_size,) + tuple(input_shape),
                                dtype=get_default_dtype()))
        model(dummy)
        model.train(was_training)
    finally:
        for module, original in originals:
            try:
                object.__delattr__(module, "forward")
            except AttributeError:
                object.__setattr__(module, "forward", original)

    return ModelProfile(layers=records)


def _profile_layer(name: str, module: Module, x: Tensor, out: Tensor) -> LayerProfile:
    input_shape = tuple(x.shape[1:])
    output_shape = tuple(out.shape[1:])
    if isinstance(module, ALFConv2d):
        # Deployment never emits an empty layer (``compress_block`` keeps
        # the most salient filter), so a fully pruned block costs one.
        active = max(1, module.active_filters())
        out_hw = output_shape[1:]
        macs = (_conv_macs(module.in_channels, active,
                           (module.kernel_size, module.kernel_size), out_hw)
                + _conv_macs(active, module.out_channels, (1, 1), out_hw))
        params = module.compressed_params(active)
        if module.bias is not None:
            params += module.out_channels
        kind = "alf"
    elif isinstance(module, CompressedConv2d):
        out_hw = output_shape[1:]
        macs = module.macs(tuple(input_shape[1:]))
        params = module.num_weight_params()
        kind = "compressed"
    elif isinstance(module, Conv2d):
        out_hw = output_shape[1:]
        macs = _conv_macs(module.in_channels, module.out_channels, module.kernel_size, out_hw)
        params = module.weight.size + (module.bias.size if module.bias is not None else 0)
        kind = "conv"
    elif isinstance(module, Linear):
        macs = module.in_features * module.out_features
        params = module.weight.size + (module.bias.size if module.bias is not None else 0)
        kind = "linear"
    else:  # pragma: no cover - instrument() only selects the four types above
        macs = 0
        params = 0
        kind = "other"
    return LayerProfile(name=name, kind=kind, input_shape=input_shape,
                        output_shape=output_shape, params=int(params), macs=int(macs))


def count_params(model: Module, input_shape: Tuple[int, int, int],
                 conv_only: bool = False) -> int:
    """Total parameter count (per the paper's accounting)."""
    return profile_model(model, input_shape).total_params(conv_only=conv_only)


def count_ops(model: Module, input_shape: Tuple[int, int, int],
              conv_only: bool = False) -> int:
    """Total operations (2 x MACs) for one input image."""
    return profile_model(model, input_shape).total_ops(conv_only=conv_only)


def count_macs(model: Module, input_shape: Tuple[int, int, int],
               conv_only: bool = False) -> int:
    """Total multiply-accumulates for one input image."""
    return profile_model(model, input_shape).total_macs(conv_only=conv_only)
