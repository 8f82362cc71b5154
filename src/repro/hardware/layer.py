"""Convolutional layer workloads for the hardware model.

A :class:`ConvLayerShape` captures exactly the geometry the analytical
Eyeriss model needs: channel counts, kernel size, stride and the spatial
extent of inputs/outputs, plus a batch size.  Helpers extract these shapes
from ``repro`` models so that vanilla and ALF-compressed networks can be
fed to the same hardware evaluation (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.alf_block import ALFConv2d
from ..core.deploy import CompressedConv2d
from ..metrics.ops import profile_model
from ..nn.layers import Conv2d
from ..nn.module import Module


@dataclass(frozen=True)
class ConvLayerShape:
    """Geometry of one convolutional workload."""

    name: str
    in_channels: int
    out_channels: int
    kernel_size: int
    input_hw: Tuple[int, int]
    stride: int = 1
    padding: int = 0
    batch: int = 1

    @property
    def output_hw(self) -> Tuple[int, int]:
        h = (self.input_hw[0] + 2 * self.padding - self.kernel_size) // self.stride + 1
        w = (self.input_hw[1] + 2 * self.padding - self.kernel_size) // self.stride + 1
        return (h, w)

    @property
    def macs(self) -> int:
        """Multiply-accumulates for the whole batch."""
        oh, ow = self.output_hw
        return (self.batch * self.in_channels * self.out_channels
                * self.kernel_size ** 2 * oh * ow)

    @property
    def weight_words(self) -> int:
        return self.in_channels * self.out_channels * self.kernel_size ** 2

    @property
    def input_words(self) -> int:
        return self.batch * self.in_channels * self.input_hw[0] * self.input_hw[1]

    @property
    def output_words(self) -> int:
        oh, ow = self.output_hw
        return self.batch * self.out_channels * oh * ow

    def with_batch(self, batch: int) -> "ConvLayerShape":
        return replace(self, batch=batch)

    def validate(self) -> "ConvLayerShape":
        if min(self.in_channels, self.out_channels, self.kernel_size, self.stride) <= 0:
            raise ValueError("layer dimensions must be positive")
        if self.output_hw[0] <= 0 or self.output_hw[1] <= 0:
            raise ValueError(f"layer '{self.name}' has a non-positive output size")
        return self


def factored_shapes(shape: ConvLayerShape,
                    code_channels: int) -> List[ConvLayerShape]:
    """The two workloads of a convolution run as code + 1x1 expansion.

    ALF blocks, LCNN dictionaries and SVD low-rank factors all deploy a
    ``K x K`` convolution to ``shape`` as a narrow code convolution with
    ``code_channels`` filters followed by a 1x1 expansion back to
    ``shape.out_channels``; Fig. 3 charges the expansion as its own
    workload, named ``<name>_exp``.
    """
    code = replace(shape, out_channels=code_channels).validate()
    expansion = ConvLayerShape(
        name=f"{shape.name}_exp",
        in_channels=code_channels,
        out_channels=shape.out_channels,
        kernel_size=1,
        input_hw=code.output_hw,
        batch=shape.batch,
    ).validate()
    return [code, expansion]


def conv_shapes_from_model(model: Module, input_shape: Tuple[int, int, int],
                           batch: int = 1, names: Optional[Sequence[str]] = None,
                           profile=None) -> List[ConvLayerShape]:
    """Extract per-convolution workloads from a model via shape profiling.

    Standard convolutions map to one :class:`ConvLayerShape`.  ALF blocks
    and their deployed :class:`CompressedConv2d` form map to **two** shapes
    (the reduced code convolution and the 1x1 expansion layer), which is how
    the paper accounts for the expansion overhead in Fig. 3.

    ``names`` optionally overrides the generated layer names (matched by
    order of the underlying convolution modules, expansion layers get an
    ``_exp`` suffix).  ``profile`` accepts a precomputed
    :class:`repro.metrics.ModelProfile` of the same model/geometry so
    callers that already profiled for cost accounting skip the second
    forward pass.
    """
    if profile is None:
        profile = profile_model(model, input_shape, batch_size=1)
    module_by_name = dict(model.named_modules())
    shapes: List[ConvLayerShape] = []
    conv_index = 0
    for layer in profile.layers:
        module = module_by_name.get(layer.name)
        if not isinstance(module, (Conv2d, ALFConv2d, CompressedConv2d)):
            continue
        # Conv2d keeps (h, w) pairs; the square ALF forms keep one int each.
        square = not isinstance(module, Conv2d)
        shape = ConvLayerShape(
            name=(names[conv_index] if names and conv_index < len(names)
                  else layer.name),
            in_channels=module.in_channels,
            out_channels=module.out_channels,
            kernel_size=module.kernel_size if square else module.kernel_size[0],
            input_hw=tuple(layer.input_shape[1:]),
            stride=module.stride if square else module.stride[0],
            padding=module.padding if square else module.padding[0],
            batch=batch,
        )
        conv_index += 1
        if isinstance(module, ALFConv2d):
            shapes.extend(factored_shapes(shape, max(1, module.active_filters())))
        elif isinstance(module, CompressedConv2d):
            shapes.extend(factored_shapes(shape, module.code_channels))
        else:
            shapes.append(shape.validate())
    return shapes
