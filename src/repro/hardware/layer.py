"""Convolutional layer workloads for the hardware model.

A :class:`ConvLayerShape` captures exactly the geometry the analytical
Eyeriss model needs: channel counts, kernel size, stride and the spatial
extent of inputs/outputs, plus a batch size.  The workloads of a model are
a view of its layer table (:func:`repro.metrics.profile_model`): each
convolution row holds its one shape, or, for a layer run as a code
convolution plus a 1x1 expansion, the two shapes of
:func:`factored_shapes`.  ``ModelProfile.workloads(batch, names)`` hands
them to :func:`repro.hardware.evaluate_layers`, so vanilla and compressed
networks of every method feed the same hardware evaluation (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple


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
