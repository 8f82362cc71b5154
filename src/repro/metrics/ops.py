"""The layer table: one row per layer, from one instrumented forward pass.

:func:`profile_model` runs a single forward pass with every leaf layer
(convolution, linear, ALF block, deployed ALF block) temporarily
instrumented, so arbitrary architectures are measured from their true input
geometry.  It returns a :class:`ModelProfile` with one :class:`LayerProfile`
row per layer, keyed by module path in forward order.  Each row holds the
layer's kind, input / output shape, params, MACs and, for a convolution,
its Eyeriss workloads: one :class:`~repro.hardware.layer.ConvLayerShape`,
or the code convolution plus its ``<name>_exp`` 1x1 expansion for ALF and
deployed blocks (:func:`~repro.hardware.layer.factored_shapes`).

Every method's cost and workloads are views of this table:

* :meth:`ModelProfile.cost` — params / MACs / OPs.  The paper counts one
  multiply-accumulate as two OPs (Table II: ResNet-20's convolutional
  layers = 0.27 M parameters and 81.1 M OPs at 32x32).
* :meth:`ModelProfile.workloads` — the Eyeriss workloads at a batch size.
  ``names`` relabels them (the paper's CONV1 ... CONV432), in this one
  place for every method: labels go to the convolutions in forward order,
  skipping shortcut projections, which keep their module path.
* :meth:`ModelProfile.pruned` — structured filter pruning (magnitude,
  FPGM, AMC): surviving filters are looked up by module path.
* :meth:`ModelProfile.factored` — LCNN dictionaries and low-rank factors,
  run as a code convolution plus a 1x1 expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.alf_block import ALFConv2d
from ..core.deploy import CompressedConv2d
from ..hardware.layer import ConvLayerShape, factored_shapes
from ..nn.backend import get_default_dtype
from ..nn.layers import Conv2d, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor

#: Operations per multiply-accumulate (multiply + add), as used in the paper.
OPS_PER_MAC = 2


@dataclass
class LayerProfile:
    """One row of the layer table.

    ``params`` and ``macs`` are per image.  They are integers on a profiled
    table and may be fractional after :meth:`ModelProfile.pruned`.
    ``shapes`` are the layer's Eyeriss workloads at batch 1, named by
    module path (empty for a linear layer).
    """

    name: str
    kind: str
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    params: float
    macs: float
    shapes: Tuple[ConvLayerShape, ...] = ()

    @property
    def ops(self) -> float:
        return self.macs * OPS_PER_MAC


def _is_shortcut(path: str) -> bool:
    return "shortcut" in path.split(".")


@dataclass
class ModelProfile:
    """The layer table of one model at one input geometry."""

    layers: List[LayerProfile] = field(default_factory=list)

    def total_params(self, conv_only: bool = False) -> float:
        return sum(l.params for l in self.layers if not conv_only or l.kind != "linear")

    def total_macs(self, conv_only: bool = False) -> float:
        return sum(l.macs for l in self.layers if not conv_only or l.kind != "linear")

    def total_ops(self, conv_only: bool = False) -> float:
        return self.total_macs(conv_only=conv_only) * OPS_PER_MAC

    def cost(self, conv_only: bool = False) -> Dict[str, float]:
        """``{"params", "macs", "ops"}`` of the table, as floats."""
        return {"params": float(self.total_params(conv_only=conv_only)),
                "macs": float(self.total_macs(conv_only=conv_only)),
                "ops": float(self.total_ops(conv_only=conv_only))}

    def by_name(self, name: str) -> LayerProfile:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no profiled layer named '{name}'")

    def labels(self, names: Optional[Sequence[str]]) -> Dict[str, str]:
        """Module path → label for ``names``.

        Labels go to the convolutions in forward order, skipping shortcut
        projections (a ``shortcut`` path component), which keep their
        module path.  Convolutions beyond the last label keep theirs too.
        """
        convs = [layer.name for layer in self.layers
                 if layer.shapes and not _is_shortcut(layer.name)]
        return dict(zip(convs, names or ()))

    def workloads(self, batch: int = 1,
                  names: Optional[Sequence[str]] = None) -> List[ConvLayerShape]:
        """Every row's Eyeriss workloads at ``batch``, labelled by ``names``."""
        labels = self.labels(names)
        out: List[ConvLayerShape] = []
        for layer in self.layers:
            label = labels.get(layer.name, layer.name)
            for shape in layer.shapes:
                # The expansion keeps its "_exp" suffix under the label.
                suffix = shape.name[len(layer.name):]
                out.append(replace(shape, name=label + suffix, batch=batch))
        return out

    def pruned(self, survival: Mapping[str, float]) -> "ModelProfile":
        """The table with structurally pruned filters removed.

        ``survival`` maps a convolution's module path to the fraction of
        its output filters that survive; the next layer loses the matching
        input channels.  Costs scale by the fractional product
        ``params · out_survival · in_survival``, reset to 1 after a layer
        that is not a plain convolution.  Workloads keep whole channels,
        ``max(1, round(c · survival))``.
        """
        rows: List[LayerProfile] = []
        previous = 1.0
        for layer in self.layers:
            if layer.kind != "conv":
                rows.append(replace(layer, params=layer.params * previous,
                                    macs=layer.macs * previous))
                previous = 1.0
                continue
            kept = survival.get(layer.name, 1.0)
            rows.append(replace(
                layer,
                params=layer.params * kept * previous,
                macs=layer.macs * kept * previous,
                shapes=tuple(replace(
                    shape,
                    in_channels=max(1, int(round(shape.in_channels * previous))),
                    out_channels=max(1, int(round(shape.out_channels * kept))),
                ).validate() for shape in layer.shapes),
            ))
            previous = kept
        return ModelProfile(layers=rows)

    def factored(self, factors: Mapping[str, Any]) -> "ModelProfile":
        """The table with some convolutions run as code + 1x1 expansion.

        ``factors`` maps a module path to its replacement — an LCNN
        :class:`~repro.baselines.LayerDictionary` or a low-rank
        :class:`~repro.baselines.LayerFactorization` — whose ``params()``
        and ``macs(output_hw)`` stand in for the dense row's cost and whose
        ``code_channels`` sets the width of the code workload.
        """
        rows: List[LayerProfile] = []
        for layer in self.layers:
            factor = factors.get(layer.name)
            if factor is not None:
                layer = replace(
                    layer, params=factor.params(),
                    macs=factor.macs(tuple(layer.output_shape[1:])),
                    shapes=tuple(factored_shapes(layer.shapes[0],
                                                 factor.code_channels)))
            rows.append(layer)
        return ModelProfile(layers=rows)


def _conv_macs(in_channels: int, out_channels: int, kernel: Tuple[int, int],
               output_hw: Tuple[int, int]) -> int:
    return in_channels * out_channels * kernel[0] * kernel[1] * output_hw[0] * output_hw[1]


def profile_model(model: Module, input_shape: Tuple[int, int, int],
                  batch_size: int = 1) -> ModelProfile:
    """The layer table of ``model`` for a dummy input of ``(batch_size, *input_shape)``.

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
    out_hw = output_shape[1:]
    if isinstance(module, Linear):
        params = module.weight.size + (module.bias.size if module.bias is not None else 0)
        return LayerProfile(name=name, kind="linear", input_shape=input_shape,
                            output_shape=output_shape, params=int(params),
                            macs=int(module.in_features * module.out_features))
    # Conv2d keeps (h, w) pairs; the square ALF forms keep one int each.
    square = not isinstance(module, Conv2d)
    shape = ConvLayerShape(
        name=name,
        in_channels=module.in_channels,
        out_channels=module.out_channels,
        kernel_size=module.kernel_size if square else module.kernel_size[0],
        input_hw=tuple(input_shape[1:]),
        stride=module.stride if square else module.stride[0],
        padding=module.padding if square else module.padding[0],
    )
    if isinstance(module, ALFConv2d):
        # Deployment never emits an empty layer (``compress_block`` keeps
        # the most salient filter), so a fully pruned block costs one.
        active = max(1, module.active_filters())
        macs = (_conv_macs(module.in_channels, active,
                           (module.kernel_size, module.kernel_size), out_hw)
                + _conv_macs(active, module.out_channels, (1, 1), out_hw))
        params = module.compressed_params(active)
        if module.bias is not None:
            params += module.out_channels
        kind, shapes = "alf", factored_shapes(shape, active)
    elif isinstance(module, CompressedConv2d):
        macs = module.macs(tuple(input_shape[1:]))
        params = module.num_weight_params()
        kind, shapes = "compressed", factored_shapes(shape, module.code_channels)
    else:
        macs = _conv_macs(module.in_channels, module.out_channels, module.kernel_size, out_hw)
        params = module.weight.size + (module.bias.size if module.bias is not None else 0)
        kind, shapes = "conv", [shape.validate()]
    return LayerProfile(name=name, kind=kind, input_shape=input_shape,
                        output_shape=output_shape, params=int(params), macs=int(macs),
                        shapes=tuple(shapes))
