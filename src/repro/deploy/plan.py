"""Trace-based compilation of a model into a static inference plan.

:func:`compile` runs abstract forward passes of a model at ``batch`` and
``batch + 1`` under an op observer (:func:`repro.nn.observe_ops`),
reconstructs the dataflow graphs of registered ops, optimizes them
(constant freezing, optional BatchNorm folding, conv epilogue fusion,
dead-code elimination), pairs them into one symbolic-batch program and
lowers that — the path ``load`` and ``bind`` take too — onto a
:class:`~repro.deploy.arena.BufferArena` of preallocated, liveness-reused
buffers.  The result is an :class:`InferencePlan`: a flat list of steps
whose heavy ops write into memory that already exists — ``plan(x)``
performs no large allocations.

Numerical contract: with the default options a plan forward is
**bit-identical** to the eager ``model(x)`` under ``no_grad()``.  Every
specialized step replays the exact eager kernel with an ``out=``
destination (the in-place substitutions are verified bit-exact);
anything without a verified in-place form falls back to the op's own
forward.  A conv step also runs its *epilogue* in place on its output:
the sole-consumer chain of add/mul/div by per-channel constants (a
frozen BatchNorm's ``mul``/``add``), adds of residuals computed before
the conv, and one final relu/tanh/sigmoid — each the same ufunc on the
same operands as eager, in traced order.
``fold_bn=True`` trades bits for speed: it folds inference-mode
BatchNorm affine chains into the preceding convolution's weights (equal
only to floating-point tolerance).

A stride-1 conv over at least 16 input channels that does not widen
(:func:`~repro.nn.functional.shifted_conv_applies`) runs the shifted GEMM
eager inference runs — one GEMM per kernel tap over a zero-bordered copy
of its input, no im2col — so it keeps eager's bits and has no column
block.  ``memory_budget=`` streams the oversized column blocks of the
other convs (the stem, strided and widening convs) in row bands; bands
cut at whole 16-column GEMM tiles stay bit-identical, and only
convolutions whose output width cannot align (15, 7) are tolerance-equal
(see :mod:`repro.deploy.tiling`).

Plans are snapshots: parameter arrays are bound by reference where the
trace uses them directly, but any value derived from parameters (masked
weights, BatchNorm scale chains) is baked at compile time.  Recompile
after mutating a model.  A plan is not thread-safe — it owns one set of
buffers; compile one plan per thread instead.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
import weakref
from dataclasses import dataclass, field
from operator import itemgetter, methodcaller
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn.backend import (Backend, BackendLike, current_backend, get_backend,
                          use_backend)
from ..nn.functional import (im2col_out, shifted_conv, shifted_conv_applies,
                             shifted_conv_taps)
from ..nn.module import Module
from ..nn.tensor import OpRecord, Tensor, no_grad, observe_ops
from .arena import ArenaStats, BufferArena, BufferRef
from .tiling import MIN_BAND_ROWS, StreamedConv, band_overrun, band_plan

__all__ = ["compile", "InferencePlan", "PlanStats"]


# --------------------------------------------------------------------------- #
# Graph IR
# --------------------------------------------------------------------------- #
class _Value:
    """One array in the traced dataflow: input, constant or op temporary.

    Values hold no link back to the node producing them, so a graph is
    acyclic and its traced arrays are freed by reference counting.
    """

    __slots__ = ("kind", "shape", "dtype", "array", "is_const", "index")

    def __init__(self, kind: str, shape, dtype, array=None, is_const=False):
        self.kind = kind                    # "input" | "const" | "temp"
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.array = array                  # traced/bound array (may be None)
        self.is_const = is_const
        self.index: Optional[int] = None    # register slot, set at lowering


class _Node:
    """One traced op application.

    A conv node may carry an *epilogue*: the ops fused into its step, run
    in place on its output in traced order — ``epilogue`` holds one
    ``(op_name, operand, position)`` per add/mul/div (``position`` is the
    conv value's input slot in the traced op), ``activation`` the final
    relu/tanh/sigmoid.  ``out`` is then the last fused op's output.
    """

    __slots__ = ("op", "op_name", "inputs", "kwargs", "out", "layer",
                 "epilogue", "activation")

    def __init__(self, op, inputs, kwargs, out, layer):
        self.op = op
        self.op_name = op.name
        self.inputs: List[_Value] = inputs
        self.kwargs: Dict[str, Any] = kwargs
        self.out: _Value = out
        self.layer = layer
        self.epilogue: List[Tuple[str, _Value, int]] = []
        self.activation: Optional[str] = None

    def operands(self) -> List[_Value]:
        """Every value the node's step reads: inputs, then epilogue operands."""
        return self.inputs + [operand for _, operand, _ in self.epilogue]


class _Graph:
    def __init__(self, nodes: List[_Node], input_value: _Value,
                 output_value: _Value):
        self.nodes = nodes
        self.input = input_value
        self.output = output_value

    def consumers(self) -> Dict[_Value, List[Tuple[_Node, int]]]:
        uses: Dict[_Value, List[Tuple[_Node, int]]] = {}
        for node in self.nodes:
            for position, value in enumerate(node.inputs):
                uses.setdefault(value, []).append((node, position))
        return uses


def _build_graph(records: List[OpRecord], input_array: np.ndarray,
                 output_array: np.ndarray) -> _Graph:
    values: Dict[int, _Value] = {}
    input_value = _Value("input", input_array.shape, input_array.dtype)
    values[id(input_array)] = input_value

    def value_for(array: np.ndarray) -> _Value:
        value = values.get(id(array))
        if value is None:
            # Never produced by a traced op: a leaf constant (parameter,
            # running statistic, python-scalar promotion) bound by reference.
            value = _Value("const", array.shape, array.dtype,
                           array=array, is_const=True)
            values[id(array)] = value
        return value

    nodes: List[_Node] = []
    for record in records:
        inputs = [value_for(a) for a in record.arrays]
        out = _Value("temp", record.out.shape, record.out.dtype,
                     array=record.out,
                     is_const=all(v.is_const for v in inputs))
        values[id(record.out)] = out
        nodes.append(_Node(record.op, inputs, record.kwargs, out,
                           record.layer))

    output_value = values.get(id(output_array))
    if output_value is None:
        raise RuntimeError("model output was not produced by a traced op")
    return _Graph(nodes, input_value, output_value)


# --------------------------------------------------------------------------- #
# Optimization passes
# --------------------------------------------------------------------------- #
def _is_const(value: _Value) -> bool:
    return value.is_const and value.array is not None


def _const_conv_params(node: _Node):
    """``(weight, bias)`` of a conv whose parameters are all constants, else
    ``None``.  Only such a conv is folded, fused or specialized, so
    a fused epilogue always lands on a step that applies it."""
    weight = node.inputs[1]
    bias = node.inputs[2] if len(node.inputs) > 2 else None
    if _is_const(weight) and (bias is None or _is_const(bias)):
        return weight, bias
    return None


def _freeze_consts(graph: _Graph) -> int:
    """Count the const-valued temporaries: leaves holding their traced array.

    The traced array *is* the op's exact result, so this is bit-identical
    constant folding for free: inference-mode BatchNorm scale chains,
    masked-weight products and reshaped parameters all collapse to a
    single bound array, and dead-code elimination, which stops at these
    leaves, removes their producer chains from the per-call step list.
    """
    return sum(_is_const(node.out) for node in graph.nodes)


_AFFINE_OPS = ("add", "mul", "div")
_FUSABLE_ACTIVATIONS = ("relu", "tanh", "sigmoid")


def _channel_const(value: _Value, out: _Value) -> bool:
    """Whether ``value`` is a constant of ``out``'s dtype that broadcasts
    per channel, e.g. ``(1, C, 1, 1)``: against the ``(N, C, H, W)`` conv
    output it changes neither shape nor dtype."""
    if not _is_const(value) or value.dtype != out.dtype:
        return False
    channel = (1, out.shape[1], 1, 1)
    try:
        return np.broadcast_shapes(value.shape, channel) == channel
    except ValueError:
        return False


def _epilogue_fits(op_name: str, operand: _Value, position: int,
                   out: _Value, ready: Optional[set]) -> bool:
    """Whether ``op_name`` on the conv value ``out`` (in input slot
    ``position``) and ``operand`` runs in place on ``out``'s buffer with
    eager's bits: add/mul/div by a per-channel constant, the conv value
    the numerator of a div — or, unless ``ready`` is ``None``, an add of
    a same-shape, same-dtype constant or value in ``ready`` (a residual
    computed before the conv)."""
    if op_name not in _AFFINE_OPS or position not in (0, 1):
        return False
    if op_name == "div" and position != 0:
        return False
    if _channel_const(operand, out):
        return True
    return (ready is not None and op_name == "add"
            and operand.shape == out.shape and operand.dtype == out.dtype
            and (_is_const(operand) or operand in ready))


def _epilogue_chain(graph: _Graph, uses, conv: _Node,
                    ready: Optional[set] = None
                    ) -> List[Tuple[_Node, _Value, int]]:
    """The sole-consumer add/mul/div chain on ``conv``'s output that fits
    in place (:func:`_epilogue_fits`), in traced order, as ``(node,
    operand, position)``.  A residual computed after the conv (a shortcut
    conv traced before its block's main path) ends the chain: the conv
    step cannot read it yet."""
    chain: List[Tuple[_Node, _Value, int]] = []
    value = conv.out
    while value is not graph.output:
        consumers = uses.get(value, [])
        if len(consumers) != 1:
            break
        node, position = consumers[0]
        if len(node.inputs) != 2:
            break
        operand = node.inputs[1 - position]
        if not _epilogue_fits(node.op_name, operand, position, conv.out,
                              ready):
            break
        chain.append((node, operand, position))
        value = node.out
    return chain


def _fold_affine_chains(graph: _Graph) -> int:
    """Fold per-channel affine chains (inference BatchNorm) into conv weights.

    A convolution followed by a sole-consumer chain of ``add``/``mul``/
    ``div`` ops whose other operand is a per-channel constant rewrites to
    one convolution with scaled weights and a fused bias.  Not
    bit-identical (the rounding of the affine is moved into the weights);
    only applied under ``fold_bn=True``.
    """
    uses = graph.consumers()
    removed: set = set()
    for node in graph.nodes:
        if node.op_name != "conv2d":
            continue
        params = _const_conv_params(node)
        if params is None:
            continue
        chain = _epilogue_chain(graph, uses, node)
        if not chain:
            continue
        weight, bias = params
        co = weight.shape[0]
        dtype = weight.dtype
        scale = np.ones(co, dtype=dtype)
        shift = np.zeros(co, dtype=dtype)
        for op, operand, _ in chain:
            cvec = np.broadcast_to(
                operand.array.reshape(-1), (co,)).astype(dtype, copy=True)
            if op.op_name == "add":
                shift = shift + cvec
            elif op.op_name == "mul":
                scale = scale * cvec
                shift = shift * cvec
            else:
                scale = scale / cvec
                shift = shift / cvec
        new_weight = weight.array * scale.reshape(co, 1, 1, 1)
        old_bias = bias.array if bias is not None else np.zeros(co, dtype=dtype)
        new_bias = old_bias * scale + shift
        weight_value = _Value("const", new_weight.shape, new_weight.dtype,
                              array=new_weight, is_const=True)
        bias_value = _Value("const", new_bias.shape, new_bias.dtype,
                            array=new_bias, is_const=True)
        node.inputs = [node.inputs[0], weight_value, bias_value]
        node.out = chain[-1][0].out
        removed.update(op for op, _, _ in chain)
    graph.nodes = [n for n in graph.nodes if n not in removed]
    return len(removed)


def _fuse_epilogues(graph: _Graph) -> None:
    """Fuse each constant-parameter conv's epilogue into the conv step.

    The epilogue is the sole-consumer chain after the conv: add/mul/div
    by per-channel constants (a frozen BatchNorm: one ``mul`` by its
    scale, one ``add`` of its shift), adds of residuals computed before
    the conv, then at most one relu/tanh/sigmoid.  The step replays each
    op as the same ufunc on the same operands, in place on the conv's
    output buffer, so the bits equal eager's.
    """
    uses = graph.consumers()
    ready = {graph.input}
    absorbed: set = set()
    for node in graph.nodes:
        if node in absorbed:
            continue
        if node.op_name == "conv2d" and _const_conv_params(node) is not None:
            chain = _epilogue_chain(graph, uses, node, ready)
            value = chain[-1][0].out if chain else node.out
            consumers = uses.get(value, [])
            if value is not graph.output and len(consumers) == 1:
                act, _ = consumers[0]
                if (act.op_name in _FUSABLE_ACTIVATIONS
                        and len(act.inputs) == 1):
                    node.activation = act.op_name
                    value = act.out
                    absorbed.add(act)
            node.epilogue = [(op.op_name, operand, position)
                             for op, operand, position in chain]
            node.out = value
            absorbed.update(op for op, _, _ in chain)
        ready.add(node.out)
    graph.nodes = [n for n in graph.nodes if n not in absorbed]


def _eliminate_dead_code(graph: _Graph) -> int:
    # Walk producers from the output; frozen constants count as leaves, so
    # the chains that computed them at trace time are never reached and drop
    # out of the per-call step list.
    producer = {node.out: node for node in graph.nodes
                if not _is_const(node.out)}
    needed_nodes: set = set()
    seen: set = set()
    stack = [graph.output]
    while stack:
        value = stack.pop()
        if value in seen:
            continue
        seen.add(value)
        node = producer.get(value)
        if node is not None:
            needed_nodes.add(node)
            stack.extend(node.operands())
    before = len(graph.nodes)
    graph.nodes = [n for n in graph.nodes if n in needed_nodes]
    return before - len(graph.nodes)


# --------------------------------------------------------------------------- #
# Steps
# --------------------------------------------------------------------------- #
class _Step:
    """One executable unit of a plan.

    ``refs`` names the arena buffers the step owns (``cols_ref`` or a
    shifted conv's ``acc_ref``/``tmp_ref``, ``mask_ref``, ``argmax_ref``,
    ``out_ref``) in reservation order; all
    but ``out_ref`` are scratch, free again once the step has run.
    ``bind(arena, regs)`` resolves them after the arena is finalized,
    publishes ``out_ref`` as the step's output register and builds
    ``run(regs)`` as a closure over the concrete arrays.  ``kind``
    distinguishes specialized (arena-backed, in-place) steps from ``view``
    and ``generic`` fallback steps; ``streamed`` is a streamed conv's
    row-band schedule.  A conv step names the add/mul/div ops fused into
    it in ``epilogue`` and its fused activation in ``activation``.
    """

    def __init__(self, kind: str, node: _Node,
                 build: Callable[[Dict[str, np.ndarray]], Callable],
                 refs: Optional[Dict[str, BufferRef]] = None, *,
                 epilogue: Tuple[str, ...] = (),
                 activation: Optional[str] = None,
                 streamed: Optional[StreamedConv] = None):
        self.kind = kind
        self.op_name = node.op_name
        self.layer = node.layer
        self.epilogue = epilogue
        self.activation = activation
        self.streamed = streamed
        self.refs: Dict[str, BufferRef] = refs or {}
        self.run: Optional[Callable[[List[Optional[np.ndarray]]], None]] = None
        self._out = node.out.index
        self._build = build

    def bind(self, arena: BufferArena, regs: List[Optional[np.ndarray]]) -> None:
        arrays = {name: arena.array(ref) for name, ref in self.refs.items()}
        if "out_ref" in arrays:
            regs[self._out] = arrays["out_ref"]
        self.run = self._build(arrays)


def _activation(name: str, mask: Optional[np.ndarray]):
    """``act(src, out)``: the eager bits of a fusable activation written into
    ``out``, which may be ``src``.  relu replays ``a * (a > 0)`` through the
    bool buffer ``mask``."""
    if name == "relu":
        def relu(src, out):
            np.greater(src, 0, out=mask)
            np.multiply(src, mask, out=out)
        return relu
    if name == "tanh":
        return lambda src, out: np.tanh(src, out=out)

    def sigmoid(src, out):
        np.negative(src, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        np.divide(1.0, out, out=out)
    return sigmoid


def _epilogue_op(op_name: str, operand: int, position: int):
    """``op(out, regs)``: one fused add/mul/div in place on ``out``, the
    conv value in traced input slot ``position``, the other operand read
    from register ``operand``."""
    ufunc = _UFUNCS[op_name]
    if position:
        return lambda out, regs: ufunc(regs[operand], out, out=out)
    return lambda out, regs: ufunc(out, regs[operand], out=out)


def _view_step(node: _Node, ins: List[int]) -> _Step:
    """reshape/transpose/getitem: rebind the output register per call."""
    kwargs, src, out = node.kwargs, ins[0], node.out.index
    if node.op_name == "reshape":
        view = methodcaller("reshape", kwargs["shape"])
    elif node.op_name == "transpose":
        view = methodcaller("transpose", kwargs["axes"])
    else:  # getitem
        view = itemgetter(kwargs["index"])

    def run(regs):
        regs[out] = view(regs[src])
    return _Step("view", node, lambda arrays: run)


def _generic_step(node: _Node, ins: List[int]) -> _Step:
    """Fallback: execute the op's own forward, fresh output per call."""
    forward, kwargs, out = node.op.forward, node.kwargs, node.out.index

    def run(regs):
        regs[out] = forward(*[regs[i] for i in ins], **kwargs)[0]
    return _Step("generic", node, lambda arrays: run)


# --------------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------------- #
_VIEW_OPS = ("reshape", "transpose", "getitem")
_UFUNCS = {"add": np.add, "mul": np.multiply, "div": np.true_divide,
           "maximum": np.maximum, "neg": np.negative, "exp": np.exp,
           "log": np.log, "abs": np.absolute, "tanh": np.tanh}


@dataclass
class PlanStats:
    """Compile-time accounting of an :class:`InferencePlan`.

    ``fused_activations`` counts the conv steps ending in a relu, tanh or
    sigmoid, ``epilogue_ops`` the add/mul/div ops run in place inside
    conv steps (two per frozen BatchNorm, one per residual add) — both
    read from the lowered steps, so loaded and bound plans report them
    too.  ``frozen_consts``, ``folded_ops`` and ``dce_removed`` are pass
    counts known only to :func:`compile`.
    """

    steps: int = 0
    specialized: int = 0
    views: int = 0
    generic: int = 0
    streamed_convs: int = 0
    fused_activations: int = 0
    epilogue_ops: int = 0
    frozen_consts: int = 0
    folded_ops: int = 0
    dce_removed: int = 0
    #: Largest single-band column block any streamed conv actually needs.
    #: May exceed ``memory_budget`` when the MIN_BAND_ROWS floor wins —
    #: that is the *achievable* peak, and a UserWarning names the layer.
    streaming_peak_bytes: int = 0
    step_counts: Dict[str, int] = field(default_factory=dict)
    arena: ArenaStats = field(default_factory=ArenaStats)
    #: Arena peak bytes per bound batch size; the dict is shared between a
    #: plan and everything :meth:`InferencePlan.bind` derives from it, so
    #: any plan in the family reports the peaks of all of them.
    batch_peaks: Dict[int, int] = field(default_factory=dict)


@dataclass
class _Lowering:
    """What an op lowering reserves buffers in and records into."""

    arena: BufferArena
    memory_budget: Optional[int]
    stats: PlanStats
    registers: List[Optional[np.ndarray]]
    #: Values whose register is a live arena buffer: C-contiguous, of
    #: exactly the value's shape.
    live: Dict[_Value, BufferRef]

    def output(self, node: _Node) -> BufferRef:
        return self.arena.reserve(node.out.shape, node.out.dtype)


def _out_step(kind: str, cx: _Lowering, node: _Node, make_run) -> _Step:
    """A step whose one buffer is its output; ``make_run(out)`` is its run."""
    return _Step(kind, node, lambda arrays: make_run(arrays["out_ref"]),
                 {"out_ref": cx.output(node)})


#: The ``repro`` package directory, whose frames a warning points past.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(__file__)) + os.sep


def _caller_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, seen from the calling function, of
    the first frame outside the ``repro`` package: the user's line, however
    deep ``compile``, ``load`` or ``bind`` reached the warning."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(
            _PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def _band_schedule(cx: _Lowering, node: _Node, kernel: Tuple[int, int],
                   feat: int) -> Optional[StreamedConv]:
    """The row-band schedule of an im2col conv whose ``(N, feat, OH·OW)``
    column block exceeds ``memory_budget``, else ``None``."""
    memory_budget, stats = cx.memory_budget, cx.stats
    nb, oh, ow = node.out.shape[0], node.out.shape[2], node.out.shape[3]
    row_bytes = nb * feat * ow * node.inputs[0].dtype.itemsize
    if not memory_budget or oh <= 1 or row_bytes * oh <= memory_budget:
        return None
    band_rows = band_plan(oh, row_bytes, memory_budget)
    if band_rows >= oh:
        return None
    band_bytes = band_rows * row_bytes
    overrun = band_overrun(band_rows, row_bytes, memory_budget)
    if overrun:
        warnings.warn(
            f"memory_budget={memory_budget} is not achievable for conv "
            f"layer '{node.layer or '<root>'}': the "
            f"MIN_BAND_ROWS={MIN_BAND_ROWS} floor needs {band_bytes} bytes "
            f"per band ({overrun} over budget)", UserWarning,
            stacklevel=_caller_stacklevel())
    stats.streaming_peak_bytes = max(stats.streaming_peak_bytes, band_bytes)
    stats.streamed_convs += 1
    return StreamedConv(kernel=kernel,
                        stride=tuple(node.kwargs["stride"]),
                        band_rows=band_rows, out_hw=(oh, ow))


def _lower_conv(cx: _Lowering, node: _Node, ins: List[int]) -> Optional[_Step]:
    """A convolution into arena memory; after the bias add, the node's
    epilogue runs in place on the output buffer, whichever way the conv
    was computed.  The bias and the epilogue's per-channel constants
    (a frozen BatchNorm's scale and shift) are read as their ``(1, C, 1,
    1)`` arrays and broadcast by each ufunc: pre-broadcast ``(1, C, OH,
    OW)`` planes sped the resnet20 epilogues up by only 1–4% and cost
    every loaded program a copy of them.

    A conv that :func:`~repro.nn.functional.shifted_conv_applies` to runs
    the shifted GEMM over a zero-bordered copy of its input, exactly as
    eager inference does, and has no column block to band.  A 1x1,
    stride-1, unpadded conv over a live arena buffer skips im2col too: its
    columns would be a byte-equal copy of the input in the same layout, so
    the GEMM reads the input directly, with the same bits.  Every other
    conv gathers im2col columns, in row bands over ``memory_budget``.
    """
    params = _const_conv_params(node)
    if params is None:
        return None
    weight, bias = params
    arena = cx.arena
    nb, ci, h, w = node.inputs[0].shape
    co, _, kh, kw = weight.array.shape
    oh, ow = node.out.shape[2], node.out.shape[3]
    x_dtype = node.inputs[0].dtype
    feat = ci * kh * kw
    kernel, stride = (kh, kw), tuple(node.kwargs["stride"])
    ph, pw = node.kwargs["padding"]
    shifted = shifted_conv_applies(ci, co, kernel, stride)
    direct = (not shifted and kernel == (1, 1) and stride == (1, 1)
              and (ph, pw) == (0, 0) and node.inputs[0] in cx.live)
    stream = (None if shifted or direct
              else _band_schedule(cx, node, kernel, feat))
    padded = None
    padded_shape = (nb, ci, h + 2 * ph, w + 2 * pw)
    center = (slice(None), slice(None), slice(ph, ph + h), slice(pw, pw + w))
    if shifted:
        # Shifted convs of one geometry share their zero-bordered copy;
        # each im2col conv keeps its own, the layout saved plans store.
        padded = arena.shared_zeros_array(padded_shape, x_dtype, (ph, pw))
        span = (oh - 1) * padded_shape[3] + ow
        refs = {name: arena.reserve((nb, co, span), node.out.dtype)
                for name in ("acc_ref", "tmp_ref")}
    elif direct:
        refs = {}
    else:
        if ph or pw:
            padded = arena.zeros_array(padded_shape, x_dtype)
        cols_w = ow * (oh if stream is None else stream.band_rows)
        refs = {"cols_ref": arena.reserve((nb, feat, cols_w), x_dtype)}
    if node.activation == "relu":
        refs["mask_ref"] = arena.reserve(node.out.shape, np.bool_)
    refs["out_ref"] = cx.output(node)

    activation = node.activation
    src = ins[0]
    # A shifted conv keeps only its weights' tap layout.
    taps = shifted_conv_taps(weight.array) if shifted else None
    w_mat = None if shifted else weight.array.reshape(co, -1)
    bias_r = None if bias is None else bias.array.reshape(1, co, 1, 1)
    ops = [_epilogue_op(op_name, operand.index, position)
           for op_name, operand, position in node.epilogue]

    def build(arrays):
        cols, out4 = arrays.get("cols_ref"), arrays["out_ref"]
        out3d = out4.reshape(nb, co, oh * ow)
        act = (_activation(activation, arrays.get("mask_ref"))
               if activation else None)
        conv = (shifted_conv(padded.reshape(nb, ci, -1), taps, kernel,
                             padded.shape[3], arrays["acc_ref"],
                             arrays["tmp_ref"], out4)
                if shifted else None)

        def run(regs):
            x = regs[src]
            if conv is not None:
                padded[center] = x
                conv()
            elif direct:
                np.matmul(w_mat, x.reshape(nb, ci, h * w), out=out3d)
            elif stream is not None:
                stream.run(x, x if padded is None else padded, cols, w_mat,
                           out3d)
            else:
                if padded is not None:
                    padded[center] = x
                    x = padded
                im2col_out(x, kernel, stride, (0, 0), out=cols)
                np.matmul(w_mat, cols, out=out3d)
            if bias_r is not None:
                np.add(out4, bias_r, out=out4)
            for op in ops:
                op(out4, regs)
            if act is not None:
                act(out4, out4)
        return run

    return _Step("conv", node, build, refs,
                 epilogue=tuple(op_name for op_name, _, _ in node.epilogue),
                 activation=activation, streamed=stream)


def _lower_pool(cx: _Lowering, node: _Node, ins: List[int]) -> _Step:
    """Max or avg pooling over an im2col window block in arena memory."""
    nb, c = node.inputs[0].shape[:2]
    kernel, stride = node.kwargs["kernel"], node.kwargs["stride"]
    oh, ow = node.out.shape[2], node.out.shape[3]
    window = kernel[0] * kernel[1]
    is_max = node.op_name == "max_pool2d"
    refs = {"cols_ref": cx.arena.reserve((nb, c * window, oh * ow),
                                         node.inputs[0].dtype)}
    if is_max:
        refs["argmax_ref"] = cx.arena.reserve((nb, c, oh * ow), np.intp)
    refs["out_ref"] = cx.output(node)
    src = ins[0]

    def build(arrays):
        cols, out4 = arrays["cols_ref"], arrays["out_ref"]
        cols4 = cols.reshape(nb, c, window, oh * ow)
        if not is_max:
            out3 = out4.reshape(nb, c, oh * ow)

            def run(regs):
                im2col_out(regs[src], kernel, stride, (0, 0), out=cols)
                np.mean(cols4, axis=2, out=out3)
            return run
        argmax = arrays["argmax_ref"]
        index = argmax[:, :, None, :]

        def run(regs):
            im2col_out(regs[src], kernel, stride, (0, 0), out=cols)
            np.argmax(cols4, axis=2, out=argmax)
            taken = np.take_along_axis(cols4, index, axis=2)
            np.copyto(out4, taken.reshape(out4.shape))
        return run

    return _Step("max_pool" if is_max else "avg_pool", node, build, refs)


def _lower_activation(cx: _Lowering, node: _Node, ins: List[int]) -> _Step:
    """Standalone relu/sigmoid through the epilogue the conv step fuses."""
    name, src = node.op_name, ins[0]
    refs = {}
    if name == "relu":
        refs["mask_ref"] = cx.arena.reserve(node.inputs[0].shape, np.bool_)
    refs["out_ref"] = cx.output(node)

    def build(arrays):
        act, out = _activation(name, arrays.get("mask_ref")), arrays["out_ref"]
        return lambda regs: act(regs[src], out)
    return _Step(name, node, build, refs)


def _lower_pad(cx: _Lowering, node: _Node, ins: List[int]) -> _Step:
    """pad2d into a dedicated zero buffer: borders are written once at
    compile time, only the center is copied per call."""
    out = cx.arena.zeros_array(node.out.shape, node.out.dtype)
    cx.registers[node.out.index] = out
    padding, ndim, src = node.kwargs["padding"], len(node.out.shape), ins[0]
    center = tuple(slice(None) if i < ndim - 2 else slice(padding, -padding)
                   for i in range(ndim))

    def run(regs):
        out[center] = regs[src]
    return _Step("pad", node, lambda arrays: run)


def _lower_ufunc(cx: _Lowering, node: _Node,
                 ins: List[int]) -> Optional[_Step]:
    """One numpy ufunc with an ``out=`` destination in the arena."""
    ufunc = _UFUNCS[node.op_name]
    if len(ins) != ufunc.nin:
        return None
    if ufunc.nin == 2:
        a, b = ins
        return _out_step("eltwise", cx, node, lambda out: lambda regs: ufunc(
            regs[a], regs[b], out=out))
    a, = ins
    return _out_step("eltwise", cx, node,
                     lambda out: lambda regs: ufunc(regs[a], out=out))


def _lower_matmul(cx: _Lowering, node: _Node,
                  ins: List[int]) -> Optional[_Step]:
    if any(len(v.shape) < 2 for v in node.inputs):
        return None
    a, b = ins
    return _out_step("matmul", cx, node, lambda out: lambda regs: np.matmul(
        regs[a], regs[b], out=out))


def _lower_concat(cx: _Lowering, node: _Node, ins: List[int]) -> _Step:
    axis = node.kwargs["axis"]
    return _out_step("concat", cx, node, lambda out: lambda regs:
                     np.concatenate([regs[i] for i in ins], axis=axis,
                                    out=out))


def _lower_clip(cx: _Lowering, node: _Node, ins: List[int]) -> _Step:
    src, low, high = ins[0], node.kwargs["low"], node.kwargs["high"]
    return _out_step("clip", cx, node, lambda out: lambda regs: np.clip(
        regs[src], low, high, out=out))


def _lower_max(cx: _Lowering, node: _Node, ins: List[int]) -> _Step:
    """max reduction into the arena.

    Only ``max`` lowers here: it is exact (no rounding), so the reduction
    order an ``out=`` destination induces cannot change bits.  ``sum``
    with ``out=`` skips numpy's pairwise accumulation and *does* change
    bits, so sum reductions stay on the generic path.
    """
    src, axis, keepdims = ins[0], node.kwargs["axis"], node.kwargs["keepdims"]
    return _out_step("reduce", cx, node, lambda out: lambda regs: np.max(
        regs[src], axis=axis, keepdims=keepdims, out=out))


#: Op name -> lowering onto the arena; a lowering returns ``None`` when this
#: node needs the generic fallback.
_LOWERINGS = {
    "conv2d": _lower_conv,
    "max_pool2d": _lower_pool,
    "avg_pool2d": _lower_pool,
    "relu": _lower_activation,
    "sigmoid": _lower_activation,
    "pad2d": _lower_pad,
    "matmul": _lower_matmul,
    "concatenate": _lower_concat,
    "clip": _lower_clip,
    "max": _lower_max,
    **dict.fromkeys(_UFUNCS, _lower_ufunc),
}


def _value_order(graph: _Graph) -> List[_Value]:
    """Every graph value once, in register order: the input, each node's
    operands then output, and the output.  The lowering and the wire form
    both index values by it."""
    values = [graph.input]
    for node in graph.nodes:
        values.extend(node.operands())
        values.append(node.out)
    values.append(graph.output)
    return list(dict.fromkeys(values))


def _lower(graph: _Graph, program, backend: Backend, batch: int,
           stats: PlanStats) -> "InferencePlan":
    """Lower ``graph``, the ``program`` decoded at ``batch``, into a plan."""
    values = _value_order(graph)
    for index, value in enumerate(values):
        value.index = index

    # View outputs alias their base value's storage; liveness is tracked on
    # the base so a buffer is only recycled once every view of it is dead.
    alias: Dict[_Value, _Value] = {}
    for node in graph.nodes:
        if node.op_name in _VIEW_OPS:
            alias[node.out] = node.inputs[0]

    def base_of(value: _Value) -> _Value:
        while value in alias:
            value = alias[value]
        return value

    last_use: Dict[_Value, int] = {}
    for i, node in enumerate(graph.nodes):
        for value in node.operands():
            last_use[base_of(value)] = i

    out_base = base_of(graph.output)
    arena = BufferArena()
    registers: List[Optional[np.ndarray]] = [None] * len(values)
    live: Dict[_Value, BufferRef] = {}
    cx = _Lowering(arena, program.memory_budget, stats, registers, live)
    steps: List[_Step] = []

    for i, node in enumerate(graph.nodes):
        ins = [v.index for v in node.inputs]
        step = None
        if node.op_name in _VIEW_OPS:
            step = _view_step(node, ins)
        elif node.op_name in _LOWERINGS:
            step = _LOWERINGS[node.op_name](cx, node, ins)
        if step is None:
            step = _generic_step(node, ins)
        steps.append(step)

        for name, ref in step.refs.items():
            if name == "out_ref":
                live[node.out] = ref
            else:
                arena.release(ref)
        # Deduplicate in input order, not via a set: set iteration follows
        # object ids, which would make the free-list order — and therefore
        # tie-breaks between equal-capacity buffers — nondeterministic
        # across processes.  Serialized plans rely on the lowering being a
        # pure function of the graph.
        bases: List[_Value] = []
        for value in node.operands():
            base = base_of(value)
            if base not in bases:
                bases.append(base)
        for value in bases:
            if value is out_base or value not in live:
                continue
            if last_use.get(value, -1) == i:
                arena.release(live.pop(value))

    arena.finalize()
    for value in values:
        if _is_const(value):
            registers[value.index] = value.array
    for step in steps:
        step.bind(arena, registers)

    counts = stats.step_counts
    for step in steps:
        counts[step.kind] = counts.get(step.kind, 0) + 1
    stats.steps = len(steps)
    stats.views = counts.get("view", 0)
    stats.generic = counts.get("generic", 0)
    stats.specialized = stats.steps - stats.views - stats.generic
    stats.fused_activations = sum(s.activation is not None for s in steps)
    stats.epilogue_ops = sum(len(s.epilogue) for s in steps)
    stats.arena = arena.stats
    stats.batch_peaks[int(batch)] = arena.stats.peak_bytes

    return InferencePlan(steps, registers, arena, backend, program,
                         graph.input.index, graph.output.index,
                         batch=batch, stats=stats)


# --------------------------------------------------------------------------- #
# The plan object
# --------------------------------------------------------------------------- #
class InferencePlan:
    """A compiled forward pass: flat steps over preallocated buffers.

    Call it like the model it was compiled from — ``plan(x)`` returns a
    :class:`~repro.nn.tensor.Tensor` — but the input must match the
    compiled ``(batch, *input_shape)`` geometry and dtype exactly (a
    batch bound via :meth:`bind` is also accepted and dispatched to the
    bound plan).  The returned array is a copy, so holding it across
    calls is safe; the plan itself is not thread-safe (it owns one
    buffer arena).

    Every plan carries the symbolic-batch program it was lowered from
    (:class:`~repro.deploy.serialize.PlanProgram`):
    :meth:`to_bytes`/:meth:`save` emit the versioned ``repro-plan/2``
    container (program, raw weights, step and arena layout),
    :meth:`from_bytes`/:meth:`load` rebuild a bit-identical plan from it,
    and :meth:`bind` re-derives the buffer layout for another batch size
    without re-tracing the model.
    """

    def __init__(self, steps, registers, arena, backend, program,
                 input_index, output_index, *, batch, stats):
        self._steps = steps
        self._registers = registers
        self._arena = arena
        self._backend = backend
        self._program = program
        self._input_index = input_index
        self._output_index = output_index
        self.input_shape = tuple(program.input_shape)
        self.batch = int(batch)
        self.input_dtype = np.dtype(program.input_dtype)
        self.memory_budget = program.memory_budget
        self.stats = stats
        # The bind() family: batch -> weak reference to its plan, shared by
        # every member, while each plan holds the plans its own bind()
        # made.  Weak family links keep the family acyclic, so a dropped
        # plan frees its buffers by reference counting, not at the next
        # cyclic collection.
        self._family: Dict[int, "weakref.ReferenceType[InferencePlan]"] = {}
        self._bound: Dict[int, "InferencePlan"] = {}

    @property
    def steps(self) -> List[_Step]:
        """The executable steps, in order (read-only by convention)."""
        return list(self._steps)

    @property
    def peak_buffer_bytes(self) -> int:
        """Total bytes of preallocated intermediate memory."""
        return self._arena.stats.peak_bytes

    def _check_input(self, x) -> np.ndarray:
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        expected = (self.batch,) + self.input_shape
        if tuple(data.shape) != expected:
            raise ValueError(
                f"plan compiled for input shape {expected}, got {tuple(data.shape)}; "
                f"recompile with the matching batch/input_shape")
        if data.dtype != self.input_dtype:
            raise ValueError(
                f"plan compiled for dtype {self.input_dtype}, got {data.dtype}")
        return data

    def _run(self, x, timings: Optional[List[Tuple[str, float, str]]]
             ) -> Tensor:
        """The one forward loop; appends per-step timings when given a list.

        An input whose leading dimension matches a bound batch runs on
        that bound plan.
        """
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if (data.ndim == len(self.input_shape) + 1
                and data.shape[0] != self.batch
                and tuple(data.shape[1:]) == self.input_shape):
            bound = self._member(int(data.shape[0]))
            if bound is not None and bound is not self:
                return bound._run(data, timings)
        data = self._check_input(data)
        registers = self._registers
        registers[self._input_index] = data
        try:
            # Grad mode off, as under eager inference: a generic conv step
            # runs the op's forward, which picks its kernel by grad mode.
            with use_backend(self._backend), no_grad():
                for step in self._steps:
                    if timings is None:
                        step.run(registers)
                        continue
                    start = time.perf_counter()
                    step.run(registers)
                    elapsed = time.perf_counter() - start
                    name = step.op_name
                    if step.activation is not None:
                        name = f"{name}+{step.activation}"
                    timings.append((name, elapsed, step.layer))
            return Tensor(registers[self._output_index].copy())
        finally:
            registers[self._input_index] = None

    def __call__(self, x) -> Tensor:
        return self._run(x, None)

    def profile_steps(self, x) -> Tuple[Tensor, List[Tuple[str, float, str]]]:
        """Run once, timing each step.

        Returns ``(output, [(op_name, seconds, layer), ...])`` where
        ``layer`` is the dot path of the module that produced the step's
        op in the traced forward — the same paths the eager profiler
        reports, so per-layer attributions line up.  Dispatches to a
        bound batch exactly like a plain call.
        """
        timings: List[Tuple[str, float, str]] = []
        return self._run(x, timings), timings

    # ------------------------------------------------------------------ #
    # Batch re-binding
    # ------------------------------------------------------------------ #
    def bind(self, batch: int) -> "InferencePlan":
        """A plan serving ``batch``, derived from this plan's program.

        Re-derives every buffer shape from the symbolic-batch layout and
        re-runs only the lowering — the model is **not** re-traced.  The
        bound plan shares this plan's weights, program and
        ``stats.batch_peaks`` (which gains the new batch's arena peak),
        and calling any plan in the family with an input whose leading
        dimension matches a bound batch dispatches to the right one.
        Results are cached: ``plan.bind(k)`` is the same object on every
        call, and the plan keeps the plans it bound alive.
        """
        batch = int(batch)
        self._family[self.batch] = weakref.ref(self)
        if batch == self.batch:
            return self
        bound = self._member(batch)
        if bound is not None:
            return bound
        if batch < 1:
            raise ValueError("batch must be >= 1")
        from . import serialize as _serialize
        plan = _serialize.bind_program(self._program, batch,
                                       backend=self._backend)
        plan._family = self._family
        self._family[batch] = weakref.ref(plan)
        self._bound[batch] = plan
        plan.stats.batch_peaks = self.stats.batch_peaks
        self.stats.batch_peaks[batch] = plan.peak_buffer_bytes
        return plan

    def _member(self, batch: int) -> Optional["InferencePlan"]:
        """The live plan of this family bound to ``batch``, if any."""
        ref = self._family.get(batch)
        return None if ref is None else ref()

    # ------------------------------------------------------------------ #
    # Serialization (repro-plan/2)
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """The versioned ``repro-plan/2`` container of this plan."""
        from . import serialize as _serialize
        return _serialize.plan_to_bytes(self)

    def save(self, path) -> str:
        """Write the ``repro-plan/2`` container to ``path``."""
        from . import serialize as _serialize
        return _serialize.save_plan(self, path)

    @classmethod
    def from_bytes(cls, data) -> "InferencePlan":
        """Rebuild a plan from a ``repro-plan/2`` container.

        Rejects damaged framing, header or weight bytes (one digest
        each), unknown schema versions and containers whose stored
        step/arena layout disagrees with the re-lowered plan.  The
        rebuilt plan's forwards are bit-identical to the plan that was
        serialized; its constants are read-only views into ``data``.
        """
        from . import serialize as _serialize
        return _serialize.plan_from_bytes(data)

    @classmethod
    def load(cls, path) -> "InferencePlan":
        """Read a plan saved by :meth:`save` (same checks as from_bytes)."""
        from . import serialize as _serialize
        return _serialize.load_plan(path)

    def __repr__(self) -> str:
        return (f"InferencePlan(steps={len(self._steps)}, "
                f"batch={self.batch}, input_shape={self.input_shape}, "
                f"dtype={self.input_dtype}, "
                f"peak_buffer_bytes={self.peak_buffer_bytes})")


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def _trace_graph(model: Module, backend: Backend, batch: int,
                 input_shape) -> _Graph:
    """Trace one eval-mode forward at ``batch`` into a dataflow graph."""
    dummy = Tensor(np.zeros((batch,) + input_shape, dtype=backend.dtype))
    records: List[OpRecord] = []
    with no_grad(), observe_ops(records.append):
        out = model(dummy)
    if not records:
        raise ValueError("model executed no traceable ops")
    return _build_graph(records, dummy.data, out.data)


def _optimize_graph(graph: _Graph, *, fold_bn: bool,
                    stats: Optional[PlanStats] = None) -> _Graph:
    """Run the standard pass pipeline in place (deterministic per graph)."""
    frozen = _freeze_consts(graph)
    folded = _fold_affine_chains(graph) if fold_bn else 0
    _fuse_epilogues(graph)
    removed = _eliminate_dead_code(graph)
    if stats is not None:
        stats.frozen_consts = frozen
        stats.folded_ops = folded
        stats.dce_removed = removed
    return graph


def compile(model: Module, input_shape, *, batch: int = 1,
            memory_budget: Optional[int] = None, fold_bn: bool = False,
            backend: Optional[BackendLike] = None) -> InferencePlan:
    """Compile ``model`` into a static :class:`InferencePlan`.

    Traces inference-mode forwards over zero inputs at ``batch`` and
    ``batch + 1``, optimizes the recorded graphs, builds their
    symbolic-batch program and lowers it onto a preallocated buffer
    arena.  If the second trace fails or diverges, the program is
    fixed-batch: the plan saves and loads, but binds only ``batch``.

    Parameters
    ----------
    model:
        The module to compile.  It is switched to ``eval()`` for the
        trace and restored afterwards.
    input_shape:
        Per-sample input shape, e.g. ``(3, 32, 32)``.
    batch:
        Batch size the plan is specialized for (buffer shapes are static).
    memory_budget:
        Optional byte budget for any single im2col column block; larger
        im2col convolutions are streamed in row bands.  Shifted-GEMM
        convs (stride 1, at least 16 input channels, not widening) build
        no column block and are never banded.  Bands cut at whole
        16-column GEMM tiles are bit-identical; ragged output widths
        (15, 7) are floating-point-tolerance equal (see
        :mod:`repro.deploy.tiling`).
    fold_bn:
        Fold inference-mode BatchNorm affine chains into the preceding
        convolution weights.  Faster, but equal only to floating-point
        tolerance; off by default to preserve bit-identity.
    backend:
        Backend name (e.g. ``"numpy32"``) or :class:`~repro.nn.Backend`
        record whose default dtype the model is traced and the plan is
        run under; defaults to the active backend.
    """
    backend = current_backend() if backend is None else get_backend(backend)
    input_shape = tuple(int(s) for s in input_shape)
    batch = int(batch)
    stats = PlanStats()
    with use_backend(backend):
        was_training = bool(getattr(model, "training", False))
        model.eval()
        try:
            graph = _trace_graph(model, backend, batch, input_shape)
            # Second trace one batch up, for the batch-polymorphic
            # program.  A model that cannot run at batch + 1 (a reshape
            # hard-coding the batch) is still a valid fixed-batch model.
            try:
                graph_next = _trace_graph(model, backend, batch + 1,
                                          input_shape)
            except Exception:
                graph_next = None
        finally:
            if was_training:
                model.train()
        _optimize_graph(graph, fold_bn=fold_bn, stats=stats)
        if graph_next is not None:
            _optimize_graph(graph_next, fold_bn=fold_bn)
        from . import serialize as _serialize
        program = _serialize.program_from_graphs(
            graph, graph_next, batch=batch, backend=backend,
            input_shape=input_shape, memory_budget=memory_budget)
        return _serialize.bind_program(program, batch, backend=backend,
                                       stats=stats)
