"""Trace-based compilation of a model into a static inference plan.

:func:`compile` runs one abstract forward pass of a model under the op
tracer (:func:`repro.nn.trace_ops`), reconstructs the dataflow graph of
registered ops, optimizes it (constant freezing, optional BatchNorm
folding, dead-filter elision, activation fusion, dead-code elimination)
and lowers it onto a :class:`~repro.deploy.arena.BufferArena` of
preallocated, liveness-reused buffers.  The result is an
:class:`InferencePlan`: a flat list of steps whose heavy ops write into
memory that already exists — ``plan(x)`` performs no large allocations.

Numerical contract: with the default options a plan forward is
**bit-identical** to the eager ``model(x)`` under ``no_grad()``.  Every
specialized step replays the exact eager kernel with an ``out=``
destination (the in-place substitutions are verified bit-exact for the
numpy backend); anything without a verified in-place form falls back to
the op's own forward.  Two opt-ins trade bits for speed/memory:
``fold_bn=True`` folds inference-mode BatchNorm affine chains into the
preceding convolution's weights (equal only to floating-point
tolerance), and ``memory_budget=`` streams oversized convolutions in row
bands (same tolerance caveat, see :mod:`repro.deploy.tiling`).

Plans are snapshots: parameter arrays are bound by reference where the
trace uses them directly, but any value derived from parameters (masked
weights, BatchNorm scale chains) is baked at compile time.  Recompile
after mutating a model.  A plan is not thread-safe — it owns one set of
buffers; compile one plan per thread instead.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..nn.backend import Backend, current_backend, get_backend, use_backend
from ..nn.module import Module
from ..nn.tensor import (
    Tensor,
    add_op_hook,
    current_layer,
    no_grad,
    remove_op_hook,
    trace_ops,
)
from .arena import ArenaStats, BufferArena, BufferRef
from .tiling import MIN_BAND_ROWS, StreamedConv, band_overrun, band_plan

__all__ = ["compile", "InferencePlan", "PlanStats"]


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
class _TraceRecord:
    __slots__ = ("op", "arrays", "kwargs", "out", "layer")

    def __init__(self, op, arrays, kwargs, out, layer):
        self.op = op
        self.arrays = arrays
        self.kwargs = kwargs
        self.out = out
        self.layer = layer


class _Tracer:
    """Collects one :class:`_TraceRecord` per executed op, in order.

    Records hold references to every input/output array, so ``id()`` keys
    stay unique for the lifetime of the trace.
    """

    def __init__(self):
        self.records: List[_TraceRecord] = []

    def record(self, op, arrays, kwargs, out) -> None:
        self.records.append(
            _TraceRecord(op, arrays, dict(kwargs), out, current_layer()))


def _noop_hook(name: str, seconds: float, layer: str) -> None:
    # Installed during tracing only so Module.__call__ pushes layer scopes
    # (current_layer() then yields the same dot paths the eager profiler
    # reports).
    pass


# --------------------------------------------------------------------------- #
# Graph IR
# --------------------------------------------------------------------------- #
class _Value:
    """One array in the traced dataflow: input, constant or op temporary."""

    __slots__ = ("kind", "shape", "dtype", "producer", "array", "is_const",
                 "index")

    def __init__(self, kind: str, shape, dtype, array=None, is_const=False):
        self.kind = kind                    # "input" | "const" | "temp"
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.producer: Optional["_Node"] = None
        self.array = array                  # traced/bound array (may be None)
        self.is_const = is_const
        self.index: Optional[int] = None    # register slot, set at lowering


class _Node:
    """One traced op application."""

    __slots__ = ("op", "op_name", "inputs", "kwargs", "out", "layer",
                 "activation")

    def __init__(self, op, inputs, kwargs, out, layer):
        self.op = op
        self.op_name = op.name
        self.inputs: List[_Value] = inputs
        self.kwargs: Dict[str, Any] = kwargs
        self.out: _Value = out
        self.layer = layer
        self.activation: Optional[str] = None  # fused into conv steps


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


def _build_graph(records: List[_TraceRecord], input_array: np.ndarray,
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
        node = _Node(record.op, inputs, record.kwargs, out, record.layer)
        out.producer = node
        values[id(record.out)] = out
        nodes.append(node)

    output_value = values.get(id(output_array))
    if output_value is None:
        raise RuntimeError("model output was not produced by a traced op")
    return _Graph(nodes, input_value, output_value)


# --------------------------------------------------------------------------- #
# Optimization passes
# --------------------------------------------------------------------------- #
def _freeze_consts(graph: _Graph) -> int:
    """Turn const-valued temporaries into leaves holding their traced array.

    The traced array *is* the op's exact result, so this is bit-identical
    constant folding for free: inference-mode BatchNorm scale chains,
    masked-weight products and reshaped parameters all collapse to a
    single bound array, and dead-code elimination removes their producer
    chains from the per-call step list.
    """
    frozen = 0
    for node in graph.nodes:
        if node.out.is_const and node.out.array is not None \
                and node.out.producer is not None:
            node.out.producer = None
            frozen += 1
    return frozen


def _is_const(value: _Value) -> bool:
    return value.is_const and value.array is not None


def _fold_affine_chains(graph: _Graph) -> int:
    """Fold per-channel affine chains (inference BatchNorm) into conv weights.

    A convolution followed by a sole-consumer chain of ``add``/``mul``/
    ``div`` ops whose other operand is a per-channel constant rewrites to
    one convolution with scaled weights and a fused bias.  Not
    bit-identical (the rounding of the affine is moved into the weights);
    only applied under ``fold_bn=True``.
    """
    folded = 0
    while True:
        uses = graph.consumers()
        applied = False
        for node in graph.nodes:
            if node.op_name != "conv2d" or node.activation is not None:
                continue
            weight = node.inputs[1]
            bias = node.inputs[2] if len(node.inputs) > 2 else None
            if not _is_const(weight) or (bias is not None and not _is_const(bias)):
                continue
            co = weight.shape[0]
            dtype = weight.dtype
            scale = np.ones(co, dtype=dtype)
            shift = np.zeros(co, dtype=dtype)
            chain: List[_Node] = []
            value = node.out
            while True:
                consumers = uses.get(value, [])
                if len(consumers) != 1 or value is graph.output:
                    break
                nxt, position = consumers[0]
                if nxt.op_name not in ("add", "mul", "div") or len(nxt.inputs) != 2:
                    break
                other = nxt.inputs[1 - position]
                if not _is_const(other):
                    break
                if nxt.op_name == "div" and position != 0:
                    break
                const = other.array
                try:
                    bshape = np.broadcast_shapes(const.shape, (1, co, 1, 1))
                except ValueError:
                    break
                if bshape != (1, co, 1, 1):
                    break
                cvec = np.broadcast_to(
                    const.reshape(-1), (co,)).astype(dtype, copy=True)
                if nxt.op_name == "add":
                    shift = shift + cvec
                elif nxt.op_name == "mul":
                    scale = scale * cvec
                    shift = shift * cvec
                else:
                    scale = scale / cvec
                    shift = shift / cvec
                chain.append(nxt)
                value = nxt.out
            if not chain:
                continue
            new_weight = weight.array * scale.reshape(co, 1, 1, 1)
            old_bias = bias.array if bias is not None else np.zeros(co, dtype=dtype)
            new_bias = old_bias * scale + shift
            weight_value = _Value("const", new_weight.shape, new_weight.dtype,
                                  array=new_weight, is_const=True)
            bias_value = _Value("const", new_bias.shape, new_bias.dtype,
                                array=new_bias, is_const=True)
            node.inputs = [node.inputs[0], weight_value, bias_value]
            node.out = chain[-1].out
            node.out.producer = node
            removed = set(chain)
            graph.nodes = [n for n in graph.nodes if n not in removed]
            folded += len(chain)
            applied = True
            break
        if not applied:
            return folded


_ZERO_PRESERVING = ("relu", "tanh")


def _elide_dead_filters(graph: _Graph) -> int:
    """Remove all-zero conv output channels consumed by a following conv.

    A fully-masked code filter produces an exactly-zero channel; through
    zero-preserving activations it contributes exactly-zero addends to the
    next convolution's reduction, so both the dead filter rows and the
    matching input channels of the consumer can be dropped.
    """
    elided = 0
    while True:
        uses = graph.consumers()
        applied = False
        for node in graph.nodes:
            if node.op_name != "conv2d":
                continue
            weight = node.inputs[1]
            bias = node.inputs[2] if len(node.inputs) > 2 else None
            if not _is_const(weight) or (bias is not None and not _is_const(bias)):
                continue
            w = weight.array
            co = w.shape[0]
            zero = ~w.reshape(co, -1).any(axis=1)
            if bias is not None:
                zero &= (bias.array == 0)
            if not zero.any() or zero.all() and co == 1:
                continue
            keep = np.flatnonzero(~zero)
            if keep.size == 0:
                keep = np.array([0])
            if keep.size == co:
                continue
            # Walk the sole-consumer chain of zero-preserving activations
            # down to a consuming convolution.
            chain: List[_Node] = []
            value = node.out
            consumer = None
            while True:
                consumers = uses.get(value, [])
                if len(consumers) != 1 or value is graph.output:
                    break
                nxt, position = consumers[0]
                if nxt.op_name == "conv2d" and position == 0:
                    consumer = nxt
                    break
                if nxt.op_name in _ZERO_PRESERVING and len(nxt.inputs) == 1:
                    chain.append(nxt)
                    value = nxt.out
                    continue
                break
            if consumer is None:
                continue
            next_weight = consumer.inputs[1]
            if not _is_const(next_weight):
                continue
            new_w = np.ascontiguousarray(w[keep])
            weight_value = _Value("const", new_w.shape, new_w.dtype,
                                  array=new_w, is_const=True)
            node.inputs[1] = weight_value
            if bias is not None:
                new_b = np.ascontiguousarray(bias.array[keep])
                node.inputs[2] = _Value("const", new_b.shape, new_b.dtype,
                                        array=new_b, is_const=True)
            new_nw = np.ascontiguousarray(next_weight.array[:, keep, :, :])
            consumer.inputs[1] = _Value("const", new_nw.shape, new_nw.dtype,
                                        array=new_nw, is_const=True)
            for val in [node.out] + [n.out for n in chain]:
                val.shape = (val.shape[0], int(keep.size)) + val.shape[2:]
                val.array = None  # traced array has the old channel count
            elided += int(zero.sum())
            applied = True
            break
        if not applied:
            return elided


_FUSABLE_ACTIVATIONS = ("relu", "tanh", "sigmoid")


def _fuse_activations(graph: _Graph) -> int:
    """Fuse a conv's sole-consumer activation into the conv step itself."""
    fused = 0
    while True:
        uses = graph.consumers()
        applied = False
        for node in graph.nodes:
            if node.op_name != "conv2d" or node.activation is not None:
                continue
            if not _is_const(node.inputs[1]):
                continue
            if node.out is graph.output:
                continue
            consumers = uses.get(node.out, [])
            if len(consumers) != 1:
                continue
            act, _ = consumers[0]
            if act.op_name not in _FUSABLE_ACTIVATIONS or len(act.inputs) != 1:
                continue
            node.activation = act.op_name
            node.out = act.out
            node.out.producer = node
            graph.nodes = [n for n in graph.nodes if n is not act]
            fused += 1
            applied = True
            break
        if not applied:
            return fused


def _eliminate_dead_code(graph: _Graph) -> int:
    # Walk producers from the output; frozen constants have no producer, so
    # the chains that computed them at trace time are never reached and drop
    # out of the per-call step list.
    needed_nodes: set = set()
    seen: set = set()
    stack = [graph.output]
    while stack:
        value = stack.pop()
        if value in seen:
            continue
        seen.add(value)
        if value.producer is not None:
            needed_nodes.add(value.producer)
            stack.extend(value.producer.inputs)
    before = len(graph.nodes)
    graph.nodes = [n for n in graph.nodes if n in needed_nodes]
    return before - len(graph.nodes)


# --------------------------------------------------------------------------- #
# Steps
# --------------------------------------------------------------------------- #
class _Step:
    """One executable unit of a plan.

    ``run(regs)`` reads input registers and produces the output register;
    ``bind(arena, regs)`` resolves arena references to concrete arrays
    once, after the arena is finalized.  ``kind`` distinguishes
    specialized (arena-backed, in-place) steps from view and generic
    fallback steps.
    """

    kind = "generic"
    op_name = "?"
    layer = ""
    activation: Optional[str] = None

    def bind(self, arena: BufferArena, regs: List[Optional[np.ndarray]]) -> None:
        pass

    def run(self, regs: List[Optional[np.ndarray]]) -> None:
        raise NotImplementedError


class _GenericStep(_Step):
    """Fallback: execute the op's own forward, fresh output per call."""

    def __init__(self, node: _Node, in_indices: List[int], out_index: int):
        self.op = node.op
        self.op_name = node.op_name
        self.layer = node.layer
        self.kwargs = node.kwargs
        self.in_indices = in_indices
        self.out_index = out_index

    def run(self, regs):
        data, _ctx = self.op.forward(
            *[regs[i] for i in self.in_indices], **self.kwargs)
        regs[self.out_index] = data


class _ViewStep(_Step):
    """reshape/transpose/getitem: rebind the output register per call."""

    kind = "view"

    def __init__(self, node: _Node, in_index: int, out_index: int):
        self.op_name = node.op_name
        self.layer = node.layer
        self.in_index = in_index
        self.out_index = out_index
        if node.op_name == "reshape":
            shape = node.kwargs["shape"]
            self.run = lambda regs: regs.__setitem__(
                out_index, regs[in_index].reshape(shape))
        elif node.op_name == "transpose":
            axes = node.kwargs["axes"]
            self.run = lambda regs: regs.__setitem__(
                out_index, regs[in_index].transpose(axes))
        else:  # getitem
            index = node.kwargs["index"]
            self.run = lambda regs: regs.__setitem__(
                out_index, regs[in_index][index])


class _ConvStep(_Step):
    """im2col convolution into arena memory, with optional fused activation
    and optional row-band streaming."""

    kind = "conv"

    def __init__(self, backend, node: _Node, in_index: int, out_index: int,
                 cols_ref: BufferRef, out_ref: BufferRef,
                 mask_ref: Optional[BufferRef],
                 padded: Optional[np.ndarray], center,
                 streamed: Optional[StreamedConv]):
        self.backend = backend
        self.op_name = node.op_name
        self.layer = node.layer
        self.activation = node.activation
        self.in_index = in_index
        self.out_index = out_index
        self.cols_ref = cols_ref
        self.out_ref = out_ref
        self.mask_ref = mask_ref
        self.padded = padded
        self.center = center
        self.streamed = streamed
        weight = node.inputs[1].array
        self.kernel = weight.shape[2:4]
        self.stride = node.kwargs["stride"]
        self.w_mat = weight.reshape(weight.shape[0], -1)
        bias = node.inputs[2].array if len(node.inputs) > 2 else None
        self.bias_r = (bias.reshape(1, weight.shape[0], 1, 1)
                       if bias is not None else None)

    def bind(self, arena, regs):
        self.cols = arena.array(self.cols_ref)
        self.out4 = arena.array(self.out_ref)
        n, co, oh, ow = self.out4.shape
        self.out3d = self.out4.reshape(n, co, oh * ow)
        self.mask = arena.array(self.mask_ref) if self.mask_ref else None
        regs[self.out_index] = self.out4

    def run(self, regs):
        x = regs[self.in_index]
        if self.streamed is not None:
            self.streamed.run(self.backend, x, self.padded if
                              self.padded is not None else x,
                              self.cols, self.w_mat, self.out3d)
        else:
            if self.padded is not None:
                self.padded[self.center] = x
                source = self.padded
            else:
                source = x
            self.backend.im2col_out(source, self.kernel, self.stride, (0, 0),
                                    out=self.cols)
            self.backend.matmul_out(self.w_mat, self.cols, out=self.out3d)
        out = self.out4
        if self.bias_r is not None:
            np.add(out, self.bias_r, out=out)
        if self.activation == "relu":
            np.greater(out, 0, out=self.mask)
            np.multiply(out, self.mask, out=out)
        elif self.activation == "tanh":
            np.tanh(out, out=out)
        elif self.activation == "sigmoid":
            np.negative(out, out=out)
            np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            np.divide(1.0, out, out=out)


class _MaxPoolStep(_Step):
    kind = "max_pool"

    def __init__(self, backend, node: _Node, in_index: int, out_index: int,
                 cols_ref: BufferRef, argmax_ref: BufferRef,
                 out_ref: BufferRef):
        self.backend = backend
        self.op_name = node.op_name
        self.layer = node.layer
        self.in_index = in_index
        self.out_index = out_index
        self.cols_ref = cols_ref
        self.argmax_ref = argmax_ref
        self.out_ref = out_ref
        self.kernel = node.kwargs["kernel"]
        self.stride = node.kwargs["stride"]

    def bind(self, arena, regs):
        cols = arena.array(self.cols_ref)
        n = cols.shape[0]
        window = self.kernel[0] * self.kernel[1]
        self.cols = cols
        self.cols4 = cols.reshape(n, cols.shape[1] // window, window,
                                  cols.shape[2])
        self.argmax = arena.array(self.argmax_ref)
        self.out4 = arena.array(self.out_ref)
        regs[self.out_index] = self.out4

    def run(self, regs):
        x = regs[self.in_index]
        self.backend.im2col_out(x, self.kernel, self.stride, (0, 0),
                                out=self.cols)
        np.argmax(self.cols4, axis=2, out=self.argmax)
        taken = self.backend.take_along_axis(
            self.cols4, self.argmax[:, :, None, :], axis=2)
        np.copyto(self.out4, taken.reshape(self.out4.shape))


class _AvgPoolStep(_Step):
    kind = "avg_pool"

    def __init__(self, backend, node: _Node, in_index: int, out_index: int,
                 cols_ref: BufferRef, out_ref: BufferRef):
        self.backend = backend
        self.op_name = node.op_name
        self.layer = node.layer
        self.in_index = in_index
        self.out_index = out_index
        self.cols_ref = cols_ref
        self.out_ref = out_ref
        self.kernel = node.kwargs["kernel"]
        self.stride = node.kwargs["stride"]

    def bind(self, arena, regs):
        cols = arena.array(self.cols_ref)
        n = cols.shape[0]
        window = self.kernel[0] * self.kernel[1]
        self.cols = cols
        self.cols4 = cols.reshape(n, cols.shape[1] // window, window,
                                  cols.shape[2])
        self.out4 = arena.array(self.out_ref)
        self.out3 = self.out4.reshape(self.out4.shape[0], self.out4.shape[1],
                                      -1)
        regs[self.out_index] = self.out4

    def run(self, regs):
        x = regs[self.in_index]
        self.backend.im2col_out(x, self.kernel, self.stride, (0, 0),
                                out=self.cols)
        np.mean(self.cols4, axis=2, out=self.out3)


class _MatmulStep(_Step):
    kind = "matmul"

    def __init__(self, backend, node: _Node, in_indices, out_index,
                 out_ref: BufferRef):
        self.backend = backend
        self.op_name = node.op_name
        self.layer = node.layer
        self.a_index, self.b_index = in_indices
        self.out_index = out_index
        self.out_ref = out_ref

    def bind(self, arena, regs):
        self.out = arena.array(self.out_ref)
        regs[self.out_index] = self.out

    def run(self, regs):
        self.backend.matmul_out(regs[self.a_index], regs[self.b_index],
                                out=self.out)


class _ConcatStep(_Step):
    kind = "concat"

    def __init__(self, node: _Node, in_indices, out_index,
                 out_ref: BufferRef):
        self.op_name = node.op_name
        self.layer = node.layer
        self.in_indices = in_indices
        self.out_index = out_index
        self.out_ref = out_ref
        self.axis = node.kwargs["axis"]

    def bind(self, arena, regs):
        self.out = arena.array(self.out_ref)
        regs[self.out_index] = self.out

    def run(self, regs):
        np.concatenate([regs[i] for i in self.in_indices], axis=self.axis,
                       out=self.out)


class _PadStep(_Step):
    """pad2d into a dedicated zero buffer: borders are written once at
    compile time, only the center is copied per call."""

    kind = "pad"

    def __init__(self, node: _Node, in_index, out_index,
                 out_array: np.ndarray):
        self.op_name = node.op_name
        self.layer = node.layer
        self.in_index = in_index
        self.out_index = out_index
        self.out = out_array
        padding = node.kwargs["padding"]
        ndim = len(node.out.shape)
        self.center = tuple(
            slice(None) if i < ndim - 2 else slice(padding, -padding)
            for i in range(ndim))

    def bind(self, arena, regs):
        regs[self.out_index] = self.out

    def run(self, regs):
        self.out[self.center] = regs[self.in_index]


class _EltwiseStep(_Step):
    """One numpy ufunc with an ``out=`` destination in the arena."""

    kind = "eltwise"

    def __init__(self, node: _Node, ufunc, in_indices, out_index,
                 out_ref: BufferRef):
        self.op_name = node.op_name
        self.layer = node.layer
        self.ufunc = ufunc
        self.in_indices = tuple(in_indices)
        self.out_index = out_index
        self.out_ref = out_ref

    def bind(self, arena, regs):
        self.out = arena.array(self.out_ref)
        regs[self.out_index] = self.out

    def run(self, regs):
        self.ufunc(*[regs[i] for i in self.in_indices], out=self.out)


class _ReluStep(_Step):
    """Standalone relu replaying the eager ``a * (a > 0)`` bit pattern."""

    kind = "relu"

    def __init__(self, node: _Node, in_index, out_index,
                 mask_ref: BufferRef, out_ref: BufferRef):
        self.op_name = node.op_name
        self.layer = node.layer
        self.in_index = in_index
        self.out_index = out_index
        self.mask_ref = mask_ref
        self.out_ref = out_ref

    def bind(self, arena, regs):
        self.mask = arena.array(self.mask_ref)
        self.out = arena.array(self.out_ref)
        regs[self.out_index] = self.out

    def run(self, regs):
        a = regs[self.in_index]
        np.greater(a, 0, out=self.mask)
        np.multiply(a, self.mask, out=self.out)


class _SigmoidStep(_Step):
    kind = "sigmoid"

    def __init__(self, node: _Node, in_index, out_index, out_ref: BufferRef):
        self.op_name = node.op_name
        self.layer = node.layer
        self.in_index = in_index
        self.out_index = out_index
        self.out_ref = out_ref

    def bind(self, arena, regs):
        self.out = arena.array(self.out_ref)
        regs[self.out_index] = self.out

    def run(self, regs):
        out = self.out
        np.negative(regs[self.in_index], out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        np.divide(1.0, out, out=out)


class _ClipStep(_Step):
    kind = "clip"

    def __init__(self, node: _Node, in_index, out_index, out_ref: BufferRef):
        self.op_name = node.op_name
        self.layer = node.layer
        self.in_index = in_index
        self.out_index = out_index
        self.out_ref = out_ref
        self.low = node.kwargs["low"]
        self.high = node.kwargs["high"]

    def bind(self, arena, regs):
        self.out = arena.array(self.out_ref)
        regs[self.out_index] = self.out

    def run(self, regs):
        np.clip(regs[self.in_index], self.low, self.high, out=self.out)


class _ReduceStep(_Step):
    """max reduction into the arena.

    Only ``max`` lowers here: it is exact (no rounding), so the reduction
    order an ``out=`` destination induces cannot change bits.  ``sum``
    with ``out=`` skips numpy's pairwise accumulation and *does* change
    bits, so sum reductions stay on the generic path.
    """

    kind = "reduce"

    def __init__(self, node: _Node, in_index, out_index, out_ref: BufferRef):
        self.op_name = node.op_name
        self.layer = node.layer
        self.in_index = in_index
        self.out_index = out_index
        self.out_ref = out_ref
        self.axis = node.kwargs["axis"]
        self.keepdims = node.kwargs["keepdims"]

    def bind(self, arena, regs):
        self.out = arena.array(self.out_ref)
        regs[self.out_index] = self.out

    def run(self, regs):
        np.max(regs[self.in_index], axis=self.axis, keepdims=self.keepdims,
               out=self.out)


# --------------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------------- #
_VIEW_OPS = ("reshape", "transpose", "getitem")
_UNARY_UFUNCS = {"neg": np.negative, "exp": np.exp, "log": np.log,
                 "abs": np.absolute, "tanh": np.tanh}
_BINARY_UFUNCS = {"add": np.add, "mul": np.multiply, "div": np.true_divide,
                  "maximum": np.maximum}


@dataclass
class PlanStats:
    """Compile-time accounting of an :class:`InferencePlan`."""

    steps: int = 0
    specialized: int = 0
    views: int = 0
    generic: int = 0
    streamed_convs: int = 0
    fused_activations: int = 0
    frozen_consts: int = 0
    folded_ops: int = 0
    elided_filters: int = 0
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


def _lower(graph: _Graph, backend: Backend, *, input_shape, batch,
           memory_budget, stats: PlanStats) -> "InferencePlan":
    values: List[_Value] = []

    def reg(value: _Value) -> int:
        if value.index is None:
            value.index = len(values)
            values.append(value)
        return value.index

    reg(graph.input)
    for node in graph.nodes:
        for value in node.inputs:
            reg(value)
        reg(node.out)
    reg(graph.output)

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
        for value in node.inputs:
            last_use[base_of(value)] = i

    out_base = base_of(graph.output)
    arena = BufferArena()
    live: Dict[_Value, BufferRef] = {}
    steps: List[_Step] = []
    specialize = backend.supports_inplace

    def reserve_out(value: _Value) -> BufferRef:
        ref = arena.reserve(value.shape, value.dtype)
        live[value] = ref
        return ref

    for i, node in enumerate(graph.nodes):
        scratch: List[BufferRef] = []
        in_indices = [v.index for v in node.inputs]
        out_index = node.out.index
        name = node.op_name
        step: Optional[_Step] = None

        if name in _VIEW_OPS:
            step = _ViewStep(node, in_indices[0], out_index)
        elif specialize and name == "conv2d":
            weight = node.inputs[1]
            bias = node.inputs[2] if len(node.inputs) > 2 else None
            if _is_const(weight) and (bias is None or _is_const(bias)):
                nb, ci, h, w = node.inputs[0].shape
                co, _, kh, kw = weight.array.shape
                oh, ow = node.out.shape[2], node.out.shape[3]
                x_dtype = node.inputs[0].dtype
                feat = ci * kh * kw
                cols_shape = (nb, feat, oh * ow)
                stream = None
                if memory_budget and oh > 1:
                    cols_bytes = nb * feat * oh * ow * x_dtype.itemsize
                    if cols_bytes > memory_budget:
                        row_bytes = nb * feat * ow * x_dtype.itemsize
                        band_rows = band_plan(oh, row_bytes, memory_budget)
                        if band_rows < oh:
                            band_bytes = band_rows * row_bytes
                            overrun = band_overrun(band_rows, row_bytes,
                                                   memory_budget)
                            if overrun:
                                warnings.warn(
                                    f"memory_budget={memory_budget} is not "
                                    f"achievable for conv layer "
                                    f"'{node.layer or '<root>'}': the "
                                    f"MIN_BAND_ROWS={MIN_BAND_ROWS} floor "
                                    f"needs {band_bytes} bytes per band "
                                    f"({overrun} over budget)",
                                    UserWarning, stacklevel=2)
                            stats.streaming_peak_bytes = max(
                                stats.streaming_peak_bytes, band_bytes)
                            stream = StreamedConv(
                                kernel=(kh, kw),
                                stride=tuple(node.kwargs["stride"]),
                                band_rows=band_rows, out_hw=(oh, ow))
                            cols_shape = (nb, feat, band_rows * ow)
                            stats.streamed_convs += 1
                padded = None
                center = None
                ph, pw = node.kwargs["padding"]
                if ph or pw:
                    padded = arena.zeros_array(
                        (nb, ci, h + 2 * ph, w + 2 * pw), x_dtype)
                    center = (slice(None), slice(None),
                              slice(ph, ph + h), slice(pw, pw + w))
                cols_ref = arena.reserve(cols_shape, x_dtype)
                scratch.append(cols_ref)
                mask_ref = None
                if node.activation == "relu":
                    mask_ref = arena.reserve(node.out.shape, np.bool_)
                    scratch.append(mask_ref)
                step = _ConvStep(backend, node, in_indices[0], out_index,
                                 cols_ref, reserve_out(node.out), mask_ref,
                                 padded, center, stream)
        elif specialize and name == "max_pool2d":
            nb, c = node.inputs[0].shape[:2]
            kernel = node.kwargs["kernel"]
            oh, ow = node.out.shape[2], node.out.shape[3]
            window = kernel[0] * kernel[1]
            cols_ref = arena.reserve((nb, c * window, oh * ow),
                                     node.inputs[0].dtype)
            argmax_ref = arena.reserve((nb, c, oh * ow), np.intp)
            scratch += [cols_ref, argmax_ref]
            step = _MaxPoolStep(backend, node, in_indices[0], out_index,
                                cols_ref, argmax_ref, reserve_out(node.out))
        elif specialize and name == "avg_pool2d":
            nb, c = node.inputs[0].shape[:2]
            kernel = node.kwargs["kernel"]
            oh, ow = node.out.shape[2], node.out.shape[3]
            window = kernel[0] * kernel[1]
            cols_ref = arena.reserve((nb, c * window, oh * ow),
                                     node.inputs[0].dtype)
            scratch.append(cols_ref)
            step = _AvgPoolStep(backend, node, in_indices[0], out_index,
                                cols_ref, reserve_out(node.out))
        elif specialize and name == "matmul":
            if all(len(v.shape) >= 2 for v in node.inputs):
                step = _MatmulStep(backend, node, in_indices, out_index,
                                   reserve_out(node.out))
        elif specialize and name == "concatenate":
            step = _ConcatStep(node, in_indices, out_index,
                               reserve_out(node.out))
        elif specialize and name == "pad2d":
            out_array = arena.zeros_array(node.out.shape, node.out.dtype)
            step = _PadStep(node, in_indices[0], out_index, out_array)
        elif specialize and name in _BINARY_UFUNCS and len(in_indices) == 2:
            step = _EltwiseStep(node, _BINARY_UFUNCS[name], in_indices,
                                out_index, reserve_out(node.out))
        elif specialize and name in _UNARY_UFUNCS and len(in_indices) == 1:
            step = _EltwiseStep(node, _UNARY_UFUNCS[name], in_indices,
                                out_index, reserve_out(node.out))
        elif specialize and name == "relu":
            mask_ref = arena.reserve(node.inputs[0].shape, np.bool_)
            scratch.append(mask_ref)
            step = _ReluStep(node, in_indices[0], out_index, mask_ref,
                             reserve_out(node.out))
        elif specialize and name == "sigmoid":
            step = _SigmoidStep(node, in_indices[0], out_index,
                                reserve_out(node.out))
        elif specialize and name == "clip":
            step = _ClipStep(node, in_indices[0], out_index,
                             reserve_out(node.out))
        elif specialize and name == "max":
            step = _ReduceStep(node, in_indices[0], out_index,
                               reserve_out(node.out))

        if step is None:
            step = _GenericStep(node, in_indices, out_index)
        steps.append(step)

        for ref in scratch:
            arena.release(ref)
        # Deduplicate in input order, not via a set: set iteration follows
        # object ids, which would make the free-list order — and therefore
        # tie-breaks between equal-capacity buffers — nondeterministic
        # across processes.  Serialized plans rely on the lowering being a
        # pure function of the graph.
        bases: List[_Value] = []
        for value in node.inputs:
            base = base_of(value)
            if base not in bases:
                bases.append(base)
        for value in bases:
            if value is out_base or value not in live:
                continue
            if last_use.get(value, -1) == i:
                arena.release(live.pop(value))

    arena.finalize()
    registers: List[Optional[np.ndarray]] = [None] * len(values)
    for value in values:
        if value.is_const and value.array is not None:
            registers[value.index] = value.array
    for step in steps:
        step.bind(arena, registers)

    stats.steps = len(steps)
    for step in steps:
        stats.step_counts[step.kind] = stats.step_counts.get(step.kind, 0) + 1
        if step.kind == "view":
            stats.views += 1
        elif step.kind == "generic":
            stats.generic += 1
        else:
            stats.specialized += 1
        if step.activation is not None:
            stats.fused_activations += 1
    stats.arena = arena.stats
    stats.batch_peaks[int(batch)] = arena.stats.peak_bytes

    return InferencePlan(steps, registers, arena, backend,
                         graph.input.index, graph.output.index,
                         input_shape=input_shape, batch=batch,
                         input_dtype=graph.input.dtype,
                         memory_budget=memory_budget, stats=stats)


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

    Plans compiled by :func:`compile` also carry a symbolic-batch
    program: :meth:`to_dict`/:meth:`save` emit the versioned
    ``repro-plan/1`` wire payload (steps, arena layout, weights digest),
    :meth:`load`/:meth:`from_dict` rebuild a bit-identical plan from it,
    and :meth:`bind` re-derives the buffer layout for another batch size
    without re-tracing the model.
    """

    def __init__(self, steps, registers, arena, backend, input_index,
                 output_index, *, input_shape, batch, input_dtype,
                 memory_budget, stats):
        self._steps = steps
        self._registers = registers
        self._arena = arena
        self._backend = backend
        self._input_index = input_index
        self._output_index = output_index
        self.input_shape = tuple(input_shape)
        self.batch = int(batch)
        self.input_dtype = np.dtype(input_dtype)
        self.memory_budget = memory_budget
        self.stats = stats
        # Symbolic-batch program (serialize.PlanProgram) and the family of
        # batch-bound plans sharing it; both populated by compile()/bind().
        self._program = None
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
            bound = self._bound.get(int(data.shape[0]))
            if bound is not None and bound is not self:
                return bound._run(data, timings)
        data = self._check_input(data)
        registers = self._registers
        registers[self._input_index] = data
        try:
            with use_backend(self._backend):
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
        call.
        """
        batch = int(batch)
        if batch == self.batch:
            self._bound.setdefault(batch, self)
            return self
        bound = self._bound.get(batch)
        if bound is not None:
            return bound
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if self._program is None:
            raise ValueError(
                "plan has no symbolic-batch program (the traced graph could "
                f"not be serialized); only batch={self.batch} is servable")
        from . import serialize as _serialize
        plan = _serialize.bind_program(self._program, batch,
                                       backend=self._backend)
        plan._program = self._program
        self._bound.setdefault(self.batch, self)
        plan._bound = self._bound
        self._bound[batch] = plan
        plan.stats.batch_peaks = self.stats.batch_peaks
        self.stats.batch_peaks[batch] = plan.peak_buffer_bytes
        return plan

    # ------------------------------------------------------------------ #
    # Serialization (repro-plan/1)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The versioned ``repro-plan/1`` wire payload of this plan."""
        if self._program is None:
            raise ValueError(
                "plan is not serializable: the traced graph contains values "
                "the repro-plan/1 codec cannot represent")
        from . import serialize as _serialize
        return _serialize.plan_payload(self)

    def save(self, path) -> str:
        """Write the canonical-JSON ``repro-plan/1`` payload to ``path``."""
        from . import serialize as _serialize
        return _serialize.save_plan(self, path)

    @classmethod
    def from_dict(cls, payload) -> "InferencePlan":
        """Rebuild a plan from a ``repro-plan/1`` payload.

        Rejects unknown schema versions, tampered payloads (whole-payload
        digest), weight mutations (weights digest) and payloads whose
        stored step/arena layout disagrees with the re-lowered plan.  The
        rebuilt plan's forwards are bit-identical to the plan that was
        serialized.
        """
        from . import serialize as _serialize
        return _serialize.plan_from_payload(payload)

    @classmethod
    def load(cls, path) -> "InferencePlan":
        """Read a plan saved by :meth:`save` (same checks as from_dict)."""
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
    dummy = Tensor(backend.zeros((batch,) + input_shape))
    tracer = _Tracer()
    hook = add_op_hook(_noop_hook)
    try:
        with no_grad(), trace_ops(tracer):
            out = model(dummy)
    finally:
        remove_op_hook(hook)
    if not tracer.records:
        raise ValueError("model executed no traceable ops")
    return _build_graph(tracer.records, dummy.data, out.data)


def _optimize_graph(graph: _Graph, backend: Backend, *, fold_bn: bool,
                    elide_dead: bool,
                    stats: Optional[PlanStats] = None) -> _Graph:
    """Run the standard pass pipeline in place (deterministic per graph)."""
    frozen = _freeze_consts(graph)
    folded = _fold_affine_chains(graph) if fold_bn else 0
    elided = _elide_dead_filters(graph) if elide_dead else 0
    if backend.supports_inplace:
        _fuse_activations(graph)
    removed = _eliminate_dead_code(graph)
    if stats is not None:
        stats.frozen_consts = frozen
        stats.folded_ops = folded
        stats.elided_filters = elided
        stats.dce_removed = removed
    return graph


def compile(model: Module, input_shape, *, batch: int = 1,
            memory_budget: Optional[int] = None, fold_bn: bool = False,
            elide_dead: bool = True,
            backend: Optional[Backend] = None) -> InferencePlan:
    """Compile ``model`` into a static :class:`InferencePlan`.

    Traces one inference-mode forward over a ``(batch, *input_shape)``
    zero input, optimizes the recorded graph and lowers it onto a
    preallocated buffer arena.

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
        convolutions are streamed in row bands (floating-point-tolerance
        equal, not bit-identical — see :mod:`repro.deploy.tiling`).
    fold_bn:
        Fold inference-mode BatchNorm affine chains into the preceding
        convolution weights.  Faster, but equal only to floating-point
        tolerance; off by default to preserve bit-identity.
    elide_dead:
        Physically drop all-zero conv filters (fully-masked code filters)
        together with the matching input channels of the consuming conv.
    backend:
        Backend (or registered backend name) to compile against; defaults
        to the active backend.  Backends without verified in-place kernels
        (``supports_inplace`` false) lower every op to its generic
        forward, trading the arena wins for portability.
    """
    if isinstance(backend, str):
        backend = get_backend(backend)
    if backend is None:
        backend = current_backend()
    input_shape = tuple(int(s) for s in input_shape)
    batch = int(batch)
    stats = PlanStats()
    with use_backend(backend):
        was_training = bool(getattr(model, "training", False))
        model.eval()
        try:
            graph = _trace_graph(model, backend, batch, input_shape)
            # Second trace one batch up: together the pair gives every
            # shape dimension an affine form in the batch size, which is
            # what makes the plan batch-polymorphic and serializable
            # (repro-plan/1).  Any failure just loses those features.
            try:
                graph_next = _trace_graph(model, backend, batch + 1,
                                          input_shape)
            except Exception:
                graph_next = None
        finally:
            if was_training:
                model.train()
        _optimize_graph(graph, backend, fold_bn=fold_bn,
                        elide_dead=elide_dead, stats=stats)
        if graph_next is not None:
            try:
                _optimize_graph(graph_next, backend, fold_bn=fold_bn,
                                elide_dead=elide_dead)
            except Exception:
                graph_next = None
        from . import serialize as _serialize
        try:
            program = _serialize.program_from_graphs(
                graph, graph_next, batch=batch, batch_next=batch + 1,
                backend=backend, input_shape=input_shape,
                memory_budget=memory_budget)
        except Exception:
            program = None
        plan = _lower(graph, backend, input_shape=input_shape,
                      batch=batch, memory_budget=memory_budget,
                      stats=stats)
        plan._program = program
        return plan
