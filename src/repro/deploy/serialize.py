"""The ``repro-plan/1`` wire form of compiled inference plans.

A compiled :class:`~repro.deploy.plan.InferencePlan` is a pile of live
objects — numpy closures over arena views — but everything it *decides*
is a deterministic function of the optimized dataflow graph: the lowering
in :func:`repro.deploy.plan._lower` reproduces the identical step list,
buffer assignment and arena capacities from the identical graph.  So the
wire form serializes the graph (in symbolic-batch form) plus enough
derived layout to cross-check the rebuild:

* ``values`` — every graph value in deterministic register order, each
  shape dimension as an affine ``[m, c]`` pair (``dim = m·batch + c``,
  derived from tracing the model at two batch sizes); constants travel
  through the shared base64-npy codec (:func:`repro.wire.array_to_payload`),
  memory order included.
* ``nodes`` — op name (resolved from the op registry on load), input and
  output value indices, kwargs in a tagged encoding that preserves exact
  Python types (ints are affine in the batch too), layer path and any
  fused activation.
* ``weights_digest`` — SHA-256 over all constant arrays (via
  :func:`repro.wire.state_digest`), rejecting weight tampering.
* ``steps`` / ``arena`` — the layout the serializing plan actually used
  (per-step :class:`~repro.deploy.arena.BufferRef`\\ s, streaming band
  parameters, buffer capacities).  Load re-lowers the graph and refuses
  payloads whose stored layout disagrees — the loaded plan is the plan
  that was saved, bit for bit, or it is an error.
* ``digest`` — SHA-256 over the whole payload; any bit flip is rejected
  before anything is decoded.

The same symbolic-batch program powers
:meth:`~repro.deploy.plan.InferencePlan.bind`: re-deriving every buffer
shape at another batch size is just decoding the affine dims at a new
``batch`` and re-running the lowering — no model, no re-trace.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..nn.backend import Backend, get_backend
from ..wire import (array_from_payload, array_to_payload, canonical_json,
                    check_schema, payload_digest, state_digest)
from .plan import (InferencePlan, PlanStats, _Graph, _lower, _Node, _Value,
                   _value_order)

__all__ = ["PLAN_SCHEMA", "PlanProgram", "program_from_graphs",
           "bind_program", "plan_payload", "plan_from_payload",
           "save_plan", "load_plan"]

PLAN_SCHEMA = "repro-plan/1"


class _NotPolymorphic(Exception):
    """The two traces disagree structurally; fall back to a fixed batch."""


# --------------------------------------------------------------------------- #
# Tagged kwarg codec: exact Python types, ints affine in the batch
# --------------------------------------------------------------------------- #
def _encode_kwarg(value: Any, other: Any, batch: int, batch_next: int) -> Any:
    """Encode one kwarg leaf, pairing the value from the second trace.

    Integers encode as ``{"i": [m, c]}`` with ``value = m·batch + c`` so a
    reshape target like ``(batch, -1)`` re-derives at any batch size.
    Everything non-integral must be identical across the two traces.
    """
    if value is None:
        if other is not None:
            raise _NotPolymorphic
        return {"n": True}
    if value is Ellipsis:
        if other is not Ellipsis:
            raise _NotPolymorphic
        return {"e": True}
    if isinstance(value, (bool, np.bool_)):
        if bool(value) != bool(other):
            raise _NotPolymorphic
        return {"b": bool(value)}
    if isinstance(value, (int, np.integer)):
        if not isinstance(other, (int, np.integer)):
            raise _NotPolymorphic
        slope = int(other) - int(value)
        return {"i": [slope, int(value) - slope * batch]}
    if isinstance(value, (float, np.floating)):
        if float(value) != float(other):
            raise _NotPolymorphic
        return {"f": float(value)}
    if isinstance(value, str):
        if value != other:
            raise _NotPolymorphic
        return {"s": value}
    if isinstance(value, slice):
        if not isinstance(other, slice):
            raise _NotPolymorphic
        return {"sl": [_encode_kwarg(value.start, other.start, batch, batch_next),
                       _encode_kwarg(value.stop, other.stop, batch, batch_next),
                       _encode_kwarg(value.step, other.step, batch, batch_next)]}
    if isinstance(value, tuple):
        if not isinstance(other, tuple) or len(other) != len(value):
            raise _NotPolymorphic
        return {"t": [_encode_kwarg(v, o, batch, batch_next)
                      for v, o in zip(value, other)]}
    if isinstance(value, list):
        if not isinstance(other, list) or len(other) != len(value):
            raise _NotPolymorphic
        return {"l": [_encode_kwarg(v, o, batch, batch_next)
                      for v, o in zip(value, other)]}
    if isinstance(value, dict):
        if not isinstance(other, dict) or set(other) != set(value):
            raise _NotPolymorphic
        return {"d": {key: _encode_kwarg(value[key], other[key],
                                         batch, batch_next)
                      for key in sorted(value)}}
    raise TypeError(
        f"kwarg of type {type(value).__name__} has no repro-plan/1 encoding")


def _decode_kwarg(encoded: Mapping[str, Any], batch: int) -> Any:
    if len(encoded) != 1:
        raise ValueError(f"malformed kwarg encoding: {encoded!r}")
    (tag, value), = encoded.items()
    if tag == "n":
        return None
    if tag == "e":
        return Ellipsis
    if tag == "b":
        return bool(value)
    if tag == "i":
        return int(value[0]) * batch + int(value[1])
    if tag == "f":
        return float(value)
    if tag == "s":
        return str(value)
    if tag == "sl":
        return slice(*(_decode_kwarg(part, batch) for part in value))
    if tag == "t":
        return tuple(_decode_kwarg(part, batch) for part in value)
    if tag == "l":
        return [_decode_kwarg(part, batch) for part in value]
    if tag == "d":
        return {key: _decode_kwarg(part, batch)
                for key, part in value.items()}
    raise ValueError(f"unknown kwarg tag {tag!r} in repro-plan/1 payload")


# --------------------------------------------------------------------------- #
# Symbolic-batch program
# --------------------------------------------------------------------------- #
@dataclass
class PlanProgram:
    """The serializable core of a plan: the optimized graph, batch-symbolic.

    ``values`` entries hold ``{"kind", "dtype", "dims", "const"}`` where
    ``dims`` is a list of affine ``(m, c)`` pairs and ``const`` indexes
    into :attr:`consts`; ``nodes`` entries hold op name, value indices and
    *encoded* kwargs (decoded only when a graph is instantiated at a
    concrete batch).  One program serves every batch size when
    :attr:`polymorphic` is true, otherwise only :attr:`batch`.
    """

    backend_name: str
    backend_dtype: str
    input_dtype: str
    batch: int
    input_shape: Tuple[int, ...]
    memory_budget: Optional[int]
    polymorphic: bool
    values: List[Dict[str, Any]]
    consts: List[np.ndarray]
    nodes: List[Dict[str, Any]]
    input: int
    output: int


def _affine_dims(shape, other_shape, batch: int,
                 batch_next: int) -> List[List[int]]:
    dims: List[List[int]] = []
    for position, size in enumerate(shape):
        size = int(size)
        if other_shape is None:
            dims.append([0, size])
            continue
        slope = int(other_shape[position]) - size
        intercept = size - slope * batch
        if slope < 0 or intercept < 0:
            raise _NotPolymorphic
        dims.append([slope, intercept])
    return dims


def _build_program(graph: _Graph, graph_next: Optional[_Graph], *,
                   batch: int, batch_next: int, backend: Backend,
                   input_shape, memory_budget) -> PlanProgram:
    from ..nn.tensor import _OP_REGISTRY
    order = _value_order(graph)
    index = {value: position for position, value in enumerate(order)}
    pair: Optional[List[_Value]] = None
    if graph_next is not None:
        order_next = _value_order(graph_next)
        index_next = {value: position
                      for position, value in enumerate(order_next)}
        if (len(order_next) != len(order)
                or len(graph_next.nodes) != len(graph.nodes)
                or index_next[graph_next.input] != index[graph.input]
                or index_next[graph_next.output] != index[graph.output]):
            raise _NotPolymorphic
        for node, node_next in zip(graph.nodes, graph_next.nodes):
            if (node.op_name != node_next.op_name
                    or node.layer != node_next.layer
                    or node.activation != node_next.activation
                    or len(node.inputs) != len(node_next.inputs)
                    or [index[v] for v in node.inputs]
                    != [index_next[v] for v in node_next.inputs]
                    or index[node.out] != index_next[node_next.out]
                    or set(node.kwargs) != set(node_next.kwargs)):
                raise _NotPolymorphic
        pair = order_next

    values: List[Dict[str, Any]] = []
    consts: List[np.ndarray] = []
    for position, value in enumerate(order):
        other = pair[position] if pair is not None else None
        if other is not None:
            if (other.kind != value.kind
                    or other.dtype != value.dtype
                    or len(other.shape) != len(value.shape)
                    or (other.is_const and other.array is not None)
                    != (value.is_const and value.array is not None)):
                raise _NotPolymorphic
        dims = _affine_dims(value.shape,
                            other.shape if other is not None else None,
                            batch, batch_next)
        entry: Dict[str, Any] = {"kind": value.kind, "dtype": str(value.dtype),
                                 "dims": dims, "const": None}
        if value.is_const and value.array is not None:
            if any(m != 0 for m, _ in dims):
                raise _NotPolymorphic  # a "constant" scaling with the batch
            entry["const"] = len(consts)
            # The original array object, strides and all: bound plans must
            # share the exact memory the compiled plan computes with.
            consts.append(value.array)
        values.append(entry)

    nodes: List[Dict[str, Any]] = []
    for position, node in enumerate(graph.nodes):
        if _OP_REGISTRY.get(node.op_name) is not node.op:
            raise TypeError(
                f"op {node.op_name!r} is not resolvable from the op "
                f"registry; the plan cannot be serialized")
        node_next = graph_next.nodes[position] if pair is not None else None
        kwargs: Dict[str, Any] = {}
        for key in sorted(node.kwargs):
            other_value = (node_next.kwargs[key] if node_next is not None
                           else node.kwargs[key])
            kwargs[key] = _encode_kwarg(node.kwargs[key], other_value,
                                        batch, batch_next)
        nodes.append({"op": node.op_name,
                      "inputs": [index[v] for v in node.inputs],
                      "out": index[node.out],
                      "kwargs": kwargs,
                      "layer": node.layer,
                      "activation": node.activation})

    return PlanProgram(
        backend_name=backend.name,
        backend_dtype=str(backend.default_dtype),
        input_dtype=str(graph.input.dtype),
        batch=int(batch),
        input_shape=tuple(int(s) for s in input_shape),
        memory_budget=int(memory_budget) if memory_budget else None,
        polymorphic=pair is not None,
        values=values, consts=consts, nodes=nodes,
        input=index[graph.input], output=index[graph.output])


def program_from_graphs(graph: _Graph, graph_next: Optional[_Graph], *,
                        batch: int, batch_next: int, backend: Backend,
                        input_shape, memory_budget) -> PlanProgram:
    """Build the symbolic-batch program from one or two optimized graphs.

    With ``graph_next`` (the same model traced at ``batch_next``), every
    shape dimension and integer kwarg gets an affine form in the batch
    and the program is batch-polymorphic.  Structural divergence between
    the traces — or a missing second graph — falls back to a fixed-batch
    program that still serializes but only serves ``batch``.
    """
    if graph_next is not None:
        try:
            return _build_program(graph, graph_next, batch=batch,
                                  batch_next=batch_next, backend=backend,
                                  input_shape=input_shape,
                                  memory_budget=memory_budget)
        except _NotPolymorphic:
            pass
    return _build_program(graph, None, batch=batch, batch_next=batch_next,
                          backend=backend, input_shape=input_shape,
                          memory_budget=memory_budget)


def program_to_graph(program: PlanProgram, batch: int) -> _Graph:
    """Instantiate the program's graph at a concrete batch size."""
    from ..nn.tensor import _OP_REGISTRY
    batch = int(batch)
    values: List[_Value] = []
    for entry in program.values:
        shape = tuple(int(m) * batch + int(c) for m, c in entry["dims"])
        array = (program.consts[entry["const"]]
                 if entry["const"] is not None else None)
        values.append(_Value(entry["kind"], shape, np.dtype(entry["dtype"]),
                             array=array, is_const=array is not None))
    nodes: List[_Node] = []
    for wire in program.nodes:
        op = _OP_REGISTRY.get(wire["op"])
        if op is None:
            raise ValueError(
                f"repro-plan/1 payload references op {wire['op']!r}, which "
                f"is not in this build's op registry")
        kwargs = {key: _decode_kwarg(encoded, batch)
                  for key, encoded in wire["kwargs"].items()}
        node = _Node(op, [values[i] for i in wire["inputs"]], kwargs,
                     values[wire["out"]], wire["layer"])
        node.activation = wire["activation"]
        nodes.append(node)
    return _Graph(nodes, values[program.input], values[program.output])


def bind_program(program: PlanProgram, batch: int,
                 backend: Optional[Backend] = None) -> InferencePlan:
    """Lower the program at ``batch`` into a fresh :class:`InferencePlan`.

    No tracing happens here — the graph is decoded from the program and
    run through the standard lowering, so two binds of the same program
    at the same batch produce bit-identical plans.
    """
    batch = int(batch)
    if batch != program.batch and not program.polymorphic:
        raise ValueError(
            f"plan is not batch-polymorphic (the traced graph structure "
            f"depends on the batch size); only batch={program.batch} is "
            f"servable — recompile for batch={batch}")
    if backend is None:
        backend = get_backend(program.backend_name)
        if str(backend.default_dtype) != program.backend_dtype:
            backend = backend.with_dtype(np.dtype(program.backend_dtype))
    graph = program_to_graph(program, batch)
    return _lower(graph, backend, input_shape=tuple(program.input_shape),
                  batch=batch, memory_budget=program.memory_budget,
                  stats=PlanStats())


# --------------------------------------------------------------------------- #
# Wire payload
# --------------------------------------------------------------------------- #
def _jsonify(payload: Any) -> Any:
    """One JSON round trip: tuples→lists, numpy ints→ints, keys→strings."""
    return json.loads(json.dumps(payload))


def _steps_payload(plan: InferencePlan) -> List[Dict[str, Any]]:
    """The derived layout of every step: buffer refs + streaming bands."""
    steps: List[Dict[str, Any]] = []
    for step in plan.steps:
        entry: Dict[str, Any] = {
            "kind": step.kind,
            "op": step.op_name,
            "layer": step.layer,
            "activation": step.activation,
        }
        if step.refs:
            entry["refs"] = {name: {"buffer": int(ref.buffer),
                                    "shape": [int(s) for s in ref.shape],
                                    "dtype": str(ref.dtype)}
                             for name, ref in step.refs.items()}
        streamed = step.streamed
        if streamed is not None:
            entry["stream"] = {
                "kernel": [int(k) for k in streamed.kernel],
                "stride": [int(s) for s in streamed.stride],
                "band_rows": int(streamed.band_rows),
                "out_hw": [int(v) for v in streamed.out_hw],
            }
        steps.append(entry)
    return steps


def _arena_payload(plan: InferencePlan) -> Dict[str, Any]:
    arena = plan._arena
    return {"capacities": [int(c) for c in arena._capacities],
            "dedicated_bytes": int(arena._dedicated_bytes),
            "peak_bytes": int(arena.stats.peak_bytes)}


def _weights_digest(consts: List[np.ndarray]) -> str:
    return state_digest(
        {f"{i:06d}": array for i, array in enumerate(consts)})


def plan_payload(plan: InferencePlan) -> Dict[str, Any]:
    """The full versioned ``repro-plan/1`` payload of a compiled plan."""
    program = plan._program
    if program is None:
        raise ValueError(
            "plan is not serializable: the traced graph contains values "
            "the repro-plan/1 codec cannot represent")
    values_payload: List[Dict[str, Any]] = []
    for entry in program.values:
        wire: Dict[str, Any] = {
            "kind": entry["kind"],
            "dtype": entry["dtype"],
            "dims": [[int(m), int(c)] for m, c in entry["dims"]],
        }
        if entry["const"] is not None:
            wire["data"] = array_to_payload(program.consts[entry["const"]])
        values_payload.append(wire)
    budget = program.memory_budget
    payload: Dict[str, Any] = {
        "schema": PLAN_SCHEMA,
        "backend": program.backend_name,
        "backend_dtype": program.backend_dtype,
        "input_dtype": program.input_dtype,
        "batch": int(plan.batch),
        "input_shape": [int(s) for s in program.input_shape],
        "memory_budget": int(budget) if budget is not None else None,
        "polymorphic": bool(program.polymorphic),
        "values": values_payload,
        "nodes": _jsonify(program.nodes),
        "input": int(program.input),
        "output": int(program.output),
        "weights_digest": _weights_digest(program.consts),
        "steps": _steps_payload(plan),
        "arena": _arena_payload(plan),
    }
    payload["digest"] = payload_digest(
        {key: value for key, value in payload.items() if key != "digest"})
    return payload


def _program_from_payload(payload: Mapping[str, Any]) -> PlanProgram:
    values: List[Dict[str, Any]] = []
    consts: List[np.ndarray] = []
    for wire in payload["values"]:
        entry: Dict[str, Any] = {
            "kind": wire["kind"],
            "dtype": wire["dtype"],
            "dims": [[int(m), int(c)] for m, c in wire["dims"]],
            "const": None,
        }
        if "data" in wire:
            entry["const"] = len(consts)
            consts.append(array_from_payload(wire["data"]))
        values.append(entry)
    budget = payload.get("memory_budget")
    return PlanProgram(
        backend_name=payload["backend"],
        backend_dtype=payload["backend_dtype"],
        input_dtype=payload["input_dtype"],
        batch=int(payload["batch"]),
        input_shape=tuple(int(s) for s in payload["input_shape"]),
        memory_budget=int(budget) if budget is not None else None,
        polymorphic=bool(payload["polymorphic"]),
        values=values, consts=consts,
        nodes=[dict(node) for node in payload["nodes"]],
        input=int(payload["input"]), output=int(payload["output"]))


def plan_from_payload(payload: Mapping[str, Any]) -> InferencePlan:
    """Validate a ``repro-plan/1`` payload and rebuild its plan.

    Validation order: schema version, whole-payload digest, weights
    digest over the decoded constants, op-registry resolution, and
    finally the stored step/arena layout against the re-lowered plan.
    Every failure is a ``ValueError`` (``TypeError`` for non-mappings) —
    a loaded plan is trustworthy or absent, never silently different.
    """
    check_schema(payload, PLAN_SCHEMA)
    body = {key: value for key, value in payload.items() if key != "digest"}
    if payload.get("digest") != payload_digest(body):
        raise ValueError(
            "repro-plan/1 payload digest mismatch: the payload was "
            "tampered with or corrupted in transit")
    program = _program_from_payload(payload)
    if payload.get("weights_digest") != _weights_digest(program.consts):
        raise ValueError(
            "repro-plan/1 weights digest mismatch: the constant arrays do "
            "not match the digest the plan was saved with")
    plan = bind_program(program, program.batch)
    plan._program = program
    derived = _jsonify({"steps": _steps_payload(plan),
                        "arena": _arena_payload(plan)})
    stored = _jsonify({"steps": payload.get("steps"),
                       "arena": payload.get("arena")})
    if derived != stored:
        raise ValueError(
            "repro-plan/1 layout mismatch: the stored step/arena layout "
            "does not match the re-lowered plan")
    return plan


def save_plan(plan: InferencePlan, path) -> str:
    """Write the canonical-JSON payload to ``path`` (byte-deterministic)."""
    text = canonical_json(plan.to_dict())
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def load_plan(path) -> InferencePlan:
    """Read and validate a plan saved by :func:`save_plan`."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return plan_from_payload(payload)
