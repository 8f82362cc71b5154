"""The ``repro-plan/2`` byte container of compiled inference plans.

A compiled :class:`~repro.deploy.plan.InferencePlan` is a pile of live
objects — numpy closures over arena views — but everything it *decides*
is a deterministic function of the optimized dataflow graph: the lowering
in :func:`repro.deploy.plan._lower` reproduces the identical step list,
buffer assignment and arena capacities from the identical graph.  So the
container stores the graph (in symbolic-batch form), its constants as raw
bytes, and enough derived layout to cross-check the rebuild::

    offset 0    magic b"REPROPLN"                          8 bytes
    offset 8    header length n (uint64, little-endian)    8 bytes
    offset 16   SHA-256 of the header bytes               32 bytes
    offset 48   SHA-256 of the blob bytes                 32 bytes
    offset 80   header: canonical JSON, UTF-8              n bytes
                zero padding to the next 64-byte boundary
    blob        every constant's raw bytes, each starting on a 64-byte
                boundary of the blob, zero bytes in between

The header holds:

* ``schema``, ``backend`` / ``backend_dtype``, ``input_dtype``,
  ``batch``, ``input_shape``, ``memory_budget`` and ``polymorphic``;
* ``values`` — every graph value in register order, each shape dimension
  an affine ``[m, c]`` pair (``dim = m·batch + c``, derived from tracing
  the model at two batch sizes), constants pointing into ``consts``;
* ``nodes`` — op name (resolved from the op registry on load), input and
  output value indices, kwargs in a tagged encoding that preserves exact
  Python types (ints are affine in the batch too), layer path, the fused
  ``activation`` of a conv (or null) and, only on a conv with fused
  add/mul/div ops, its ``epilogue``: ``[[op, value index, position],
  ...]`` in run order, ``position`` being the conv value's input slot in
  the traced op.  A plan without such a chain keeps the bytes it had
  before epilogues existed, and a container saved then loads with its
  chains as separate steps;
* ``consts`` — one ``{offset, nbytes, shape, dtype, order}`` entry per
  constant; ``order`` keeps F-contiguous weights F-contiguous, so BLAS
  sees the layouts the saved plan computed with;
* ``steps`` / ``arena`` — the layout the saving plan actually used
  (per-step :class:`~repro.deploy.arena.BufferRef`\\ s, streaming band
  parameters, buffer capacities).

Loading hashes the header bytes and the blob bytes once each, as read —
both digests sit in the fixed-size prefix, so :func:`unpack_container`
checks a container's integrity without parsing anything (the plan store
does exactly that on every hit).  It then parses the header, views each
constant as a read-only ``np.frombuffer`` array over the blob, re-lowers
the graph and refuses containers whose stored layout disagrees: the
loaded plan is the plan that was saved, bit for bit, or it is an error.
A ``repro-plan/1`` JSON payload fails with the uniform ``unsupported
plan schema`` error.

Measured on a shared 2-vCPU host with BLAS on one thread, before conv
epilogues shrank the float32 ALF resnet20 serving plan from 482 KB to
445 KB: loading it took about 11 ms against about 46 ms to compile it
(perfbench's ``serialize.load_ms`` read 5–8 ms after), where the
``repro-plan/1`` JSON payload (628 KB) took about 45 ms to load.
``load_vs_compile_speedup`` in
``benchmarks/test_bench_plan_forward.py`` read 5.1 for dense resnet20 in
float64.

Every plan is lowered from this program by :func:`bind_program`:
:func:`~repro.deploy.plan.compile`, loading, and
:meth:`~repro.deploy.plan.InferencePlan.bind`, which just decodes the
affine dims at a new ``batch`` — no model, no re-trace.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..nn.backend import Backend, get_backend
from ..wire import canonical_json, check_schema
from .plan import (_AFFINE_OPS, _FUSABLE_ACTIVATIONS, InferencePlan,
                   PlanStats, _const_conv_params, _epilogue_fits, _Graph,
                   _lower, _Node, _Value, _value_order)

__all__ = ["PLAN_SCHEMA", "PlanProgram", "program_from_graphs",
           "bind_program", "pack_container", "unpack_container",
           "plan_to_bytes", "plan_from_bytes", "save_plan", "load_plan"]

PLAN_SCHEMA = "repro-plan/2"
#: First bytes of every container.
MAGIC = b"REPROPLN"
#: Alignment of the blob and of every constant inside it, in bytes.
ALIGN = 64
#: magic, header length, header SHA-256, blob SHA-256.
_PREFIX = struct.Struct("<8sQ32s32s")
_CONST_KEYS = frozenset(("offset", "nbytes", "shape", "dtype", "order"))


class _NotPolymorphic(Exception):
    """The two traces disagree structurally; fall back to a fixed batch."""


# --------------------------------------------------------------------------- #
# Tagged kwarg codec: exact Python types, ints affine in the batch
# --------------------------------------------------------------------------- #
#: Python type -> wire tag, most specific first (bool before int); an
#: ndarray kwarg is an index array (``x[:, np.array([2, 0])]``).
_TAGS = ((type(None), "n"), (type(Ellipsis), "e"), ((bool, np.bool_), "b"),
         ((int, np.integer), "i"), ((float, np.floating), "f"), (str, "s"),
         (slice, "sl"), (tuple, "t"), (list, "l"), (dict, "d"),
         (np.ndarray, "a"))

#: Tag -> JSON payload of a leaf that must be identical in both traces.
_LEAVES = {
    "n": lambda v: True,
    "e": lambda v: True,
    "b": bool,
    "f": float,
    "s": str,
    "a": lambda v: [v.dtype.str, list(v.shape), v.ravel().tolist()],
}

#: Dtype kinds an index-array kwarg may have: bool, signed, unsigned.
_INDEX_KINDS = "biu"


def _tag(value: Any) -> Optional[str]:
    """The wire tag of one kwarg value, ``None`` if it has no encoding."""
    tag = next((tag for kind, tag in _TAGS if isinstance(value, kind)), None)
    if tag == "a" and value.dtype.kind not in _INDEX_KINDS:
        return None
    return tag


def _encode_kwarg(value: Any, other: Any, batch: int) -> Any:
    """Encode one kwarg, pairing the value from the trace at ``batch + 1``.

    Integers encode as ``{"i": [m, c]}`` with ``value = m·batch + c`` so a
    reshape target like ``(batch, -1)`` re-derives at any batch size.
    Everything non-integral must be identical across the two traces.
    """
    tag = _tag(value)
    if tag is None:
        raise TypeError(f"kwarg of type {type(value).__name__} has no "
                        f"{PLAN_SCHEMA} encoding")
    if _tag(other) != tag:
        raise _NotPolymorphic
    if tag == "i":
        slope = int(other) - int(value)
        return {"i": [slope, int(value) - slope * batch]}
    if tag == "d":
        if set(other) != set(value):
            raise _NotPolymorphic
        return {"d": {key: _encode_kwarg(value[key], other[key], batch)
                      for key in sorted(value)}}
    if tag == "sl":
        value, other = ((v.start, v.stop, v.step) for v in (value, other))
    if tag in ("sl", "t", "l"):
        if len(other) != len(value):
            raise _NotPolymorphic
        return {tag: [_encode_kwarg(v, o, batch)
                      for v, o in zip(value, other)]}
    leaf = _LEAVES[tag](value)
    # repr, not ==: a NaN leaf equals itself, as its wire text does.
    if repr(_LEAVES[tag](other)) != repr(leaf):
        raise _NotPolymorphic
    return {tag: leaf}


def _malformed(encoded: Any) -> ValueError:
    return ValueError(f"malformed kwarg encoding: {encoded!r}")


def _is_shape(shape: Any) -> bool:
    return type(shape) is list and all(type(s) is int and s >= 0
                                       for s in shape)


#: Tag -> check of its JSON payload; parts of a container are checked as
#: they are decoded.
_PAYLOADS = {
    "n": lambda v: v is True,
    "e": lambda v: v is True,
    "b": lambda v: type(v) is bool,
    "s": lambda v: type(v) is str,
    "f": lambda v: type(v) in (int, float),
    "i": lambda v: (type(v) is list and len(v) == 2
                    and all(type(n) is int for n in v)),
    "sl": lambda v: type(v) is list and len(v) == 3,
    "t": lambda v: type(v) is list,
    "l": lambda v: type(v) is list,
    "d": lambda v: type(v) is dict,
    "a": lambda v: type(v) is list and len(v) == 3,
}


def _decode_kwarg(encoded: Mapping[str, Any], batch: int) -> Any:
    if not isinstance(encoded, Mapping) or len(encoded) != 1:
        raise _malformed(encoded)
    (tag, value), = encoded.items()
    if tag not in _PAYLOADS:
        raise ValueError(f"unknown kwarg tag {tag!r} in {PLAN_SCHEMA} header")
    if not _PAYLOADS[tag](value):
        raise _malformed(encoded)
    if tag == "i":
        return value[0] * batch + value[1]
    if tag == "d":
        return {key: _decode_kwarg(part, batch)
                for key, part in value.items()}
    if tag in ("sl", "t", "l"):
        parts = [_decode_kwarg(part, batch) for part in value]
        if tag == "sl":
            return slice(*parts)
        return tuple(parts) if tag == "t" else parts
    if tag == "a":
        return _decode_index_array(encoded)
    if tag in ("n", "e"):
        return None if tag == "n" else Ellipsis
    return float(value) if tag == "f" else value


def _decode_index_array(encoded: Mapping[str, Any]) -> np.ndarray:
    """``{"a": [dtype, shape, items]}`` back into the traced index array."""
    text, shape, items = encoded["a"]
    dtype = _plain_dtype("malformed kwarg encoding", text, _INDEX_KINDS)
    item_type = bool if dtype.kind == "b" else int
    if (not _is_shape(shape) or type(items) is not list
            or len(items) != math.prod(shape)
            or not all(type(item) is item_type for item in items)):
        raise _malformed(encoded)
    try:
        return np.array(items, dtype=dtype).reshape(shape)
    except OverflowError:  # an item out of the dtype's range
        raise _malformed(encoded) from None


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


def _build_program(graph: _Graph, graph_next: _Graph, batch: int,
                   backend: Backend, input_shape,
                   memory_budget) -> PlanProgram:
    """The program pairing ``graph`` with its trace at ``batch + 1``; a
    graph paired with itself gives the fixed-batch program."""
    from ..nn.tensor import _OP_REGISTRY
    order, order_next = _value_order(graph), _value_order(graph_next)
    index = {value: position for position, value in enumerate(order)}
    index_next = {value: position for position, value in enumerate(order_next)}
    if (len(order_next) != len(order)
            or len(graph_next.nodes) != len(graph.nodes)
            or index_next[graph_next.input] != index[graph.input]
            or index_next[graph_next.output] != index[graph.output]):
        raise _NotPolymorphic
    for node, node_next in zip(graph.nodes, graph_next.nodes):
        if (node.op_name != node_next.op_name
                or node.layer != node_next.layer
                or node.activation != node_next.activation
                or _wire_epilogue(node, index)
                != _wire_epilogue(node_next, index_next)
                or len(node.inputs) != len(node_next.inputs)
                or [index[v] for v in node.inputs]
                != [index_next[v] for v in node_next.inputs]
                or index[node.out] != index_next[node_next.out]
                or set(node.kwargs) != set(node_next.kwargs)):
            raise _NotPolymorphic

    values: List[Dict[str, Any]] = []
    consts: List[np.ndarray] = []
    for value, other in zip(order, order_next):
        if (other.kind != value.kind
                or other.dtype != value.dtype
                or len(other.shape) != len(value.shape)
                or (other.is_const and other.array is not None)
                != (value.is_const and value.array is not None)):
            raise _NotPolymorphic
        # dim = m·batch + c, from the sizes at batch and batch + 1.
        dims = [[size_next - size, size - (size_next - size) * batch]
                for size, size_next in zip(value.shape, other.shape)]
        if any(m < 0 or c < 0 for m, c in dims):
            raise _NotPolymorphic
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
    for node, node_next in zip(graph.nodes, graph_next.nodes):
        if _OP_REGISTRY.get(node.op_name) is not node.op:
            raise TypeError(
                f"op {node.op_name!r} is not resolvable from the op "
                f"registry; the plan cannot be serialized")
        kwargs = {key: _encode_kwarg(node.kwargs[key], node_next.kwargs[key],
                                     batch)
                  for key in sorted(node.kwargs)}
        entry = {"op": node.op_name,
                 "inputs": [index[v] for v in node.inputs],
                 "out": index[node.out],
                 "kwargs": kwargs,
                 "layer": node.layer,
                 "activation": node.activation}
        if node.epilogue:
            entry["epilogue"] = _wire_epilogue(node, index)
        nodes.append(entry)

    return PlanProgram(
        backend_name=backend.name,
        backend_dtype=str(backend.dtype),
        input_dtype=str(graph.input.dtype),
        batch=int(batch),
        input_shape=tuple(int(s) for s in input_shape),
        memory_budget=int(memory_budget) if memory_budget else None,
        polymorphic=graph_next is not graph,
        values=values, consts=consts, nodes=nodes,
        input=index[graph.input], output=index[graph.output])


def _wire_epilogue(node: _Node, index: Mapping[_Value, int]) -> List[list]:
    """A node's epilogue as ``[[op, value index, position], ...]``."""
    return [[op_name, index[operand], position]
            for op_name, operand, position in node.epilogue]


def _decode_fusion(wire: Mapping[str, Any], node: _Node,
                   values: List[_Value], ready: set) -> None:
    """Set ``node``'s fused activation and epilogue from its wire entry.

    Rejects, with a ``ValueError`` naming the schema, anything the conv
    step could not replay exactly: fusion on a node that is not a
    constant-parameter conv, an unknown activation, an epilogue op other
    than add/mul/div, an out-of-range value index, or an operand that is
    neither a per-channel constant nor, for add, a same-shape value
    computed before the conv.
    """
    activation, entries = wire["activation"], wire.get("epilogue")
    if activation is None and entries is None:
        return
    where = f"{PLAN_SCHEMA} {wire['op']} node {wire['layer']!r}"
    if node.op_name != "conv2d" or _const_conv_params(node) is None:
        raise ValueError(f"{where}: only a conv2d with constant parameters "
                         f"carries a fused activation or epilogue")
    if activation is not None and activation not in _FUSABLE_ACTIVATIONS:
        raise ValueError(f"{where}: fused activation {activation!r} is not "
                         f"one of {list(_FUSABLE_ACTIVATIONS)}")
    node.activation = activation
    if entries is None:
        return
    if type(entries) is not list or not entries:
        raise ValueError(f"{where}: epilogue must be a non-empty list")
    for entry in entries:
        if type(entry) is not list or len(entry) != 3:
            raise ValueError(f"{where}: epilogue entry {entry!r} is not "
                             f"[op, value index, position]")
        op_name, at, position = entry
        if op_name not in _AFFINE_OPS:
            raise ValueError(f"{where}: epilogue op {op_name!r} is not one "
                             f"of {list(_AFFINE_OPS)}")
        if type(at) is not int or not 0 <= at < len(values):
            raise ValueError(f"{where}: epilogue value index {at!r} is out "
                             f"of range")
        operand = values[at]
        if (type(position) is not int or not _epilogue_fits(
                op_name, operand, position, node.out, ready)):
            raise ValueError(
                f"{where}: epilogue {op_name!r} operand {at} (position "
                f"{position!r}) is neither a per-channel constant nor, for "
                f"add, a same-shape value computed before the conv")
        node.epilogue.append((op_name, operand, position))


def program_from_graphs(graph: _Graph, graph_next: Optional[_Graph], *,
                        batch: int, backend: Backend, input_shape,
                        memory_budget) -> PlanProgram:
    """Build the symbolic-batch program from one or two optimized graphs.

    With ``graph_next`` (the same model traced at ``batch + 1``), every
    shape dimension and integer kwarg gets an affine form in the batch
    and the program is batch-polymorphic.  Structural divergence between
    the traces — or a missing second graph — falls back to a fixed-batch
    program that still serializes but only serves ``batch``.
    """
    if graph_next is not None:
        try:
            return _build_program(graph, graph_next, batch, backend,
                                  input_shape, memory_budget)
        except _NotPolymorphic:
            pass
    return _build_program(graph, graph, batch, backend, input_shape,
                          memory_budget)


def program_to_graph(program: PlanProgram, batch: int) -> _Graph:
    """Instantiate the program's graph at a concrete batch size."""
    from ..nn.tensor import _OP_REGISTRY
    batch = int(batch)
    values: List[_Value] = []
    for entry in program.values:
        shape = tuple(int(m) * batch + int(c) for m, c in entry["dims"])
        dtype = np.dtype(entry["dtype"])
        array = None
        if entry["const"] is not None:
            array = program.consts[entry["const"]]
            if array.shape != shape or array.dtype != dtype:
                raise ValueError(
                    f"{PLAN_SCHEMA} const {entry['const']} is "
                    f"{array.dtype}{list(array.shape)}, but its value "
                    f"declares {dtype}{list(shape)}")
        values.append(_Value(entry["kind"], shape, dtype, array=array,
                             is_const=array is not None))
    ready = {values[program.input]}
    nodes: List[_Node] = []
    for wire in program.nodes:
        op = _OP_REGISTRY.get(wire["op"])
        if op is None:
            raise ValueError(
                f"{PLAN_SCHEMA} header references op {wire['op']!r}, which "
                f"is not in this build's op registry")
        kwargs = {key: _decode_kwarg(encoded, batch)
                  for key, encoded in wire["kwargs"].items()}
        node = _Node(op, [values[i] for i in wire["inputs"]], kwargs,
                     values[wire["out"]], wire["layer"])
        _decode_fusion(wire, node, values, ready)
        nodes.append(node)
        ready.add(node.out)
    return _Graph(nodes, values[program.input], values[program.output])


def bind_program(program: PlanProgram, batch: int,
                 backend: Optional[Backend] = None,
                 stats: Optional[PlanStats] = None) -> InferencePlan:
    """Lower the program at ``batch`` into a fresh :class:`InferencePlan`.

    No tracing happens here — the graph is decoded from the program and
    run through the standard lowering, so two binds of the same program
    at the same batch produce bit-identical plans.  ``stats`` carries
    :func:`~repro.deploy.plan.compile`'s pass counts into the plan.
    """
    batch = int(batch)
    if batch != program.batch and not program.polymorphic:
        raise ValueError(
            f"plan is not batch-polymorphic (the traced graph structure "
            f"depends on the batch size); only batch={program.batch} is "
            f"servable — recompile for batch={batch}")
    if backend is None:
        backend = get_backend(program.backend_name, program.backend_dtype)
    graph = program_to_graph(program, batch)
    return _lower(graph, program, backend, batch,
                  PlanStats() if stats is None else stats)


# --------------------------------------------------------------------------- #
# The byte container
# --------------------------------------------------------------------------- #
def _align(offset: int) -> int:
    return -(-offset // ALIGN) * ALIGN


def pack_container(header: Mapping[str, Any], blob: bytes) -> bytes:
    """Frame a header mapping and a constant blob as one container.

    The header is written as canonical JSON, so equal headers give equal
    bytes; both digests are taken over the bytes exactly as written.
    """
    text = canonical_json(header).encode("utf-8")
    prefix = _PREFIX.pack(MAGIC, len(text), hashlib.sha256(text).digest(),
                          hashlib.sha256(blob).digest())
    end = _PREFIX.size + len(text)
    return b"".join((prefix, text, bytes(_align(end) - end), blob))


def _not_a_container(data: bytes) -> None:
    """Raise the most specific error for bytes without the container magic.

    A JSON payload (a ``repro-plan/1`` file, say) gets the uniform schema
    error of :func:`repro.wire.check_schema`; anything else is not a plan.
    """
    try:
        payload = json.loads(data)
    except (ValueError, RecursionError):
        pass
    else:
        check_schema(payload, PLAN_SCHEMA)
    raise ValueError(
        f"unreadable {PLAN_SCHEMA} container: it neither starts with the "
        f"{MAGIC!r} magic nor is a JSON payload")


def unpack_container(data: bytes) -> Tuple[bytes, memoryview]:
    """Split a container into its header bytes and constant blob.

    Checks the framing and both digests, each hashed once over the bytes
    as read; parses nothing.  Raises ``ValueError`` naming the damaged
    region: truncation, a header length that lies, a flipped byte in the
    header, padding or blob, or bytes that are not a container at all.
    """
    if not isinstance(data, bytes):
        raise TypeError(f"a {PLAN_SCHEMA} container must be bytes, "
                        f"got {type(data).__name__}")
    if data[:len(MAGIC)] != MAGIC:
        _not_a_container(data)
    if len(data) < _PREFIX.size:
        raise ValueError(f"{PLAN_SCHEMA} container truncated inside its "
                         f"{_PREFIX.size}-byte prefix ({len(data)} bytes)")
    _, length, header_sha, blob_sha = _PREFIX.unpack_from(data)
    end = _PREFIX.size + length
    if end > len(data):
        raise ValueError(
            f"{PLAN_SCHEMA} container truncated: the prefix declares a "
            f"{length}-byte header but only {len(data) - _PREFIX.size} "
            f"bytes follow it")
    view = memoryview(data)
    header = bytes(view[_PREFIX.size:end])
    if hashlib.sha256(header).digest() != header_sha:
        raise ValueError(
            f"{PLAN_SCHEMA} header digest mismatch: the header was tampered "
            f"with, corrupted, or its declared length is wrong")
    start = _align(end)
    if start > len(data):
        raise ValueError(f"{PLAN_SCHEMA} container truncated inside the "
                         f"padding after its header")
    if any(view[end:start]):
        raise ValueError(f"{PLAN_SCHEMA} header padding is not zero")
    blob = view[start:]
    if hashlib.sha256(blob).digest() != blob_sha:
        raise ValueError(
            f"{PLAN_SCHEMA} blob digest mismatch: the constant bytes were "
            f"truncated, tampered with or corrupted")
    return header, blob


def _plain_dtype(where: str, text: Any, kinds: str = "biufc") -> np.dtype:
    try:
        dtype = np.dtype(text) if isinstance(text, str) else None
    except Exception:  # numpy raises TypeError, ValueError or SyntaxError
        dtype = None
    if dtype is None or dtype.kind not in kinds:
        raise ValueError(f"{where}: dtype {text!r} is not a plain numeric "
                         f"dtype (kinds {kinds!r})")
    return dtype


def _consts_from_table(table: Any, blob: memoryview) -> List[np.ndarray]:
    """Views into ``blob``, one per ``consts`` table entry; read-only, as
    the blob views immutable ``bytes``.

    Every entry must start on the first 64-byte boundary after the one
    before it, span exactly ``shape`` × ``dtype`` bytes and end inside the
    blob, and the last must end where the blob does.
    """
    if not isinstance(table, list):
        raise ValueError(f"{PLAN_SCHEMA} consts table must be a list")
    consts: List[np.ndarray] = []
    end = 0
    for index, entry in enumerate(table):
        where = f"{PLAN_SCHEMA} const {index}"
        if not isinstance(entry, Mapping) or set(entry) != _CONST_KEYS:
            raise ValueError(f"{where}: entry must hold exactly "
                             f"{sorted(_CONST_KEYS)}")
        dtype = _plain_dtype(where, entry["dtype"])
        offset, nbytes = entry["offset"], entry["nbytes"]
        shape = entry["shape"]
        if not _is_shape(shape):
            raise ValueError(f"{where}: shape {shape!r} is not a list of "
                             f"sizes")
        count = math.prod(shape)
        if nbytes != count * dtype.itemsize:
            raise ValueError(
                f"{where}: size {nbytes!r} disagrees with shape {shape} of "
                f"{dtype} ({count * dtype.itemsize} bytes)")
        if type(offset) is not int or offset % ALIGN:
            raise ValueError(f"{where}: offset {offset!r} is misaligned (not "
                             f"a multiple of {ALIGN})")
        if offset < end:
            raise ValueError(f"{where}: offset {offset} is overlapping the "
                             f"previous constant, which ends at {end}")
        if offset + nbytes > len(blob):
            raise ValueError(
                f"{where}: bytes [{offset}, {offset + nbytes}) run past the "
                f"end of the {len(blob)}-byte blob")
        if offset != _align(end):
            raise ValueError(f"{where}: offset {offset} leaves a gap after "
                             f"the previous constant (expected {_align(end)})")
        if entry["order"] not in ("C", "F"):
            raise ValueError(f"{where}: order {entry['order']!r} is neither "
                             f"'C' nor 'F'")
        array = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        consts.append(array.reshape(shape, order=entry["order"]))
        end = offset + nbytes
    if end != len(blob):
        raise ValueError(f"{PLAN_SCHEMA} blob has {len(blob) - end} bytes "
                         f"after its last constant")
    return consts


def _blob(consts: List[np.ndarray]) -> Tuple[List[Dict[str, Any]], bytes]:
    """The ``consts`` table and the blob holding every constant's bytes.

    A constant keeps its memory order (F-contiguous arrays stay F, as
    ``np.save`` would write them): BLAS rounds differently for different
    layouts, so a transposed linear weight must load back transposed.
    """
    table: List[Dict[str, Any]] = []
    chunks: List[bytes] = []
    end = 0
    for array in consts:
        order = ("F" if array.flags.f_contiguous
                 and not array.flags.c_contiguous else "C")
        data = array.tobytes(order=order)
        offset = _align(end)
        chunks += [bytes(offset - end), data]
        table.append({"offset": offset, "nbytes": len(data),
                      "shape": [int(s) for s in array.shape],
                      "dtype": array.dtype.str, "order": order})
        end = offset + len(data)
    return table, b"".join(chunks)


@functools.lru_cache(maxsize=None)
def _dtype_name(dtype: np.dtype) -> str:
    return str(dtype)  # ~4 µs uncached: numpy builds the name in Python


def _steps_payload(plan: InferencePlan) -> List[Dict[str, Any]]:
    """The derived layout of every step: buffer refs + streaming bands.

    Built from JSON types only, so it compares equal to the header's
    parsed copy without a normalizing round trip.
    """
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
                                    "dtype": _dtype_name(ref.dtype)}
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


def plan_to_bytes(plan: InferencePlan) -> bytes:
    """The ``repro-plan/2`` container of a compiled plan (byte-stable)."""
    program = plan._program
    table, blob = _blob(program.consts)
    budget = program.memory_budget
    header = {
        "schema": PLAN_SCHEMA,
        "backend": program.backend_name,
        "backend_dtype": program.backend_dtype,
        "input_dtype": program.input_dtype,
        "batch": int(plan.batch),
        "input_shape": [int(s) for s in program.input_shape],
        "memory_budget": int(budget) if budget is not None else None,
        "polymorphic": bool(program.polymorphic),
        "values": program.values,
        "nodes": program.nodes,
        "input": int(program.input),
        "output": int(program.output),
        "consts": table,
        "steps": _steps_payload(plan),
        "arena": _arena_payload(plan),
    }
    return pack_container(header, blob)


def _program_from_header(header: Mapping[str, Any],
                         consts: List[np.ndarray]) -> PlanProgram:
    budget = header["memory_budget"]
    return PlanProgram(
        backend_name=header["backend"],
        backend_dtype=header["backend_dtype"],
        input_dtype=header["input_dtype"],
        batch=int(header["batch"]),
        input_shape=tuple(int(s) for s in header["input_shape"]),
        memory_budget=int(budget) if budget is not None else None,
        polymorphic=bool(header["polymorphic"]),
        values=list(header["values"]), consts=consts,
        nodes=list(header["nodes"]),
        input=int(header["input"]), output=int(header["output"]))


def plan_from_bytes(data: bytes) -> InferencePlan:
    """Validate a ``repro-plan/2`` container and rebuild its plan.

    Validation order: framing and the two byte digests
    (:func:`unpack_container`), the header's schema tag, the ``consts``
    table against the blob, op-registry resolution, and finally the
    stored step/arena layout against the re-lowered plan.  Every failure
    is a ``ValueError`` (``TypeError`` for a non-object header or
    non-bytes input): a loaded plan is trustworthy or absent, never
    silently different.  Constants are read-only views into ``data``.
    """
    if isinstance(data, (bytearray, memoryview)):
        data = bytes(data)  # the constants view these bytes: freeze them
    header_bytes, blob = unpack_container(data)
    try:
        header = json.loads(header_bytes)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{PLAN_SCHEMA} header is not JSON: {exc}") from None
    check_schema(header, PLAN_SCHEMA)
    consts = _consts_from_table(header.get("consts"), blob)
    try:
        program = _program_from_header(header, consts)
        plan = bind_program(program, program.batch)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {PLAN_SCHEMA} header: "
                         f"{type(exc).__name__}: {exc}") from None
    if (_steps_payload(plan) != header.get("steps")
            or _arena_payload(plan) != header.get("arena")):
        raise ValueError(
            f"{PLAN_SCHEMA} layout mismatch: the stored step/arena layout "
            f"does not match the re-lowered plan")
    return plan


def save_plan(plan: InferencePlan, path) -> str:
    """Write the plan's container bytes to ``path``."""
    data = plan_to_bytes(plan)
    path = os.fspath(path)
    with open(path, "wb") as handle:
        handle.write(data)
    return path


def load_plan(path) -> InferencePlan:
    """Read and validate a plan saved by :func:`save_plan`."""
    with open(os.fspath(path), "rb") as handle:
        return plan_from_bytes(handle.read())
