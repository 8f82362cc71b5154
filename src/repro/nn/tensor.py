"""Reverse-mode automatic differentiation on an explicit recorded-op tape.

The :class:`Tensor` class is the foundation of the ``repro.nn`` framework.
It wraps a numpy array (python data adopts the default dtype of
:mod:`repro.nn.backend`) and — when gradients are enabled — records the
operation that produced it as a :class:`TapeNode` referencing a
**registered op**: a named (forward, backward) pair in the global op
registry.  :meth:`Tensor.backward` replays the recorded tape in reverse
topological order.

Compared to the previous design (one backward *closure* captured per
operation), the explicit tape buys three things:

* **Graph-free inference** — under :func:`no_grad` (or a module in eval
  mode) no tape node, context or closure is allocated at all; the forward
  pass is plain array arithmetic.
* **Registered ops** — every differentiable operation is a named entry in
  one registry (:func:`register_op`), so the backward rules live next to
  their forwards and new ops plug in uniformly (see
  :mod:`repro.nn.functional` for conv/pool, :mod:`repro.nn.ste` for the
  straight-through estimators).
* **One op-observation channel** — :func:`observe_ops` hands every
  observer an :class:`OpRecord` per executed op, at zero overhead when
  none is installed: :mod:`repro.nn.profiler` builds per-layer reports
  from the records, :mod:`repro.deploy` the dataflow graph of a forward.

Only the operations required by the ALF reproduction are implemented, but
they are implemented completely (broadcasting, axis reductions, slicing)
so the rest of the library can be written naturally.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from .backend import get_default_dtype, set_default_dtype  # noqa: F401

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    # Numpy scalars (e.g. the result of a full reduction) keep their dtype
    # exactly like arrays do; only python data adopts the backend default.
    if isinstance(data, (np.ndarray, np.generic)):
        data = np.asarray(data)
        if dtype is not None and data.dtype != dtype:
            return data.astype(dtype)
        if data.dtype.kind not in "fc":
            return data.astype(get_default_dtype())
        return data
    return np.asarray(data, dtype=dtype or get_default_dtype())


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Numpy broadcasting expands dimensions during the forward pass; the
    corresponding backward pass must sum gradients over the broadcast
    dimensions to recover a gradient of the original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# --------------------------------------------------------------------------- #
# Grad modes
# --------------------------------------------------------------------------- #
#: Per-thread grad mode: ``None`` — default (tape recorded for tensors
#: requiring grad); ``False`` — disabled (:class:`no_grad`); ``True`` —
#: forced on (:class:`enable_grad`, overriding eval-mode inference).
#: Thread-locality means a ``no_grad`` scope in one sweep shard can never
#: turn off recording in a concurrently-training shard.
_GRAD_MODE_TLS = threading.local()


def _grad_mode() -> Optional[bool]:
    return getattr(_GRAD_MODE_TLS, "value", None)


def is_grad_enabled() -> bool:
    """Whether operations currently record tape nodes (in this thread)."""
    return _grad_mode() is not False


def grad_mode_override() -> Optional[bool]:
    """The explicit grad-mode override, or ``None`` when in the default mode."""
    return _grad_mode()


@contextmanager
def set_grad_mode(mode: Optional[bool]):
    """Scoped reinstatement of a captured grad-mode override.

    ``mode`` is a value previously read from :func:`grad_mode_override`;
    sweep workers use this to run each shard under the parent's grad mode.
    """
    previous = _grad_mode()
    _GRAD_MODE_TLS.value = mode
    try:
        yield
    finally:
        _GRAD_MODE_TLS.value = previous


class _GradSwitch:
    """Context manager / decorator flipping the thread's grad mode."""

    _state: Optional[bool] = None

    def __init__(self):
        self._previous: List[Optional[bool]] = []

    def __enter__(self):
        self._previous.append(_grad_mode())
        _GRAD_MODE_TLS.value = self._state
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_MODE_TLS.value = self._previous.pop()
        return False

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with type(self)():
                return fn(*args, **kwargs)
        return wrapped


class no_grad(_GradSwitch):
    """Disable tape recording: forwards allocate no graph nodes at all."""

    _state = False


class enable_grad(_GradSwitch):
    """Force tape recording, overriding :class:`no_grad` and eval-mode inference."""

    _state = True


# --------------------------------------------------------------------------- #
# Registered ops and the tape
# --------------------------------------------------------------------------- #
class Op:
    """A named differentiable operation.

    ``forward(*arrays, **kwargs)`` returns ``(out_array, ctx)``;
    ``backward(ctx, grad, needs)`` returns one gradient array (or ``None``)
    per input, where ``needs[i]`` tells whether input ``i`` requires grad
    (so expensive gradients can be skipped).
    """

    __slots__ = ("name", "forward", "backward")

    def __init__(self, name: str, forward: Callable, backward: Callable):
        self.name = name
        self.forward = forward
        self.backward = backward

    def __repr__(self) -> str:
        return f"Op({self.name!r})"


_OP_REGISTRY: Dict[str, Op] = {}


def register_op(name: str, forward: Callable, backward: Callable) -> Op:
    """Register a named (forward, backward) pair; returns the :class:`Op`."""
    if name in _OP_REGISTRY:
        raise ValueError(f"op '{name}' is already registered")
    op = Op(name, forward, backward)
    _OP_REGISTRY[name] = op
    return op


def registered_ops() -> List[str]:
    return sorted(_OP_REGISTRY)


class TapeNode:
    """One recorded operation: the op, its input tensors and saved context."""

    __slots__ = ("op", "inputs", "ctx", "needs")

    def __init__(self, op: Op, inputs: Tuple["Tensor", ...], ctx,
                 needs: Tuple[bool, ...]):
        self.op = op
        self.inputs = inputs
        self.ctx = ctx
        self.needs = needs


#: Monotonic counter of tape nodes allocated since import; lets tests assert
#: that inference paths are graph-free (snapshot before / after).  Guarded
#: by a lock: concurrent training shards (thread-executor sweeps) must not
#: lose increments to interleaved read-modify-write.
_TAPE_NODES_CREATED = 0
_TAPE_COUNTER_LOCK = threading.Lock()


def _bump_tape_counter() -> None:
    global _TAPE_NODES_CREATED
    with _TAPE_COUNTER_LOCK:
        _TAPE_NODES_CREATED += 1


def tape_nodes_created() -> int:
    """Total number of tape nodes allocated so far in this process."""
    return _TAPE_NODES_CREATED


# -- op observers ------------------------------------------------------------ #
class OpRecord(NamedTuple):
    """One executed op: raw input/output arrays (a kept record keeps their
    ``id()`` unique), wall-clock and :func:`current_layer` while it ran."""

    op: Op
    arrays: Tuple[np.ndarray, ...]
    kwargs: Dict[str, object]
    out: np.ndarray
    seconds: float
    layer: str


#: Per-thread observer lists: like the grad mode and scoped backends,
#: observers are thread-local so a profile or plan trace in one sweep shard
#: sees exactly its own ops — and a shard restoring its snapshot on exit
#: cannot clobber an observer a concurrently-running shard installed.
_OP_HOOKS_TLS = threading.local()

OpHook = Callable[[OpRecord], None]


def _op_hooks() -> List[OpHook]:
    hooks = getattr(_OP_HOOKS_TLS, "hooks", None)
    if hooks is None:
        hooks = _OP_HOOKS_TLS.hooks = []
    return hooks


def op_hooks_active() -> bool:
    """Whether any op observer is installed in the calling thread.

    This is the one check :meth:`repro.nn.Module.__call__` performs before
    pushing a layer scope — the unobserved path stays a single truthiness
    test, exactly like the observer fast path in :func:`apply_op`.
    """
    return bool(getattr(_OP_HOOKS_TLS, "hooks", None))


def add_op_hook(hook: OpHook) -> OpHook:
    """Install ``hook(record)`` on every op run by this thread, whatever
    the grad mode; each call gets that op's :class:`OpRecord`."""
    _op_hooks().append(hook)
    return hook


def remove_op_hook(hook: OpHook) -> None:
    """Uninstall ``hook`` from this thread; a no-op when it is not installed.

    Idempotency matters: sweep shards restore their op-hook snapshot via
    :func:`restore_op_hooks` on exit, and when that reset fires *inside* an
    active :func:`observe_ops` context the context's own hook is already
    gone by the time its ``finally`` runs.
    """
    hooks = _op_hooks()
    try:
        hooks.remove(hook)
    except ValueError:
        pass


def installed_op_hooks() -> List[OpHook]:
    """A snapshot of the calling thread's installed op hooks."""
    return list(_op_hooks())


def restore_op_hooks(hooks: Iterable[OpHook]) -> None:
    """Reset this thread's op hooks to an :func:`installed_op_hooks` snapshot.

    Sweep shards restore the snapshot after running a spec so a hook
    installed (or leaked through an exception) inside one shard can never
    observe — or slow down — the specs that follow it.
    """
    _op_hooks()[:] = list(hooks)


@contextmanager
def observe_ops(hook: OpHook):
    """Call ``hook(record)`` for every op this thread runs in the context;
    observers nest, and every installed one sees every op."""
    add_op_hook(hook)
    try:
        yield
    finally:
        remove_op_hook(hook)


# -- layer scopes ------------------------------------------------------------ #
#: Per-thread stack of module names pushed by ``Module.__call__`` while op
#: observers are installed; :func:`apply_op` joins it into the layer path of
#: every :class:`OpRecord`.  Thread-local for the same reason the observers
#: are: an observed shard must attribute ops to *its* layers only.
_LAYER_SCOPE_TLS = threading.local()


def _layer_stack() -> List[str]:
    stack = getattr(_LAYER_SCOPE_TLS, "stack", None)
    if stack is None:
        stack = _LAYER_SCOPE_TLS.stack = []
    return stack


def push_layer_scope(name: str) -> None:
    """Enter a named layer scope (called by ``Module.__call__`` when observed)."""
    _layer_stack().append(name)


def pop_layer_scope() -> None:
    """Leave the innermost layer scope."""
    stack = getattr(_LAYER_SCOPE_TLS, "stack", None)
    if stack:
        stack.pop()


def current_layer() -> str:
    """The executing layer's module path (``""`` outside any module forward)."""
    stack = getattr(_LAYER_SCOPE_TLS, "stack", None)
    return ".".join(stack) if stack else ""


def apply_op(op: Op, *inputs: "Tensor", **kwargs) -> "Tensor":
    """Execute a registered op on tensors, recording a tape node if needed."""
    arrays = tuple(t.data for t in inputs)
    hooks = getattr(_OP_HOOKS_TLS, "hooks", None)
    if hooks:
        layer = current_layer()
        start = time.perf_counter()
        data, ctx = op.forward(*arrays, **kwargs)
        record = OpRecord(op, arrays, kwargs, data,
                          time.perf_counter() - start, layer)
        for hook in tuple(hooks):
            hook(record)
    else:
        data, ctx = op.forward(*arrays, **kwargs)
    if _grad_mode() is False:
        return Tensor(data)
    needs = tuple(t.requires_grad for t in inputs)
    if not any(needs):
        return Tensor(data)
    _bump_tape_counter()
    out = Tensor(data, requires_grad=True)
    out._node = TapeNode(op, inputs, ctx, needs)
    return out


# --------------------------------------------------------------------------- #
# Op definitions: arithmetic
# --------------------------------------------------------------------------- #
def _add_fwd(a, b):
    return a + b, (a.shape, b.shape)


def _add_bwd(ctx, grad, needs):
    sa, sb = ctx
    return (unbroadcast(grad, sa) if needs[0] else None,
            unbroadcast(grad, sb) if needs[1] else None)


def _neg_fwd(a):
    return -a, None


def _neg_bwd(ctx, grad, needs):
    return (-grad,)


def _mul_fwd(a, b):
    return a * b, (a, b)


def _mul_bwd(ctx, grad, needs):
    a, b = ctx
    return (unbroadcast(grad * b, a.shape) if needs[0] else None,
            unbroadcast(grad * a, b.shape) if needs[1] else None)


def _div_fwd(a, b):
    return a / b, (a, b)


def _div_bwd(ctx, grad, needs):
    a, b = ctx
    return (unbroadcast(grad / b, a.shape) if needs[0] else None,
            unbroadcast(-grad * a / (b ** 2), b.shape) if needs[1] else None)


def _pow_fwd(a, *, exponent):
    return a ** exponent, (a, exponent)


def _pow_bwd(ctx, grad, needs):
    a, exponent = ctx
    return (grad * exponent * a ** (exponent - 1),)


def _matmul_fwd(a, b):
    return a @ b, (a, b)


def _matmul_bwd(ctx, grad, needs):
    a, b = ctx
    grad_a = grad_b = None
    if needs[0]:
        if b.ndim == 1:
            grad_a = np.expand_dims(grad, -1) * b
        else:
            grad_a = grad @ np.swapaxes(b, -1, -2)
        grad_a = unbroadcast(grad_a, a.shape)
    if needs[1]:
        if a.ndim == 1:
            grad_b = np.outer(a, grad) if grad.ndim == 1 else (
                np.swapaxes(np.expand_dims(a, -2), -1, -2) @ np.expand_dims(grad, -2)
            )
        else:
            grad_b = np.swapaxes(a, -1, -2) @ grad
        grad_b = unbroadcast(grad_b, b.shape)
    return (grad_a, grad_b)


_ADD = register_op("add", _add_fwd, _add_bwd)
_NEG = register_op("neg", _neg_fwd, _neg_bwd)
_MUL = register_op("mul", _mul_fwd, _mul_bwd)
_DIV = register_op("div", _div_fwd, _div_bwd)
_POW = register_op("pow", _pow_fwd, _pow_bwd)
_MATMUL = register_op("matmul", _matmul_fwd, _matmul_bwd)


# --------------------------------------------------------------------------- #
# Op definitions: elementwise math
# --------------------------------------------------------------------------- #
def _exp_fwd(a):
    out = np.exp(a)
    return out, out


def _exp_bwd(ctx, grad, needs):
    return (grad * ctx,)


def _log_fwd(a):
    return np.log(a), a


def _log_bwd(ctx, grad, needs):
    return (grad / ctx,)


def _abs_fwd(a):
    return np.abs(a), a


def _abs_bwd(ctx, grad, needs):
    return (grad * np.sign(ctx),)


def _tanh_fwd(a):
    out = np.tanh(a)
    return out, out


def _tanh_bwd(ctx, grad, needs):
    return (grad * (1.0 - ctx ** 2),)


def _sigmoid_fwd(a):
    out = 1.0 / (1.0 + np.exp(-a))
    return out, out


def _sigmoid_bwd(ctx, grad, needs):
    return (grad * ctx * (1.0 - ctx),)


def _relu_fwd(a):
    mask = a > 0
    return a * mask, mask


def _relu_bwd(ctx, grad, needs):
    return (grad * ctx,)


def _clip_fwd(a, *, low, high):
    return np.clip(a, low, high), (a >= low) & (a <= high)


def _clip_bwd(ctx, grad, needs):
    return (grad * ctx,)


def _maximum_fwd(a, b):
    mask_a = a >= b
    return np.maximum(a, b), (a.shape, b.shape, mask_a)


def _maximum_bwd(ctx, grad, needs):
    sa, sb, mask_a = ctx
    return (unbroadcast(grad * mask_a, sa) if needs[0] else None,
            unbroadcast(grad * (~mask_a), sb) if needs[1] else None)


_EXP = register_op("exp", _exp_fwd, _exp_bwd)
_LOG = register_op("log", _log_fwd, _log_bwd)
_ABS = register_op("abs", _abs_fwd, _abs_bwd)
_TANH = register_op("tanh", _tanh_fwd, _tanh_bwd)
_SIGMOID = register_op("sigmoid", _sigmoid_fwd, _sigmoid_bwd)
_RELU = register_op("relu", _relu_fwd, _relu_bwd)
_CLIP = register_op("clip", _clip_fwd, _clip_bwd)
_MAXIMUM = register_op("maximum", _maximum_fwd, _maximum_bwd)


# --------------------------------------------------------------------------- #
# Op definitions: reductions
# --------------------------------------------------------------------------- #
def _sum_fwd(a, *, axis, keepdims):
    return a.sum(axis=axis, keepdims=keepdims), (a.shape, a.ndim, axis, keepdims)


def _sum_bwd(ctx, grad, needs):
    shape, ndim, axis, keepdims = ctx
    g = grad
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % ndim for a in axes)
        g = g.reshape([1 if i in axes else s for i, s in enumerate(shape)])
    return (np.broadcast_to(g, shape).copy(),)


def _max_fwd(a, *, axis, keepdims):
    out = a.max(axis=axis, keepdims=keepdims)
    return out, (a, out, axis, keepdims)


def _max_bwd(ctx, grad, needs):
    a, out, axis, keepdims = ctx
    g = grad
    expanded = out
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % a.ndim for ax in axes)
        shape = [1 if i in axes else s for i, s in enumerate(a.shape)]
        g = g.reshape(shape)
        expanded = out.reshape(shape)
    mask = (a == expanded)
    # Split gradient equally between ties to keep the operator linear.
    counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    return (mask * g / counts,)


_SUM = register_op("sum", _sum_fwd, _sum_bwd)
_MAX = register_op("max", _max_fwd, _max_bwd)


# --------------------------------------------------------------------------- #
# Op definitions: shape manipulation
# --------------------------------------------------------------------------- #
def _reshape_fwd(a, *, shape):
    return a.reshape(shape), a.shape


def _reshape_bwd(ctx, grad, needs):
    return (grad.reshape(ctx),)


def _transpose_fwd(a, *, axes):
    return a.transpose(axes), np.argsort(axes)


def _transpose_bwd(ctx, grad, needs):
    return (grad.transpose(ctx),)


def _getitem_fwd(a, *, index):
    return a[index], (a.shape, a.dtype, index)


def _getitem_bwd(ctx, grad, needs):
    shape, dtype, index = ctx
    full = np.zeros(shape, dtype=dtype)
    np.add.at(full, index, grad)
    return (full,)


def _pad2d_fwd(a, *, padding):
    ndim = a.ndim
    pad_width = [(0, 0)] * (ndim - 2) + [(padding, padding), (padding, padding)]
    slices = tuple(
        slice(None) if i < ndim - 2 else slice(padding, -padding)
        for i in range(ndim)
    )
    return np.pad(a, pad_width), slices


def _pad2d_bwd(ctx, grad, needs):
    return (grad[ctx],)


def _concatenate_fwd(*arrays, axis):
    sizes = [a.shape[axis] for a in arrays]
    return np.concatenate(arrays, axis=axis), (axis, np.cumsum([0] + sizes))


def _concatenate_bwd(ctx, grad, needs):
    axis, offsets = ctx
    grads = []
    for need, start, stop in zip(needs, offsets[:-1], offsets[1:]):
        if not need:
            grads.append(None)
            continue
        index = [slice(None)] * grad.ndim
        index[axis] = slice(start, stop)
        grads.append(grad[tuple(index)])
    return tuple(grads)


def _stack_fwd(*arrays, axis):
    return np.stack(arrays, axis=axis), axis


def _stack_bwd(ctx, grad, needs):
    pieces = np.split(grad, len(needs), axis=ctx)
    return tuple(
        np.squeeze(piece, axis=ctx) if need else None
        for need, piece in zip(needs, pieces)
    )


_RESHAPE = register_op("reshape", _reshape_fwd, _reshape_bwd)
_TRANSPOSE = register_op("transpose", _transpose_fwd, _transpose_bwd)
_GETITEM = register_op("getitem", _getitem_fwd, _getitem_bwd)
_PAD2D = register_op("pad2d", _pad2d_fwd, _pad2d_bwd)
_CONCATENATE = register_op("concatenate", _concatenate_fwd, _concatenate_bwd)
_STACK = register_op("stack", _stack_fwd, _stack_bwd)


class Tensor:
    """A numpy-array tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        dtype=None,
    ):
        self.data = _as_array(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[TapeNode] = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Autograd machinery
    # ------------------------------------------------------------------ #
    def _accumulate_grad(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Replay the recorded tape in reverse starting from this tensor."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)

        topo: List[Tensor] = []
        visited: set = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            tensor, processed = stack.pop()
            if processed:
                topo.append(tensor)
                continue
            if id(tensor) in visited:
                continue
            visited.add(id(tensor))
            stack.append((tensor, True))
            if tensor._node is not None:
                for parent in tensor._node.inputs:
                    if id(parent) not in visited:
                        stack.append((parent, False))

        self._accumulate_grad(grad)
        for tensor in reversed(topo):
            node = tensor._node
            if node is None or tensor.grad is None:
                continue
            grads = node.op.backward(node.ctx, tensor.grad, node.needs)
            for parent, parent_grad in zip(node.inputs, grads):
                if parent_grad is not None and parent.requires_grad:
                    parent._accumulate_grad(parent_grad)

    # ------------------------------------------------------------------ #
    # Helpers to build graph nodes
    # ------------------------------------------------------------------ #
    @staticmethod
    def as_tensor(value: Union["Tensor", ArrayLike],
                  like: Optional["Tensor"] = None) -> "Tensor":
        """Coerce ``value`` to a tensor.

        Python scalars / sequences adopt ``like``'s floating dtype when
        given (so mixing a float32 graph with scalar constants does not
        silently promote to float64); existing arrays keep their dtype.
        """
        if isinstance(value, Tensor):
            return value
        if isinstance(value, np.ndarray):
            return Tensor(value)
        dtype = like.data.dtype if like is not None and like.data.dtype.kind == "f" else None
        return Tensor(value, dtype=dtype)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        return apply_op(_ADD, self, Tensor.as_tensor(other, like=self))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply_op(_NEG, self)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.as_tensor(other, like=self))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.as_tensor(other, like=self) + (-self)

    def __mul__(self, other) -> "Tensor":
        return apply_op(_MUL, self, Tensor.as_tensor(other, like=self))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return apply_op(_DIV, self, Tensor.as_tensor(other, like=self))

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.as_tensor(other, like=self) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log explicitly")
        return apply_op(_POW, self, exponent=exponent)

    def __matmul__(self, other) -> "Tensor":
        return apply_op(_MATMUL, self, Tensor.as_tensor(other, like=self))

    def __rmatmul__(self, other) -> "Tensor":
        return Tensor.as_tensor(other, like=self) @ self

    # ------------------------------------------------------------------ #
    # Elementwise math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return apply_op(_EXP, self)

    def log(self) -> "Tensor":
        return apply_op(_LOG, self)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        return apply_op(_ABS, self)

    def tanh(self) -> "Tensor":
        return apply_op(_TANH, self)

    def sigmoid(self) -> "Tensor":
        return apply_op(_SIGMOID, self)

    def relu(self) -> "Tensor":
        return apply_op(_RELU, self)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed only inside the interval."""
        return apply_op(_CLIP, self, low=low, high=high)

    def maximum(self, other) -> "Tensor":
        return apply_op(_MAXIMUM, self, Tensor.as_tensor(other, like=self))

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_SUM, self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_MAX, self, axis=axis, keepdims=keepdims)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op(_RESHAPE, self, shape=shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(lead + (-1,))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return apply_op(_TRANSPOSE, self, axes=axes)

    def __getitem__(self, index) -> "Tensor":
        return apply_op(_GETITEM, self, index=index)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        return apply_op(_PAD2D, self, padding=padding)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor.as_tensor(t) for t in tensors]
    return apply_op(_CONCATENATE, *tensors, axis=axis)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [Tensor.as_tensor(t) for t in tensors]
    return apply_op(_STACK, *tensors, axis=axis)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=get_default_dtype()),
                  requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=get_default_dtype()),
                  requires_grad=requires_grad)


def randn(*shape, requires_grad: bool = False, rng: Optional[np.random.Generator] = None) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(get_default_dtype(), copy=False),
                  requires_grad=requires_grad)
