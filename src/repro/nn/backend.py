"""Pluggable array-execution backends for the ``repro.nn`` engine.

Every array operation performed by the tensor/tape machinery and by the
functional ops routes through one :class:`Backend` instance, which owns

* array **creation** (``asarray`` / ``zeros`` / ``randn`` / ...),
* the heavy **linear algebra** primitives (``matmul`` / ``einsum``),
* the **im2col / col2im** convolution lowering, and
* the **default floating dtype** used when tensors are built from python
  data.

The default is :class:`NumpyBackend` in float64 (the historical behaviour
of the library), but alternative backends plug in by name through
:func:`register_backend` — e.g. the registered ``"numpy32"`` backend runs
the identical numpy code with a float32 default dtype (roughly half the
memory traffic on the im2col hot path), and a future array-API / GPU
backend only has to implement this surface.

The process-wide default dtype can be selected without touching code via
the ``REPRO_DEFAULT_DTYPE`` environment variable (e.g.
``REPRO_DEFAULT_DTYPE=float32 python -m pytest``).
"""

from __future__ import annotations

import copy
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

BackendLike = Union[str, "Backend"]


class Backend:
    """Protocol for an array-execution backend.

    Concrete backends subclass this and implement every primitive in terms
    of their array library.  The base class only manages the default dtype
    (shared by all implementations) and documents the required surface.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    #: Whether numpy-style in-place ufuncs (``out=`` kwargs, ``+=`` on the
    #: backend's arrays) are valid and bit-identical to their out-of-place
    #: forms.  Compiled inference plans (:mod:`repro.deploy`) only emit
    #: buffer-reusing kernels when this is true; otherwise every step falls
    #: back to the pure registered-op forward.
    supports_inplace: bool = False

    def __init__(self, dtype=np.float64):
        self._default_dtype = np.dtype(dtype)

    # ------------------------------------------------------------------ #
    # Default dtype
    # ------------------------------------------------------------------ #
    @property
    def default_dtype(self) -> np.dtype:
        """Dtype used when tensors are constructed from python data."""
        return self._default_dtype

    def set_default_dtype(self, dtype) -> None:
        self._default_dtype = np.dtype(dtype)

    def with_dtype(self, dtype) -> "Backend":
        """A shallow copy of this backend with a different default dtype."""
        clone = copy.copy(self)
        clone._default_dtype = np.dtype(dtype)
        return clone

    # ------------------------------------------------------------------ #
    # Array creation
    # ------------------------------------------------------------------ #
    def asarray(self, data, dtype=None) -> np.ndarray:
        raise NotImplementedError

    def zeros(self, shape, dtype=None) -> np.ndarray:
        raise NotImplementedError

    def ones(self, shape, dtype=None) -> np.ndarray:
        raise NotImplementedError

    def zeros_like(self, array) -> np.ndarray:
        raise NotImplementedError

    def randn(self, shape, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Optional ``out=`` fast paths
    # ------------------------------------------------------------------ #
    # The compiled-plan serving path (:mod:`repro.deploy`) writes results
    # into preallocated arena buffers.  The defaults below are *pure
    # fallbacks* — compute with the allocating primitive, then copy — so
    # any backend works unmodified; backends that can write in place
    # override them (see :class:`NumpyBackend`) and skip the copy.
    def matmul_out(self, a: np.ndarray, b: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
        out[...] = self.matmul(a, b)
        return out

    def im2col_out(self, x: np.ndarray, kernel: Tuple[int, int],
                   stride: Tuple[int, int], padding: Tuple[int, int],
                   out: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Like :meth:`im2col` but gathering into ``out`` (same shape)."""
        cols, out_hw = self.im2col(x, kernel, stride, padding)
        out[...] = cols
        return out, out_hw

    # ------------------------------------------------------------------ #
    # Indexed gather / scatter (pooling) and layout control
    # ------------------------------------------------------------------ #
    # Numpy implementations are correct for any array-protocol backend, so
    # these default instead of raising: subclasses that do not manage their
    # own memory layout inherit working pooling/deploy paths for free.
    def take_along_axis(self, array: np.ndarray, indices: np.ndarray,
                        axis: int) -> np.ndarray:
        return np.take_along_axis(array, indices, axis=axis)

    def put_along_axis(self, array: np.ndarray, indices: np.ndarray,
                       values: np.ndarray, axis: int) -> None:
        np.put_along_axis(array, indices, values, axis=axis)

    def broadcast_to(self, array: np.ndarray, shape) -> np.ndarray:
        return np.broadcast_to(array, shape)

    def ascontiguousarray(self, array: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(array)

    # ------------------------------------------------------------------ #
    # Convolution lowering
    # ------------------------------------------------------------------ #
    def im2col(self, x: np.ndarray, kernel: Tuple[int, int],
               stride: Tuple[int, int], padding: Tuple[int, int]
               ) -> Tuple[np.ndarray, Tuple[int, int]]:
        raise NotImplementedError

    def col2im(self, cols: np.ndarray, input_shape: Tuple[int, int, int, int],
               kernel: Tuple[int, int], stride: Tuple[int, int],
               padding: Tuple[int, int], output_size: Tuple[int, int]
               ) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, dtype={self.default_dtype})"


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


class NumpyBackend(Backend):
    """Reference backend: plain numpy, matmul-lowered convolutions."""

    name = "numpy"
    supports_inplace = True

    # -- creation ------------------------------------------------------- #
    def asarray(self, data, dtype=None) -> np.ndarray:
        return np.asarray(data, dtype=dtype or self._default_dtype)

    def zeros(self, shape, dtype=None) -> np.ndarray:
        return np.zeros(shape, dtype=dtype or self._default_dtype)

    def ones(self, shape, dtype=None) -> np.ndarray:
        return np.ones(shape, dtype=dtype or self._default_dtype)

    def zeros_like(self, array) -> np.ndarray:
        return np.zeros_like(array)

    def randn(self, shape, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        rng = rng or np.random.default_rng()
        return rng.standard_normal(shape).astype(self._default_dtype, copy=False)

    # -- linear algebra ------------------------------------------------- #
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        return np.einsum(subscripts, *operands, optimize=True)

    # -- out= fast paths ------------------------------------------------- #
    def matmul_out(self, a: np.ndarray, b: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def im2col_out(self, x: np.ndarray, kernel: Tuple[int, int],
                   stride: Tuple[int, int], padding: Tuple[int, int],
                   out: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        n, c, h, w = x.shape
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        out_h = conv_output_size(h, kh, sh, ph)
        out_w = conv_output_size(w, kw, sw, pw)
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        strides = (
            x.strides[0], x.strides[1], x.strides[2], x.strides[3],
            x.strides[2] * sh, x.strides[3] * sw,
        )
        shape = (n, c, kh, kw, out_h, out_w)
        windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
        # ``out`` is contiguous, so viewing it in window layout and copying
        # produces exactly the bytes ``ascontiguousarray`` would have.
        np.copyto(out.reshape(shape), windows)
        return out, (out_h, out_w)

    # -- indexed gather / scatter ---------------------------------------- #
    def take_along_axis(self, array: np.ndarray, indices: np.ndarray,
                        axis: int) -> np.ndarray:
        return np.take_along_axis(array, indices, axis=axis)

    def put_along_axis(self, array: np.ndarray, indices: np.ndarray,
                       values: np.ndarray, axis: int) -> None:
        np.put_along_axis(array, indices, values, axis=axis)

    def broadcast_to(self, array: np.ndarray, shape) -> np.ndarray:
        return np.broadcast_to(array, shape)

    def ascontiguousarray(self, array: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(array)

    # -- convolution lowering ------------------------------------------- #
    def im2col(self, x: np.ndarray, kernel: Tuple[int, int],
               stride: Tuple[int, int], padding: Tuple[int, int]
               ) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Lower a batched ``(N, C, H, W)`` image tensor to column form.

        Returns ``(cols, (out_h, out_w))`` with ``cols`` of shape
        ``(N, C * kh * kw, out_h * out_w)``.
        """
        n, c, h, w = x.shape
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        out_h = conv_output_size(h, kh, sh, ph)
        out_w = conv_output_size(w, kw, sw, pw)

        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

        # Gather sliding windows with as_strided: result is
        # (N, C, kh, kw, out_h, out_w) without copying.
        strides = (
            x.strides[0],
            x.strides[1],
            x.strides[2],
            x.strides[3],
            x.strides[2] * sh,
            x.strides[3] * sw,
        )
        shape = (n, c, kh, kw, out_h, out_w)
        windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
        cols = windows.reshape(n, c * kh * kw, out_h * out_w)
        return np.ascontiguousarray(cols), (out_h, out_w)

    def col2im(self, cols: np.ndarray, input_shape: Tuple[int, int, int, int],
               kernel: Tuple[int, int], stride: Tuple[int, int],
               padding: Tuple[int, int], output_size: Tuple[int, int]
               ) -> np.ndarray:
        """Inverse of :meth:`im2col` by scatter-add (conv backward)."""
        n, c, h, w = input_shape
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        out_h, out_w = output_size

        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
        cols = cols.reshape(n, c, kh, kw, out_h, out_w)
        for i in range(kh):
            i_end = i + sh * out_h
            for j in range(kw):
                j_end = j + sw * out_w
                padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
        if ph or pw:
            return padded[:, :, ph:ph + h, pw:pw + w]
        return padded


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_FACTORIES: Dict[str, Callable[[], Backend]] = {}
_INSTANCES: Dict[str, Backend] = {}


def register_backend(name: str, factory: Callable[[], Backend],
                     overwrite: bool = False) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is a zero-argument callable returning a :class:`Backend`;
    it is invoked lazily on first :func:`get_backend` lookup and the
    instance is cached.
    """
    key = name.lower()
    if key in _FACTORIES and not overwrite:
        raise ValueError(f"backend '{name}' is already registered")
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)


def available_backends() -> List[str]:
    return sorted(_FACTORIES)


def get_backend(backend: BackendLike) -> Backend:
    """Resolve a backend by name (cached instance) or pass one through."""
    if isinstance(backend, Backend):
        return backend
    key = str(backend).lower()
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown backend '{backend}'; choose from {available_backends()}")
    if key not in _INSTANCES:
        _INSTANCES[key] = _FACTORIES[key]()
    return _INSTANCES[key]


register_backend("numpy", lambda: NumpyBackend(np.float64))
register_backend("numpy64", lambda: NumpyBackend(np.float64))
register_backend("numpy32", lambda: NumpyBackend(np.float32))


def _initial_backend() -> Backend:
    env = os.environ.get("REPRO_DEFAULT_DTYPE", "").strip()
    if not env:
        return NumpyBackend(np.float64)
    # np.dtype raises an opaque TypeError for a typo'd value; since this runs
    # at import time, translate it into an error naming the variable and the
    # accepted values instead of letting `import repro` die mysteriously.
    try:
        dtype = np.dtype(env)
    except TypeError as exc:
        raise ValueError(
            f"invalid REPRO_DEFAULT_DTYPE value {env!r}: expected a floating "
            "numpy dtype name such as 'float32' or 'float64'") from exc
    if dtype.kind != "f":
        raise ValueError(
            f"invalid REPRO_DEFAULT_DTYPE value {env!r}: {dtype} is not a "
            "floating dtype; use 'float32' or 'float64'")
    return NumpyBackend(dtype)


#: Process-wide default backend, targeted by :func:`set_backend`.
_CURRENT: Backend = _initial_backend()

#: Per-thread stack of scoped overrides pushed by :func:`use_backend`.  Keeping
#: the scoped state thread-local is what lets parallel sweep shards each run
#: under their own backend / dtype without leaking into one another (the
#: process-wide default above stays shared, as a default should).
_SCOPED = threading.local()


def _scoped_stack() -> List[Backend]:
    stack = getattr(_SCOPED, "stack", None)
    if stack is None:
        stack = _SCOPED.stack = []
    return stack


def current_backend() -> Backend:
    """The backend all tensor operations currently route through.

    The innermost :func:`use_backend` scope of the *calling thread* wins;
    without one, the process-wide default applies.
    """
    stack = getattr(_SCOPED, "stack", None)
    if stack:
        return stack[-1]
    return _CURRENT


def set_backend(backend: BackendLike, dtype=None) -> Backend:
    """Permanently switch the process-wide default backend."""
    global _CURRENT
    resolved = get_backend(backend)
    if dtype is not None and np.dtype(dtype) != resolved.default_dtype:
        resolved = resolved.with_dtype(dtype)
    _CURRENT = resolved
    return resolved


@contextmanager
def use_backend(backend: Optional[BackendLike] = None, dtype=None):
    """Scoped backend / default-dtype switch, local to the calling thread.

    ``backend=None`` keeps the active backend (useful for a dtype-only
    override); ``dtype=None`` keeps the backend's own default.
    """
    target = get_backend(backend) if backend is not None else current_backend()
    if dtype is not None and np.dtype(dtype) != target.default_dtype:
        target = target.with_dtype(dtype)
    stack = _scoped_stack()
    stack.append(target)
    try:
        yield target
    finally:
        stack.pop()


def get_default_dtype() -> np.dtype:
    """Default floating dtype of the active backend."""
    return current_backend().default_dtype


def set_default_dtype(dtype) -> None:
    """Set the default floating dtype of the active backend.

    Replaces the active backend with a dtype-adjusted copy rather than
    mutating it, so registry-cached instances (``get_backend("numpy32")``
    etc.) are never corrupted by a process-wide dtype change.  Inside a
    :func:`use_backend` scope the change applies to that scope (and is
    undone when it exits); otherwise the process-wide default is replaced.
    """
    global _CURRENT
    stack = getattr(_SCOPED, "stack", None)
    if stack:
        if np.dtype(dtype) != stack[-1].default_dtype:
            stack[-1] = stack[-1].with_dtype(dtype)
    elif np.dtype(dtype) != _CURRENT.default_dtype:
        _CURRENT = _CURRENT.with_dtype(dtype)


# --------------------------------------------------------------------------- #
# Execution-context capture / restore (for sweep workers)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExecutionState:
    """A serializable snapshot of the active backend + default dtype.

    Worker threads and processes do not inherit the parent's scoped
    :func:`use_backend` state (scopes are thread-local, and a spawned
    process starts from module defaults), so a sweep parent captures this
    snapshot once and every shard re-applies it via :meth:`scope`.  Only
    the registry *name* travels, which keeps the snapshot picklable; the
    backend must therefore be registered under the same name in the worker
    (true for the built-ins and for any :func:`register_backend` call made
    before the pool forks).
    """

    backend: str
    dtype: str

    def resolve(self) -> Backend:
        resolved = get_backend(self.backend)
        if np.dtype(self.dtype) != resolved.default_dtype:
            resolved = resolved.with_dtype(self.dtype)
        return resolved

    def scope(self):
        """A context manager applying this snapshot (thread-locally)."""
        return use_backend(self.resolve())


def capture_execution_state() -> ExecutionState:
    """Snapshot the calling thread's active backend + dtype by name.

    Raises ``KeyError`` when the active backend cannot be faithfully
    restored from the registry — either its name is unregistered, or the
    instance is not of the registered type (e.g. an unregistered subclass
    inheriting a built-in's ``name``); restoring by name would silently
    swap in the wrong implementation.
    """
    active = current_backend()
    key = active.name.lower()
    if key not in _FACTORIES:
        raise KeyError(
            f"active backend '{active.name}' is not registered; register it "
            "with register_backend() so sweep workers can restore it by name")
    if type(active) is not type(get_backend(key)):
        raise KeyError(
            f"active backend instance ({type(active).__name__}) is not the "
            f"type registered under '{active.name}' "
            f"({type(get_backend(key)).__name__}); register it under its own "
            "name so sweep workers restore the right implementation")
    return ExecutionState(backend=active.name,
                          dtype=np.dtype(active.default_dtype).name)
