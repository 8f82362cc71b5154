"""The default floating dtype of the ``repro.nn`` engine, under a name.

Tensors, functional ops and compiled plans call numpy directly; the one
thing that varies between runs is the **default floating dtype** used
when tensors, parameters and batches are built from python data.  A
:class:`Backend` is that dtype under a wire-stable name.  Three names are
built in: ``"numpy"`` and ``"numpy64"`` (float64, the historical
default) and ``"numpy32"`` (float32, roughly half the memory traffic on
the im2col hot path).  ``use_backend("numpy32")`` is the same as
``use_backend(dtype="float32")``.

The active backend is thread-scoped: :func:`use_backend` pushes a scope
on the calling thread, :func:`set_backend` replaces the process-wide
default.  The process-wide default dtype can be selected without touching
code via the ``REPRO_DEFAULT_DTYPE`` environment variable (e.g.
``REPRO_DEFAULT_DTYPE=float32 python -m pytest``).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import List, Optional, Union

import numpy as np

BackendLike = Union[str, "Backend"]


def float_dtype(value, what: str = "dtype") -> np.dtype:
    """``value`` as a floating numpy dtype.

    Every entry point that sets a default dtype goes through here, so a
    typo or an integer dtype fails with a ``ValueError`` naming the bad
    value (``what`` names where it came from) instead of numpy's opaque
    ``TypeError`` or, worse, a silently truncating integer default.
    """
    try:
        dtype = np.dtype(value)
    except TypeError as exc:
        raise ValueError(
            f"invalid {what} {value!r}: expected a floating numpy dtype "
            "name such as 'float32' or 'float64'") from exc
    if dtype.kind != "f":
        raise ValueError(
            f"invalid {what} {value!r}: {dtype} is not a floating dtype; "
            "use 'float32' or 'float64'")
    return dtype


@dataclass(frozen=True)
class Backend:
    """A named default floating dtype.

    The record is immutable, compares by value and pickles, so it is also
    the engine snapshot a sweep ships to its worker threads and processes
    (see :class:`repro.api.EngineState`).  ``name`` is the label plans and
    job payloads carry on the wire.
    """

    name: str
    dtype: np.dtype

    def __post_init__(self):
        object.__setattr__(self, "dtype", float_dtype(self.dtype))


_BUILTINS = {
    "numpy": Backend("numpy", np.float64),
    "numpy64": Backend("numpy", np.float64),
    "numpy32": Backend("numpy", np.float32),
}


def available_backends() -> List[str]:
    return sorted(_BUILTINS)


def get_backend(backend: BackendLike, dtype=None) -> Backend:
    """Resolve a built-in name (exact spelling) or pass a record through.

    ``dtype`` overrides the resolved backend's default dtype.  An unknown
    or non-canonical name (``"NumPy32"``) raises ``KeyError``.
    """
    if not isinstance(backend, Backend):
        if backend not in _BUILTINS:
            raise KeyError(
                f"unknown backend {backend!r}; choose from "
                f"{available_backends()}")
        backend = _BUILTINS[backend]
    if dtype is not None:
        backend = replace(backend, dtype=dtype)
    return backend


def _initial_backend() -> Backend:
    env = os.environ.get("REPRO_DEFAULT_DTYPE", "").strip()
    if not env:
        return _BUILTINS["numpy"]
    return Backend("numpy", float_dtype(env, "REPRO_DEFAULT_DTYPE value"))


#: Process-wide default backend, targeted by :func:`set_backend`.
_CURRENT: Backend = _initial_backend()

#: Per-thread stack of scoped overrides pushed by :func:`use_backend`.  Keeping
#: the scoped state thread-local is what lets parallel sweep shards each run
#: under their own dtype without leaking into one another (the process-wide
#: default above stays shared, as a default should).
_SCOPED = threading.local()


def _scoped_stack() -> List[Backend]:
    stack = getattr(_SCOPED, "stack", None)
    if stack is None:
        stack = _SCOPED.stack = []
    return stack


def current_backend() -> Backend:
    """The backend (named default dtype) currently in effect.

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
    _CURRENT = get_backend(backend, dtype)
    return _CURRENT


@contextmanager
def use_backend(backend: Optional[BackendLike] = None, dtype=None):
    """Scoped backend / default-dtype switch, local to the calling thread.

    ``backend=None`` keeps the active backend (useful for a dtype-only
    override); ``dtype=None`` keeps the backend's own default.
    """
    target = get_backend(current_backend() if backend is None else backend,
                         dtype)
    stack = _scoped_stack()
    stack.append(target)
    try:
        yield target
    finally:
        stack.pop()


def get_default_dtype() -> np.dtype:
    """Default floating dtype of the active backend."""
    return current_backend().dtype


def set_default_dtype(dtype) -> None:
    """Set the default floating dtype of the active backend.

    Inside a :func:`use_backend` scope the change applies to that scope
    (and is undone when it exits); otherwise the process-wide default is
    replaced.
    """
    global _CURRENT
    stack = getattr(_SCOPED, "stack", None)
    if stack:
        stack[-1] = replace(stack[-1], dtype=dtype)
    else:
        _CURRENT = replace(_CURRENT, dtype=dtype)
