"""Sharded execution strategies for :func:`repro.api.run_sweep`.

Every :class:`~repro.api.spec.CompressionSpec` in a sweep runs on an
isolated deep copy of the model under its own backend / dtype / grad-mode
context, which makes specs embarrassingly parallel.  This module owns *how*
the shards run:

* :class:`SerialExecutor` — in-process loop (the reference semantics);
* :class:`ThreadExecutor` — a thread pool, overlapping shards whose time is
  dominated by GIL-releasing numpy kernels or blocking I/O;
* :class:`ProcessExecutor` — a process pool, sidestepping the GIL entirely
  (shards and their results travel by pickle).

Executors are registered by name exactly like ``repro.nn`` backends —
:func:`register_executor` / :func:`get_executor` — and selected per sweep
via ``run_sweep(..., executor="process")`` or process-wide via the
``REPRO_SWEEP_EXECUTOR`` environment variable.  Whatever the strategy,
shard results are collected **in task order**, so the merged sweep is
bit-identical to a serial run.

Engine-state hygiene is handled by :class:`EngineState`: the sweep parent
captures the active backend / dtype / grad mode once, every shard
re-applies it (worker threads and spawned processes do not inherit scoped
state), and on shard exit the op-hook list is restored — no shard can leak
execution state into its neighbours.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Type, Union

from ..nn.backend import ExecutionState, capture_execution_state
from ..nn.tensor import (
    grad_mode_override,
    installed_op_hooks,
    restore_op_hooks,
    set_grad_mode,
)

#: Environment variable naming the default sweep executor.
EXECUTOR_ENV_VAR = "REPRO_SWEEP_EXECUTOR"

ExecutorLike = Union[str, "SweepExecutor"]


# --------------------------------------------------------------------------- #
# Engine-state capture / restore
# --------------------------------------------------------------------------- #
@contextmanager
def op_hook_isolation():
    """Restore the op-hook list on exit, even when the body raises.

    A hook installed (or leaked through an exception) inside a sweep shard
    must never observe — or slow down — the specs that follow it.  The
    restore may fire while a ``profile_ops`` / ``collect_profile`` context
    opened inside the shard is still active; that context's own cleanup
    stays safe because :func:`repro.nn.remove_op_hook` is idempotent.
    """
    hooks = installed_op_hooks()
    try:
        yield
    finally:
        restore_op_hooks(hooks)


@dataclass(frozen=True)
class EngineState:
    """Everything a shard must re-apply to match the parent's engine context.

    Combines the backend / default-dtype snapshot
    (:class:`repro.nn.ExecutionState`) with the grad-mode override.  The
    whole snapshot is picklable, so it ships to process workers unchanged.
    """

    execution: ExecutionState
    grad_override: Optional[bool] = None

    @classmethod
    def capture(cls) -> "EngineState":
        return cls(execution=capture_execution_state(),
                   grad_override=grad_mode_override())

    @contextmanager
    def scope(self):
        """Run a shard under this state, guaranteeing restoration on exit.

        Re-applies the captured backend / dtype / grad mode (thread-locally,
        so concurrent shards cannot interfere) and isolates the op-hook
        list so a hook installed — or leaked via an exception — inside the
        shard is removed before the next shard runs.
        """
        with op_hook_isolation():
            with self.execution.scope(), set_grad_mode(self.grad_override):
                yield


# --------------------------------------------------------------------------- #
# Shard results
# --------------------------------------------------------------------------- #
@dataclass
class ShardResult:
    """Outcome of one shard: a value or the exception that killed it."""

    index: int
    value: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _call_shard(fn: Callable[[Any], Any], index: int, task: Any) -> ShardResult:
    try:
        return ShardResult(index=index, value=fn(task))
    except Exception as exc:  # deliberate: shard failures are data, not control flow
        return ShardResult(index=index, error=exc)


# --------------------------------------------------------------------------- #
# Incremental submission (the session scheduler's view of an executor)
# --------------------------------------------------------------------------- #
class ShardPool:
    """One *open* executor instance accepting shard submissions over time.

    :meth:`SweepExecutor.open` returns one of these; a
    :class:`~repro.api.session.SweepSession` submits shards as specs arrive
    instead of handing the executor a closed batch.  ``submit`` returns a
    ``concurrent.futures.Future`` resolving to a :class:`ShardResult` — a
    shard failure is *data* on the result, never an exception out of the
    future (transport failures, e.g. an unpicklable task, are the
    exception-raising case the caller must still guard).
    """

    def submit(self, fn: Callable[[Any], Any], index: int,
               task: Any) -> "Future[ShardResult]":
        raise NotImplementedError

    def close(self, wait: bool = True) -> None:
        """Release the pool's workers (idempotent)."""

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _InlineShardPool(ShardPool):
    """Run every shard synchronously in the submitting thread.

    The default ``open`` surface (for :class:`SerialExecutor` it is exactly
    the reference semantics): ``submit`` blocks until the shard finishes and
    returns an already-resolved future.
    """

    def submit(self, fn, index, task):
        future: "Future[ShardResult]" = Future()
        future.set_result(_call_shard(fn, index, task))
        return future


class _FuturesShardPool(ShardPool):
    """A :mod:`concurrent.futures` pool wrapped as a :class:`ShardPool`."""

    def __init__(self, pool: _FuturesExecutor):
        self._pool = pool
        self._closed = False

    def submit(self, fn, index, task):
        return self._pool.submit(_call_shard, fn, index, task)

    def close(self, wait: bool = True) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=wait)


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class SweepExecutor:
    """Strategy interface: how a sweep's shards run.

    :meth:`open` returns the :class:`ShardPool` that
    :class:`~repro.api.session.SweepSession` submits to, one shard at a
    time, so specs can be scheduled, retried and cancelled individually.
    A shard failure is never raised out of the pool — it comes back as a
    :class:`ShardResult` carrying the exception, so the caller decides the
    policy (``run_sweep``'s ``on_error``).  Strategies that do not override
    :meth:`open` fall back to inline (submit-runs-the-shard) execution.
    """

    name: str = "abstract"

    #: True for strategies that run every shard in the caller's thread and
    #: therefore inherit its ambient engine state; parallel strategies need
    #: a shippable :class:`EngineState` snapshot instead.
    inline: bool = False

    #: True for strategies whose shards travel as ``repro-job/1`` wire
    #: payloads (JSON dicts) instead of pickled live task objects; the
    #: session converts tasks to :class:`~repro.api.jobs.SweepJob`
    #: payloads before submitting to such a strategy.
    wire: bool = False

    def open(self, max_workers: Optional[int] = None) -> ShardPool:
        """An incremental-submission pool over this strategy."""
        return _InlineShardPool()

    def pool_capacity(self, max_workers: Optional[int]) -> int:
        """Worker capacity of an incremental pool (task count unknown).

        Shared by every pooled strategy so the validation and the default
        sizing rule (explicit cap, else the host's CPU count) cannot drift
        between transports.
        """
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        return max_workers if max_workers is not None else (os.cpu_count() or 1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SerialExecutor(SweepExecutor):
    """The reference strategy: one shard after another, in-process."""

    name = "serial"
    inline = True


class _PoolExecutor(SweepExecutor):
    """Shared pool wrapping for the thread and process strategies."""

    def _make_pool(self, workers: int) -> _FuturesExecutor:
        raise NotImplementedError

    def open(self, max_workers: Optional[int] = None) -> ShardPool:
        return _FuturesShardPool(self._make_pool(self.pool_capacity(max_workers)))


class ThreadExecutor(_PoolExecutor):
    """Thread-pool shards: cheap fan-out, shared memory, GIL-bound compute."""

    name = "thread"

    def _make_pool(self, workers: int) -> _FuturesExecutor:
        return ThreadPoolExecutor(max_workers=workers,
                                  thread_name_prefix="repro-sweep")


class ProcessExecutor(_PoolExecutor):
    """Process-pool shards: true parallelism; tasks/results travel by pickle.

    Uses the ``fork`` start method where available (Linux): workers inherit
    the parent's imported modules and registries (methods, backends,
    executors) without re-importing, and custom registrations made before
    the sweep are visible to every shard.
    """

    name = "process"

    def _make_pool(self, workers: int) -> _FuturesExecutor:
        import multiprocessing as mp

        if "fork" in mp.get_all_start_methods():
            return ProcessPoolExecutor(max_workers=workers,
                                       mp_context=mp.get_context("fork"))
        return ProcessPoolExecutor(max_workers=workers)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_EXECUTORS: Dict[str, Type[SweepExecutor]] = {}


def register_executor(name: str, executor_type: Type[SweepExecutor],
                      overwrite: bool = False) -> None:
    """Register an executor strategy under ``name`` (lower-cased)."""
    key = name.lower()
    if key in _EXECUTORS and not overwrite:
        raise ValueError(f"executor '{name}' is already registered")
    _EXECUTORS[key] = executor_type


def available_executors() -> List[str]:
    return sorted(_EXECUTORS)


def get_executor(executor: ExecutorLike) -> SweepExecutor:
    """Resolve an executor by name, or pass an instance through."""
    if isinstance(executor, SweepExecutor):
        return executor
    key = str(executor).lower()
    if key not in _EXECUTORS:
        raise KeyError(
            f"unknown executor '{executor}'; choose from {available_executors()}")
    return _EXECUTORS[key]()


def resolve_executor(executor: Optional[ExecutorLike] = None) -> SweepExecutor:
    """The executor a sweep should use.

    Priority: an explicit ``executor`` argument, then the
    ``REPRO_SWEEP_EXECUTOR`` environment variable, then serial.  An unknown
    name in the environment variable raises a ``ValueError`` naming the
    variable and the registered strategies — a typo'd deployment
    environment must fail loudly at resolve time, not surface as an opaque
    ``KeyError`` deep inside the first sweep.
    """
    if executor is not None:
        return get_executor(executor)
    env = os.environ.get(EXECUTOR_ENV_VAR, "").strip()
    if env:
        try:
            return get_executor(env)
        except KeyError:
            raise ValueError(
                f"invalid {EXECUTOR_ENV_VAR} value {env!r}: expected one of "
                f"{available_executors()}") from None
    return SerialExecutor()


register_executor("serial", SerialExecutor)
register_executor("thread", ThreadExecutor)
register_executor("process", ProcessExecutor)
