"""Sharded execution strategies for :func:`repro.api.run_sweep`.

Every :class:`~repro.api.spec.CompressionSpec` in a sweep runs on an
isolated deep copy of the model under its own backend / dtype / grad-mode
context, which makes specs embarrassingly parallel.  This module owns *how*
the shards run:

* :class:`SerialExecutor` — shards run one after another in the
  submitting thread (the reference semantics);
* :class:`ThreadExecutor` — a thread pool, overlapping shards whose time is
  dominated by GIL-releasing numpy kernels or blocking I/O;
* :class:`ProcessExecutor` — a process pool, sidestepping the GIL entirely
  (shards and their results travel by pickle);
* :class:`~repro.api.jobs.RemoteExecutor` (``"remote"``) — persistent
  ``python -m repro.api.worker`` subprocesses, shards travelling as
  ``repro-job/1`` JSON lines over stdio.

Every strategy's :meth:`SweepExecutor.open` returns a stock
:class:`concurrent.futures.Executor` (``serial`` opens an
:class:`InlineExecutor`), and every shard is one
:class:`~repro.api.jobs.SweepJob` run by
:func:`~repro.api.jobs.execute_job`.

Executors are registered by name — :func:`register_executor` /
:func:`get_executor` — and selected per sweep via
``run_sweep(..., executor="process")`` or process-wide via the
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
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Type, Union

from ..nn.backend import Backend, current_backend, use_backend
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
    """Restore the op-observer list on exit, even when the body raises.

    The one list carries profilers and plan traces alike, so an observer
    installed (or leaked through an exception) inside a sweep shard can
    never observe — or slow down — the specs that follow it.  The restore
    may fire while an ``observe_ops`` / ``collect_profile`` context opened
    inside the shard is still active; that context's own cleanup stays
    safe because :func:`repro.nn.remove_op_hook` is idempotent.
    """
    hooks = installed_op_hooks()
    try:
        yield
    finally:
        restore_op_hooks(hooks)


@dataclass(frozen=True)
class EngineState:
    """Everything a shard must re-apply to match the parent's engine context.

    Combines the active backend (a :class:`repro.nn.Backend` record: a
    named default dtype) with the grad-mode override.  The whole snapshot
    is picklable, so it ships to process workers unchanged.
    """

    backend: Backend
    grad_override: Optional[bool] = None

    @classmethod
    def capture(cls) -> "EngineState":
        return cls(backend=current_backend(),
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
            with use_backend(self.backend), set_grad_mode(self.grad_override):
                yield


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class SweepExecutor:
    """Strategy interface: how a sweep's shards run.

    A strategy sets :attr:`name` and implements :meth:`open`, which returns
    a stock :class:`concurrent.futures.Executor`.
    :class:`~repro.api.session.SweepSession` submits one shard at a time as
    ``pool.submit(execute_job, job)`` — ``job`` a
    :class:`~repro.api.jobs.SweepJob` (its ``repro-job/1`` payload for
    :attr:`wire` strategies) — so specs can be scheduled, retried and
    cancelled individually.  A shard failure is the future's exception; the
    session decides the policy (``run_sweep``'s ``on_error``).
    """

    name: str = "abstract"

    #: True for strategies whose pool runs every shard inside ``submit``, in
    #: the submitting thread.  The session runs an inline shard's retries,
    #: backoff included, in that thread too.
    inline: bool = False

    #: True for strategies whose shards travel as ``repro-job/1`` wire
    #: payloads (JSON dicts) instead of pickled :class:`SweepJob` objects
    #: carrying the live model.
    wire: bool = False

    def open(self, max_workers: Optional[int] = None) -> Executor:
        """A pool accepting ``submit(execute_job, job)`` over this strategy."""
        raise NotImplementedError(
            f"the '{self.name}' executor does not open a pool")

    def pool_capacity(self, max_workers: Optional[int]) -> int:
        """Worker capacity of a pool (the sweep's task count is unknown).

        Shared by every strategy so the validation and the default sizing
        rule (explicit cap, else the host's CPU count) cannot drift between
        transports.
        """
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        return max_workers if max_workers is not None else (os.cpu_count() or 1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class InlineExecutor(Executor):
    """A stock :class:`Executor` that runs each call in the submitting thread.

    ``submit`` returns an already finished :class:`Future`; an exception the
    call raises is stored in it, not raised from ``submit``.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class SerialExecutor(SweepExecutor):
    """The reference strategy: one shard after another, in-process."""

    name = "serial"
    inline = True

    def open(self, max_workers: Optional[int] = None) -> Executor:
        return InlineExecutor()


class ThreadExecutor(SweepExecutor):
    """Thread-pool shards: cheap fan-out, shared memory, GIL-bound compute."""

    name = "thread"

    def open(self, max_workers: Optional[int] = None) -> Executor:
        return ThreadPoolExecutor(max_workers=self.pool_capacity(max_workers),
                                  thread_name_prefix="repro-sweep")


class ProcessExecutor(SweepExecutor):
    """Process-pool shards: true parallelism; jobs/reports travel by pickle.

    Uses the ``fork`` start method where available (Linux): workers inherit
    the parent's imported modules and registries (methods, executors)
    without re-importing, and custom registrations made before the sweep
    are visible to every shard.
    """

    name = "process"

    def open(self, max_workers: Optional[int] = None) -> Executor:
        import multiprocessing as mp

        context = (mp.get_context("fork")
                   if "fork" in mp.get_all_start_methods() else None)
        return ProcessPoolExecutor(max_workers=self.pool_capacity(max_workers),
                                   mp_context=context)


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
