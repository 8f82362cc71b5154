"""Streaming sweep execution: sessions, futures and retry/timeout policy.

:func:`repro.api.run_sweep` awaits a closed batch; a :class:`SweepSession`
lets callers *submit, observe, retry and cancel* specs instead:

    with api.SweepSession(model="resnet20", hardware=None,
                          input_shape=(3, 32, 32), executor="process") as s:
        futures = s.submit_all(specs)
        for future in s.as_completed():
            print(future.spec.display_label, future.result().ops_reduction)
        sweep = s.result()          # the familiar spec-ordered SweepResult

Every ``submit`` returns a :class:`SweepFuture`, a stock
:class:`concurrent.futures.Future` (so ``concurrent.futures.wait`` /
``as_completed`` accept it) that also carries the spec, its attempt count
and failure category.  Exceptions raised by done-callbacks are swallowed
and logged by ``concurrent.futures``.  The session adds progress callbacks
and a scheduler that enforces per-spec :class:`RetryPolicy` and
``timeout`` *outside* the executors — executors only run shards, the
session decides when a shard is re-run, abandoned or never started.  Every
executor goes through the same submit / retry / timeout path; ``serial``
simply opens an inline pool that runs each shard inside ``submit``.

The shared-baseline semantics of ``run_sweep`` are preserved exactly: the
dense model, loader plan, dense profile/hardware evaluation and dense
accuracy probe are computed once when the first specs are scheduled, every
shard receives the broadcast baseline, and :meth:`SweepSession.result`
merges reports **in spec order** — so ``run_sweep`` is now a thin façade
over a session, bit-identical to the previous serial path.

Execution strategies plug in through :meth:`SweepExecutor.open`, which
returns a stock :class:`concurrent.futures.Executor`; every shard is one
:class:`~repro.api.jobs.SweepJob` run by :func:`~repro.api.jobs.execute_job`.
In-process strategies get the job carrying the live base model.  For
``wire`` strategies (:class:`repro.api.jobs.RemoteExecutor`), the session
submits the job's ``repro-job/1`` payload instead — spec dict, model
registry name, seed, digest-guarded dense baseline — which is what lets
the same submission model drive off-host workers.
"""

from __future__ import annotations

import copy
import math
import numbers
import threading
import time
import warnings
from concurrent.futures import Executor, Future, as_completed, wait
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..data import SyntheticImageDataset
from ..hardware import EYERISS_PAPER, EyerissSpec
from ..models import build_model, default_input_shape
from ..nn.backend import get_default_dtype, use_backend
from ..nn.module import Module
from ..wire import data_digest, model_digest
from .executor import (
    EngineState,
    ExecutorLike,
    SweepExecutor,
    resolve_executor,
)
from .cache import (
    CacheArg,
    CacheIntegrityWarning,
    CacheKey,
    WarmStart,
    resolve_cache,
)
from .jobs import LoaderPlan, SweepJob, execute_job, state_to_payload
from .pipeline import (
    CompressionPipeline,
    CompressionReport,
    DataArg,
    DenseBaseline,
    resolve_loaders,
)
from .spec import CompressionSpec

#: Failure categories a resolved-but-unsuccessful future reports.
CATEGORY_ERROR = "error"
CATEGORY_TIMEOUT = "timeout"
CATEGORY_CANCELLED = "cancelled"


class SweepTimeoutError(RuntimeError):
    """A spec exceeded its per-attempt timeout (scheduler-enforced)."""


class SweepCancelledError(RuntimeError):
    """A future was cancelled before it could produce a report."""


@dataclass(frozen=True)
class RetryPolicy:
    """How often — and how patiently — the session re-runs a failing spec.

    ``max_attempts`` counts every run including the first (the default of 1
    means no retries).  The delay before attempt ``n + 1`` is
    ``backoff * backoff_multiplier ** (n - 1)`` seconds.  Timeouts respect
    the same budget when ``retry_timeouts`` is set; cancellations are never
    retried.
    """

    max_attempts: int = 1
    backoff: float = 0.0
    backoff_multiplier: float = 2.0
    retry_timeouts: bool = True

    def validate(self) -> "RetryPolicy":
        if (isinstance(self.max_attempts, bool)
                or not isinstance(self.max_attempts, numbers.Integral)):
            raise ValueError("max_attempts must be an integer")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not (math.isfinite(self.backoff)
                and math.isfinite(self.backoff_multiplier)):
            raise ValueError("backoff and backoff_multiplier must be finite")
        if self.backoff < 0 or self.backoff_multiplier <= 0:
            raise ValueError("backoff must be >= 0 and backoff_multiplier > 0")
        return self

    def delay(self, failed_attempt: int) -> float:
        """Seconds to wait after ``failed_attempt`` (1-based) fails."""
        if self.backoff == 0:
            return 0.0
        return self.backoff * self.backoff_multiplier ** max(0, failed_attempt - 1)


@dataclass(frozen=True)
class SessionEvent:
    """One progress notification (see :meth:`SweepSession.add_progress_callback`).

    ``kind`` is one of ``"submitted"``, ``"scheduled"``, ``"retrying"``,
    ``"completed"``, ``"cached"``, ``"failed"`` or ``"cancelled"``; a
    ``"cached"`` event replaces ``"scheduled"`` + ``"completed"`` when the
    result cache replays the spec's report without running it.  For
    ``"failed"`` events ``category`` distinguishes ``"error"`` from
    ``"timeout"``.
    """

    kind: str
    index: int
    spec: CompressionSpec
    attempt: int = 0
    category: Optional[str] = None
    error: Optional[BaseException] = None


def _loader_plan(data: DataArg, seed: int) -> LoaderPlan:
    if data is None:
        return LoaderPlan(kind="none")
    if isinstance(data, SyntheticImageDataset):
        train_split, val_split = data.split(0.8)
        return LoaderPlan(kind="synthetic", train_split=train_split,
                          val_split=val_split, seed=seed)
    return LoaderPlan(kind="template",
                      template=resolve_loaders(data, seed=seed))


# --------------------------------------------------------------------------- #
# Futures
# --------------------------------------------------------------------------- #
class SweepFuture(Future):
    """Handle to one submitted spec: its report, failure, or cancellation.

    A stock :class:`concurrent.futures.Future` — ``result`` / ``exception``
    / ``done`` / ``add_done_callback`` and the module's ``wait`` /
    ``as_completed`` all work unchanged — plus sweep-specific state: the
    spec, the number of attempts consumed, and the failure ``category``
    (``None`` while unresolved or successful, else ``"error"`` /
    ``"timeout"`` / ``"cancelled"``).  :meth:`cancel` goes through the
    session's scheduler, and a cancelled future resolves with a
    :class:`SweepCancelledError`.
    """

    def __init__(self, session: "SweepSession", index: int,
                 spec: CompressionSpec, retry: RetryPolicy,
                 timeout: Optional[float]):
        super().__init__()
        self._session = session
        self.index = index
        self.spec = spec
        self.retry = retry
        self.timeout = timeout
        self.attempts = 0
        self.category: Optional[str] = None
        #: ``True`` when the report was replayed from the result cache.
        self.cached = False
        # Scheduling internals owned by the session (guarded by its _cond).
        self._resolved = False
        self._attempt_token = 0
        self._pool_future: Optional[Future] = None
        self._timers: List[threading.Timer] = []
        # Cache bookkeeping (set once during scheduling, before any worker
        # can race on the future).
        self._cache_key: Optional[CacheKey] = None
        self._warm: Optional[WarmStart] = None

    @property
    def warm_source(self) -> Optional[str]:
        """Combined key of the cache entry that warm-started this run."""
        return None if self._warm is None else self._warm.source

    def cancel(self) -> bool:
        """Stop this spec if it has not completed; ``True`` when it worked.

        A pending future (queued, waiting for a retry backoff, or sitting
        unstarted in an executor pool) cancels immediately; a shard already
        running on a worker cannot be interrupted and ``cancel`` returns
        ``False``.
        """
        return self._session._cancel_future(self)

    def cancelled(self) -> bool:
        return self.category == CATEGORY_CANCELLED


def _call_quietly(fn, *args) -> None:
    try:
        fn(*args)
    except Exception:
        pass


# --------------------------------------------------------------------------- #
# The session
# --------------------------------------------------------------------------- #
class SweepSession:
    """Incremental sweep submission over one shared dense baseline.

    Construction is cheap: the model, loader plan, dense profile /
    hardware evaluation and dense accuracy probe are built lazily when the
    first spec is scheduled (so a ``submit_all`` batch can size the dense
    probe's training budget exactly like ``run_sweep`` does).  All specs
    must share the accounting conventions (``conv_only``,
    ``hardware_batch``, ``layer_names``, ``dtype``, ``backend``) because
    one baseline is shared.

    ``executor`` / ``max_workers`` pick the strategy exactly as in
    ``run_sweep`` (including the ``REPRO_SWEEP_EXECUTOR`` environment
    variable); ``retry`` and ``timeout`` set session-wide defaults that
    individual ``submit`` calls may override.

    ``cache`` plugs in the content-addressed result cache
    (:mod:`repro.api.cache`): a policy string (``"off"`` / ``"read"`` /
    ``"write"`` / ``"readwrite"``), a :class:`~repro.api.cache.ReportCache`
    instance, or a ``(store, policy)`` pair.  Under a readable policy a
    submission whose (spec, model, data) content address has a stored
    report resolves instantly — its future reports ``cached=True`` and a
    ``"cached"`` progress event fires instead of ``"scheduled"`` /
    ``"completed"``.  Under a writable policy every fresh report (remote
    results included) is written back, together with the finalized model's
    parameters when the spec trained.  ``warm_start=True`` (the default;
    only meaningful with a readable cache) additionally seeds a cache-miss
    spec's fine-tuning from the nearest same-(method, model, data)
    checkpoint instead of training from dense.  Timeouts are enforced by
    the session scheduler, with one deadline rule for every executor: an
    attempt whose result arrives past its deadline resolves (or retries)
    as a timeout.  For a pooled shard a per-attempt timer also abandons it
    at the deadline, cancelling it when the executor has not started it
    yet.  The ``serial`` executor's inline pool runs each shard inside
    ``submit``, where nothing can preempt it, so there the rule applies
    when the shard finishes; retries (and their backoff) also run in the
    submitting thread.
    """

    def __init__(self, model: Union[str, Module] = "resnet20",
                 data: DataArg = None,
                 hardware: Optional[EyerissSpec] = EYERISS_PAPER,
                 input_shape: Optional[Tuple[int, int, int]] = None,
                 dtype: Optional[str] = None, backend: Optional[str] = None,
                 seed: int = 0,
                 executor: Optional[ExecutorLike] = None,
                 max_workers: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 cache: CacheArg = None,
                 warm_start: bool = True):
        self._model = model
        self._data = data
        self._hardware = hardware
        self._input_shape = input_shape
        self._dtype = dtype
        self._backend = backend
        self._seed = seed
        self._executor: SweepExecutor = resolve_executor(executor)
        # Validated now, not when the pool opens after the dense baseline.
        self._executor.pool_capacity(max_workers)
        self._max_workers = max_workers
        self._default_retry = (retry or RetryPolicy()).validate()
        self._default_timeout = _validated_timeout(timeout)
        self._cache, self._cache_policy = resolve_cache(cache)
        self._cache_read = self._cache_policy in ("read", "readwrite")
        self._cache_write = self._cache_policy in ("write", "readwrite")
        self._warm_start = bool(warm_start)

        self._cond = threading.Condition()
        self._boot_lock = threading.Lock()
        self._futures: List[SweepFuture] = []
        self._progress: List[Callable[[SessionEvent], None]] = []
        self._convention = None
        self._closed = False

        # Materialized by _ensure_baseline() on first scheduling.
        self._ready = False
        self._state: Optional[EngineState] = None
        self._base_model: Optional[Module] = None
        self._resolved_shape: Optional[Tuple[int, int, int]] = None
        self._plan: Optional[LoaderPlan] = None
        self._dense: Optional[DenseBaseline] = None
        self._shard_dense: Optional[DenseBaseline] = None
        self._wire_common: Optional[dict] = None
        self._pool: Optional[Executor] = None
        self._model_digest: Optional[str] = None
        self._data_digest: Optional[str] = None

    # -- lifecycle ------------------------------------------------------- #
    def __enter__(self) -> "SweepSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Cancel whatever has not started and release the executor pool.

        Shards already running on workers are waited for (``wait=True``)
        so their resources are reclaimed; their futures resolve normally.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            pool = self._pool
        for future in list(self._futures):
            if not future.done():
                future.cancel()
        if pool is not None:
            pool.shutdown(wait=wait)
        # Futures of shards that were running when the pool drained have
        # resolved by now (their done-callbacks ran during shutdown).

    @property
    def dense(self) -> DenseBaseline:
        """The shared dense baseline (computes it if nothing ran yet)."""
        self._ensure_baseline()
        return self._dense

    @property
    def futures(self) -> List[SweepFuture]:
        """Every submitted future, in submission (= spec) order."""
        with self._cond:
            return list(self._futures)

    def plan(self, report: CompressionReport, *,
             batch: Optional[int] = None,
             memory_budget: Optional[int] = None, fold_bn: bool = False,
             backend=None):
        """Compile ``report`` into an inference plan through this session.

        Same surface as :meth:`CompressionReport.plan`, but routed through
        the session's cache knob: with a readable policy the serialized
        ``repro-plan/2`` artifact is served from the store instead of
        recompiling, and with a writable policy fresh plans are stored for
        later sessions.
        """
        from .plan import compile_report
        cache = (None if self._cache is None
                 else (self._cache, self._cache_policy))
        return compile_report(report, batch=batch,
                              memory_budget=memory_budget, fold_bn=fold_bn,
                              backend=backend, cache=cache)

    # -- progress events -------------------------------------------------- #
    def add_progress_callback(self, fn: Callable[[SessionEvent], None]) -> None:
        """Observe scheduling milestones of every future in this session.

        Callbacks receive :class:`SessionEvent` instances and may fire from
        the submitting thread, timer threads or pool callback threads;
        exceptions they raise are swallowed.
        """
        with self._cond:
            self._progress.append(fn)

    def _emit(self, kind: str, future: SweepFuture,
              error: Optional[BaseException] = None) -> None:
        with self._cond:
            callbacks = list(self._progress)
        if not callbacks:
            return
        event = SessionEvent(kind=kind, index=future.index, spec=future.spec,
                             attempt=future.attempts,
                             category=future.category, error=error)
        for fn in callbacks:
            _call_quietly(fn, event)

    # -- submission ------------------------------------------------------- #
    def submit(self, spec: CompressionSpec, *,
               retry: Optional[RetryPolicy] = None,
               timeout: Optional[float] = None) -> SweepFuture:
        """Register one spec and schedule it immediately."""
        future = self._register(spec, retry, timeout)
        self._emit("submitted", future)
        try:
            self._ensure_baseline()
            self._schedule(future)
        except Exception as exc:
            self._abort_unscheduled([future], exc)
            raise
        return future

    def submit_all(self, specs: Sequence[CompressionSpec], *,
                   retry: Optional[RetryPolicy] = None,
                   timeout: Optional[float] = None,
                   fail_fast: bool = False) -> List[SweepFuture]:
        """Register a batch, then schedule every spec in order.

        All specs are registered *before* the dense baseline materializes,
        so the dense accuracy probe sees the whole batch's training budget
        — exactly like ``run_sweep``.  With ``fail_fast=True``, a failure
        stops further scheduling and cancels the batch's unscheduled
        remainder (only inline strategies fail mid-loop; pools schedule
        everything up front, mirroring the batch executor semantics).
        """
        futures: List[SweepFuture] = []
        try:
            for spec in specs:
                futures.append(self._register(spec, retry, timeout))
            for future in futures:
                self._emit("submitted", future)
            if futures:
                self._ensure_baseline()
            for position, future in enumerate(futures):
                self._schedule(future)
                if (fail_fast and future.done()
                        and future.exception() is not None):
                    for rest in futures[position + 1:]:
                        rest.cancel()
                    break
        except Exception as exc:
            # A failure anywhere in the batch — a later spec failing
            # registration included — must not leave earlier futures
            # pending forever.
            self._abort_unscheduled(futures, exc)
            raise
        return futures

    def _abort_unscheduled(self, futures: Sequence[SweepFuture],
                           error: BaseException) -> None:
        """Resolve registered-but-unscheduled futures when bootstrap fails.

        The baseline (or the executor pool) raising must not leave futures
        pending forever — ``wait`` / ``result`` / ``as_completed`` would
        block on work that can never run.  Each one resolves carrying the
        bootstrap error.
        """
        for future in futures:
            self._resolve(future, error=error, category=CATEGORY_ERROR)

    def _register(self, spec: CompressionSpec,
                  retry: Optional[RetryPolicy],
                  timeout: Optional[float]) -> SweepFuture:
        if not isinstance(spec, CompressionSpec):
            raise TypeError(f"expected a CompressionSpec, got {type(spec).__name__}")
        if self._dtype is not None or self._backend is not None:
            spec = spec.with_overrides(dtype=self._dtype or spec.dtype,
                                       backend=self._backend or spec.backend)
        convention = (spec.conv_only, spec.hardware_batch,
                      tuple(spec.layer_names or ()), spec.dtype, spec.backend)
        policy = (retry.validate() if retry is not None else self._default_retry)
        timeout = (_validated_timeout(timeout) if timeout is not None
                   else self._default_timeout)
        with self._cond:
            if self._closed:
                raise RuntimeError("cannot submit to a closed SweepSession")
            if self._convention is None:
                self._convention = convention
            elif convention != self._convention:
                raise ValueError(
                    "a SweepSession shares one dense baseline across all "
                    "specs; conv_only / hardware_batch / layer_names / dtype "
                    "/ backend must match on every spec")
            if self._ready:
                spec = spec.with_overrides(input_shape=self._resolved_shape)
            future = SweepFuture(self, len(self._futures), spec,
                                 policy, timeout)
            self._futures.append(future)
        return future

    # -- baseline bootstrap ----------------------------------------------- #
    def _ensure_baseline(self) -> None:
        with self._boot_lock:
            with self._cond:
                if self._ready:
                    return
                specs = [future.spec for future in self._futures]
            if not specs:
                raise ValueError(
                    "submit at least one CompressionSpec before the session "
                    "can materialize its dense baseline")
            first = specs[0]
            with use_backend(first.backend, dtype=first.dtype):
                self._materialize(specs)

    def _materialize(self, specs: List[CompressionSpec]) -> None:
        state = EngineState.capture()
        if self._executor.wire and not isinstance(self._model, str):
            raise TypeError(
                f"the '{self._executor.name}' executor bootstraps workers "
                "from the model registry and cannot ship a built Module; "
                "pass a registry name (e.g. 'resnet20')")

        if isinstance(self._model, str):
            base_model = build_model(self._model,
                                     rng=np.random.default_rng(self._seed))
            resolved_shape = self._input_shape or default_input_shape(self._model)
        else:
            base_model = self._model
            if self._input_shape is None:
                raise ValueError(
                    "input_shape is required when passing a built model")
            resolved_shape = self._input_shape
        resolved_shape = tuple(resolved_shape)

        plan = _loader_plan(self._data, self._seed)
        if self._executor.wire and plan.kind == "template":
            plan.to_payload()  # raises: live loaders cannot reach wire workers

        # Cache addressing: the model digest is taken on the pristine base
        # model (the dense probe trains a copy) and the data digest on the
        # canonical recipe.  Template plans wrap live user loaders, which
        # have no canonical form — such sessions run uncached.
        base_digest = data_part = None
        if self._cache is not None:
            base_digest = model_digest(base_model)
            data_part = data_digest(plan)
            if data_part is None:
                warnings.warn(
                    "this session's data has no canonical recipe "
                    "(user-supplied DataLoader objects), so its submissions "
                    "cannot be content-addressed; the result cache is "
                    "disabled for this session", CacheIntegrityWarning,
                    stacklevel=3)

        # Stage 1 (parent): the dense baseline — model profile, hardware
        # evaluation and the trained dense accuracy probe — is computed once
        # and broadcast to every shard.
        specs = [spec.with_overrides(input_shape=resolved_shape)
                 for spec in specs]
        dense = CompressionPipeline(specs[0], hardware=self._hardware
                                    ).dense_baseline(base_model, resolved_shape)
        loaders = plan.make()
        if loaders is not None and loaders[1] is not None:
            dense.accuracy = _dense_accuracy(base_model, loaders, specs)

        # Shards only need the dense baseline as a "do not recompute" token
        # plus its cost table — the session rebinds the full object (layer
        # profile, per-layer hardware report) when futures resolve — so a
        # stripped copy travels, keeping the per-task payload small.
        shard_dense = DenseBaseline(profile=None, cost=dense.cost,  # type: ignore[arg-type]
                                    hardware=None, accuracy=dense.accuracy)

        # Everything in a repro-job/1 payload except the spec and job id is
        # session-constant, so the expensive parts (base64 data recipe,
        # digest-guarded dense payload) are encoded exactly once — through
        # the canonical SweepJob.to_dict itself, so the cached fields can
        # never drift from the protocol.
        wire_common = None
        if self._executor.wire:
            template = SweepJob(spec=specs[0], model=self._model,
                                seed=self._seed, dense=shard_dense,
                                engine=state, hardware=self._hardware,
                                data=plan)
            wire_common = {key: value
                           for key, value in template.to_dict().items()
                           if key not in ("spec", "job_id")}

        with self._cond:
            self._state = state
            self._base_model = base_model
            self._resolved_shape = resolved_shape
            self._plan = plan
            self._dense = dense
            self._shard_dense = shard_dense
            self._wire_common = wire_common
            self._model_digest = base_digest
            self._data_digest = data_part
            for future in self._futures:
                future.spec = future.spec.with_overrides(
                    input_shape=resolved_shape)
            self._ready = True

    def _ensure_pool(self) -> Executor:
        with self._cond:
            if self._pool is None:
                self._pool = self._executor.open(self._max_workers)
            return self._pool

    # -- scheduling -------------------------------------------------------- #
    def _shard_payload(self, future: SweepFuture) -> Any:
        warm = None if future._warm is None else future._warm.state
        if self._wire_common is not None:
            payload = {**self._wire_common,
                       "job_id": int(future.index),
                       "spec": future.spec.to_dict()}
            if warm is not None:
                payload["warm"] = state_to_payload(warm)
            return payload
        return SweepJob(spec=future.spec, model=self._base_model,
                        seed=self._seed, dense=self._shard_dense,
                        engine=self._state, hardware=self._hardware,
                        data=self._plan, job_id=future.index, warm=warm)

    # -- cache ------------------------------------------------------------- #
    def _future_key(self, future: SweepFuture) -> Optional[CacheKey]:
        """The submission's content address, or ``None`` when uncacheable."""
        if (self._cache is None or self._model_digest is None
                or self._data_digest is None):
            return None
        try:
            spec_part = future.spec.digest()
        except TypeError:
            return None  # the spec carries a live Module / unencodable config
        return CacheKey(method=future.spec.method, spec=spec_part,
                        model=self._model_digest, data=self._data_digest)

    def _try_cache(self, future: SweepFuture) -> bool:
        """Replay a hit (``True``) or arm a near-miss warm start (``False``).

        Runs once per future, during scheduling — before any worker can race
        on it — so ``_cache_key`` / ``_warm`` need no further locking.
        """
        if self._cache is None:
            return False
        key = self._future_key(future)
        if key is None:
            return False
        future._cache_key = key
        if not self._cache_read:
            return False
        report = self._cache.get(key)
        if report is not None:
            future.cached = True
            self._resolve(future, report=report)
            return True
        if (self._warm_start and future.spec.epochs > 0
                and self._plan is not None and self._plan.kind != "none"):
            try:
                future._warm = self._cache.nearest_checkpoint(
                    key, future.spec.to_dict())
            except Exception as exc:
                warnings.warn(
                    f"warm-start lookup failed for spec[{future.index}] "
                    f"({future.spec.display_label}); running cold: {exc}",
                    CacheIntegrityWarning, stacklevel=2)
        return False

    def _store_result(self, future: SweepFuture,
                      report: CompressionReport) -> None:
        """Write a fresh report (and checkpoint, when trained) back."""
        if self._cache is None or not self._cache_write:
            return
        key = future._cache_key or self._future_key(future)
        if key is None:
            return
        checkpoint = None
        if future.spec.epochs > 0 and report.compressed.model is not None:
            # Untrained parameters would poison later warm starts, and wire
            # results (model dropped by repro-report/1) have nothing to save
            # — the report itself is still cached.
            checkpoint = report.compressed.model.state_dict()
        warm_source = None if future._warm is None else future._warm.source
        try:
            self._cache.put(key, report, checkpoint=checkpoint,
                            warm_source=warm_source)
        except Exception as exc:
            warnings.warn(
                f"report-cache write failed for spec[{future.index}] "
                f"({future.spec.display_label}): {exc}",
                CacheIntegrityWarning, stacklevel=2)

    def _schedule(self, future: SweepFuture) -> None:
        with self._cond:
            if future._resolved:
                return
        if self._try_cache(future):
            return
        self._submit_attempt(future, future.attempts + 1)
        # An inline attempt has finished by now; a future still unresolved
        # is due for a retry, whose backoff _retry_later already slept.
        # Looping here, not resubmitting from _retry_later, keeps the stack
        # flat however many attempts the policy allows.
        while self._executor.inline and not future._resolved:
            self._submit_attempt(future, future.attempts + 1)

    def _submit_attempt(self, future: SweepFuture, attempt: int) -> None:
        pool = self._ensure_pool()
        task = self._shard_payload(future)
        with self._cond:
            if future._resolved:
                return
            future._attempt_token = attempt
        self._emit("scheduled", future)
        start = time.monotonic()
        try:
            pool_future = pool.submit(execute_job, task)
        except Exception as exc:
            # The pool could not even accept the shard (e.g. an unpicklable
            # task, or a pool torn down mid-submit).
            with self._cond:
                if future._resolved:
                    return
                future.attempts = attempt
            self._resolve(future, error=exc, category=CATEGORY_ERROR)
            return
        with self._cond:
            if future._resolved:
                pool_future.cancel()
                return
            future._pool_future = pool_future
            # An inline pool has finished the shard already; only a shard
            # still pending or running needs a timer to abandon it.
            if future.timeout is not None and not pool_future.done():
                timer = threading.Timer(
                    future.timeout, self._on_timeout, args=(future, attempt))
                timer.daemon = True
                future._timers.append(timer)
                timer.start()
        pool_future.add_done_callback(
            lambda pf: self._on_attempt_done(future, attempt, start, pf))

    def _on_attempt_done(self, future: SweepFuture, attempt: int,
                         start: float, pool_future: Future) -> None:
        elapsed = time.monotonic() - start
        with self._cond:
            if future._resolved or future._attempt_token != attempt:
                return  # stale attempt: timed out, cancelled or superseded
            self._drop_timers(future)
            if pool_future.cancelled():
                return  # the cancel path resolves the future
            future.attempts = attempt
        error = pool_future.exception()
        if error is not None:
            self._fail_attempt(future, attempt, error, CATEGORY_ERROR)
        elif future.timeout is not None and elapsed > future.timeout:
            # A result that arrives past the deadline is a timeout, whether
            # the shard ran inline (which no timer can preempt) or beat its
            # timer thread by a hair.
            self._fail_attempt(future, attempt, self._timeout_error(
                future, attempt,
                f" (its result arrived after {elapsed:.2f}s; a shard running "
                "inline is not preempted, so the deadline is checked when it "
                "finishes)"), CATEGORY_TIMEOUT)
        else:
            self._resolve(future, report=pool_future.result())

    def _on_timeout(self, future: SweepFuture, attempt: int) -> None:
        with self._cond:
            if future._resolved or future._attempt_token != attempt:
                return
            # Invalidate the attempt: a late completion must be discarded,
            # and an unstarted shard is pulled back from the pool queue.
            future._attempt_token = -attempt
            if future._pool_future is not None:
                future._pool_future.cancel()
            future.attempts = attempt
            self._drop_timers(future)
        self._fail_attempt(future, attempt,
                           self._timeout_error(future, attempt),
                           CATEGORY_TIMEOUT)

    @staticmethod
    def _timeout_error(future: SweepFuture, attempt: int,
                       detail: str = "") -> SweepTimeoutError:
        return SweepTimeoutError(
            f"spec[{future.index}] ({future.spec.display_label}) exceeded "
            f"the {future.timeout}s timeout on attempt "
            f"{attempt}/{future.retry.max_attempts}{detail}")

    def _fail_attempt(self, future: SweepFuture, attempt: int,
                      error: BaseException, category: str) -> None:
        """Retry a failed attempt if the policy allows, else resolve it."""
        retryable = (category == CATEGORY_ERROR
                     or future.retry.retry_timeouts)
        if retryable and attempt < future.retry.max_attempts:
            self._retry_later(future, attempt, error)
        else:
            self._resolve(future, error=error, category=category)

    def _retry_later(self, future: SweepFuture, failed_attempt: int,
                     error: BaseException) -> None:
        self._emit("retrying", future, error=error)
        delay = future.retry.delay(failed_attempt)
        if self._executor.inline:
            time.sleep(delay)  # _schedule resubmits in this thread
            return
        timer = threading.Timer(
            delay, self._submit_attempt, args=(future, failed_attempt + 1))
        timer.daemon = True
        with self._cond:
            if future._resolved:
                return
            future._timers.append(timer)
        timer.start()

    def _drop_timers(self, future: SweepFuture) -> None:
        for timer in future._timers:
            timer.cancel()
        future._timers.clear()

    def _cancel_future(self, future: SweepFuture) -> bool:
        with self._cond:
            if future._resolved:
                return False
            pool_future = future._pool_future
            if pool_future is not None and not pool_future.cancel() \
                    and pool_future.running():
                return False  # already on a worker; cannot be interrupted
            future._attempt_token = -1
            self._drop_timers(future)
        self._resolve(future,
                      error=SweepCancelledError(
                          f"spec[{future.index}] "
                          f"({future.spec.display_label}) was cancelled"),
                      category=CATEGORY_CANCELLED)
        return True

    def _resolve(self, future: SweepFuture,
                 report: Optional[CompressionReport] = None,
                 error: Optional[BaseException] = None,
                 category: Optional[str] = None) -> None:
        with self._cond:
            if future._resolved:
                return
            future._resolved = True
            future.category = category
            self._drop_timers(future)
        if error is None:
            if report is not None:
                # Rebind onto the session's full dense baseline (worker
                # copies are dropped), preserving the shared-baseline
                # identity invariant of run_sweep.  The write-back follows
                # the rebind, so the stored dense payload carries the full
                # baseline a replay must reproduce, and precedes set_result,
                # so the store holds the report once a waiter sees it.
                report.dense = self._dense
                report.dense_hardware = self._dense.hardware
                if not future.cached:
                    self._store_result(future, report)
            # Done-callbacks run here, outside the session lock.
            future.set_result(report)
            self._emit("cached" if future.cached else "completed", future)
        else:
            future.set_exception(error)
            self._emit("cancelled" if category == CATEGORY_CANCELLED
                       else "failed", future, error=error)

    # -- observation ------------------------------------------------------- #
    def as_completed(self, futures: Optional[Sequence[SweepFuture]] = None,
                     timeout: Optional[float] = None
                     ) -> Iterator[SweepFuture]:
        """Yield futures as they resolve (completion order, not spec order).

        :func:`concurrent.futures.as_completed` over ``futures`` (default:
        every submitted future); raises ``concurrent.futures.TimeoutError``
        when ``timeout`` expires first.
        """
        return as_completed(self.futures if futures is None else futures,
                            timeout=timeout)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted future resolves; ``False`` on timeout."""
        return not wait(self.futures, timeout=timeout).not_done

    def result(self, on_error: str = "raise"):
        """All resolved futures merged into a spec-ordered ``SweepResult``.

        ``on_error="raise"`` re-raises the first failure in spec order;
        ``"skip"`` records failures (with their ``attempts`` and
        ``category``) on ``SweepResult.failures`` and keeps every healthy
        report.  Waits for outstanding futures first.
        """
        from .sweep import SweepFailure, SweepResult

        if on_error not in ("raise", "skip"):
            raise ValueError("on_error must be 'raise' or 'skip'")
        futures = self.futures
        if not futures:
            raise ValueError("no specs were submitted to this session")
        self.wait()
        result = SweepResult(dense=self._dense)
        for future in futures:
            error = future.exception()
            if error is None:
                result.reports.append(future.result())
                continue
            if on_error == "raise":
                raise error
            # Drop the traceback before recording: its frames pin the failed
            # shard's deep-copied model and loaders for the lifetime of the
            # SweepResult (error_type/message carry the report-facing data).
            error.__traceback__ = None
            result.failures.append(SweepFailure(
                index=future.index,
                spec=future.spec,
                error_type=type(error).__name__,
                message=str(error),
                exception=error,
                attempts=max(1, future.attempts),
                category=future.category or CATEGORY_ERROR,
            ))
        return result


def print_progress(prefix: str = "sweep",
                   total: Optional[int] = None
                   ) -> Callable[[SessionEvent], None]:
    """A progress callback printing one line per scheduling milestone.

    The ``--stream`` flag of the experiments and examples installs this via
    :meth:`SweepSession.add_progress_callback`.
    """
    def _print(event: SessionEvent) -> None:
        slot = (f"{event.index + 1}/{total}" if total is not None
                else f"#{event.index}")
        detail = ""
        if event.kind == "retrying":
            detail = f" (attempt {event.attempt} failed: {event.error})"
        elif event.kind == "failed":
            detail = f" [{event.category}] {event.error}"
        print(f"[{prefix}] {slot} {event.spec.display_label}: "
              f"{event.kind}{detail}", flush=True)

    return _print


def _validated_timeout(timeout: Optional[float]) -> Optional[float]:
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ValueError("timeout must be a positive, finite number of seconds")
    return timeout


def _dense_accuracy(base_model: Module, loaders, specs) -> float:
    """Accuracy of the dense reference under the sweep's training budget.

    When the specs request training, the compressed models are trained
    before evaluation — so the dense row is trained for the same number of
    epochs (on a copy) to keep the comparison meaningful.
    """
    from ..core import ClassifierTrainer
    from .adapters import evaluate_accuracy

    epochs = max((spec.epochs for spec in specs), default=0)
    probe = copy.deepcopy(base_model)
    if specs[0].dtype is not None or specs[0].backend is not None:
        probe.astype(get_default_dtype())
    if epochs > 0 and loaders[0] is not None:
        ClassifierTrainer(probe, lr=specs[0].lr).fit(
            loaders[0], loaders[1], epochs=epochs)
    return evaluate_accuracy(probe, loaders[1])
