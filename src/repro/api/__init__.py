"""``repro.api`` — the unified compression pipeline.

One façade over ALF, every baseline, and the hardware model::

    import repro.api as api

    report = api.compress("resnet20", method="alf",
                          hardware=api.EYERISS_PAPER)
    report.params_reduction, report.ops_reduction
    report.energy_reduction, report.latency_reduction

    sweep = api.run_sweep()          # the full Table II method set
    print(sweep.render())

Public surface
--------------
:func:`compress`
    One call: profile dense baseline → prepare/fit/finalize the method →
    measure accuracy → evaluate on the Eyeriss model → return a
    :class:`CompressionReport`.
:func:`run_sweep`
    Batch runner over many :class:`CompressionSpec`, with the model,
    loaders, dense profile and dense hardware evaluation shared.  Shards
    across workers via ``executor="thread"`` / ``"process"`` /
    ``"remote"`` (or the ``REPRO_SWEEP_EXECUTOR`` environment variable)
    with a deterministic, spec-ordered merge; ``on_error="skip"`` keeps
    healthy shards when a spec raises.  A thin façade over
    :class:`SweepSession`.
:class:`SweepSession` / :class:`SweepFuture` / :class:`RetryPolicy`
    Streaming submission: ``submit(spec)`` / ``submit_all(specs)`` return
    futures (``result`` / ``done`` / ``cancel``, completion callbacks),
    the session adds progress callbacks and ``as_completed()`` iteration,
    and per-spec retry/timeout policy is enforced by the session
    scheduler.
:class:`SweepJob` / :class:`RemoteExecutor`
    The versioned ``repro-job/1`` wire protocol (spec payload + model
    registry name + seed + digest-guarded dense baseline — never live
    modules) and its reference transport: worker subprocesses speaking
    JSON over stdio (``python -m repro.api.worker``).
:class:`SweepExecutor` / :func:`register_executor` / :func:`available_executors`
    The string-keyed executor registry (``"serial"``, ``"thread"``,
    ``"process"``, ``"remote"``).
:class:`CompressionMethod` / :class:`CompressedModel`
    The protocol every method adapter implements, and its output.
:func:`available_methods` / :func:`get_method` / :func:`register_method`
    The string-keyed method registry (``"alf"``, ``"magnitude"``,
    ``"fpgm"``, ``"amc"``, ``"lcnn"``, ``"lowrank"``).
:class:`ReportCache` / :class:`FileReportCache` / :class:`MemoryReportCache`
    The content-addressed result cache + checkpoint store
    (``repro-cache-entry/1``): sessions consult it through the ``cache=``
    policy knob (``"off"`` / ``"read"`` / ``"write"`` / ``"readwrite"``),
    replay stored reports bit-identically, and warm-start near-miss
    fine-tuning from the nearest stored checkpoint.  Keys combine
    :meth:`CompressionSpec.digest`, :func:`model_digest` and
    :func:`data_digest`; maintenance via ``python -m repro.api.cache``.
:class:`RunProfile` / :class:`OpProfile`
    Layer-scoped op profiling: ``compress(..., profile=True)`` (or
    ``CompressionSpec(profile=True)`` in a sweep) attaches per-op /
    per-layer call counts and wall-clock — split into dense / train /
    eval phases — to ``report.profile``;
    ``SweepResult.combined_profile()`` folds a profiled sweep into one
    profile.
"""

from ..hardware import EYERISS_PAPER, EyerissSpec
from ..nn.profiler import OpProfile, OpStat, RunProfile
from ..wire import (
    canonical_json,
    data_digest,
    model_digest,
    payload_digest,
    state_digest,
)
from . import adapters as _adapters  # noqa: F401  (populates the registry)
from .adapters import (
    ALFMethod,
    AMCMethod,
    CompressionAdapter,
    FPGMMethod,
    LCNNMethod,
    LowRankMethod,
    MagnitudeMethod,
    evaluate_accuracy,
    pruned_conv_shapes,
)
from .cache import (
    CACHE_ENTRY_SCHEMA,
    CACHE_ENV_VAR,
    CACHE_POLICIES,
    CacheIntegrityWarning,
    CacheKey,
    CacheStats,
    FileReportCache,
    MemoryReportCache,
    ReportCache,
    WarmStart,
    cache_key,
    default_cache,
    default_cache_dir,
    resolve_cache,
    spec_distance,
)
from .executor import (
    EXECUTOR_ENV_VAR,
    EngineState,
    ProcessExecutor,
    SerialExecutor,
    ShardPool,
    ShardResult,
    SweepExecutor,
    ThreadExecutor,
    available_executors,
    get_executor,
    register_executor,
    resolve_executor,
)
from .jobs import (
    JOB_RESULT_SCHEMA,
    JOB_SCHEMA,
    LoaderPlan,
    RemoteExecutor,
    RemoteJobError,
    RemoteWorkerError,
    SweepJob,
    execute_job,
    execute_plan_job,
    plan_job_payload,
    run_plan_remote,
    worker_main,
)
from .session import (
    RetryPolicy,
    SessionEvent,
    ShardTask,
    SweepCancelledError,
    SweepFuture,
    SweepSession,
    SweepTimeoutError,
    execute_shard,
    print_progress,
)
from .pipeline import (
    CompressionPipeline,
    CompressionReport,
    DenseBaseline,
    compress,
    resolve_loaders,
)
from .plan import PLAN_ADDRESS_KIND, compile_report, plan_address
from .protocol import CompressedModel, CompressionMethod
from .registry import (
    MethodEntry,
    available_methods,
    canonical_name,
    create_method,
    get_method,
    method_entries,
    register_method,
    unregister_method,
)
from .spec import (
    ALFSpec,
    AMCSpec,
    CompressionSpec,
    FPGMSpec,
    LCNNSpec,
    LowRankSpec,
    MagnitudeSpec,
)
from .sweep import (
    ALF_TABLE2_STAGE_REMAINING,
    FAILURE_SCHEMA,
    SweepFailure,
    SweepResult,
    run_sweep,
    table2_specs,
)

__all__ = [
    # façade
    "compress", "run_sweep", "CompressionPipeline", "CompressionReport",
    "SweepResult", "SweepFailure", "DenseBaseline", "table2_specs",
    "resolve_loaders", "compile_report", "plan_address", "PLAN_ADDRESS_KIND",
    # sessions
    "SweepSession", "SweepFuture", "RetryPolicy", "SessionEvent",
    "SweepTimeoutError", "SweepCancelledError", "ShardTask",
    "execute_shard", "print_progress",
    # wire protocol / remote workers
    "SweepJob", "RemoteExecutor", "RemoteJobError", "RemoteWorkerError",
    "LoaderPlan", "execute_job", "worker_main",
    "plan_job_payload", "execute_plan_job", "run_plan_remote",
    "JOB_SCHEMA", "JOB_RESULT_SCHEMA", "FAILURE_SCHEMA",
    # result cache + digests
    "ReportCache", "FileReportCache", "MemoryReportCache", "CacheKey",
    "CacheStats", "WarmStart", "CacheIntegrityWarning", "cache_key",
    "default_cache", "default_cache_dir", "resolve_cache", "spec_distance",
    "CACHE_ENTRY_SCHEMA", "CACHE_ENV_VAR", "CACHE_POLICIES",
    "canonical_json", "payload_digest", "model_digest", "data_digest",
    "state_digest",
    # executors
    "SweepExecutor", "SerialExecutor", "ThreadExecutor", "ProcessExecutor",
    "ShardPool", "ShardResult", "EngineState", "register_executor",
    "get_executor", "available_executors", "resolve_executor",
    "EXECUTOR_ENV_VAR",
    # protocol
    "CompressionMethod", "CompressedModel", "CompressionAdapter",
    # registry
    "register_method", "unregister_method", "get_method", "available_methods",
    "create_method", "method_entries", "canonical_name", "MethodEntry",
    # specs
    "CompressionSpec", "ALFSpec", "MagnitudeSpec", "FPGMSpec", "AMCSpec",
    "LCNNSpec", "LowRankSpec",
    # adapters
    "ALFMethod", "MagnitudeMethod", "FPGMMethod", "AMCMethod", "LCNNMethod",
    "LowRankMethod", "evaluate_accuracy", "pruned_conv_shapes",
    # profiling passthrough (reports carry these on .profile)
    "OpProfile", "OpStat", "RunProfile",
    # hardware passthrough
    "EYERISS_PAPER", "EyerissSpec",
    # constants
    "ALF_TABLE2_STAGE_REMAINING",
]
