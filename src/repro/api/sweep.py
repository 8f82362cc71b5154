"""Batch runner: a list of :class:`CompressionSpec` → a list of reports.

``run_sweep()`` with no arguments reproduces the paper's Table II method
set (magnitude, FPGM, AMC, LCNN, low-rank, ALF) on a ResNet-20 at CIFAR-10
geometry in one call.  The dense model is built once, the dataset loaders
are built once, and the dense profile + Eyeriss evaluation are computed
once and shared across every method — sweeps do not rebuild anything per
method.

Since PR 5 the batch call is a thin façade over
:class:`repro.api.session.SweepSession`: every spec becomes a submitted
future, shard results stream back as they finish, and the session merges
them **in spec order** under the shared dense baseline — so the returned
:class:`SweepResult` is bit-identical to the historical serial loop
whatever executor ran the shards (``"serial"`` / ``"thread"`` /
``"process"`` / ``"remote"``, or the ``REPRO_SWEEP_EXECUTOR`` environment
variable).  Callers that need incremental submission, progress callbacks,
retries, timeouts or cancellation use the session directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..hardware import EYERISS_PAPER, EyerissSpec
from ..metrics.compression import ComparisonTable, MethodResult, pareto_front
from ..metrics.tables import format_count, format_reduction, render_table
from ..nn.module import Module
from ..nn.profiler import OpProfile
from ..wire import check_schema
from .cache import CacheArg
from .executor import ExecutorLike
from .pipeline import CompressionReport, DataArg, DenseBaseline
from .registry import get_method
from .session import SweepSession
from .spec import ALFSpec, AMCSpec, CompressionSpec, LCNNSpec, LowRankSpec

#: Wire-format identifier of :meth:`SweepFailure.to_dict` payloads.
FAILURE_SCHEMA = "repro-failure/1"

#: Per-stage remaining-filter fractions reproducing Table II's ALF row
#: (-70% Params / -61% OPs on ResNet-20); see Fig. 2c / Fig. 3 of the paper.
ALF_TABLE2_STAGE_REMAINING: Dict[int, float] = {16: 0.45, 32: 0.40, 64: 0.28}


def table2_specs(seed: int = 0) -> List[CompressionSpec]:
    """The Table II method set with the paper-matched operating points."""
    return [
        CompressionSpec(method="magnitude", seed=seed),
        CompressionSpec(method="fpgm", seed=seed),
        CompressionSpec(method="amc",
                        config=AMCSpec(target_ops_fraction=0.49), seed=seed),
        CompressionSpec(method="lcnn",
                        config=LCNNSpec(dictionary_fraction=0.25, sparsity=3),
                        seed=seed),
        CompressionSpec(method="lowrank",
                        config=LowRankSpec(rank_fraction=0.4), seed=seed),
        CompressionSpec(method="alf",
                        config=ALFSpec(stage_remaining=ALF_TABLE2_STAGE_REMAINING),
                        seed=seed),
    ]


@dataclass
class SweepFailure:
    """One spec that died mid-sweep (recorded under ``on_error="skip"``).

    ``attempts`` counts every run the session scheduler gave the spec
    (1 without a :class:`~repro.api.session.RetryPolicy`); ``category``
    states *how* it died — ``"error"`` (the shard raised), ``"timeout"``
    (the per-attempt deadline passed) or ``"cancelled"`` (the future was
    cancelled before a report existed).
    """

    index: int
    spec: CompressionSpec
    error_type: str
    message: str
    #: The original exception when it survived transport from the worker.
    exception: Optional[BaseException] = None
    attempts: int = 1
    category: str = "error"

    def __str__(self) -> str:
        base = (f"spec[{self.index}] ({self.spec.display_label}): "
                f"{self.error_type}: {self.message}")
        if self.category != "error" or self.attempts > 1:
            base += f" [{self.category} after {self.attempts} attempt(s)]"
        return base

    # -- wire format ---------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (the live exception object does not travel)."""
        return {
            "schema": FAILURE_SCHEMA,
            "index": int(self.index),
            "spec": self.spec.to_dict(),
            "error_type": self.error_type,
            "message": self.message,
            "attempts": int(self.attempts),
            "category": self.category,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepFailure":
        check_schema(payload, FAILURE_SCHEMA)
        category = payload.get("category", "error")
        if category not in ("error", "timeout", "cancelled"):
            raise ValueError(
                f"unknown failure category {category!r}: expected 'error', "
                "'timeout' or 'cancelled'")
        return cls(
            index=int(payload["index"]),
            spec=CompressionSpec.from_dict(payload["spec"]),
            error_type=payload["error_type"],
            message=payload["message"],
            exception=None,
            attempts=int(payload.get("attempts", 1)),
            category=category,
        )


@dataclass
class SweepResult:
    """Reports of a sweep plus the shared dense baseline.

    ``failures`` is non-empty only for ``run_sweep(..., on_error="skip")``
    runs in which one or more specs raised: the poisoned specs are recorded
    here while every healthy shard's report is kept in ``reports``.
    """

    dense: DenseBaseline
    reports: List[CompressionReport] = field(default_factory=list)
    failures: List[SweepFailure] = field(default_factory=list)

    def by_method(self, method: str) -> CompressionReport:
        key = get_method(method).name
        for report in self.reports:
            if report.method == key:
                return report
        raise KeyError(f"no report for method '{method}'")

    def methods(self) -> List[str]:
        return [report.method for report in self.reports]

    def comparison_table(self, baseline_label: str = "dense") -> ComparisonTable:
        baseline = MethodResult(
            method=baseline_label, policy="—",
            params=self.dense.cost["params"], ops=self.dense.cost["ops"],
            accuracy=(self.dense.accuracy or 0.0) * 100,
        )
        table = ComparisonTable(baseline=baseline)
        for report in self.reports:
            table.add(report.as_method_result())
        return table

    def pareto(self) -> List[MethodResult]:
        return pareto_front([r.as_method_result() for r in self.reports])

    def combined_profile(self) -> Optional[OpProfile]:
        """Every profiled report's phases folded into one :class:`OpProfile`.

        Profiles are collected *inside* each shard (op hooks are
        thread-local) and merged here in spec order, so call counts are
        identical whatever executor ran the sweep.  ``None`` when no spec
        asked for profiling.
        """
        merged = OpProfile()
        found = False
        for report in self.reports:
            if report.profile is not None:
                merged.merge(report.profile.combined())
                found = True
        return merged if found else None

    def render(self, title: str = "Compression sweep") -> str:
        headers = ["Method", "Policy", "Params", "OPs", "ΔParams", "ΔOPs",
                   "ΔEnergy", "ΔLatency", "Acc[%]"]
        # The dense row's non-applicable reduction cells and every missing
        # accuracy share the formatters' one fallback string, so all
        # columns type-check the same way against the header.
        rows = [["dense", "—", format_count(self.dense.cost["params"]),
                 format_count(self.dense.cost["ops"]),
                 format_reduction(None), format_reduction(None),
                 format_reduction(None), format_reduction(None),
                 _accuracy_cell(self.dense.accuracy)]]
        for report in self.reports:
            rows.append([
                report.spec.display_label, report.policy,
                format_count(report.cost["params"]), format_count(report.cost["ops"]),
                format_reduction(report.params_reduction),
                format_reduction(report.ops_reduction),
                format_reduction(report.energy_reduction),
                format_reduction(report.latency_reduction),
                _accuracy_cell(report.accuracy),
            ])
        return render_table(headers, rows, title=title)


def _accuracy_cell(accuracy: Optional[float]) -> str:
    """The Acc[%] cell: percentage, or the formatters' missing-value fallback."""
    return f"{accuracy * 100:.1f}" if accuracy is not None else "-"


def run_sweep(specs: Optional[Sequence[CompressionSpec]] = None,
              model: Union[str, Module] = "resnet20",
              data: DataArg = None,
              hardware: Optional[EyerissSpec] = EYERISS_PAPER,
              input_shape: Optional[Tuple[int, int, int]] = None,
              dtype: Optional[str] = None, backend: Optional[str] = None,
              seed: int = 0,
              executor: Optional[ExecutorLike] = None,
              max_workers: Optional[int] = None,
              on_error: str = "raise",
              cache: CacheArg = None,
              warm_start: bool = True) -> SweepResult:
    """Run many compression specs against one shared model / dataset.

    With ``specs=None`` the Table II method set (all six registered
    methods) is evaluated at the paper's operating points.  The dense model
    and the data loaders are built once; each method then works on its own
    deep copy, and the dense profile + hardware evaluation are computed a
    single time and shared across every report.

    ``dtype`` / ``backend`` select the execution engine for the whole
    sweep (overriding every spec); because one dense baseline is shared,
    per-spec dtype/backend values must otherwise agree.

    ``executor`` shards the specs: ``"serial"`` (default), ``"thread"``,
    ``"process"`` or ``"remote"`` (or any name from
    :func:`repro.api.available_executors`), with ``max_workers`` capping
    the pool size.  When no executor is passed the ``REPRO_SWEEP_EXECUTOR``
    environment variable is honoured.  Reports are merged in spec order
    under the parent's dense baseline, so every strategy returns the same
    :class:`SweepResult` as a serial run (``"remote"`` reports are
    wire-reconstructed and therefore carry no live compressed model).

    ``on_error`` decides what a raising spec does: ``"raise"`` (default)
    re-raises the first failure in spec order; ``"skip"`` records it as a
    :class:`SweepFailure` on ``SweepResult.failures`` and keeps every other
    shard's report.

    ``cache`` enables the content-addressed result cache
    (:mod:`repro.api.cache`): pass a policy string (``"read"`` /
    ``"write"`` / ``"readwrite"``) to use the default store (honouring
    ``REPRO_CACHE_DIR``), or a :class:`~repro.api.cache.ReportCache`
    instance.  Cached specs replay their stored report bit-identically
    instead of re-running; ``warm_start`` (default ``True``) additionally
    seeds cache-miss fine-tuning from the nearest stored checkpoint.

    Specs with ``profile=True`` collect their layer-scoped op profile
    *inside* the shard that runs them (op hooks are thread-local) and ship
    it back with the report — through pickle for process shards and
    through the ``repro-report/1`` wire format for remote workers.  The
    spec-ordered merge makes per-layer call counts identical across
    executors; :meth:`SweepResult.combined_profile` folds them into one
    profile.

    This is a façade over :class:`repro.api.SweepSession` — submit the
    same specs there for streaming results, progress callbacks, per-spec
    retry/timeout policy and cancellation.
    """
    if specs is None:
        specs = table2_specs(seed=seed)
    specs = list(specs)
    if not specs:
        raise ValueError("specs must contain at least one CompressionSpec")
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    session = SweepSession(model=model, data=data, hardware=hardware,
                           input_shape=input_shape, dtype=dtype,
                           backend=backend, seed=seed, executor=executor,
                           max_workers=max_workers, cache=cache,
                           warm_start=warm_start)
    with session:
        session.submit_all(specs, fail_fast=(on_error == "raise"))
        return session.result(on_error=on_error)
