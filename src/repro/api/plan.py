"""Compile a finished :class:`CompressionReport` into an inference plan.

This is the deployment hand-off of the API layer: after a pipeline run
(or a cache hit that rebuilt the model), :func:`compile_report` turns the
compressed model into a static :class:`repro.deploy.InferencePlan` using
the geometry and execution settings already recorded on the spec — the
same backend / dtype scope the pipeline trained and evaluated under, the
spec's input shape, and its hardware batch.

Compilation composes with the result cache: pass ``cache=`` (the same
knob :class:`~repro.api.session.SweepSession` takes) and the
``repro-plan/2`` container is stored under a content address derived from
the model's parameter bytes and every compile option, so the next
``compile_report`` for the same model serves the stored plan instead of
re-tracing and re-lowering — bit-identically, since the wire form
round-trips plans exactly.
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple

from ..deploy import InferencePlan
from ..deploy import compile as compile_plan
from ..models import default_input_shape
from ..nn.backend import current_backend, get_backend
from ..wire import model_digest, payload_digest
from .cache import CacheArg, CacheIntegrityWarning, resolve_cache
from .pipeline import CompressionReport

#: Versioned kind tag of the plan-artifact content address.
PLAN_ADDRESS_KIND = "repro-plan-address/1"


def _resolve_input_shape(report: CompressionReport) -> Tuple[int, ...]:
    if report.spec.input_shape is not None:
        return tuple(report.spec.input_shape)
    if isinstance(report.spec.model, str):
        return tuple(default_input_shape(report.spec.model))
    raise ValueError(
        "cannot infer the input shape: spec.input_shape is unset and "
        "spec.model is not a registry name")


def _resolve_backend(report: CompressionReport, backend):
    """The backend/dtype compilation will actually run under."""
    if backend is not None:
        return get_backend(backend)
    spec = report.spec
    return get_backend(spec.backend if spec.backend is not None
                       else current_backend(), spec.dtype)


def plan_address(report: CompressionReport, *, input_shape: Tuple[int, ...],
                 batch: int, backend, memory_budget: Optional[int],
                 fold_bn: bool) -> str:
    """Content address of the plan ``compile_report`` would produce.

    A plan is a deterministic function of the model's parameter bytes and
    the compile options, so those — not the report's provenance — form
    the address.  Two reports that converged to byte-identical models
    share one stored plan.
    """
    return payload_digest({
        "kind": PLAN_ADDRESS_KIND,
        "model": model_digest(report.model),
        "input_shape": list(input_shape),
        "batch": int(batch),
        "backend": backend.name,
        "dtype": backend.dtype.name,
        "memory_budget": None if memory_budget is None else int(memory_budget),
        "fold_bn": bool(fold_bn),
        # The retired dead-filter elision option; the constant keeps every
        # stored plan address valid.
        "elide_dead": True,
    })


def compile_report(report: CompressionReport, *, batch: Optional[int] = None,
                   memory_budget: Optional[int] = None, fold_bn: bool = False,
                   backend=None, cache: CacheArg = None) -> InferencePlan:
    """Compile ``report.model`` into a static :class:`InferencePlan`.

    The input shape comes from ``report.spec.input_shape`` (falling back
    to the registry default when the spec names a model), ``batch``
    defaults to ``spec.hardware_batch``, and — unless an explicit
    ``backend`` is given — compilation runs under the same
    backend / dtype scope as the pipeline itself, so the plan's weights
    and buffers match the dtype the report was produced in.

    ``cache=`` accepts the session cache knob (a policy string, a
    :class:`~repro.api.cache.ReportCache`, or a ``(store, policy)``
    pair): under a readable policy a stored ``repro-plan/2`` artifact for
    this exact (model bytes, compile options) is deserialized instead of
    recompiling; under a writable policy the freshly compiled plan is
    stored for the next call.  A damaged stored plan is a
    :class:`~repro.api.cache.CacheIntegrityWarning` plus a recompile,
    never a failure.

    The report must still carry its live model (reports rebuilt from the
    wire format via :meth:`CompressionReport.from_dict` do not).
    """
    input_shape = _resolve_input_shape(report)
    if batch is None:
        batch = report.spec.hardware_batch
    store, policy = resolve_cache(cache)
    resolved = _resolve_backend(report, backend)

    address = None
    if store is not None and report.model is not None:
        address = plan_address(report, input_shape=input_shape, batch=batch,
                               backend=resolved, memory_budget=memory_budget,
                               fold_bn=fold_bn)
    if address is not None and policy in ("read", "readwrite"):
        data = store.get_plan(address)
        if data is not None:
            try:
                return InferencePlan.from_bytes(data)
            except Exception as exc:
                warnings.warn(
                    f"stored plan {address[:12]}… failed to deserialize and "
                    f"was recompiled: {exc}", CacheIntegrityWarning,
                    stacklevel=2)

    plan = compile_plan(report.model, input_shape, batch=batch,
                        memory_budget=memory_budget, fold_bn=fold_bn,
                        backend=resolved)

    if address is not None and policy in ("write", "readwrite"):
        store.put_plan(address, plan.to_bytes())
    return plan
