"""Compile a finished :class:`CompressionReport` into an inference plan.

This is the deployment hand-off of the API layer: after a pipeline run
(or a cache hit that rebuilt the model), :func:`compile_report` turns the
compressed model into a static :class:`repro.deploy.InferencePlan` using
the geometry and execution settings already recorded on the spec — the
same backend / dtype scope the pipeline trained and evaluated under, the
spec's input shape, and its hardware batch.

Compilation composes with the result cache: pass ``cache=`` (the same
knob :class:`~repro.api.session.SweepSession` takes) and the serialized
``repro-plan/1`` payload is stored under a content address derived from
the model's parameter bytes and every compile option, so the next
``compile_report`` for the same model serves the stored plan instead of
re-tracing and re-lowering — bit-identically, since the wire form
round-trips plans exactly.
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple

import numpy as np

from ..deploy import InferencePlan
from ..deploy import compile as compile_plan
from ..models import default_input_shape
from ..nn.backend import current_backend, get_backend, use_backend
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
    target = (get_backend(spec.backend) if spec.backend is not None
              else current_backend())
    if spec.dtype is not None and np.dtype(spec.dtype) != target.default_dtype:
        target = target.with_dtype(spec.dtype)
    return target


def plan_address(report: CompressionReport, *, input_shape: Tuple[int, ...],
                 batch: int, backend, memory_budget: Optional[int],
                 fold_bn: bool, elide_dead: bool) -> str:
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
        "dtype": np.dtype(backend.default_dtype).name,
        "memory_budget": None if memory_budget is None else int(memory_budget),
        "fold_bn": bool(fold_bn),
        "elide_dead": bool(elide_dead),
    })


def compile_report(report: CompressionReport, *, batch: Optional[int] = None,
                   memory_budget: Optional[int] = None, fold_bn: bool = False,
                   elide_dead: bool = True, backend=None,
                   cache: CacheArg = None) -> InferencePlan:
    """Compile ``report.model`` into a static :class:`InferencePlan`.

    The input shape comes from ``report.spec.input_shape`` (falling back
    to the registry default when the spec names a model), ``batch``
    defaults to ``spec.hardware_batch``, and — unless an explicit
    ``backend`` is given — compilation runs under the same
    backend / dtype scope as the pipeline itself, so the plan's weights
    and buffers match the dtype the report was produced in.

    ``cache=`` accepts the session cache knob (a policy string, a
    :class:`~repro.api.cache.ReportCache`, or a ``(store, policy)``
    pair): under a readable policy a stored ``repro-plan/1`` artifact for
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

    address = None
    if store is not None and report.model is not None:
        resolved = _resolve_backend(report, backend)
        address = plan_address(report, input_shape=input_shape, batch=batch,
                               backend=resolved, memory_budget=memory_budget,
                               fold_bn=fold_bn, elide_dead=elide_dead)
    if address is not None and policy in ("read", "readwrite"):
        payload = store.get_plan(address)
        if payload is not None:
            try:
                return InferencePlan.from_dict(payload)
            except Exception as exc:
                warnings.warn(
                    f"stored plan {address[:12]}… failed to deserialize and "
                    f"was recompiled: {exc}", CacheIntegrityWarning,
                    stacklevel=2)

    if backend is not None:
        plan = compile_plan(report.model, input_shape, batch=batch,
                            memory_budget=memory_budget, fold_bn=fold_bn,
                            elide_dead=elide_dead, backend=backend)
    else:
        with use_backend(report.spec.backend, dtype=report.spec.dtype):
            plan = compile_plan(report.model, input_shape, batch=batch,
                                memory_budget=memory_budget, fold_bn=fold_bn,
                                elide_dead=elide_dead)

    if address is not None and policy in ("write", "readwrite"):
        try:
            store.put_plan(address, plan.to_dict())
        except ValueError:
            pass  # plans that traced unregistered ops have no wire form
    return plan
