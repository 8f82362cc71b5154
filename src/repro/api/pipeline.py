"""The :class:`CompressionPipeline` façade and its :class:`CompressionReport`.

``repro.api.compress(model, method="alf", data=..., hardware=EYERISS_PAPER)``
is the one call that replaces the per-method glue previously re-implemented
by every experiment: it profiles the dense baseline, drives the method
through prepare → fit → finalize, measures accuracy when data is available,
runs the Eyeriss hardware model on both executions, and returns everything
as a single report.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..data import DataLoader, SyntheticImageDataset
from ..hardware import EYERISS_PAPER, EyerissSpec, NetworkReport, evaluate_layers
from ..metrics.compression import MethodResult
from ..metrics.ops import ModelProfile, profile_model
from ..metrics.tables import format_count, format_reduction, render_table
from ..models import build_model, default_input_shape
from ..nn.backend import get_default_dtype, use_backend
from ..nn.module import Module
from ..nn.profiler import RunProfile, collect_profile, profile_inference
from ..wire import check_schema
from .adapters import evaluate_accuracy
from .protocol import CompressedModel, CompressionMethod
from .registry import create_method, get_method
from .spec import CompressionSpec

LoaderPair = Tuple[DataLoader, Optional[DataLoader]]
DataArg = Union[None, SyntheticImageDataset, DataLoader, Tuple]

#: Wire-format identifier of :meth:`CompressionReport.to_dict` payloads.
REPORT_SCHEMA = "repro-report/1"


def _hardware_report_to_dict(report: Optional[NetworkReport]
                             ) -> Optional[Dict[str, Any]]:
    if report is None:
        return None
    return {"total_energy": float(report.total_energy),
            "total_latency": float(report.total_latency),
            **report.to_dict()}


def _hardware_report_from_dict(payload: Optional[Dict[str, Any]],
                               key: str) -> Optional[NetworkReport]:
    if payload is None:
        return None
    if "layers" not in payload:
        raise ValueError(f"report payload {key!r} lacks the key 'layers'")
    return NetworkReport.from_dict(payload)


@dataclass
class DenseBaseline:
    """Profile + hardware evaluation of the uncompressed reference model.

    Computed once per model and shared across an entire sweep, so batching
    many methods does not re-profile (or re-map on the accelerator) the same
    dense network per method.
    """

    profile: ModelProfile
    cost: Dict[str, float]
    hardware: Optional[NetworkReport] = None
    accuracy: Optional[float] = None

    # -- wire format ---------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """Table-level JSON-safe form (the layer profile does not travel)."""
        return {
            "cost": {k: float(v) for k, v in self.cost.items()},
            "accuracy": None if self.accuracy is None else float(self.accuracy),
            "hardware": _hardware_report_to_dict(self.hardware),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DenseBaseline":
        if "cost" not in payload:
            raise ValueError("dense payload lacks the required key 'cost'")
        return cls(
            profile=None,  # type: ignore[arg-type]  # dropped by the wire format
            cost=dict(payload["cost"]),
            hardware=_hardware_report_from_dict(payload.get("hardware"),
                                                "dense.hardware"),
            accuracy=payload.get("accuracy"),
        )


@dataclass
class CompressionReport:
    """Everything one compression run produced, in one place.

    Combines the dense baseline profile, the method's effective cost
    (:mod:`repro.metrics`), the measured accuracy, and the Eyeriss
    energy/latency evaluation (:mod:`repro.hardware`) of both executions.
    """

    method: str
    policy: str
    spec: CompressionSpec
    dense: DenseBaseline
    compressed: CompressedModel
    accuracy: Optional[float] = None
    history: Any = None
    dense_hardware: Optional[NetworkReport] = None
    compressed_hardware: Optional[NetworkReport] = None
    #: Layer-scoped op profile of the run (``spec.profile=True``):
    #: dense / train / eval phases, each with per-op and per-layer
    #: call counts and wall-clock.
    profile: Optional[RunProfile] = None

    # -- cost ----------------------------------------------------------- #
    @property
    def cost(self) -> Dict[str, float]:
        return self.compressed.cost

    @property
    def dense_profile(self) -> ModelProfile:
        return self.dense.profile

    @property
    def params_reduction(self) -> float:
        return 1.0 - self.cost["params"] / self.dense.cost["params"]

    @property
    def ops_reduction(self) -> float:
        return 1.0 - self.cost["ops"] / self.dense.cost["ops"]

    @property
    def remaining_filter_fraction(self) -> float:
        return self.compressed.remaining_filter_fraction

    @property
    def model(self) -> Module:
        """The runnable compressed model."""
        return self.compressed.model

    # -- hardware ------------------------------------------------------- #
    @property
    def energy_reduction(self) -> Optional[float]:
        if self.dense_hardware is None or self.compressed_hardware is None:
            return None
        return 1.0 - self.compressed_hardware.total_energy / self.dense_hardware.total_energy

    @property
    def latency_reduction(self) -> Optional[float]:
        if self.dense_hardware is None or self.compressed_hardware is None:
            return None
        return 1.0 - self.compressed_hardware.total_latency / self.dense_hardware.total_latency

    # -- deployment ----------------------------------------------------- #
    def plan(self, *, batch: Optional[int] = None,
             memory_budget: Optional[int] = None, fold_bn: bool = False,
             backend=None, cache=None):
        """Compile the compressed model into a static inference plan.

        Delegates to :func:`repro.api.compile_report`: the spec's input
        shape, hardware batch and backend / dtype scope become the plan's
        compile-time geometry unless overridden here.  ``cache=`` accepts
        the session cache knob and serves / stores the serialized plan
        through the content-addressed store.
        """
        from .plan import compile_report
        return compile_report(self, batch=batch, memory_budget=memory_budget,
                              fold_bn=fold_bn, backend=backend, cache=cache)

    # -- views ---------------------------------------------------------- #
    def as_method_result(self) -> MethodResult:
        return MethodResult(
            method=self.spec.display_label,
            policy=self.policy,
            params=self.cost["params"],
            ops=self.cost["ops"],
            accuracy=(self.accuracy or 0.0) * 100,
        )

    def summary(self) -> Dict[str, Optional[float]]:
        out: Dict[str, Optional[float]] = {
            "method": self.method,
            "dense_params": self.dense.cost["params"],
            "dense_ops": self.dense.cost["ops"],
            "params": self.cost["params"],
            "ops": self.cost["ops"],
            "params_reduction": self.params_reduction,
            "ops_reduction": self.ops_reduction,
            "remaining_filter_fraction": self.remaining_filter_fraction,
            "accuracy": self.accuracy,
        }
        if self.dense_hardware is not None and self.compressed_hardware is not None:
            out.update({
                "dense_energy": self.dense_hardware.total_energy,
                "energy": self.compressed_hardware.total_energy,
                "energy_reduction": self.energy_reduction,
                "dense_latency": self.dense_hardware.total_latency,
                "latency": self.compressed_hardware.total_latency,
                "latency_reduction": self.latency_reduction,
            })
        return out

    # -- wire format ---------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict carrying every *table-level* quantity.

        This is the guaranteed wire format for process shards, remote
        workers and the result cache: spec, costs, accuracy,
        remaining-filter fraction, per-layer hardware workloads, the full
        per-layer energy / latency breakdowns and the layer-scoped op
        profile (when ``spec.profile`` was set) all round-trip through
        :meth:`from_dict`.  The live model, the training history and the
        mapper's tiling internals are intentionally dropped — ship the
        pickle form when those must travel too.
        """
        from dataclasses import asdict

        return {
            "schema": REPORT_SCHEMA,
            "method": self.method,
            "policy": self.policy,
            "spec": self.spec.to_dict(),
            "dense": self.dense.to_dict(),
            "cost": {k: float(v) for k, v in self.compressed.cost.items()},
            "remaining_filter_fraction":
                float(self.compressed.remaining_filter_fraction),
            "layer_shapes": [
                {**asdict(shape), "input_hw": list(shape.input_hw)}
                for shape in self.compressed.layer_shapes
            ],
            "accuracy": None if self.accuracy is None else float(self.accuracy),
            "dense_hardware": _hardware_report_to_dict(self.dense_hardware),
            "compressed_hardware":
                _hardware_report_to_dict(self.compressed_hardware),
            "profile": None if self.profile is None else self.profile.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CompressionReport":
        """Rebuild a (model-free) report from :meth:`to_dict` output."""
        from ..hardware.layer import ConvLayerShape

        check_schema(payload, REPORT_SCHEMA, required=(
            "method", "policy", "spec", "dense", "cost",
            "remaining_filter_fraction"))
        spec = CompressionSpec.from_dict(payload["spec"])
        compressed = CompressedModel(
            model=None,  # type: ignore[arg-type]  # dropped by the wire format
            method=payload["method"],
            cost=dict(payload["cost"]),
            layer_shapes=[
                ConvLayerShape(**{**shape, "input_hw": tuple(shape["input_hw"])})
                for shape in payload.get("layer_shapes", [])
            ],
            remaining_filter_fraction=payload["remaining_filter_fraction"],
        )
        return cls(
            method=payload["method"],
            policy=payload["policy"],
            spec=spec,
            dense=DenseBaseline.from_dict(payload["dense"]),
            compressed=compressed,
            accuracy=payload.get("accuracy"),
            dense_hardware=_hardware_report_from_dict(
                payload.get("dense_hardware"), "dense_hardware"),
            compressed_hardware=_hardware_report_from_dict(
                payload.get("compressed_hardware"), "compressed_hardware"),
            profile=(None if payload.get("profile") is None
                     else RunProfile.from_dict(payload["profile"])),
        )

    def render(self) -> str:
        rows = [
            ["Params", format_count(self.dense.cost["params"]),
             format_count(self.cost["params"]),
             format_reduction(self.params_reduction, decimals=1)],
            ["OPs", format_count(self.dense.cost["ops"]),
             format_count(self.cost["ops"]),
             format_reduction(self.ops_reduction, decimals=1)],
        ]
        if self.dense_hardware is not None and self.compressed_hardware is not None:
            rows.append(["Energy", f"{self.dense_hardware.total_energy:.3e}",
                         f"{self.compressed_hardware.total_energy:.3e}",
                         format_reduction(self.energy_reduction, decimals=1)])
            rows.append(["Latency", f"{self.dense_hardware.total_latency:.3e}",
                         f"{self.compressed_hardware.total_latency:.3e}",
                         format_reduction(self.latency_reduction, decimals=1)])
        if self.accuracy is not None:
            rows.append(["Accuracy", "—", f"{self.accuracy * 100:.1f}%", ""])
        return render_table(
            ["Metric", "Dense", self.spec.display_label, "Reduction"], rows,
            title=f"Compression report — {self.spec.display_label} ({self.policy})")


def resolve_loaders(data: DataArg, seed: int = 0,
                    batch_size: int = 32) -> Optional[LoaderPair]:
    """Normalize the ``data`` argument into ``(train_loader, val_loader)``.

    Accepts ``None``, a dataset (split 80/20), a single training loader, or
    a ``(train, val)`` tuple.
    """
    if data is None:
        return None
    if isinstance(data, SyntheticImageDataset):
        train, val = data.split(0.8)
        return (DataLoader(train, batch_size=batch_size, shuffle=True, seed=seed),
                DataLoader(val, batch_size=max(64, batch_size)))
    if isinstance(data, DataLoader):
        return (data, None)
    if isinstance(data, tuple) and len(data) == 2:
        return data  # type: ignore[return-value]
    raise TypeError(
        "data must be None, a SyntheticImageDataset, a DataLoader, or a "
        "(train_loader, val_loader) tuple")


@contextmanager
def _profiled_phase(run_profile: Optional[RunProfile], phase: str):
    """Collect the body's ops into ``run_profile.<phase>`` (no-op when off)."""
    if run_profile is None:
        yield
        return
    with collect_profile() as profile:
        yield
    setattr(run_profile, phase, profile)


class CompressionPipeline:
    """Strategy-based pipeline: resolve → profile → fit → finalize → report."""

    def __init__(self, spec: CompressionSpec,
                 hardware: Optional[EyerissSpec] = EYERISS_PAPER):
        self.spec = spec.validate()
        self.hardware = hardware

    def execution_context(self):
        """The backend / dtype scope every pipeline stage runs under."""
        return use_backend(self.spec.backend, dtype=self.spec.dtype)

    # -- stage: model / geometry resolution ----------------------------- #
    def resolve_model(self, model: Union[None, str, Module] = None
                      ) -> Tuple[Module, Tuple[int, int, int]]:
        """Build (or accept) the dense model and settle the input geometry."""
        target = model if model is not None else self.spec.model
        if target is None:
            raise ValueError("no model given: pass one to run() or set spec.model")
        if isinstance(target, str):
            built = build_model(target, rng=np.random.default_rng(self.spec.seed))
            shape = self.spec.input_shape or default_input_shape(target)
            return built, tuple(shape)
        if self.spec.input_shape is None:
            raise ValueError(
                "input_shape is required when passing a built model instance")
        return target, tuple(self.spec.input_shape)

    # -- stage: dense baseline ------------------------------------------ #
    def dense_baseline(self, model: Module,
                       input_shape: Tuple[int, int, int]) -> DenseBaseline:
        with self.execution_context():
            return self._dense_baseline(model, input_shape)

    def _dense_baseline(self, model: Module,
                        input_shape: Tuple[int, int, int]) -> DenseBaseline:
        profile = profile_model(model, input_shape)
        hardware_report = None
        if self.hardware is not None:
            hardware_report = evaluate_layers(
                profile.workloads(self.spec.hardware_batch, self.spec.layer_names),
                spec=self.hardware, name="dense")
        return DenseBaseline(profile=profile,
                             cost=profile.cost(conv_only=self.spec.conv_only),
                             hardware=hardware_report)

    # -- full run -------------------------------------------------------- #
    def run(self, model: Union[None, str, Module] = None, data: DataArg = None,
            dense: Optional[DenseBaseline] = None,
            inplace: bool = False,
            warm_start: Optional[Dict[str, np.ndarray]] = None
            ) -> CompressionReport:
        """Execute every pipeline stage and return the combined report.

        ``dense`` accepts a precomputed :class:`DenseBaseline` (sweep
        caching).  With ``inplace=False`` (default) the caller's model is
        never mutated — the method works on a deep copy.

        ``warm_start`` accepts a cached ``state_dict``-shaped mapping of a
        previously finalized compressed model (the report cache's
        checkpoint store): when the method supports warm starts and the
        state matches the prepared model exactly, fine-tuning is seeded
        from it instead of training from dense.  A mismatching state is
        ignored — the run silently falls back to the cold path.

        Every stage runs under the spec's execution context
        (``spec.backend`` / ``spec.dtype``): models are built or cast to
        the context dtype, loaders emit batches in it, and the accuracy
        probes run tape-free under :func:`~repro.nn.tensor.no_grad`.
        """
        with self.execution_context():
            return self._run(model=model, data=data, dense=dense,
                             inplace=inplace, warm_start=warm_start)

    def _run(self, model: Union[None, str, Module] = None, data: DataArg = None,
             dense: Optional[DenseBaseline] = None,
             inplace: bool = False,
             warm_start: Optional[Dict[str, np.ndarray]] = None
             ) -> CompressionReport:
        resolved, input_shape = self.resolve_model(model)
        spec = self.spec.with_overrides(input_shape=input_shape)
        run_profile = RunProfile() if spec.profile else None

        if dense is None:
            # The dense phase is profiled only when this pipeline computes
            # the baseline itself; sweep shards receive a precomputed one.
            with _profiled_phase(run_profile, "dense"):
                dense = self._dense_baseline(resolved, input_shape)

        source = model if model is not None else spec.model
        # A model resolved from a registry name is freshly built and private
        # to this run; a caller-provided instance is protected by a deep copy.
        work = (resolved if inplace or isinstance(source, str)
                else copy.deepcopy(resolved))
        if spec.dtype is not None or spec.backend is not None:
            # Caller-provided models may predate the execution context;
            # align them with the context's dtype before compressing.
            work.astype(get_default_dtype())
        method: CompressionMethod = create_method(spec)
        work = method.prepare(work)
        if warm_start is not None:
            # Methods opt in by exposing warm_start(state) -> bool (every
            # built-in adapter does); anything else ignores the seed.
            seed_from = getattr(method, "warm_start", None)
            if seed_from is not None:
                seed_from(warm_start)

        loaders = resolve_loaders(data, seed=spec.seed)
        history = None
        with _profiled_phase(run_profile, "train"):
            if loaders is not None and spec.epochs > 0:
                history = method.fit(loaders[0], loaders[1], epochs=spec.epochs)
            else:
                method.fit(None, None, epochs=0)

        compressed = method.finalize()

        accuracy = None
        if loaders is not None and loaders[1] is not None:
            # evaluate_accuracy runs under no_grad: the probe is tape-free
            # (asserted by the regression tests in tests/test_engine.py).
            with _profiled_phase(run_profile, "eval"):
                accuracy = evaluate_accuracy(compressed.model, loaders[1])
        elif run_profile is not None:
            # Cost-only runs have no probe to observe; profile one synthetic
            # inference batch instead so the report still carries measured
            # per-layer wall-clock at the hardware batch size.
            run_profile.eval = profile_inference(
                compressed.model, input_shape, batch=spec.hardware_batch)

        compressed_hardware = None
        if self.hardware is not None and compressed.layer_shapes:
            compressed_hardware = evaluate_layers(
                compressed.layer_shapes, spec=self.hardware,
                name=spec.display_label)

        entry = get_method(spec.method)
        return CompressionReport(
            method=entry.name,
            policy=entry.policy,
            spec=spec,
            dense=dense,
            compressed=compressed,
            accuracy=accuracy,
            history=history,
            dense_hardware=dense.hardware,
            compressed_hardware=compressed_hardware,
            profile=run_profile,
        )


def compress(model: Union[str, Module], method: str = "alf", *,
             config: Any = None, data: DataArg = None,
             hardware: Optional[EyerissSpec] = EYERISS_PAPER,
             input_shape: Optional[Tuple[int, int, int]] = None,
             epochs: int = 0, finetune_epochs: Optional[int] = None,
             lr: float = 0.05, conv_only: bool = True, hardware_batch: int = 16,
             layer_names: Optional[Sequence[str]] = None,
             dtype: Optional[str] = None, backend: Optional[str] = None,
             profile: bool = False,
             seed: int = 0, label: Optional[str] = None,
             inplace: bool = False) -> CompressionReport:
    """Compress ``model`` with a registered method and report everything.

    The single-call façade over the whole pipeline::

        report = repro.api.compress(model, method="alf", data=dataset,
                                    hardware=EYERISS_PAPER, epochs=10)
        report.params_reduction, report.energy_reduction, report.accuracy

    ``model`` is a registry name (``"resnet20"``) or a built module (then
    ``input_shape`` is required).  ``hardware=None`` skips the Eyeriss
    stage; ``epochs=0`` skips training (cost-only evaluation).
    ``dtype="float32"`` (or ``backend="numpy32"``) runs the whole pipeline
    on the float32 fast path.  ``profile=True`` collects a layer-scoped op
    profile (dense / train / eval phases) on ``report.profile``.
    """
    spec = CompressionSpec(
        method=method, config=config, input_shape=input_shape, epochs=epochs,
        finetune_epochs=finetune_epochs, lr=lr, conv_only=conv_only,
        hardware_batch=hardware_batch, layer_names=layer_names,
        dtype=dtype, backend=backend, profile=profile, seed=seed, label=label,
    )
    return CompressionPipeline(spec, hardware=hardware).run(
        model=model, data=data, inplace=inplace)
