"""Per-method configuration dataclasses and the common :class:`CompressionSpec`.

Every registered compression method has one small config dataclass holding
its *method-specific* knobs (pruning ratio, dictionary size, rank fraction,
agent schedule, ...).  The :class:`CompressionSpec` unifies them: it names
the method, optionally carries its config, and adds the knobs shared by all
methods — the model, input geometry, training budget and the accounting
conventions (``conv_only``, hardware batch) used throughout the paper.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..core.config import ALFConfig
from ..nn.module import Module
from ..wire import check_schema, payload_digest

#: Wire-format identifier of :meth:`CompressionSpec.to_dict` payloads.
SPEC_SCHEMA = "repro-spec/1"


# --------------------------------------------------------------------------- #
# Per-method configs
# --------------------------------------------------------------------------- #
@dataclass
class ALFSpec:
    """Configuration of the ALF method (the paper's contribution).

    ``alf`` carries the block / two-player-trainer hyper-parameters.  The
    three ``*_fraction(s)`` fields configure the *cost-only* mode used by the
    table/figure experiments: when no training is run, the pruning masks are
    forced to a target compression profile instead (uniform fraction,
    per-stage fractions keyed by filter count, or per-layer fractions keyed
    by the labels in ``layer_labels``).
    """

    alf: ALFConfig = field(default_factory=ALFConfig)
    remaining_fraction: Optional[float] = None
    stage_remaining: Optional[Mapping[int, float]] = None
    layer_fractions: Optional[Mapping[str, float]] = None
    layer_labels: Optional[Sequence[str]] = None
    deploy: bool = True

    def validate(self) -> "ALFSpec":
        self.alf.validate()
        if self.remaining_fraction is not None and not 0.0 < self.remaining_fraction <= 1.0:
            raise ValueError("remaining_fraction must lie in (0, 1]")
        for source, fractions in (("stage_remaining", self.stage_remaining),
                                  ("layer_fractions", self.layer_fractions)):
            for key, fraction in (fractions or {}).items():
                if not 0.0 < fraction <= 1.0:
                    raise ValueError(
                        f"{source}[{key!r}] must lie in (0, 1], got {fraction}")
        return self

    def forced_fractions(self) -> bool:
        """Whether a compression profile should be forced onto untrained masks."""
        return (self.remaining_fraction is not None
                or self.stage_remaining is not None
                or self.layer_fractions is not None)


@dataclass
class MagnitudeSpec:
    """Magnitude filter pruning (Han et al. style, handcrafted policy)."""

    prune_ratio: float = 0.5
    norm: str = "l1"
    min_kernel: int = 2

    def validate(self) -> "MagnitudeSpec":
        if not 0.0 <= self.prune_ratio < 1.0:
            raise ValueError("prune_ratio must lie in [0, 1)")
        if self.norm not in ("l1", "l2"):
            raise ValueError("norm must be 'l1' or 'l2'")
        return self


@dataclass
class FPGMSpec:
    """Filter pruning via geometric median (He et al., CVPR'19)."""

    prune_ratio: float = 0.3
    iterations: int = 50
    min_kernel: int = 2

    def validate(self) -> "FPGMSpec":
        if not 0.0 <= self.prune_ratio < 1.0:
            raise ValueError("prune_ratio must lie in [0, 1)")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        return self


@dataclass
class AMCSpec:
    """AMC-style agent search over per-layer pruning ratios (He et al., ECCV'18)."""

    target_ops_fraction: float = 0.5
    iterations: int = 4
    population: int = 8
    elite_fraction: float = 0.25
    max_ratio: float = 0.8
    min_kernel: int = 2
    #: When true and validation data is available, the agent's reward uses the
    #: measured validation accuracy of each candidate plan instead of the
    #: magnitude-preservation proxy.
    accuracy_eval: bool = False

    def validate(self) -> "AMCSpec":
        if not 0.0 < self.target_ops_fraction <= 1.0:
            raise ValueError("target_ops_fraction must lie in (0, 1]")
        if self.iterations <= 0 or self.population <= 0:
            raise ValueError("iterations and population must be positive")
        return self


@dataclass
class LCNNSpec:
    """Lookup/dictionary filter sharing (Bagherinezhad et al.)."""

    dictionary_fraction: float = 0.25
    sparsity: int = 3
    kmeans_iterations: int = 10
    min_kernel: int = 2
    #: Replace the convolution weights by their dictionary reconstruction so
    #: the accuracy impact of the sharing is measurable.
    apply: bool = True

    def validate(self) -> "LCNNSpec":
        if not 0.0 < self.dictionary_fraction <= 1.0:
            raise ValueError("dictionary_fraction must lie in (0, 1]")
        if self.sparsity < 1:
            raise ValueError("sparsity must be at least 1")
        return self


@dataclass
class LowRankSpec:
    """Truncated-SVD low-rank factorization (rule-based)."""

    rank_fraction: Optional[float] = 0.5
    energy_threshold: Optional[float] = None
    min_kernel: int = 2
    apply: bool = True

    def validate(self) -> "LowRankSpec":
        if (self.rank_fraction is None) == (self.energy_threshold is None):
            raise ValueError("provide exactly one of rank_fraction / energy_threshold")
        return self


# --------------------------------------------------------------------------- #
# Wire format for configs and spec fields
# --------------------------------------------------------------------------- #
#: Config classes reconstructible from the wire format, by type name.
_CONFIG_TYPES: Dict[str, type] = {}


def _register_config_types() -> None:
    for cls in (ALFSpec, MagnitudeSpec, FPGMSpec, AMCSpec, LCNNSpec,
                LowRankSpec, ALFConfig):
        _CONFIG_TYPES[cls.__name__] = cls


def _jsonify(value: Any) -> Any:
    """Recursively coerce a value into JSON-representable python types."""
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        # numpy scalars
        return value.item()
    return value


def config_to_dict(config: Any) -> Optional[Dict[str, Any]]:
    """Serialize a per-method config dataclass into the wire format."""
    if config is None:
        return None
    name = type(config).__name__
    if name not in _CONFIG_TYPES:
        raise TypeError(
            f"config type '{name}' has no wire format; known types: "
            f"{sorted(_CONFIG_TYPES)}")
    return {"type": name, "fields": _jsonify(dataclasses.asdict(config))}


def _from_fields(cls: type, fields: Mapping[str, Any]) -> Any:
    """``cls(**fields)``, with unknown field names a ``ValueError``."""
    unknown = set(fields) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**fields)


def config_from_dict(payload: Optional[Mapping[str, Any]]) -> Any:
    """Rebuild a per-method config from :func:`config_to_dict` output."""
    if payload is None:
        return None
    if "type" not in payload:
        raise ValueError("config payload lacks the required key 'type'")
    name = payload["type"]
    if name not in _CONFIG_TYPES:
        raise ValueError(f"unknown config type '{name}' in wire payload")
    cls = _CONFIG_TYPES[name]
    fields = dict(payload.get("fields") or {})
    if cls is ALFSpec:
        if fields.get("alf") is not None:
            fields["alf"] = _from_fields(ALFConfig, fields["alf"])
        # JSON stringifies integer mapping keys; undo that on the way in.
        if fields.get("stage_remaining") is not None:
            fields["stage_remaining"] = {int(k): float(v)
                                         for k, v in fields["stage_remaining"].items()}
    return _from_fields(cls, fields)


#: The JSON type of each :class:`CompressionSpec` wire field: ``None``
#: marks an optional field and ``[kind]`` a list of ``kind``; ``config`` is
#: checked by :func:`config_from_dict`.
_WIRE_TYPES: Dict[str, Tuple[Any, ...]] = {
    "method": (str,), "model": (str, None), "input_shape": ([Integral], None),
    "epochs": (Integral,), "finetune_epochs": (Integral, None), "lr": (Real,),
    "conv_only": (bool,), "hardware_batch": (Integral,),
    "layer_names": ([str], None), "dtype": (str, None),
    "backend": (str, None), "profile": (bool,), "seed": (Integral,),
    "label": (str, None),
}


def _is_wire(value: Any, kind: Any) -> bool:
    """Whether ``value`` has wire type ``kind``; a ``bool`` is no number."""
    if isinstance(kind, list):
        return (isinstance(value, (list, tuple))
                and all(_is_wire(item, kind[0]) for item in value))
    if kind is None:
        return value is None
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


# --------------------------------------------------------------------------- #
# The unified spec
# --------------------------------------------------------------------------- #
@dataclass
class CompressionSpec:
    """One fully-described compression run: method + config + shared knobs.

    Attributes
    ----------
    method:
        Registry key (``"alf"``, ``"magnitude"``, ``"fpgm"``, ``"amc"``,
        ``"lcnn"``, ``"lowrank"``).
    config:
        The method's config dataclass; ``None`` selects the registered
        defaults.
    model:
        Optional model to compress — a registry name (``"resnet20"``) or a
        built :class:`repro.nn.Module`.  ``compress()`` / ``run_sweep()``
        arguments take precedence over this field.
    input_shape:
        ``(C, H, W)`` geometry used for profiling and the hardware model;
        inferred from the model registry or the dataset when omitted.
    epochs / finetune_epochs:
        Training budget.  For ALF this is the two-player training; for the
        pruning baselines it is pre-train epochs followed by fine-tuning
        after the masks are applied (``finetune_epochs`` defaults to
        ``max(1, epochs // 2)``).  ``epochs=0`` skips training entirely
        (cost-only evaluation).
    lr:
        Task learning rate for the baseline trainers (ALF uses
        ``ALFConfig.lr_task``).
    conv_only:
        Restrict Params / OPs accounting to convolutional layers, the
        paper's Table II convention.
    hardware_batch:
        Batch size for the Eyeriss evaluation (16 in the paper's Fig. 3).
    layer_names:
        Optional layer labels for the hardware report (e.g. CONV1..CONV432).
    dtype:
        Compute dtype for the whole run (``"float32"`` / ``"float64"``).
        ``None`` keeps the active backend's default.  The model, the data
        batches and all training/evaluation run in this dtype.
    backend:
        Backend name from :func:`repro.nn.available_backends`, spelled
        exactly: a named default dtype (``"numpy"`` / ``"numpy64"`` is
        float64, ``"numpy32"`` is float32); ``dtype``, when set, wins.
        ``None`` keeps the active one.
    profile:
        Collect a layer-scoped op profile of the run
        (:class:`repro.nn.RunProfile` on
        :attr:`CompressionReport.profile <repro.api.CompressionReport>`):
        per-op / per-layer call counts and wall-clock, split into dense /
        train / eval phases.  ``False`` (the default) keeps the zero-cost
        no-hook fast path.
    """

    method: str
    config: Optional[Any] = None
    model: Optional[Union[str, Module]] = None
    input_shape: Optional[Tuple[int, int, int]] = None
    epochs: int = 0
    finetune_epochs: Optional[int] = None
    lr: float = 0.05
    conv_only: bool = True
    hardware_batch: int = 16
    layer_names: Optional[Sequence[str]] = None
    dtype: Optional[str] = None
    backend: Optional[str] = None
    profile: bool = False
    seed: int = 0
    label: Optional[str] = None

    def validate(self) -> "CompressionSpec":
        from ..nn.backend import float_dtype, get_backend
        from .registry import get_method  # local import: registry imports this module
        entry = get_method(self.method)
        if self.config is not None and not isinstance(self.config, entry.config_type):
            raise TypeError(
                f"method '{self.method}' expects a {entry.config_type.__name__} config, "
                f"got {type(self.config).__name__}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.finetune_epochs is not None and self.finetune_epochs < 0:
            raise ValueError("finetune_epochs must be non-negative")
        if self.dtype is not None:
            float_dtype(self.dtype, "CompressionSpec.dtype")
        if self.backend is not None:
            get_backend(self.backend)  # raises KeyError for unknown names
        if self.config is not None and hasattr(self.config, "validate"):
            self.config.validate()
        return self

    def resolved_config(self) -> Any:
        """The per-method config, defaulting to the registered config type."""
        if self.config is not None:
            return self.config
        from .registry import get_method
        return get_method(self.method).config_type()

    def resolved_finetune_epochs(self) -> int:
        if self.finetune_epochs is not None:
            return self.finetune_epochs
        return max(1, self.epochs // 2) if self.epochs else 0

    def with_overrides(self, **kwargs) -> "CompressionSpec":
        return replace(self, **kwargs)

    def digest(self) -> str:
        """SHA-256 content address of this spec's canonical wire payload.

        Hashes :meth:`to_dict` through the canonical JSON encoding
        (:func:`repro.wire.payload_digest`), so the digest is
        invariant to dict key order and config-field insertion order and
        stable across processes — the spec third of a report-cache key.
        Specs carrying a built ``Module`` have no wire payload and no
        digest (``to_dict`` raises ``TypeError``).
        """
        return payload_digest(self.to_dict())

    @property
    def display_label(self) -> str:
        return self.label or self.method

    # -- wire format ---------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict describing this spec completely.

        This is the guaranteed wire format process-based sweep shards and
        distributed runners exchange (pickle also works, but the dict form
        is stable across interpreter versions).  A built ``Module`` in the
        ``model`` field has no wire representation — pass registry names
        when a spec needs to travel.
        """
        if isinstance(self.model, Module):
            raise TypeError(
                "CompressionSpec.to_dict() cannot serialize a built Module; "
                "use a model registry name (e.g. 'resnet20') for specs that "
                "travel between processes")
        return {
            "schema": SPEC_SCHEMA,
            "method": self.method,
            "config": config_to_dict(self.config),
            "model": self.model,
            "input_shape": list(self.input_shape) if self.input_shape else None,
            "epochs": self.epochs,
            "finetune_epochs": self.finetune_epochs,
            "lr": float(self.lr),
            "conv_only": self.conv_only,
            "hardware_batch": self.hardware_batch,
            "layer_names": list(self.layer_names) if self.layer_names else None,
            "dtype": self.dtype,
            "backend": self.backend,
            "profile": self.profile,
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CompressionSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected).

        Payloads with no tag or tagged with a different wire-format
        version are rejected outright — a future ``repro-spec/2`` must not
        be silently misparsed as today's fields.
        """
        check_schema(payload, SPEC_SCHEMA, required=("method",))
        data = dict(payload)
        data.pop("schema")
        for name, value in data.items():
            kinds = _WIRE_TYPES.get(name, ())
            if kinds and not any(_is_wire(value, kind) for kind in kinds):
                raise ValueError(
                    f"spec field '{name}' has the wrong type: {value!r}")
        data["config"] = config_from_dict(data.get("config"))
        if data.get("input_shape") is not None:
            data["input_shape"] = tuple(data["input_shape"])
        if data.get("layer_names") is not None:
            data["layer_names"] = tuple(data["layer_names"])
        return _from_fields(cls, data)


_register_config_types()
