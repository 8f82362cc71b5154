"""Layer-scoped op profiling: structured reports over the op-hook surface.

:func:`repro.nn.profile_ops` yields a raw ``{op: [calls, seconds]}`` dict;
this module grows that into a first-class subsystem:

* :class:`OpProfile` — per-op **and per-layer** call counts / wall-clock of
  one profiled phase, with top-k tables, deterministic merging and a JSON
  ``to_dict`` / ``from_dict`` wire format (how profiles travel out of
  process-pool sweep shards);
* :class:`RunProfile` — the train-vs-eval split of one compression run
  (``dense`` / ``train`` / ``eval`` phases), surfaced on
  :attr:`repro.api.CompressionReport.profile`;
* :func:`collect_profile` — the context manager filling an
  :class:`OpProfile` through a thread-local op hook;
* :func:`profile_inference` — profile a single tape-free forward pass, the
  measured-wall-clock counterpart of the modeled Eyeriss evaluation.

Layer attribution comes from the layer-scope stack ``Module.__call__``
pushes while hooks are installed (see :mod:`repro.nn.tensor`): each op is
recorded under the dot-joined module path of the innermost module call
executing it (e.g. ``"ResNet.stage1.layer0.conv1"``), or ``""`` when it
runs outside any module forward (optimizer updates, loss arithmetic at the
top level).  Profiling costs nothing when inactive — the no-hook fast path
in ``apply_op`` and ``Module.__call__`` is a single truthiness check.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..wire import check_schema
from .backend import get_default_dtype
from .tensor import Tensor, add_op_hook, no_grad, remove_op_hook

#: Wire-format identifier of :meth:`OpProfile.to_dict` payloads.
PROFILE_SCHEMA = "repro-op-profile/1"
#: Wire-format identifier of :meth:`RunProfile.to_dict` payloads.
RUN_PROFILE_SCHEMA = "repro-run-profile/1"


@dataclass
class OpStat:
    """Aggregated executions of one op (within one layer or overall)."""

    calls: int = 0
    seconds: float = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.seconds += seconds

    def merge(self, other: "OpStat") -> None:
        self.calls += other.calls
        self.seconds += other.seconds


@dataclass
class OpProfile:
    """Per-op and per-layer statistics of one profiled phase.

    ``ops`` aggregates across all layers; ``layers`` maps each layer's
    module path to its own per-op breakdown.  Both dicts preserve
    first-execution order, so iterating ``layers`` walks the model in
    forward order — which is what lets the experiments align measured
    per-layer time with the hardware model's layer tables.
    """

    ops: Dict[str, OpStat] = field(default_factory=dict)
    layers: Dict[str, Dict[str, OpStat]] = field(default_factory=dict)

    # -- recording ------------------------------------------------------- #
    def record(self, op: str, seconds: float, layer: str = "") -> None:
        stat = self.ops.get(op)
        if stat is None:
            stat = self.ops[op] = OpStat()
        stat.add(seconds)
        per_layer = self.layers.get(layer)
        if per_layer is None:
            per_layer = self.layers[layer] = {}
        layer_stat = per_layer.get(op)
        if layer_stat is None:
            layer_stat = per_layer[op] = OpStat()
        layer_stat.add(seconds)

    def as_hook(self):
        """An op hook (``(name, seconds, layer)``) recording into this profile."""
        return lambda name, seconds, layer: self.record(name, seconds, layer)

    # -- aggregate views -------------------------------------------------- #
    @property
    def total_calls(self) -> int:
        return sum(stat.calls for stat in self.ops.values())

    @property
    def total_seconds(self) -> float:
        return sum(stat.seconds for stat in self.ops.values())

    def is_empty(self) -> bool:
        return not self.ops

    def layer_seconds(self) -> Dict[str, float]:
        """Total seconds per layer path, in first-execution order."""
        return {layer: sum(stat.seconds for stat in per_layer.values())
                for layer, per_layer in self.layers.items()}

    def top_ops(self, k: int = 10) -> List[Tuple[str, OpStat]]:
        """The ``k`` most expensive ops by total seconds (name-tiebroken)."""
        ranked = sorted(self.ops.items(), key=lambda item: (-item[1].seconds, item[0]))
        return ranked[:k]

    def top_layers(self, k: int = 10) -> List[Tuple[str, float]]:
        """The ``k`` most expensive layer paths by total seconds."""
        ranked = sorted(self.layer_seconds().items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    # -- combination ------------------------------------------------------ #
    def merge(self, other: "OpProfile") -> "OpProfile":
        """Fold ``other`` into this profile in place (and return ``self``).

        Merging is order-deterministic: existing keys keep their position,
        keys new to ``self`` append in ``other``'s order — so folding shard
        profiles in spec order yields the same structure on every executor.
        """
        for op, stat in other.ops.items():
            mine = self.ops.get(op)
            if mine is None:
                self.ops[op] = OpStat(stat.calls, stat.seconds)
            else:
                mine.merge(stat)
        for layer, per_layer in other.layers.items():
            mine_layer = self.layers.setdefault(layer, {})
            for op, stat in per_layer.items():
                mine = mine_layer.get(op)
                if mine is None:
                    mine_layer[op] = OpStat(stat.calls, stat.seconds)
                else:
                    mine.merge(stat)
        return self

    # -- wire format ------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; round-trips exactly through :meth:`from_dict`."""
        return {
            "schema": PROFILE_SCHEMA,
            "ops": {op: {"calls": int(stat.calls), "seconds": float(stat.seconds)}
                    for op, stat in self.ops.items()},
            "layers": {
                layer: {op: {"calls": int(stat.calls),
                             "seconds": float(stat.seconds)}
                        for op, stat in per_layer.items()}
                for layer, per_layer in self.layers.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OpProfile":
        check_schema(payload, PROFILE_SCHEMA)
        profile = cls()
        for op, stat in payload.get("ops", {}).items():
            profile.ops[op] = OpStat(int(stat["calls"]), float(stat["seconds"]))
        for layer, per_layer in payload.get("layers", {}).items():
            profile.layers[layer] = {
                op: OpStat(int(stat["calls"]), float(stat["seconds"]))
                for op, stat in per_layer.items()
            }
        return profile

    # -- rendering --------------------------------------------------------- #
    def render_top(self, k: int = 10, title: str = "Op profile") -> str:
        """An aligned top-k table of ops and layers by wall-clock."""
        lines = [f"{title} — {self.total_calls} calls, "
                 f"{self.total_seconds * 1e3:.1f} ms total"]
        op_rows = [(op, str(stat.calls), f"{stat.seconds * 1e3:.2f}")
                   for op, stat in self.top_ops(k)]
        lines.extend(_aligned(("op", "calls", "ms"), op_rows))
        layer_rows = [(layer or "(no layer)", f"{seconds * 1e3:.2f}")
                      for layer, seconds in self.top_layers(k)]
        lines.extend(_aligned(("layer", "ms"), layer_rows))
        return "\n".join(lines)


def _aligned(headers: Tuple[str, ...],
             rows: List[Tuple[str, ...]]) -> Iterator[str]:
    # Tiny local table formatter: repro.nn must not depend on repro.metrics.
    widths = [max(len(header), *(len(row[i]) for row in rows)) if rows
              else len(header) for i, header in enumerate(headers)]
    yield "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    for row in rows:
        yield "  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths))


def layer_op_seconds(profile: OpProfile, op: str) -> Dict[str, float]:
    """Seconds spent in ``op`` per layer path, in first-execution order.

    The experiments use this with ``op="conv2d"`` to align measured
    per-layer wall-clock with the hardware model's CONV-named layer rows:
    both walk the network's convolutions in forward order.
    """
    return {layer: per_layer[op].seconds
            for layer, per_layer in profile.layers.items() if op in per_layer}


@dataclass
class RunProfile:
    """Train-vs-eval split of one compression run's op profiles.

    ``dense``
        The dense-baseline stage (model profiling forward), present when
        the pipeline computed the baseline itself — sweep shards receive a
        precomputed baseline and leave this ``None``.
    ``train``
        The method's fit stage (two-player training, pre-train +
        fine-tune, or the cost-only mask forcing).
    ``eval``
        The accuracy probe over validation data — or, for cost-only runs,
        one profiled inference batch of the compressed model at the
        spec's hardware batch size (measured wall-clock next to the
        modeled Eyeriss numbers).
    """

    dense: Optional[OpProfile] = None
    train: Optional[OpProfile] = None
    eval: Optional[OpProfile] = None

    def phases(self) -> Dict[str, OpProfile]:
        """The non-``None`` phases, keyed by name."""
        out: Dict[str, OpProfile] = {}
        for name in ("dense", "train", "eval"):
            phase = getattr(self, name)
            if phase is not None:
                out[name] = phase
        return out

    def combined(self) -> OpProfile:
        """All phases folded into one :class:`OpProfile`."""
        merged = OpProfile()
        for phase in self.phases().values():
            merged.merge(phase)
        return merged

    # -- wire format ------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"schema": RUN_PROFILE_SCHEMA}
        payload.update({name: (None if getattr(self, name) is None
                               else getattr(self, name).to_dict())
                        for name in ("dense", "train", "eval")})
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunProfile":
        """Rebuild from :meth:`to_dict` output.

        A payload tagged with a different wire-format version is rejected
        (untagged pre-tag payloads are accepted for backward
        compatibility) — a future ``repro-run-profile/2`` must fail loudly
        instead of being misparsed.
        """
        check_schema(payload, RUN_PROFILE_SCHEMA, untagged=True)
        kwargs = {}
        for name in ("dense", "train", "eval"):
            phase = payload.get(name)
            kwargs[name] = None if phase is None else OpProfile.from_dict(phase)
        return cls(**kwargs)

    def render(self, k: int = 10) -> str:
        parts = [profile.render_top(k, title=f"[{name}]")
                 for name, profile in self.phases().items()]
        return "\n".join(parts) if parts else "RunProfile(empty)"


@contextmanager
def collect_profile(into: Optional[OpProfile] = None):
    """Collect a structured :class:`OpProfile` while the context is active.

    Yields the profile being filled (``into`` when given, else a fresh
    one).  Like every op hook the collection is thread-local; profile
    inside a sweep shard, not around the sweep.
    """
    profile = into if into is not None else OpProfile()
    hook = add_op_hook(profile.as_hook())
    try:
        yield profile
    finally:
        remove_op_hook(hook)


def profile_inference(model, input_shape: Tuple[int, ...],
                      batch: int = 16) -> OpProfile:
    """Profile one tape-free forward pass of ``model`` on a zeros batch.

    The model is switched to eval mode for the forward (and restored), so
    the measured pass is the inference execution the hardware model
    evaluates — per-layer wall-clock next to modeled energy / latency.

    Compiled plans profile too: anything exposing ``profile_steps`` (see
    :meth:`repro.deploy.InferencePlan.profile_steps`) is timed step by
    step, and each step is recorded under the layer path of the module
    that produced its op in the traced forward — so plan profiles line up
    with eager profiles of the same model.  A plan's batch size is baked
    at compile time; the ``batch`` argument is ignored for plans, and
    ``input_shape`` must match the compiled geometry.
    """
    profile_steps = getattr(model, "profile_steps", None)
    if profile_steps is not None:
        if tuple(input_shape) != tuple(model.input_shape):
            raise ValueError(
                f"plan was compiled for input shape {tuple(model.input_shape)}, "
                f"got {tuple(input_shape)}")
        dummy = np.zeros((model.batch,) + tuple(model.input_shape),
                         dtype=model.input_dtype)
        profile = OpProfile()
        _, timings = profile_steps(dummy)
        for name, seconds, layer in timings:
            profile.record(name, seconds, layer)
        return profile

    was_training = model.training
    model.eval()
    dummy = Tensor(np.zeros((batch,) + tuple(input_shape),
                            dtype=get_default_dtype()))
    try:
        with collect_profile() as profile, no_grad():
            model(dummy)
    finally:
        model.train(was_training)
    return profile
