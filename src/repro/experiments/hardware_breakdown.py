"""Experiment E6 — Fig. 3: per-layer energy breakdown and latency on Eyeriss.

The paper runs the Timeloop/Eyeriss model on the vanilla and ALF-compressed
Plain-20 / ResNet-20 configurations with batch 16 and reports, per
convolution (CONV1 ... CONV432):

* the energy split between register files, the global buffer and DRAM, and
* the normalized latency,

with the headline result of 29% lower energy and 41% lower latency overall.
This module regenerates both series with the analytical hardware model of
``repro.hardware``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..api import ALFSpec, CompressionSpec, SweepSession, print_progress
from ..api.cache import CacheArg
from ..hardware import EyerissSpec, EYERISS_PAPER, NetworkReport
from ..metrics.ops import profile_model
from ..metrics.tables import render_table
from ..models import build_model
from ..models.plain import plain_layer_names
from ..nn.profiler import OpProfile, layer_op_seconds, profile_inference
from .paper_values import HEADLINE_CLAIMS

CIFAR_INPUT = (3, 32, 32)


@dataclass
class LayerEnergyRow:
    """Energy / latency of one named convolution for vanilla and ALF models.

    ``vanilla_seconds`` / ``alf_seconds`` carry the *measured* per-layer
    conv wall-clock of a profiled inference (``run(..., profile=True)``)
    next to the modeled Eyeriss numbers; ``None`` when not profiled.
    """

    name: str
    vanilla_register_file: float
    vanilla_global_buffer: float
    vanilla_dram: float
    vanilla_latency: float
    alf_register_file: float
    alf_global_buffer: float
    alf_dram: float
    alf_latency: float
    vanilla_seconds: Optional[float] = None
    alf_seconds: Optional[float] = None

    @property
    def vanilla_total_energy(self) -> float:
        return self.vanilla_register_file + self.vanilla_global_buffer + self.vanilla_dram

    @property
    def alf_total_energy(self) -> float:
        return self.alf_register_file + self.alf_global_buffer + self.alf_dram


@dataclass
class Fig3Result:
    """Per-layer rows plus network-level summaries for one architecture."""

    architecture: str
    rows: List[LayerEnergyRow] = field(default_factory=list)
    energy_reduction: float = 0.0
    latency_reduction: float = 0.0
    vanilla_report: Optional[NetworkReport] = None
    alf_report: Optional[NetworkReport] = None
    #: Measured op profiles of one inference batch per execution
    #: (``run(..., profile=True)``); the per-conv seconds land on the rows.
    vanilla_profile: Optional[OpProfile] = None
    alf_profile: Optional[OpProfile] = None

    def anomalous_layers(self) -> List[str]:
        """Layers where the ALF-compressed execution is *slower* than vanilla.

        The paper highlights conv312 of ALF-Plain-20 as such an anomaly
        caused by reduced parallelism under the row-stationary dataflow.
        """
        return [row.name for row in self.rows if row.alf_latency > row.vanilla_latency]

    def render(self) -> str:
        headers = ["Layer", "RF (van)", "GB (van)", "DRAM (van)", "Lat (van)",
                   "RF (ALF)", "GB (ALF)", "DRAM (ALF)", "Lat (ALF)"]
        measured = any(r.vanilla_seconds is not None or r.alf_seconds is not None
                       for r in self.rows)
        if measured:
            headers += ["t (van) [s]", "t (ALF) [s]"]
        rows = []
        for r in self.rows:
            cells = [
                r.name,
                f"{r.vanilla_register_file:.2e}", f"{r.vanilla_global_buffer:.2e}",
                f"{r.vanilla_dram:.2e}", f"{r.vanilla_latency:.2e}",
                f"{r.alf_register_file:.2e}", f"{r.alf_global_buffer:.2e}",
                f"{r.alf_dram:.2e}", f"{r.alf_latency:.2e}",
            ]
            if measured:
                cells += [
                    f"{r.vanilla_seconds:.2e}" if r.vanilla_seconds is not None else "-",
                    f"{r.alf_seconds:.2e}" if r.alf_seconds is not None else "-",
                ]
            rows.append(cells)
        return render_table(headers, rows,
                            title=f"Fig. 3 — {self.architecture}: energy breakdown and latency")


def _conv_seconds(profile: Optional[OpProfile],
                  labels: Mapping[str, str]) -> Dict[str, float]:
    """Measured per-layer ``conv2d`` seconds under the paper's CONV labels.

    ``labels`` maps module paths to labels (``ModelProfile.labels``); the
    op profile keys the same paths under the root module's class name.
    """
    if profile is None:
        return {}
    seconds = {path.partition(".")[2]: value
               for path, value in layer_op_seconds(profile, "conv2d").items()}
    return {label: seconds[path] for path, label in labels.items()}


def run(architecture: str = "plain20", batch: int = 16,
        remaining_fraction: float = 0.386,
        per_layer_fractions: Optional[Dict[str, float]] = None,
        spec: Optional[EyerissSpec] = None, seed: int = 0,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        profile: bool = False,
        stream: bool = False,
        cache: CacheArg = None) -> Fig3Result:
    """Evaluate vanilla vs. ALF-compressed execution on the Eyeriss model.

    One single-spec sweep session supplies both sides: the session's dense
    stage evaluates the vanilla network and the shard's hardware stage
    evaluates the ALF-compressed execution — so the evaluation honours the
    sweep executor selection (``workers`` / ``executor`` arguments or
    ``REPRO_SWEEP_EXECUTOR``), and ``stream=True`` prints the session's
    scheduling milestones as they happen.  Layer labels follow the paper's
    CONV1..CONV432 naming; CONV1 (the stem) keeps a dense convolution, so
    the forced per-layer fractions apply from CONV211 on.  ResNet-20's two
    1x1 shortcut projections take no label and keep their module paths.

    ``profile=True`` additionally measures one inference batch of each
    execution with the layer-scoped op profiler: the per-conv wall-clock
    lands on the rows (``vanilla_seconds`` / ``alf_seconds``, rendered as
    two extra columns) next to the modeled Eyeriss numbers, and the full
    profiles are kept on ``vanilla_profile`` / ``alf_profile``.

    ``cache`` selects the session's result-cache policy (see
    :func:`repro.api.run_sweep`); with a populated store the ALF
    evaluation replays instead of recomputing.  Profiled runs measure
    fresh wall-clock and are not cached bit-identically, so combine
    ``profile=True`` with ``cache`` only when stale timings are fine.
    """
    names = plain_layer_names()
    if architecture not in ("plain20", "resnet20"):
        raise KeyError(f"unknown architecture '{architecture}'")
    config = ALFSpec(
        remaining_fraction=remaining_fraction,
        layer_fractions=per_layer_fractions,
        layer_labels=names[1:],  # skip CONV1 (the stem keeps a dense conv)
        deploy=False,
    )
    alf_spec = CompressionSpec(method="alf", config=config,
                               hardware_batch=batch, layer_names=names,
                               seed=seed, profile=profile,
                               label=f"ALF-{architecture}")
    with SweepSession(model=architecture, hardware=spec or EYERISS_PAPER,
                      input_shape=CIFAR_INPUT, seed=seed,
                      executor=executor, max_workers=workers,
                      cache=cache) as session:
        if stream:
            session.add_progress_callback(print_progress("fig3", total=1))
        session.submit(alf_spec)
        sweep = session.result()
    report = sweep.reports[0]
    vanilla_report = report.dense_hardware
    alf_report = report.compressed_hardware

    alf_profile = report.profile.eval if report.profile is not None else None
    vanilla_profile = None
    labels: Dict[str, str] = {}
    if profile:
        # The sweep's dense stage is shared bookkeeping, not a profiled
        # forward — measure the vanilla execution here, on the same build.
        vanilla = build_model(architecture, rng=np.random.default_rng(seed))
        labels = profile_model(vanilla, CIFAR_INPUT).labels(names)
        vanilla_profile = profile_inference(vanilla, CIFAR_INPUT, batch=batch)
    vanilla_seconds = _conv_seconds(vanilla_profile, labels)
    alf_seconds = _conv_seconds(alf_profile, labels)

    vanilla_energy = {r.layer.name: r.energy for r in vanilla_report.layers}
    vanilla_latency = {r.layer.name: r.latency.total_cycles for r in vanilla_report.layers}
    alf_energy = alf_report.grouped_energy()
    alf_latency = alf_report.grouped_latency()

    result = Fig3Result(architecture=architecture)
    for name in names:
        van_e = vanilla_energy[name]
        alf_e = alf_energy.get(name, van_e)
        result.rows.append(LayerEnergyRow(
            name=name,
            vanilla_register_file=van_e.register_file,
            vanilla_global_buffer=van_e.global_buffer,
            vanilla_dram=van_e.dram,
            vanilla_latency=vanilla_latency[name],
            alf_register_file=alf_e.register_file,
            alf_global_buffer=alf_e.global_buffer,
            alf_dram=alf_e.dram,
            alf_latency=alf_latency.get(name, vanilla_latency[name]),
            vanilla_seconds=vanilla_seconds.get(name),
            alf_seconds=alf_seconds.get(name),
        ))
    result.energy_reduction = report.energy_reduction
    result.latency_reduction = report.latency_reduction
    result.vanilla_report = vanilla_report
    result.alf_report = alf_report
    result.vanilla_profile = vanilla_profile
    result.alf_profile = alf_profile
    return result


def summary_vs_paper(result: Fig3Result) -> Dict[str, float]:
    """Measured energy / latency reductions next to the paper's headline claims."""
    return {
        "measured_energy_reduction": result.energy_reduction,
        "paper_energy_reduction": HEADLINE_CLAIMS["energy_reduction"],
        "measured_latency_reduction": result.latency_reduction,
        "paper_latency_reduction": HEADLINE_CLAIMS["latency_reduction"],
    }
