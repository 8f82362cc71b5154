"""Network-level hardware evaluation: the Fig. 3 style per-layer report.

:func:`evaluate_layers` runs the mapper on every convolutional workload of
a network and returns per-layer energy breakdowns (register file / global
buffer / DRAM) and latency estimates.  A model's workloads come from its
layer table, ``profile_model(model, shape).workloads(batch)``.
:func:`compare_networks` aggregates two such reports into the relative
energy / latency improvements the paper quotes (29% energy, 41% latency
for ALF-compressed Plain-20/ResNet-20).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .energy import EnergyBreakdown, energy_breakdown
from .latency import LatencyEstimate, latency_estimate
from .layer import ConvLayerShape
from .mapper import Mapping, search_mapping
from .spec import EYERISS_PAPER, EyerissSpec


@dataclass
class LayerReport:
    """Hardware evaluation of one convolutional workload."""

    layer: ConvLayerShape
    energy: EnergyBreakdown
    latency: LatencyEstimate
    #: The winning dataflow mapping.  ``None`` on reports rebuilt from the
    #: wire form: the tiling search internals do not travel, only their
    #: energy / latency outcome does.
    mapping: Optional[Mapping] = None

    # -- wire format ---------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form: workload geometry + energy + latency breakdowns."""
        return {
            "layer": {**asdict(self.layer), "input_hw": list(self.layer.input_hw)},
            "energy": {
                "name": self.energy.name,
                "register_file": float(self.energy.register_file),
                "global_buffer": float(self.energy.global_buffer),
                "dram": float(self.energy.dram),
            },
            "latency": {
                "name": self.latency.name,
                "compute_cycles": float(self.latency.compute_cycles),
                "dram_cycles": float(self.latency.dram_cycles),
                "utilization": float(self.latency.utilization),
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LayerReport":
        shape = payload["layer"]
        return cls(
            layer=ConvLayerShape(**{**shape, "input_hw": tuple(shape["input_hw"])}),
            energy=EnergyBreakdown(**payload["energy"]),
            latency=LatencyEstimate(**payload["latency"]),
        )


@dataclass
class NetworkReport:
    """Hardware evaluation of a whole network (one report per conv workload)."""

    name: str
    layers: List[LayerReport] = field(default_factory=list)

    @property
    def total_energy(self) -> float:
        return sum(report.energy.total for report in self.layers)

    @property
    def total_latency(self) -> float:
        return sum(report.latency.total_cycles for report in self.layers)

    def energy_by_level(self) -> Dict[str, float]:
        totals = {"register_file": 0.0, "global_buffer": 0.0, "dram": 0.0}
        for report in self.layers:
            totals["register_file"] += report.energy.register_file
            totals["global_buffer"] += report.energy.global_buffer
            totals["dram"] += report.energy.dram
        return totals

    def layer_names(self) -> List[str]:
        return [report.layer.name for report in self.layers]

    def grouped_by_base_name(self) -> Dict[str, List[LayerReport]]:
        """Group expansion layers ("<name>_exp") with their code convolution."""
        groups: Dict[str, List[LayerReport]] = {}
        for report in self.layers:
            base = report.layer.name[:-4] if report.layer.name.endswith("_exp") else report.layer.name
            groups.setdefault(base, []).append(report)
        return groups

    def grouped_energy(self) -> Dict[str, EnergyBreakdown]:
        """Per-base-layer energy with code + expansion contributions merged."""
        merged: Dict[str, EnergyBreakdown] = {}
        for base, reports in self.grouped_by_base_name().items():
            total = reports[0].energy
            for extra in reports[1:]:
                total = total + extra.energy
            merged[base] = EnergyBreakdown(
                name=base,
                register_file=total.register_file,
                global_buffer=total.global_buffer,
                dram=total.dram,
            )
        return merged

    def grouped_latency(self) -> Dict[str, float]:
        return {
            base: sum(r.latency.total_cycles for r in reports)
            for base, reports in self.grouped_by_base_name().items()
        }

    # -- wire format ---------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form carrying the full per-layer breakdown."""
        return {
            "name": self.name,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "NetworkReport":
        return cls(
            name=payload.get("name", "network"),
            layers=[LayerReport.from_dict(entry)
                    for entry in payload["layers"]],
        )


def evaluate_layers(layers: Sequence[ConvLayerShape], spec: Optional[EyerissSpec] = None,
                    name: str = "network") -> NetworkReport:
    """Run the mapper + energy + latency models on each workload."""
    spec = (spec or EYERISS_PAPER).validate()
    report = NetworkReport(name=name)
    for layer in layers:
        mapping = search_mapping(layer, spec)
        report.layers.append(LayerReport(
            layer=layer,
            mapping=mapping,
            energy=energy_breakdown(mapping, spec),
            latency=latency_estimate(mapping, spec),
        ))
    return report


@dataclass
class HardwareComparison:
    """Relative improvement of a compressed network over its vanilla baseline."""

    baseline: NetworkReport
    compressed: NetworkReport

    @property
    def energy_reduction(self) -> float:
        return 1.0 - self.compressed.total_energy / self.baseline.total_energy

    @property
    def latency_reduction(self) -> float:
        return 1.0 - self.compressed.total_latency / self.baseline.total_latency

    def summary(self) -> Dict[str, float]:
        return {
            "baseline_energy": self.baseline.total_energy,
            "compressed_energy": self.compressed.total_energy,
            "energy_reduction": self.energy_reduction,
            "baseline_latency": self.baseline.total_latency,
            "compressed_latency": self.compressed.total_latency,
            "latency_reduction": self.latency_reduction,
        }


def compare_networks(baseline: NetworkReport, compressed: NetworkReport) -> HardwareComparison:
    """Pair a vanilla and a compressed network report for relative metrics."""
    return HardwareComparison(baseline=baseline, compressed=compressed)
