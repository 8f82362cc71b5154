"""``repro.hardware`` — analytical Eyeriss / Timeloop-style accelerator model.

The model reproduces the hardware study of Sec. IV-B: a 16x16 PE array with
per-PE register files, a 128 KB global buffer and DRAM, scheduled under the
row-stationary dataflow.  A deterministic tiling search ("mapper") selects
the cheapest feasible mapping per layer; energy is reported per memory
level in normalized RF-read units and latency in cycles.
"""

from .dataflow import SpatialMapping, map_row_stationary
from .energy import EnergyBreakdown, energy_breakdown
from .latency import LatencyEstimate, latency_estimate
from .layer import ConvLayerShape
from .mapper import AccessCounts, Mapping, Tiling, search_mapping
from .report import (
    HardwareComparison,
    LayerReport,
    NetworkReport,
    compare_networks,
    evaluate_layers,
)
from .spec import EYERISS_PAPER, EnergyTable, EyerissSpec

__all__ = [
    "EyerissSpec", "EnergyTable", "EYERISS_PAPER",
    "ConvLayerShape",
    "SpatialMapping", "map_row_stationary",
    "Tiling", "AccessCounts", "Mapping", "search_mapping",
    "EnergyBreakdown", "energy_breakdown",
    "LatencyEstimate", "latency_estimate",
    "LayerReport", "NetworkReport", "evaluate_layers",
    "HardwareComparison", "compare_networks",
]
