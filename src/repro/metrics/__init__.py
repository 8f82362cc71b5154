"""``repro.metrics`` — the layer table (params / OPs / workloads) and comparison reporting."""

from .compression import (
    ComparisonTable,
    MethodResult,
    compression_summary,
    dominates,
    pareto_front,
)
from .ops import (
    OPS_PER_MAC,
    LayerProfile,
    ModelProfile,
    profile_model,
)
from .tables import format_count, format_percent, format_reduction, render_table

__all__ = [
    "profile_model", "ModelProfile", "LayerProfile",
    "OPS_PER_MAC",
    "MethodResult", "ComparisonTable", "pareto_front", "dominates", "compression_summary",
    "render_table", "format_count", "format_percent", "format_reduction",
]
