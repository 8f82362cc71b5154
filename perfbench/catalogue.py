"""Which end-to-end metric each per-layer metric is expected to move.

``BENCHMARK.json`` at the repository root fixes the metric names, units,
directions and bounds; its schema has no room for this map, so it lives
here and the traced run prints it beside every per-layer value.  Each
entry lists ``(end_to_end_metric, workload)`` pairs: a change that moves
the layer metric should show up in that end-to-end metric on that
workload, and nowhere else.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

#: Compute dtype of every workload.
DTYPE = "float32"
SERVE = ("serve-b1", "serve-b16-streamed")
STAGE_FIELDS = ("ms", "gflops", "macs", "eyeriss_latency_ms", "eyeriss_energy")
STEP_CATEGORIES = ("conv", "conv_streamed", "eltwise", "pool", "other")


def _on(metric: str, *workloads: str) -> List[Tuple[str, str]]:
    return [(metric, workload) for workload in workloads]


MOVES: Dict[str, List[Tuple[str, str]]] = {
    "serialize.load_ms": _on("setup_s", *SERVE),
    "serialize.payload_bytes": _on("setup_s", *SERVE),
    "plan.bind_ms": _on("setup_s", "serve-b16-streamed"),
    "plan.steps": _on("latency_p50_ms", *SERVE),
    **{f"plan.step_ms.{category}": _on("latency_p50_ms", *SERVE)
       for category in STEP_CATEGORIES},
    "plan.dispatch_ms": _on("latency_p50_ms", "serve-b1"),
    **{f"plan.stage{stage}.{field}": _on("latency_p50_ms", *SERVE)
       for stage in (1, 2, 3) for field in STAGE_FIELDS},
    "arena.peak_bytes": _on("peak_rss_mb", *SERVE),
    "arena.reuse_ratio": _on("peak_rss_mb", *SERVE),
    "tiling.streamed_convs": _on("latency_p50_ms", "serve-b16-streamed"),
    "tiling.streamed_ms": _on("latency_p50_ms", "serve-b16-streamed"),
    "core.prepare_ms": _on("latency_p50_ms", "sweep-train"),
    "core.fit_ms": _on("latency_p50_ms", "sweep-train"),
    "core.finalize_ms": _on("latency_p50_ms", "sweep-train"),
    "core.evaluate_ms": _on("latency_p50_ms", "sweep-train"),
    "hardware.evaluate_ms": _on("latency_p50_ms",
                                "sweep-replay", "sweep-train"),
    "metrics.profile_ms": _on("latency_p50_ms", "sweep-replay"),
    "digests.cache_key_ms": _on("latency_p50_ms", "sweep-replay"),
    "cache.get_ms": _on("latency_p50_ms", "sweep-replay"),
    "cache.hit_ratio": _on("latency_p50_ms", "sweep-replay"),
    "cache.put_ms": _on("latency_p50_ms", "sweep-train"),
    "cache.entry_bytes": _on("latency_p50_ms", "sweep-train"),
    "cache.integrity_warnings": [("error_rate", "sweep-replay"),
                                 ("error_rate", "sweep-train")],
    "session.bootstrap_ms": [("setup_s", "sweep-train"),
                             ("latency_p50_ms", "sweep-replay")],
    "session.overhead_ms": _on("items_per_s", "sweep-train", "sweep-replay"),
    # The cost of tracing itself, measured on every workload's traced run.
    "trace.overhead_pct": [("latency_p50_ms", "every workload, traced")],
}


def benchmark_file() -> str:
    """Path of ``BENCHMARK.json`` (the directory above this package)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(here), "BENCHMARK.json")


def load_benchmark() -> dict:
    with open(benchmark_file(), "r", encoding="utf-8") as stream:
        return json.load(stream)


def moves_text(name: str) -> str:
    """``latency_p50_ms@serve-b1, ...`` for the per-layer table."""
    return ", ".join(f"{metric}@{workload}"
                     for metric, workload in MOVES[name])
