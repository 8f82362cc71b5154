"""Pure-Python statistics of the benchmark: no numpy, no repro imports.

These are the rules the results are judged by, kept apart so the tests
can pin them down exactly:

* :func:`tail` — latency at the highest percentile that still has at
  least :data:`TAIL_BEYOND` samples beyond it, and :func:`windowed_tail`,
  its median over consecutive windows of :data:`TAIL_WINDOW` items;
* :func:`spread` — interquartile distance as a share of the median, the
  run-to-run noise measure;
* :func:`regressed` — whether a metric got worse than its bound allows;
* :func:`error_rate` — failed over attempted operations.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Samples that must lie strictly beyond the reported tail value.
TAIL_BEYOND = 10
#: Items per tail window.  Runs of thousands of short items (single-image
#: calls) would otherwise push the tail rule to p99.8, where the ten
#: slowest calls are the host descheduling the process, not the program.
#: Per window of 250 the rule lands near p96, where the runs of the other
#: workloads, with a few hundred items, land too.
TAIL_WINDOW = 250


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(value, percentile, samples)`` of the highest supported percentile.

    With ``n`` sorted samples the value at 0-based rank ``n - 11`` has
    exactly ten samples above it; its percentile is the share of samples
    at or below it.  ``None`` when fewer than eleven samples exist.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND - 1
    ordered = sorted(values)
    return float(ordered[rank]), 100.0 * (rank + 1) / n, n


def windowed_tail(values: Sequence[float]
                  ) -> Optional[Tuple[float, float, int, int]]:
    """``(value, percentile, samples, windows)``: :func:`tail` per window.

    The items are cut into ``max(1, n // TAIL_WINDOW)`` consecutive windows
    of (nearly) equal size; value and percentile are the medians of the
    windows' tails.  Fewer than ``2 * TAIL_WINDOW`` items make one window,
    which is the plain rule.  ``None`` when fewer than eleven items exist.
    """
    n = len(values)
    windows = max(1, n // TAIL_WINDOW)
    edges = [n * k // windows for k in range(windows + 1)]
    tails = [tail(values[start:stop]) for start, stop in zip(edges, edges[1:])]
    if tails[0] is None:
        return None
    values_at, percentiles = zip(*[(t[0], t[1]) for t in tails])
    return (statistics.median(values_at), statistics.median(percentiles),
            n, windows)


def spread(values: Sequence[float]) -> float:
    """``(Q3 - Q1) / median`` with :func:`statistics.quantiles` quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    if centre == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(centre)


def worsening(parent: float, child: float, better: str) -> float:
    """How much worse ``child`` is than ``parent``, as a share of ``parent``.

    Positive means worse, negative means better.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if parent == 0:
        return 0.0 if child == parent else float("inf")
    change = (child - parent) / abs(parent)
    return change if better == "lower" else -change


def regressed(parent: float, child: float, better: str, bound: float) -> bool:
    """Whether ``child`` is worse than ``parent`` by more than ``bound``."""
    return worsening(parent, child, better) > bound


def error_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def host_differences(first: Mapping[str, object],
                     second: Mapping[str, object]) -> List[str]:
    """Keys whose values differ between two host blocks (sorted)."""
    keys = set(first) | set(second)
    return sorted(key for key in keys if first.get(key) != second.get(key))


def compare_medians(parent: Sequence[Mapping[str, float]],
                    child: Sequence[Mapping[str, float]],
                    metrics: Sequence[Mapping[str, object]]
                    ) -> Dict[str, Dict[str, Any]]:
    """Median, spread and verdict of each bounded metric over two run sets.

    ``parent`` / ``child`` are lists of ``{metric: value}`` (one per run);
    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for entry in metrics:
        name = str(entry["name"])
        before = [run[name] for run in parent if name in run]
        after = [run[name] for run in child if name in run]
        if not before or not after:
            continue
        bound, better = float(entry["bound"]), str(entry["better"])
        old, new = statistics.median(before), statistics.median(after)
        rows[name] = {
            "parent": old,
            "child": new,
            "parent_spread": spread(before),
            "child_spread": spread(after),
            "worse_by": worsening(old, new, better),
            "bound": bound,
            "regressed": regressed(old, new, better, bound),
        }
    return rows
