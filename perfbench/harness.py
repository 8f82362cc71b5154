"""The measuring side of the benchmark: host block, closed loop, tracing.

A workload is any object with this surface (see ``serve.py`` and
``sweeps.py``):

``name`` / ``units`` / ``setups``
    Workload name, units of work per item (images or specs) and how many
    fresh set-ups one run times.
``prepare()``
    Untimed one-off work: build inputs and references from the seed.
``set_up()``
    One fresh set-up, timed; the latest one serves the items.  It may
    return its own ready time when it also does warm-up work.
``run_item(index)`` / ``check(index, output)``
    One closed-loop item and its correctness check.
``start_trace()`` / ``stop_trace()`` / ``layer_metrics(latencies)``
    Switch to the traced mode and read the per-layer metrics it gathered
    (``latencies`` are the traced items' wall times).
``report_lines()`` / ``close()``
    Extra human-readable tables of a traced run; release resources.

End-to-end metrics come from an untraced loop, with timings rescaled by
:class:`HostPace` to a reference host speed.  A traced run spends half its
time untraced and half traced, so it can report its own overhead.
Set-ups happen during the untraced loop only.
"""

from __future__ import annotations

import functools
import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import stats


# --------------------------------------------------------------------------- #
# Host block
# --------------------------------------------------------------------------- #
def host_block(seed: int, dtype: str) -> Dict[str, Any]:
    """What the numbers depend on besides the code; stored with every result."""
    blas: Dict[str, Any] = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": dtype,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Tracing: spans around calls into the program's modules
# --------------------------------------------------------------------------- #
class Tracer:
    """Times calls by replacing functions with timing wrappers in place.

    ``wrap(owner, attr, span)`` swaps ``owner.attr`` (a module function or
    a class's method) for a wrapper that records the call's inclusive and
    self time under ``span``; self time excludes nested wrapped calls, so
    the self times of one item add up to the wrapped part of its wall
    time.  :meth:`restore` puts every original back.  Single-threaded.
    """

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        self._children: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def wrap(self, owner: Any, attr: str, span: str) -> None:
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = tracer._children.pop()
                tracer.self_s[span] += elapsed - nested
                tracer.inclusive_s[span] += elapsed
                tracer.calls[span] += 1
                if tracer._children:
                    tracer._children[-1] += elapsed

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> Dict[str, Dict[str, float]]:
        """Self / inclusive seconds and call counts since the last take."""
        taken = {"self": dict(self.self_s), "inclusive": dict(self.inclusive_s),
                 "calls": dict(self.calls)}
        self.self_s.clear()
        self.inclusive_s.clear()
        self.calls.clear()
        return taken


# --------------------------------------------------------------------------- #
# Host pace
# --------------------------------------------------------------------------- #
#: Seconds the pace kernel takes on the reference host (2 vCPUs of a
#: 2.1 GHz Xeon, unloaded).  Bounded timings are rescaled to this pace.
PACE_REFERENCE_S = 2.2e-3
#: How often, in seconds, the pace kernel runs between items.
PACE_EVERY_S = 0.5


class HostPace:
    """How fast the shared host runs right now, from a fixed kernel.

    A shared machine speeds up and slows down by tens of percent over
    seconds to minutes as other tenants come and go, which no run length
    averages away.  Every :data:`PACE_EVERY_S` the loop runs a fixed
    kernel, best of three, and :attr:`factor` becomes
    ``PACE_REFERENCE_S / kernel_time``.  Bounded timings are multiplied by
    the factor current when they were taken: they read as seconds on the
    reference host, so a slow stretch of the host does not read as a slow
    program.  The kernel touches none of the program's code, so a change
    to the program moves paced timings exactly as it moves raw ones.

    The kernel mixes, in about equal time, the kinds of work the workloads
    do: an interpreter loop, many small GEMMs, a few im2col-sized GEMMs and
    a copy larger than the caches.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((48, 48)).astype(np.float32)
        self._cols = rng.standard_normal((64, 576)).astype(np.float32)
        self._weights = rng.standard_normal((576, 256)).astype(np.float32)
        self._source = rng.standard_normal(1 << 20).astype(np.float32)
        self._target = np.empty_like(self._source)
        self._due = 0.0
        self.factor = 1.0
        self.samples: List[float] = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i
        for _ in range(200):
            np.dot(self._small, self._small)
        for _ in range(4):
            np.dot(self._cols, self._weights)
        for _ in range(2):
            np.copyto(self._target, self._source)
        return time.perf_counter() - start

    def update(self, force: bool = False) -> float:
        """Re-measure when due (or ``force``); return the current factor."""
        now = time.perf_counter()
        if force or now >= self._due:
            seconds = min(self._kernel() for _ in range(3))
            self.samples.append(seconds)
            self.factor = PACE_REFERENCE_S / seconds
            self._due = time.perf_counter() + PACE_EVERY_S
        return self.factor


# --------------------------------------------------------------------------- #
# Closed loop
# --------------------------------------------------------------------------- #
@dataclass
class Phase:
    """One closed-loop phase: item and set-up times, raw and paced."""

    latencies: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    failed: int = 0
    setup_samples: List[float] = field(default_factory=list)
    raw_setup_samples: List[float] = field(default_factory=list)


def timed_setup(workload) -> float:
    """Wall time of one fresh set-up.

    A workload whose set-up includes warm-up work beyond "ready to serve"
    returns the ready time from ``set_up()`` instead.
    """
    start = time.perf_counter()
    ready = workload.set_up()
    return ready if ready is not None else time.perf_counter() - start


def _add_setup(phase: Phase, workload, pace) -> None:
    factor = pace.update(force=True) if pace else 1.0
    seconds = timed_setup(workload)
    phase.raw_setup_samples.append(seconds)
    phase.setup_samples.append(seconds * factor)


def closed_loop(workload, seconds: float, start_index: int = 0,
                setups: int = 0, pace=None) -> Phase:
    """One caller: the next item starts when the previous one is checked.

    Runs at least one item.  An item that raises or fails its check is a
    failed operation; its wall time still counts as a latency sample.
    ``setups`` fresh set-ups are spread evenly through the phase, between
    items and outside their timing, so the set-up median samples the host
    over the same stretch of time as the items do.  ``pace`` (a
    :class:`HostPace`) rescales every timing; without it they stay raw.
    """
    phase = Phase()
    index = start_index
    begin = time.perf_counter()
    deadline = begin + seconds
    due = [begin + seconds * k / setups for k in range(setups)]
    while not phase.latencies or time.perf_counter() < deadline:
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            _add_setup(phase, workload, pace)
            continue
        factor = pace.update() if pace else 1.0
        start = time.perf_counter()
        try:
            output = workload.run_item(index)
            raised = False
        except Exception:
            traceback.print_exc(file=sys.stderr)
            output, raised = None, True
        elapsed = time.perf_counter() - start
        phase.raw_latencies.append(elapsed)
        phase.latencies.append(elapsed * factor)
        if raised or not workload.check(index, output):
            phase.failed += 1
        index += 1
    for _ in due:
        _add_setup(phase, workload, pace)
    return phase


def end_to_end(latencies: List[float], setup_samples: List[float],
               units: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics of one phase, plus how the tail was taken."""
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "items_per_s": units * len(latencies) / sum(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    tail = stats.windowed_tail(latencies)
    detail: Dict[str, Any] = {"samples": len(latencies)}
    if tail is not None:
        value, percentile, _, windows = tail
        metrics["latency_tail_ms"] = value * 1e3
        detail.update(tail_percentile=percentile, tail_windows=windows)
    else:
        # Too few items for the rule: the slowest item is the tail.
        metrics["latency_tail_ms"] = max(latencies) * 1e3
        detail.update(tail_percentile=100.0, tail_windows=1)
    return metrics, detail


def run(workload, seconds: float, trace: bool) -> Dict[str, Any]:
    """Prepare, set up, run the loop(s); return the full record.

    The workload's ``setups`` are spread through the untraced phase, the
    first one before any item.  ``metrics`` are paced (see
    :class:`HostPace`); ``raw_metrics`` are the same figures unscaled.
    """
    workload.prepare()
    host_pace = HostPace()
    gc.collect()
    plain = closed_loop(workload, seconds / 2 if trace else seconds,
                        setups=workload.setups, pace=host_pace)
    metrics, detail = end_to_end(plain.latencies, plain.setup_samples,
                                 workload.units)
    raw_metrics, _ = end_to_end(plain.raw_latencies, plain.raw_setup_samples,
                                workload.units)
    record: Dict[str, Any] = {
        "workload": workload.name, "metrics": metrics,
        "raw_metrics": raw_metrics, "setup_samples_s": plain.setup_samples,
        "pace_factor": PACE_REFERENCE_S / statistics.median(host_pace.samples),
        **detail}
    if not trace:
        record.update(attempted=len(plain.latencies), failed=plain.failed)
        return record

    workload.start_trace()
    try:
        traced = closed_loop(workload, seconds / 2,
                             start_index=len(plain.latencies), pace=host_pace)
    finally:
        workload.stop_trace()
    traced_metrics, _ = end_to_end(traced.latencies, plain.setup_samples,
                                   workload.units)
    # Spans are raw wall time, so the layers see raw item times.
    layers = workload.layer_metrics(traced.raw_latencies)
    layers["trace.overhead_pct"] = 100.0 * (
        traced_metrics["latency_p50_ms"] / metrics["latency_p50_ms"] - 1.0)
    record.update(
        attempted=len(plain.latencies) + len(traced.latencies),
        failed=plain.failed + traced.failed,
        traced_metrics=traced_metrics, layers=layers,
        report_lines=workload.report_lines())
    return record


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def format_record(record: Dict[str, Any], benchmark: dict,
                  moves: Callable[[str], str]) -> List[str]:
    """Human-readable lines printed before the JSON result line."""
    host = record["host"]
    lines = [f"workload {record['workload']}  trace={int(record['trace'])}  "
             f"seconds={record['seconds']}",
             "host " + "  ".join(f"{key}={value}" for key, value in host.items())]
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"operations attempted={attempted} failed={failed} "
                 f"error_rate={stats.error_rate(attempted, failed):.4g}")
    lines.append(f"latency_tail_ms is p{record['tail_percentile']:.2f} "
                 f"(>= {stats.TAIL_BEYOND} beyond), median over "
                 f"{record['tail_windows']} window(s) of "
                 f"{record['samples']} untraced items")
    setups = ", ".join(f"{s:.4f}" for s in record["setup_samples_s"])
    lines.append(f"setup_s median of {len(record['setup_samples_s'])} fresh "
                 f"set-ups: [{setups}]")
    lines.append(f"host pace factor {record['pace_factor']:.4f} (timings "
                 f"scaled to the reference host; raw beside them)")
    lines.append(f"  {'metric':<18} {'paced':>14} {'raw':>14}")
    for entry in benchmark["end_to_end"]:
        name = entry["name"]
        lines.append(f"  {name:<18} {record['metrics'][name]:>14.6g} "
                     f"{record['raw_metrics'][name]:>14.6g} {entry['unit']}")
    if not record["trace"]:
        return lines
    untraced = record["metrics"]["latency_p50_ms"]
    traced = record["traced_metrics"]["latency_p50_ms"]
    lines.append(f"tracing overhead: latency_p50_ms traced {traced:.4f} vs "
                 f"untraced {untraced:.4f} "
                 f"({record['layers']['trace.overhead_pct']:+.2f}%)")
    lines.extend(record["report_lines"])
    lines.append(f"  {'per-layer metric':<32} {'value':>14} {'unit':<9} "
                 "expected to move")
    for entry in benchmark["per_layer"]:
        name = entry["name"]
        lines.append(f"  {name:<32} {record['layers'][name]:>14.6g} "
                     f"{entry['unit']:<9} {moves(name)}")
    return lines


def result_line(record: Dict[str, Any], benchmark: dict) -> Dict[str, Any]:
    """The one-line JSON object the last stdout line carries."""
    if record["trace"]:
        entries, values = benchmark["per_layer"], record["layers"]
    else:
        entries, values = benchmark["end_to_end"], record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {entry["name"]: {"value": float(values[entry["name"]]),
                                    "unit": entry["unit"]}
                    for entry in entries},
    }
