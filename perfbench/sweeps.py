"""Sweep workloads: serial ``SweepSession`` traffic against a file store.

* ``sweep-train``: one long-lived serial session trains ALF specs on
  resnet20 over a seeded synthetic dataset and writes every report to a
  fresh :class:`~repro.api.FileReportCache` (``"write"`` policy).  Items
  cycle through :data:`TRAIN_SEEDS` spec seeds, so every seed trains
  several times; each report must equal the first report of its seed.
* ``sweep-replay``: set-up fills a fresh store with one cold Table II
  sweep; each item is a fresh serial session replaying all six specs with
  the ``"read"`` policy.  A miss, an integrity warning, or a report that
  differs from the cold sweep fails the item.

The traced mode wraps the program's public entry points of each layer
with :class:`harness.Tracer` spans (see :data:`SPANS`) and reports each
layer's self time per item.
"""

from __future__ import annotations

import os
import shutil
import statistics
import warnings
from time import perf_counter
from typing import Any, Dict, List, Tuple

import repro.api as api
from repro.api import adapters, pipeline, session
from repro.api.cache import CacheIntegrityWarning
from repro.data import make_synthetic_dataset

from catalogue import DTYPE
from harness import Tracer

MODEL = "resnet20"
#: Training geometry of sweep-train: small enough that one ALF spec
#: trains in about half a second on one core.
TRAIN_SHAPE = (3, 16, 16)
TRAIN_SAMPLES = 64
TRAIN_CLASSES = 4
TRAIN_EPOCHS = 1
#: Distinct spec seeds sweep-train cycles through.
TRAIN_SEEDS = 4

#: (owner, attribute, span) of every wrapped call.  Owners are the module
#: namespaces the callers look the names up in, or the defining classes.
SPANS: List[Tuple[Any, str, str]] = [
    (adapters.ALFMethod, "prepare", "core.prepare"),
    (adapters.ALFMethod, "fit", "core.fit"),
    (adapters.ALFMethod, "finalize", "core.finalize"),
    (pipeline, "evaluate_accuracy", "core.evaluate"),
    (adapters, "evaluate_accuracy", "core.evaluate"),
    (pipeline, "evaluate_layers", "hardware.evaluate"),
    (pipeline, "profile_model", "metrics.profile"),
    (adapters, "profile_model", "metrics.profile"),
    (api.CompressionSpec, "digest", "digests.cache_key"),
    (session, "model_digest", "digests.cache_key"),
    (session, "data_digest", "digests.cache_key"),
    (api.ReportCache, "get", "cache.get"),
    (api.ReportCache, "put", "cache.put"),
    # The session bootstraps lazily inside submit; this private method is
    # the only place that work can be timed apart from the first item.
    (api.SweepSession, "_ensure_baseline", "session.bootstrap"),
]

#: Per-layer metric -> span whose per-item self time it reports.
SPAN_METRICS = {
    "core.prepare_ms": "core.prepare",
    "core.fit_ms": "core.fit",
    "core.finalize_ms": "core.finalize",
    "core.evaluate_ms": "core.evaluate",
    "hardware.evaluate_ms": "hardware.evaluate",
    "metrics.profile_ms": "metrics.profile",
    "digests.cache_key_ms": "digests.cache_key",
    "cache.get_ms": "cache.get",
    "cache.put_ms": "cache.put",
}


def _capture(call):
    """Run ``call()``; return its result and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [w for w in caught
                    if issubclass(w.category, CacheIntegrityWarning)]


class _SweepWorkload:
    """Shared store handling and tracing of both sweep workloads."""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.store = None
        self.setup_count = 0
        self.tracer = None
        self.items: List[Dict[str, Dict[str, float]]] = []
        self.integrity_warnings = 0

    def _fresh_store(self) -> api.FileReportCache:
        self.setup_count += 1
        root = os.path.join(self.work_dir, f"{self.name}-{self.setup_count}")
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
        return api.FileReportCache(root)

    def start_trace(self) -> None:
        self.tracer = Tracer()
        for owner, attr, span in SPANS:
            self.tracer.wrap(owner, attr, span)
        self.store_base = self.store.stats()

    def stop_trace(self) -> None:
        self.tracer.restore()
        self.tracer = None

    def _observe(self) -> None:
        if self.tracer is not None:
            self.items.append(self.tracer.take())

    def _median_ms(self, values) -> float:
        values = list(values)
        return statistics.median(values) * 1e3 if values else 0.0

    def layer_metrics(self, latencies: List[float]) -> Dict[str, float]:
        layers = {metric: self._median_ms(item["self"].get(span, 0.0)
                                          for item in self.items)
                  for metric, span in SPAN_METRICS.items()}
        layers["session.overhead_ms"] = self._median_ms(
            latency - sum(item["self"].values())
            for latency, item in zip(latencies, self.items))
        stats = self.store.stats()
        hits = stats.hits - self.store_base.hits
        lookups = hits + stats.misses - self.store_base.misses
        layers["cache.hit_ratio"] = hits / lookups if lookups else 0.0
        layers["cache.entry_bytes"] = (stats.total_bytes / stats.entries
                                       if stats.entries else 0.0)
        layers["cache.integrity_warnings"] = float(self.integrity_warnings)
        return layers

    def report_lines(self) -> List[str]:
        return []

    def close(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)


class TrainWorkload(_SweepWorkload):
    name = "sweep-train"
    units = 1
    setups = 5

    def prepare(self) -> None:
        self.data = make_synthetic_dataset(
            TRAIN_SAMPLES, num_classes=TRAIN_CLASSES,
            image_shape=TRAIN_SHAPE, seed=self.seed)
        self.specs = [api.CompressionSpec(method="alf", epochs=TRAIN_EPOCHS,
                                          input_shape=TRAIN_SHAPE,
                                          seed=self.seed * TRAIN_SEEDS + k)
                      for k in range(TRAIN_SEEDS)]
        self.references: Dict[int, str] = {}
        self.session = None
        self.bootstrap_s: List[float] = []

    def set_up(self) -> float:
        """Fresh store and session, bootstrapped by its first spec.

        Returns the set-up time: session construction plus the session's
        dense-baseline bootstrap.  The rest of that first spec's run is
        discarded warm-up (its report becomes the seed's reference).
        """
        if self.session is not None:
            self.session.close()
        self.store = self._fresh_store()
        start = perf_counter()
        self.session = api.SweepSession(
            model=MODEL, data=self.data, input_shape=TRAIN_SHAPE,
            dtype=DTYPE, seed=self.seed, cache=(self.store, "write"))
        constructed = perf_counter() - start
        clock = Tracer()
        clock.wrap(api.SweepSession, "_ensure_baseline", "session.bootstrap")
        try:
            report = self.session.submit(self.specs[0]).result()
        finally:
            clock.restore()
        bootstrap = clock.inclusive_s["session.bootstrap"]
        self.bootstrap_s.append(bootstrap)
        if not self._remember(0, report):
            raise RuntimeError("a fresh session trained a different report "
                               "for the same spec seed")
        return constructed + bootstrap

    def _remember(self, index: int, report) -> bool:
        seed = self.specs[index % TRAIN_SEEDS].seed
        digest = api.payload_digest(report.to_dict())
        return self.references.setdefault(seed, digest) == digest

    def run_item(self, index: int):
        spec = self.specs[(index + 1) % TRAIN_SEEDS]
        result = _capture(lambda: self.session.submit(spec).result())
        self._observe()
        return result

    def check(self, index: int, output) -> bool:
        report, integrity = output
        self.integrity_warnings += len(integrity)
        return self._remember(index + 1, report) and not integrity

    def layer_metrics(self, latencies: List[float]) -> Dict[str, float]:
        layers = super().layer_metrics(latencies)
        layers["session.bootstrap_ms"] = statistics.median(
            self.bootstrap_s) * 1e3
        return layers

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        super().close()


class ReplayWorkload(_SweepWorkload):
    name = "sweep-replay"
    setups = 7

    def prepare(self) -> None:
        self.specs = api.table2_specs(seed=self.seed)
        self.units = len(self.specs)

    def _session(self, policy: str) -> api.SweepSession:
        return api.SweepSession(model=MODEL, dtype=DTYPE, seed=self.seed,
                                cache=(self.store, policy))

    def set_up(self) -> None:
        """Fill a fresh store with one cold Table II sweep."""
        self.store = self._fresh_store()
        with self._session("write") as cold:
            cold.submit_all(self.specs)
            self.reference = [r.to_dict() for r in cold.result().reports]

    def run_item(self, index: int):
        def replay():
            with self._session("read") as warm:
                futures = warm.submit_all(self.specs)
                return futures, warm.result()
        result = _capture(replay)
        self._observe()
        return result

    def check(self, index: int, output) -> bool:
        (futures, sweep), integrity = output
        self.integrity_warnings += len(integrity)
        return (not integrity and all(f.cached for f in futures)
                and [r.to_dict() for r in sweep.reports] == self.reference)

    def layer_metrics(self, latencies: List[float]) -> Dict[str, float]:
        layers = super().layer_metrics(latencies)
        layers["session.bootstrap_ms"] = self._median_ms(
            item["inclusive"].get("session.bootstrap", 0.0)
            for item in self.items)
        return layers


def workloads(seed: int, work_dir: str) -> Dict[str, _SweepWorkload]:
    return {"sweep-train": TrainWorkload(seed, work_dir),
            "sweep-replay": ReplayWorkload(seed, work_dir)}
