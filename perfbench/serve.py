"""Serve workloads: a saved ALF resnet20 plan answering closed-loop calls.

Both workloads compress resnet20 with ALF at the Table II operating point
(``ALFSpec(stage_remaining=ALF_TABLE2_STAGE_REMAINING)``) in float32,
compile it once, save the ``repro-plan/1`` file, and time set-up as
loading that file (plus ``bind(16)`` on the batch-16 workload).

* ``serve-b1``: one image per call; checked bit-identical to the eager
  ``no_grad`` forward.
* ``serve-b16-streamed``: sixteen images per call through a plan bound to
  batch 16 under :data:`STREAM_BUDGET`; checked equal to eager within
  float32 tolerance.

The traced mode calls ``InferencePlan.profile_steps`` instead of the plan
itself and groups its step times by kind and by resnet20 stage, beside
the MACs of each stage and the Eyeriss model's latency and energy for it
(the paper's Fig. 3 view, measured on this host).
"""

from __future__ import annotations

import os
import re
import statistics
import warnings
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import repro.api as api
from repro.deploy import InferencePlan
from repro.hardware import EYERISS_PAPER, evaluate_layers
from repro.nn.tensor import Tensor, no_grad

from catalogue import DTYPE, STAGE_FIELDS, STEP_CATEGORIES

INPUT_SHAPE = (3, 32, 32)
#: Per-call im2col byte budget of the batch-16 plan.  At float32 it streams
#: 18 of resnet20's convs in row bands, and every band stays above the
#: MIN_BAND_ROWS floor, so compiling and binding raise no band_plan warning.
STREAM_BUDGET = 1_250_000
#: Core clock used to turn Eyeriss cycles into milliseconds: the 200 MHz
#: of the Eyeriss chip (Chen et al., ISSCC 2016).
EYERISS_CLOCK_HZ = 200e6
#: Float32 tolerance of the streamed plan against the eager forward.
STREAM_RTOL = 1e-4
STREAM_ATOL = 1e-4

_BLOCK = re.compile(r"(?:^|\.)layers\.layer(\d+)(?:\.|$)")


def _block(path: str) -> Optional[int]:
    match = _BLOCK.search(path)
    return int(match.group(1)) if match else None


def _stage_of_blocks(layer_reports) -> Dict[int, int]:
    """resnet20 block index -> stage 1..3, ranked by the block's width."""
    width: Dict[int, int] = {}
    for report in layer_reports:
        block = _block(report.layer.name)
        if block is not None:
            width[block] = max(width.get(block, 0), report.layer.out_channels)
    ranks = {w: rank + 1 for rank, w in enumerate(sorted(set(width.values())))}
    return {block: ranks[w] for block, w in width.items()}


def _category(step) -> str:
    if step.op_name == "conv2d":
        return "conv_streamed" if getattr(step, "streamed", None) else "conv"
    if step.kind in ("max_pool", "avg_pool") or \
            step.layer.rsplit(".", 1)[-1].startswith("pool"):
        return "pool"
    if step.kind in ("eltwise", "relu", "sigmoid", "clip"):
        return "eltwise"
    return "other"


class ServeWorkload:
    """Closed-loop calls into a loaded plan (see module docstring)."""

    setups = 9

    def __init__(self, name: str, batch: int, memory_budget: Optional[int],
                 seed: int, work_dir: str, inputs: int = 8):
        self.name = name
        self.batch = batch
        self.units = batch
        self.memory_budget = memory_budget
        self.seed = seed
        self.path = os.path.join(work_dir, f"{name}.plan.json")
        self.n_inputs = inputs
        self.plan = None
        self.load_s: List[float] = []
        self.bind_s: List[float] = []
        self.tracing = False
        self.calls: List[Dict[str, float]] = []

    # -- untimed preparation ------------------------------------------------- #
    def prepare(self) -> None:
        report = api.compress(
            "resnet20", method="alf",
            config=api.ALFSpec(stage_remaining=api.ALF_TABLE2_STAGE_REMAINING),
            dtype=DTYPE, seed=self.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a band_plan warning is fatal
            report.plan(batch=1, memory_budget=self.memory_budget).save(self.path)
        self.payload_bytes = os.path.getsize(self.path)

        model = report.model
        model.eval()
        rng = np.random.default_rng(self.seed)
        self.inputs, self.references = [], []
        for _ in range(self.n_inputs):
            x = rng.standard_normal((self.batch,) + INPUT_SHAPE).astype(DTYPE)
            with no_grad():
                self.references.append(model(Tensor(x)).data.copy())
            self.inputs.append(x)

        shapes = [shape.with_batch(self.batch)
                  for shape in report.compressed.layer_shapes]
        hardware = evaluate_layers(shapes, spec=EYERISS_PAPER,
                                   name=f"alf-b{self.batch}")
        self.stage_of_block = _stage_of_blocks(hardware.layers)
        self.hardware: Dict[int, Dict[str, float]] = {
            stage: {"macs": 0.0, "eyeriss_latency_ms": 0.0,
                    "eyeriss_energy": 0.0} for stage in (1, 2, 3)}
        for layer in hardware.layers:
            stage = self.stage_of_block.get(_block(layer.layer.name))
            if stage is None:
                continue
            row = self.hardware[stage]
            row["macs"] += layer.layer.macs
            row["eyeriss_latency_ms"] += (layer.latency.total_cycles
                                          / EYERISS_CLOCK_HZ * 1e3)
            row["eyeriss_energy"] += layer.energy.total

    # -- timed set-up -------------------------------------------------------- #
    def set_up(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = perf_counter()
            plan = InferencePlan.load(self.path)
            loaded = perf_counter()
            if self.batch != plan.batch:
                plan = plan.bind(self.batch)
            bound = perf_counter()
        self.load_s.append(loaded - start)
        self.bind_s.append(bound - loaded)
        self.plan = plan
        self.step_keys = [
            (_category(step), self.stage_of_block.get(_block(step.layer)))
            for step in plan.steps]

    # -- closed-loop items --------------------------------------------------- #
    def run_item(self, index: int):
        x = self.inputs[index % self.n_inputs]
        if not self.tracing:
            return self.plan(x).data
        start = perf_counter()
        out, timings = self.plan.profile_steps(x)
        wall = perf_counter() - start
        self.calls.append(self._group(timings, wall))
        return out.data

    def check(self, index: int, output) -> bool:
        reference = self.references[index % self.n_inputs]
        if output is None or output.shape != reference.shape:
            return False
        if self.memory_budget is None:
            return output.tobytes() == reference.tobytes()
        return bool(np.allclose(output, reference, rtol=STREAM_RTOL,
                                atol=STREAM_ATOL))

    # -- tracing ------------------------------------------------------------- #
    def start_trace(self) -> None:
        self.tracing = True

    def stop_trace(self) -> None:
        self.tracing = False

    def _group(self, timings, wall: float) -> Dict[str, float]:
        grouped = {f"step.{c}": 0.0 for c in STEP_CATEGORIES}
        grouped.update({f"stage{s}": 0.0 for s in (1, 2, 3)}, steps=0.0)
        for (category, stage), (_, seconds, _) in zip(self.step_keys,
                                                      timings):
            grouped[f"step.{category}"] += seconds
            grouped["steps"] += seconds
            if stage is not None:
                grouped[f"stage{stage}"] += seconds
        grouped["dispatch"] = wall - grouped["steps"]
        return grouped

    def _median_ms(self, key: str) -> float:
        return statistics.median(call[key] for call in self.calls) * 1e3

    def layer_metrics(self, latencies: List[float]) -> Dict[str, float]:
        stats = self.plan.stats
        layers = {
            "serialize.load_ms": statistics.median(self.load_s) * 1e3,
            "serialize.payload_bytes": float(self.payload_bytes),
            "plan.bind_ms": (statistics.median(self.bind_s) * 1e3
                             if self.batch != 1 else 0.0),
            "plan.steps": float(stats.steps),
            "plan.dispatch_ms": self._median_ms("dispatch"),
            "arena.peak_bytes": float(stats.arena.peak_bytes),
            "arena.reuse_ratio": float(stats.arena.reuse_ratio),
            "tiling.streamed_convs": float(stats.streamed_convs),
            # The tiling layer's time is the streamed conv steps' time.
            "tiling.streamed_ms": self._median_ms("step.conv_streamed"),
        }
        for category in STEP_CATEGORIES:
            layers[f"plan.step_ms.{category}"] = self._median_ms(
                f"step.{category}")
        for stage in (1, 2, 3):
            ms = self._median_ms(f"stage{stage}")
            row = self.hardware[stage]
            layers[f"plan.stage{stage}.ms"] = ms
            layers[f"plan.stage{stage}.macs"] = row["macs"]
            layers[f"plan.stage{stage}.gflops"] = (
                2.0 * row["macs"] / (ms * 1e-3) / 1e9 if ms > 0 else 0.0)
            layers[f"plan.stage{stage}.eyeriss_latency_ms"] = \
                row["eyeriss_latency_ms"]
            layers[f"plan.stage{stage}.eyeriss_energy"] = row["eyeriss_energy"]
        self.layers = layers
        return layers

    def report_lines(self) -> List[str]:
        """The Fig. 3 view: measured per-stage time beside the Eyeriss model.

        Reads the values :meth:`layer_metrics` computed.
        """
        lines = [f"Fig. 3 per stage, {self.name} (batch {self.batch}, "
                 f"median of {len(self.calls)} traced calls; Eyeriss at "
                 f"{EYERISS_CLOCK_HZ / 1e6:.0f} MHz, energy in RF reads)",
                 f"  {'stage':<7} {'ms':>9} {'MACs':>12} {'GFLOP/s':>9} "
                 f"{'eyeriss ms':>11} {'eyeriss energy':>15}"]
        for stage in (1, 2, 3):
            row = {field: self.layers[f"plan.stage{stage}.{field}"]
                   for field in STAGE_FIELDS}
            lines.append(
                f"  stage{stage:<2} {row['ms']:>9.4f} {row['macs']:>12.0f} "
                f"{row['gflops']:>9.3f} {row['eyeriss_latency_ms']:>11.4f} "
                f"{row['eyeriss_energy']:>15.4e}")
        return lines

    def close(self) -> None:
        self.plan = None


def workloads(seed: int, work_dir: str) -> Dict[str, ServeWorkload]:
    return {
        "serve-b1": ServeWorkload("serve-b1", 1, None, seed, work_dir),
        "serve-b16-streamed": ServeWorkload(
            "serve-b16-streamed", 16, STREAM_BUDGET, seed, work_dir,
            inputs=4),
    }
