"""Microbenchmark: compiled InferencePlan vs eager Module forward.

The deploy subsystem's acceptance criteria:

* ``plan_speedup`` — a compiled plan's steady-state forward must beat the
  eager ``no_grad()`` forward of the same model (no per-call allocation,
  constants frozen, activations fused).  CI asserts >= 1.0; the target
  for this benchmark is > 1.3x.
* ``streaming_peak_ratio`` — the row-banded convolution path under a
  ``memory_budget`` must shrink the arena's preallocated peak on a deep
  model (< 1.0 means smaller than the unbudgeted plan).
* ``load_vs_compile_speedup`` — loading a ``repro-plan/2`` container
  (``InferencePlan.from_bytes``) must be cheaper than re-tracing and
  re-compiling the model (that is the point of the plan store; CI asserts
  >= 2.0), and the loaded plan's forward must stay bit-identical to the
  original's.  ``plan_payload_bytes`` is the container's size.
"""

from __future__ import annotations

import time

import numpy as np

from repro.deploy import InferencePlan, compile as compile_plan
from repro.models import build_model
from repro.nn.tensor import Tensor, no_grad

ROUNDS = 7
WARMUP = 2

#: Model / batch where Python-dispatch and allocation overhead dominate the
#: GEMM work — the regime compiled plans are built for (deploy-time single
#: stream inference).
MODEL = "resnet20"
INPUT_SHAPE = (3, 32, 32)
BATCH = 1

#: Deep model used to demonstrate the streaming conv memory reduction.
STREAM_MODEL = "resnet20"
STREAM_BATCH = 4
STREAM_BUDGET = 200_000


def _median_seconds(fn, rounds: int = ROUNDS) -> float:
    for _ in range(WARMUP):
        fn()
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def _plan_vs_module():
    rng = np.random.default_rng(0)
    model = build_model(MODEL, rng=rng)
    x = rng.standard_normal((BATCH,) + INPUT_SHAPE)

    plan = compile_plan(model, INPUT_SHAPE, batch=BATCH)
    xt = Tensor(x.astype(plan.input_dtype))
    xp = x.astype(plan.input_dtype)

    model.eval()
    with no_grad():
        ref = model(xt).data
    assert plan(xp).data.tobytes() == ref.tobytes()

    def eager():
        with no_grad():
            return model(xt)

    eager_seconds = _median_seconds(eager)
    plan_seconds = _median_seconds(lambda: plan(xp))

    # Streaming: same deep model, tight im2col budget.
    stream_model = build_model(STREAM_MODEL, rng=np.random.default_rng(0))
    full = compile_plan(stream_model, INPUT_SHAPE, batch=STREAM_BATCH)
    tight = compile_plan(stream_model, INPUT_SHAPE, batch=STREAM_BATCH,
                         memory_budget=STREAM_BUDGET)

    # Serialization: loading the container vs recompiling from the model.
    payload = plan.to_bytes()
    loaded = InferencePlan.from_bytes(payload)
    assert loaded(xp).data.tobytes() == ref.tobytes(), (
        "loaded plan diverged from eager")
    compile_seconds = _median_seconds(
        lambda: compile_plan(model, INPUT_SHAPE, batch=BATCH), rounds=3)
    load_seconds = _median_seconds(
        lambda: InferencePlan.from_bytes(payload), rounds=3)

    return {
        "compile_seconds": compile_seconds,
        "load_seconds": load_seconds,
        "load_vs_compile_speedup": compile_seconds / load_seconds,
        "plan_payload_bytes": len(payload),
        "eager_seconds": eager_seconds,
        "plan_seconds": plan_seconds,
        "plan_speedup": eager_seconds / plan_seconds,
        "plan_steps": plan.stats.steps,
        "fused_activations": plan.stats.fused_activations,
        "epilogue_ops": plan.stats.epilogue_ops,
        "arena_reuse_ratio": plan.stats.arena.reuse_ratio,
        "peak_buffer_bytes": full.peak_buffer_bytes,
        "streaming_peak_buffer_bytes": tight.peak_buffer_bytes,
        "streaming_peak_ratio": tight.peak_buffer_bytes / full.peak_buffer_bytes,
        "streamed_convs": tight.stats.streamed_convs,
    }


def test_bench_plan_forward(benchmark, once, metric):
    result = once(benchmark, _plan_vs_module)

    print(f"\n{MODEL} batch={BATCH}: eager {result['eager_seconds'] * 1e3:.2f} ms"
          f" -> plan {result['plan_seconds'] * 1e3:.2f} ms"
          f" ({result['plan_speedup']:.2f}x, {result['plan_steps']} steps,"
          f" {result['fused_activations']} fused activations,"
          f" {result['epilogue_ops']} epilogue ops,"
          f" arena reuse {result['arena_reuse_ratio']:.2f}x)")
    print(f"streaming {STREAM_MODEL} batch={STREAM_BATCH}"
          f" budget={STREAM_BUDGET}: peak"
          f" {result['peak_buffer_bytes'] / 1e6:.2f} MB ->"
          f" {result['streaming_peak_buffer_bytes'] / 1e6:.2f} MB"
          f" ({result['streaming_peak_ratio']:.2f}x,"
          f" {result['streamed_convs']} streamed convs)")
    print(f"serialization: compile {result['compile_seconds'] * 1e3:.1f} ms"
          f" vs load {result['load_seconds'] * 1e3:.1f} ms"
          f" ({result['load_vs_compile_speedup']:.2f}x,"
          f" {result['plan_payload_bytes'] / 1e6:.2f} MB payload)")

    metric("plan_speedup", round(result["plan_speedup"], 3))
    metric("eager_seconds", round(result["eager_seconds"], 6))
    metric("plan_seconds", round(result["plan_seconds"], 6))
    metric("arena_reuse_ratio", round(result["arena_reuse_ratio"], 3))
    metric("peak_buffer_bytes", int(result["peak_buffer_bytes"]))
    metric("streaming_peak_buffer_bytes",
           int(result["streaming_peak_buffer_bytes"]))
    metric("streaming_peak_ratio", round(result["streaming_peak_ratio"], 3))
    metric("streamed_convs", int(result["streamed_convs"]))
    metric("compile_seconds", round(result["compile_seconds"], 6))
    metric("load_seconds", round(result["load_seconds"], 6))
    metric("load_vs_compile_speedup",
           round(result["load_vs_compile_speedup"], 3))
    metric("plan_payload_bytes", int(result["plan_payload_bytes"]))

    assert result["plan_speedup"] >= 1.0, (
        "compiled plan slower than eager forward")
    assert result["streaming_peak_ratio"] < 1.0, (
        "memory budget did not reduce preallocated peak")
