"""Compiled inference plans: bit-identity, arena safety, optimizations.

The headline contract (also asserted by the CI ``tests-deploy`` job under
``REPRO_DEFAULT_DTYPE=float32``): with default options, ``compile(model,
shape)`` produces a plan whose output bytes equal the eager
``Module.__call__`` output bytes for every zoo model, under every
built-in backend (float32 and float64), at batch 1 and batch 8.
"""

from __future__ import annotations

import gc
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.alf_block import ALFConv2d
from repro.core.config import ALFConfig
from repro.core.deploy import CompressedConv2d, compress_model
from repro.deploy import (
    MIN_BAND_ROWS,
    BufferArena,
    InferencePlan,
    band_overrun,
    band_plan,
    compile,
    iter_bands,
)
from repro.deploy.plan import _Node
from repro.deploy.serialize import unpack_container
from repro.deploy.tiling import aligned_band_rows
from repro.models import available_models, bench_input_shape, build_model
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.backend import get_backend, use_backend
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, ReLU
from repro.nn.module import Module, Sequential
from repro.nn.profiler import collect_profile, profile_inference
from repro.nn.tensor import concatenate
from test_generated_models import generated_net, ragged_bands


def _eager(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _compile_and_run(model, shape, batch, backend, seed=0, **kwargs):
    """Compile under ``backend`` and return (plan_out, eager_out, plan)."""
    backend = get_backend(backend)
    with use_backend(backend):
        plan = compile(model, shape, batch=batch, **kwargs)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch,) + shape).astype(plan.input_dtype)
        ref = _eager(model, np.asarray(x, dtype=backend.dtype))
        out = plan(x).data
    return out, ref, plan


# --------------------------------------------------------------------------- #
# Bit-identity across the zoo
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["numpy", "numpy32", "numpy64"])
@pytest.mark.parametrize("name", available_models())
def test_plan_bit_identical_across_zoo(name, backend):
    shape = bench_input_shape(name)
    model = build_model(name, rng=np.random.default_rng(7))
    for batch in (1, 8):
        out, ref, plan = _compile_and_run(model, shape, batch, backend)
        assert out.dtype == ref.dtype
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes(), (
            f"{name} batch={batch} on {backend}: plan diverged from eager")
        assert plan.stats.steps == len(plan.steps) > 0


def _degenerate_gemm_net(seed=0):
    """Convs whose GEMMs are the shapes BLAS may route differently: one
    filter (``o == 1``), a 1x1 stride-2 conv, and a 1x1 spatial output
    (``l == 1``)."""
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(3, 1, 3, padding=1, rng=rng),    # o == 1, input-sized out
        ReLU(),
        Conv2d(1, 4, 1, stride=2, rng=rng),     # 1x1 stride 2, 8x8 out
        Conv2d(4, 5, 8, rng=rng),               # l == 1
    )


@pytest.mark.parametrize("backend", ["numpy32", "numpy64"])
def test_plan_bit_identical_on_degenerate_gemm_shapes(backend):
    model = _degenerate_gemm_net()
    for batch in (1, 3):
        out, ref, _ = _compile_and_run(model, (3, 16, 16), batch, backend)
        assert out.shape == (batch, 5, 1, 1)
        assert out.tobytes() == ref.tobytes(), (
            f"batch={batch} on {backend}: plan diverged from eager")


@pytest.mark.parametrize("backend", ["numpy32", "numpy64"])
def test_streamed_degenerate_gemm_stays_close_to_eager(backend):
    # Four rows of the o == 1 conv's columns: over a 15x15 input it
    # streams in four bands that cannot start at whole GEMM tiles, each
    # GEMM writing a strided slice of the output.
    itemsize = get_backend(backend).dtype.itemsize
    budget = 4 * 3 * 27 * 15 * itemsize
    out, ref, plan = _compile_and_run(_degenerate_gemm_net(), (3, 15, 15), 3,
                                      backend, memory_budget=budget)
    streamed = [s.streamed for s in plan.steps
                if getattr(s, "streamed", None) is not None]
    assert plan.stats.streamed_convs == len(streamed) >= 1
    assert all(s.out_hw[0] >= 2 * s.band_rows for s in streamed)
    assert any(ragged_bands(s) for s in streamed)
    np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-9)


# --------------------------------------------------------------------------- #
# Lowering coverage: one net that lowers every step kind
# --------------------------------------------------------------------------- #
class _CoverageNet(Module):
    """Lowers every step kind: a conv with each fused activation, standalone
    relu/sigmoid/tanh, pad2d, max and avg pool, concatenate, clip,
    transpose/reshape views, a linear layer and a softmax head (max reduce,
    eltwise, generic sum)."""

    def __init__(self, rng):
        super().__init__()
        self.conv_tanh = Conv2d(3, 4, 3, padding=1, rng=rng)
        self.conv_sigmoid = Conv2d(3, 4, 3, rng=rng)
        self.conv_relu = Conv2d(8, 8, 1, rng=rng)
        self.fc = Linear(8 * 4 * 4, 5, rng=rng)

    def forward(self, x):
        a = self.conv_tanh(x).tanh()
        b = self.conv_sigmoid(x.pad2d(1)).sigmoid()
        y = self.conv_relu(concatenate([a, b], axis=1)).relu()
        y = y.clip(-0.5, 0.75)
        p, q = F.max_pool2d(y, 2), F.avg_pool2d(y, 2)
        h = (p - q).relu() + (p * q).sigmoid() + q.tanh()
        h = h.transpose(0, 2, 3, 1).reshape(h.shape[0], -1)
        return F.softmax(self.fc(h), axis=-1)


COVERAGE_SHAPE = (3, 8, 8)
ALL_STEP_KINDS = {"conv", "pad", "concat", "clip", "max_pool", "avg_pool",
                  "eltwise", "relu", "sigmoid", "view", "matmul", "reduce",
                  "generic"}
#: SHA-256 of the saved ``repro-plan/2`` file of the coverage net, keyed by
#: (dtype, batch, streamed); the wire bytes must never drift.
COVERAGE_DIGESTS = {
    ("float32", 1, False):
        "8ac47e9ca8fe2af37763a9f87a5d224a8d08290eda28ab284d9a2a46718e7e26",
    ("float32", 3, False):
        "239f01d31a70e07f6df083554ae143221338dadfac12b38256b2b05a341ce9d6",
    ("float32", 3, True):
        "ad63987834fb63f8604561f5ec3720e9b73c4f2a57bd0c38e9fe24be35bb3f18",
    ("float64", 1, False):
        "b67eacc70a885c76eff23697b2d449cf9f5c842e252dff5bdb181c38c3ff7699",
    ("float64", 3, False):
        "ae10dcd7b31a28079fae53850e74f5384c397c7894a55b1d2abaee724486859f",
    ("float64", 3, True):
        "79635f8d9131c21bf649a475ebfa642c2919c7adab46543840f0f0db54a1e341",
}


def _coverage_net(backend):
    # Parameters take the backend's dtype, so the saved bytes do not depend
    # on REPRO_DEFAULT_DTYPE.
    with use_backend(backend):
        return _CoverageNet(np.random.default_rng(11))


def _coverage_budget(backend, batch):
    # Four of conv_tanh's eight output rows per band: both 3x3 convs stream.
    return 4 * batch * 27 * 8 * backend.dtype.itemsize


def _assert_saved_fixed_point(plan, x, tmp_path, digest):
    first, second = tmp_path / "first.plan", tmp_path / "second.plan"
    plan.save(first)
    loaded = InferencePlan.load(first)
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()
    assert hashlib.sha256(first.read_bytes()).hexdigest() == digest
    assert loaded(x).data.tobytes() == plan(x).data.tobytes()


@pytest.mark.parametrize("backend", ["numpy32", "numpy64"])
def test_coverage_net_lowers_every_kind_bit_identically(backend, tmp_path):
    backend = get_backend(backend)
    model = _coverage_net(backend)
    x3 = np.random.default_rng(5).standard_normal((3,) + COVERAGE_SHAPE)
    x3 = x3.astype(backend.dtype)
    ref3 = _eager(model, x3)
    for batch in (1, 3):
        out, ref, plan = _compile_and_run(model, COVERAGE_SHAPE, batch,
                                          backend)
        assert set(plan.stats.step_counts) == ALL_STEP_KINDS
        assert {s.activation for s in plan.steps if s.kind == "conv"} \
            == {"relu", "tanh", "sigmoid"}
        assert out.tobytes() == ref.tobytes()
        assert plan.bind(3)(x3).data.tobytes() == ref3.tobytes()
        x = x3[:batch]
        _assert_saved_fixed_point(
            plan, x, tmp_path,
            COVERAGE_DIGESTS[str(backend.dtype), batch, False])


@pytest.mark.parametrize("backend", ["numpy32", "numpy64"])
def test_coverage_net_streamed_round_trips(backend, tmp_path):
    backend = get_backend(backend)
    model = _coverage_net(backend)
    budget = _coverage_budget(backend, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, ref, plan = _compile_and_run(model, COVERAGE_SHAPE, 3, backend,
                                          memory_budget=budget)
    assert plan.stats.streamed_convs == 2
    header, _ = unpack_container(plan.to_bytes())
    assert sum("stream" in step for step in json.loads(header)["steps"]) == 2
    np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-9)
    x = np.random.default_rng(0).standard_normal((3,) + COVERAGE_SHAPE)
    _assert_saved_fixed_point(
        plan, x.astype(backend.dtype), tmp_path,
        COVERAGE_DIGESTS[str(backend.dtype), 3, True])


class _InputBiasConv(Module):
    """A conv whose bias is computed from the input, then relu."""

    def __init__(self, rng, channels=3):
        super().__init__()
        self.conv = Conv2d(channels, channels, 3, padding=1, bias=False,
                           rng=rng)

    def forward(self, x):
        bias = x[0, :, 0, 0]
        return F.conv2d(x, self.conv.weight, bias, padding=1).relu()


def test_activation_is_not_fused_into_a_conv_that_stays_generic():
    # The conv cannot specialize (its bias is not a constant), so fusing
    # the relu into it would drop the relu.
    out, ref, plan = _compile_and_run(
        _InputBiasConv(np.random.default_rng(0)), (3, 8, 8), 2, "numpy")
    assert [s.kind for s in plan.steps] == ["view", "generic", "relu"]
    assert out.tobytes() == ref.tobytes()


def test_generic_conv_step_runs_with_grad_mode_off():
    # A generic step runs the op's own forward, which picks its kernel by
    # grad mode: plans run with it off, as eager inference does, so this
    # 16-channel conv takes the shifted GEMM in both.
    out, ref, plan = _compile_and_run(
        _InputBiasConv(np.random.default_rng(0), 16), (16, 8, 8), 2, "numpy")
    assert [s.kind for s in plan.steps] == ["view", "generic", "relu"]
    assert out.tobytes() == ref.tobytes()


def test_compile_frees_its_traced_graphs():
    # Traced graphs hold every traced activation; they must die by
    # reference counting when compile returns, not whenever the cyclic
    # GC happens to run.
    model = _coverage_net(get_backend("numpy"))
    gc.collect()
    gc.disable()
    try:
        plan = compile(model, COVERAGE_SHAPE, batch=2)
        alive = sum(isinstance(o, _Node) for o in gc.get_objects())
    finally:
        gc.enable()
    assert plan.stats.steps > 0
    assert alive == 0


def test_compile_inside_a_profile_is_byte_equal_and_observed():
    """Tracing is one more observer: a profile open around ``compile`` sees
    the conv2d ops of both traces (batch and batch + 1) and the plan bytes
    equal those of a compile without it."""
    model = build_model("lenet", rng=np.random.default_rng(0))
    shape = bench_input_shape("lenet")
    solo = compile(model, shape, batch=2).to_bytes()
    with collect_profile() as eager:
        _eager(model, np.zeros((2,) + shape))
    with collect_profile() as profile:
        plan = compile(model, shape, batch=2)
    assert plan.to_bytes() == solo
    assert profile.ops["conv2d"].calls == 2 * eager.ops["conv2d"].calls > 0
    assert list(profile.layers) == list(eager.layers)


def test_plan_rejects_wrong_shape_and_dtype():
    model = build_model("lenet", rng=np.random.default_rng(0))
    plan = compile(model, (1, 16, 16), batch=2)
    with pytest.raises(ValueError, match="input shape"):
        plan(np.zeros((1, 1, 16, 16), dtype=plan.input_dtype))
    with pytest.raises(ValueError, match="dtype"):
        wrong = "float32" if plan.input_dtype == np.float64 else "float64"
        plan(np.zeros((2, 1, 16, 16), dtype=wrong))


def test_plan_accepts_tensor_input():
    model = build_model("lenet", rng=np.random.default_rng(0))
    plan = compile(model, (1, 16, 16), batch=1)
    x = np.random.default_rng(1).standard_normal((1, 1, 16, 16))
    x = x.astype(plan.input_dtype)
    assert plan(Tensor(x.copy())).data.tobytes() == plan(x).data.tobytes()


# --------------------------------------------------------------------------- #
# Arena safety
# --------------------------------------------------------------------------- #
def test_two_plans_never_alias_buffers():
    model = build_model("plain8", rng=np.random.default_rng(0))
    plan_a = compile(model, (3, 32, 32), batch=2)
    plan_b = compile(model, (3, 32, 32), batch=2)
    ids_a = {id(b) for b in plan_a._arena._buffers}
    ids_b = {id(b) for b in plan_b._arena._buffers}
    assert ids_a and ids_b and not (ids_a & ids_b)

    x = np.random.default_rng(3).standard_normal((2, 3, 32, 32))
    x = x.astype(plan_a.input_dtype)
    out_a = plan_a(x).data
    out_b = plan_b(x).data
    assert out_a.tobytes() == out_b.tobytes()


def test_plan_calls_do_not_leak_state():
    """Reused buffers must not carry one call's data into the next."""
    model = build_model("plain8", rng=np.random.default_rng(0))
    plan = compile(model, (3, 32, 32), batch=1)
    rng = np.random.default_rng(4)
    x1 = rng.standard_normal((1, 3, 32, 32)).astype(plan.input_dtype)
    x2 = rng.standard_normal((1, 3, 32, 32)).astype(plan.input_dtype)
    first = plan(x1).data.copy()
    assert plan(x2).data.tobytes() != first.tobytes()
    assert plan(x1).data.tobytes() == first.tobytes()


def test_plan_output_is_a_copy():
    model = build_model("lenet", rng=np.random.default_rng(0))
    plan = compile(model, (1, 16, 16), batch=1)
    x = np.zeros((1, 1, 16, 16), dtype=plan.input_dtype)
    out = plan(x)
    snapshot = out.data.copy()
    plan(np.ones_like(x))  # overwrite arena buffers
    assert out.data.tobytes() == snapshot.tobytes()


def test_arena_rejects_stale_ref_release():
    """reserve→release→reserve→release must not alias two live values.

    The old check only caught a ref already sitting in the free list; a
    stale ref whose buffer had been recycled to a newer value slipped
    through and pushed the *live* value's buffer back into the pool.
    """
    arena = BufferArena()
    first = arena.reserve((4,), np.float64)
    arena.release(first)
    second = arena.reserve((2,), np.float64)
    assert second.buffer == first.buffer  # best-fit recycled the slot
    with pytest.raises(ValueError, match="re-reserved"):
        arena.release(first)  # stale handle: its buffer now backs `second`
    arena.release(second)  # the true owner still releases fine
    with pytest.raises(ValueError, match="released twice"):
        arena.release(second)


def test_arena_shares_zero_bordered_scratch_per_interior():
    arena = BufferArena()
    first = arena.shared_zeros_array((2, 3, 6, 6), np.float32, (1, 1))
    again = arena.shared_zeros_array((2, 3, 6, 6), np.float32, (1, 1))
    other = arena.shared_zeros_array((2, 3, 6, 6), np.float32, (2, 2))
    wider = arena.shared_zeros_array((2, 3, 6, 6), np.float64, (1, 1))
    assert again is first
    assert other is not first and wider is not first
    assert not first.any()
    arena.finalize()
    assert arena.stats.peak_bytes == 2 * first.nbytes + wider.nbytes
    assert arena.stats.naive_bytes == 3 * first.nbytes + wider.nbytes


def test_arena_reuse_beats_naive_allocation():
    plan = compile(build_model("plain20", rng=np.random.default_rng(0)),
                   (3, 32, 32), batch=2)
    stats = plan.stats.arena
    assert stats.peak_bytes == plan.peak_buffer_bytes > 0
    assert stats.reuse_ratio > 1.5  # deep chains should recycle heavily


# --------------------------------------------------------------------------- #
# Streaming convolution under a memory budget
# --------------------------------------------------------------------------- #
def _streamed(plan):
    return [s.streamed for s in plan.steps if s.streamed is not None]


def test_streaming_reduces_peak_memory():
    # A 30x30 input gives stage 2 a ragged 15-wide output: the stride-2
    # conv into it keeps im2col and streams in bands that cut GEMM tiles.
    model = build_model("resnet20", rng=np.random.default_rng(0))
    full = compile(model, (3, 30, 30), batch=4)
    tight = compile(model, (3, 30, 30), batch=4, memory_budget=200_000)
    assert tight.stats.streamed_convs > 0
    assert any(ragged_bands(s) for s in _streamed(tight))
    assert tight.peak_buffer_bytes < full.peak_buffer_bytes

    x = np.random.default_rng(5).standard_normal((4, 3, 30, 30))
    x = x.astype(full.input_dtype)
    ref = full(x).data
    np.testing.assert_allclose(tight(x).data, ref, rtol=1e-6, atol=1e-9)


#: resnet20's stride-1 3x3 convs over at least 16 channels, dense or ALF
#: (whose 1x1 expansion convs keep their direct GEMM): every 3x3 conv but
#: the stem and the two stride-2 convs, which keep im2col as the two
#: stride-2 1x1 shortcuts do.
RESNET20_SHIFTED = [f"ResNetCIFAR.layers.layer{block}.conv{conv}"
                    for block in range(9) for conv in (1, 2)
                    if (block, conv) not in ((3, 1), (6, 1))]


def _alf_report(dtype=None):
    """ALF resnet20 compressed at the Table II operating point."""
    import repro.api as api

    return api.compress(
        "resnet20", method="alf", hardware=None, seed=1, dtype=dtype,
        config=api.ALFSpec(stage_remaining=api.ALF_TABLE2_STAGE_REMAINING))


def _alf_resnet20():
    return _alf_report().model


def _shifted_layers(plan):
    return [s.layer for s in plan.steps if "acc_ref" in s.refs]


@pytest.mark.parametrize("method", ["dense", "alf"])
def test_resnet20_shifted_convs_skip_im2col(method):
    if method == "dense":
        model = build_model("resnet20", rng=np.random.default_rng(0))
    else:
        model = _alf_resnet20()
    plan = compile(model, (3, 32, 32), batch=2)
    assert _shifted_layers(plan) == RESNET20_SHIFTED
    im2col = {s.layer for s in plan.steps if "cols_ref" in s.refs}
    assert im2col == {"ResNetCIFAR.stem_conv",
                      "ResNetCIFAR.layers.layer3.conv1",
                      "ResNetCIFAR.layers.layer3.shortcut.layer0",
                      "ResNetCIFAR.layers.layer6.conv1",
                      "ResNetCIFAR.layers.layer6.shortcut.layer0"}
    x = np.random.default_rng(4).standard_normal((2, 3, 32, 32))
    x = x.astype(plan.input_dtype)
    assert plan(x).data.tobytes() == _eager(model, x).tobytes()


def test_alf_resnet20_streamed_batch16_plan_is_bit_identical():
    """The serving configuration: shifted convs are never banded, and the
    convs that still stream (the stem, one stride-2 conv) cut every band
    at a whole GEMM tile, so compile, save → load and bind all equal
    eager bit for bit."""
    report = _alf_report("float32")
    model = report.model
    x = np.random.default_rng(16).standard_normal((16, 3, 32, 32))
    x = x.astype(np.float32)
    ref, ref3 = _eager(model, x), _eager(model, x[:3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = report.plan(batch=16, memory_budget=1_250_000)
        served = report.plan(batch=1, memory_budget=1_250_000).bind(16)
    assert [s.layer for s in plan.steps if s.streamed is not None] == [
        "ResNetCIFAR.stem_conv", "ResNetCIFAR.layers.layer3.conv1"]
    assert not any(ragged_bands(s) for s in _streamed(plan))
    assert plan(x).data.tobytes() == ref.tobytes()
    assert served(x).data.tobytes() == ref.tobytes()
    data = plan.to_bytes()
    loaded = InferencePlan.from_bytes(data)
    assert loaded.to_bytes() == data
    assert loaded(x).data.tobytes() == ref.tobytes()
    assert loaded.bind(3)(x[:3]).data.tobytes() == ref3.tobytes()


def test_band_plan_respects_budget_and_floor():
    row = 10_000
    assert band_plan(32, row, None) == 32
    assert band_plan(32, row, 40_000) == 4
    # floor: never stream below MIN_BAND_ROWS
    assert band_plan(32, row, 1) == MIN_BAND_ROWS
    # bands are cut at whole GEMM column tiles where the rows allow
    assert aligned_band_rows(5, 8) == 4
    assert aligned_band_rows(14, 32) == 14
    assert aligned_band_rows(6, 6) == 6  # no aligned count: keep the plan's
    bands = list(iter_bands(10, 4))
    assert bands[0] == (0, 4) and bands[-1][1] == 10
    assert sum(hi - lo for lo, hi in bands) == 10


def _budget_warnings(captured):
    return [w for w in captured if "MIN_BAND_ROWS" in str(w.message)]


def test_unachievable_budget_warns_and_reports_achievable_peak():
    """When the MIN_BAND_ROWS floor wins over memory_budget, the plan must
    say so (UserWarning naming the layer and the floor) and record the
    peak it actually achieves, instead of silently exceeding the budget."""
    assert band_overrun(4, 10_000, None) == 0
    assert band_overrun(4, 10_000, 50_000) == 0
    assert band_overrun(MIN_BAND_ROWS, 10_000, 1) == MIN_BAND_ROWS * 10_000 - 1
    model = build_model("resnet20", rng=np.random.default_rng(0))
    with pytest.warns(UserWarning, match="MIN_BAND_ROWS") as captured:
        plan = compile(model, (3, 30, 30), batch=4, memory_budget=1)
    assert any("not achievable for conv layer" in str(w.message)
               for w in captured)
    assert plan.stats.streamed_convs > 0
    assert any(ragged_bands(s) for s in _streamed(plan))
    assert plan.stats.streaming_peak_bytes > 1  # the honest peak, not the ask
    # The warning names the caller's line, however deep compile, bind or
    # report.plan reached the lowering.
    assert {w.filename for w in _budget_warnings(captured)} == {__file__}
    with pytest.warns(UserWarning, match="MIN_BAND_ROWS") as captured:
        plan.bind(2)
    assert {w.filename for w in _budget_warnings(captured)} == {__file__}
    from repro.api import compress
    report = compress("lenet", method="alf", hardware_batch=2, hardware=None)
    with pytest.warns(UserWarning, match="MIN_BAND_ROWS") as captured:
        report.plan(memory_budget=1)
    assert {w.filename for w in _budget_warnings(captured)} == {__file__}


# --------------------------------------------------------------------------- #
# Graph optimizations
# --------------------------------------------------------------------------- #
def test_fold_bn_shrinks_plan_and_stays_close():
    # Both plans have one step per conv: the default plan runs each frozen
    # BN as four in-place epilogue ops of its conv step, the folded plan
    # bakes exactly those ops into the conv weights.
    model = build_model("resnet20", rng=np.random.default_rng(0))
    plain = compile(model, (3, 32, 32), batch=2)
    folded = compile(model, (3, 32, 32), batch=2, fold_bn=True)
    program = plain._program
    affine = sum(program.values[index]["const"] is not None
                 for node in program.nodes
                 for _, index, _ in node.get("epilogue", []))
    assert folded.stats.folded_ops > 0
    assert affine == folded.stats.folded_ops
    assert folded.stats.epilogue_ops == plain.stats.epilogue_ops - affine

    x = np.random.default_rng(6).standard_normal((2, 3, 32, 32))
    x = x.astype(plain.input_dtype)
    # folding re-associates the BN affine into the conv weights, so the
    # tolerance scales with the working precision
    rtol = 1e-4 if plain.input_dtype == np.float32 else 1e-6
    np.testing.assert_allclose(folded(x).data, plain(x).data,
                               rtol=rtol, atol=rtol * 1e-2)


def test_bn_freeze_makes_plan_static():
    """Inference-mode BN statistics are frozen into plan constants."""
    model = Sequential(Conv2d(3, 4, 3, rng=np.random.default_rng(0)),
                       BatchNorm2d(4), ReLU())
    out, ref, plan = _compile_and_run(model, (3, 8, 8), 1, "numpy")
    assert out.tobytes() == ref.tobytes()
    assert plan.stats.frozen_consts > 0


def test_compressed_conv_lowers_to_two_fused_steps():
    rng = np.random.default_rng(2)
    block = CompressedConv2d(
        code_weight=rng.standard_normal((6, 3, 3, 3)),
        expansion_weight=rng.standard_normal((10, 6, 1, 1)),
        stride=1, padding=1, bias=rng.standard_normal(10),
        sigma_inter="relu",
    )
    out, ref, plan = _compile_and_run(block, (3, 12, 12), 2, "numpy")
    conv_steps = [s for s in plan.steps if s.op_name == "conv2d"]
    assert len(conv_steps) == 2
    assert conv_steps[0].activation == "relu"
    assert conv_steps[1].activation is None
    assert out.tobytes() == ref.tobytes()


# --------------------------------------------------------------------------- #
# Conv epilogues: frozen BN, residual add and activation inside the conv step
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name, steps", [("dense", 25), ("alf", 44)])
def test_resnet20_plans_run_one_step_per_conv(name, steps):
    # Every BN, residual add and relu rides in a conv step; only the pooled
    # head (sum, scale, matmul, bias) stays separate.
    model = (build_model("resnet20", rng=np.random.default_rng(0))
             if name == "dense" else _alf_resnet20())
    out, ref, plan = _compile_and_run(model, (3, 32, 32), 2, "numpy32")
    assert plan.stats.steps == steps
    assert plan.stats.step_counts["conv"] == steps - 4
    assert out.tobytes() == ref.tobytes()


def _const(shape, value, dtype):
    return Tensor(np.full(shape, value, dtype=dtype), dtype=dtype)


class _LateResidual(Module):
    """A shortcut conv traced before the main-path conv it is added to."""

    def __init__(self, rng):
        super().__init__()
        self.shortcut = Conv2d(3, 4, 1, rng=rng)
        self.bn = BatchNorm2d(4)
        self.conv = Conv2d(3, 4, 3, padding=1, rng=rng)

    def forward(self, x):
        identity = self.bn(self.shortcut(x))
        return (identity + self.conv(x)).relu()


class _SharedBN(Module):
    """A BN output read twice: by a relu and by an add."""

    def __init__(self, rng):
        super().__init__()
        self.conv = Conv2d(3, 4, 3, rng=rng)
        self.bn = BatchNorm2d(4)

    def forward(self, x):
        y = self.bn(self.conv(x))
        return y.relu() + y


class _ConstOverConv(Module):
    """``const / conv(x)``: the conv value is the divisor."""

    def __init__(self, rng):
        super().__init__()
        self.conv = Conv2d(3, 4, 3, rng=rng)
        self.conv.bias.data[...] = 1.0  # no division by zero in the trace

    def forward(self, x):
        out = self.conv(x)
        return _const((1, 4, 1, 1), 2.0, out.data.dtype) / out


class _PromotingScale(Module):
    """A float64 per-channel scale on a float32 conv promotes the result."""

    def __init__(self, rng):
        super().__init__()
        self.conv = Conv2d(3, 4, 3, rng=rng)

    def forward(self, x):
        return self.conv(x) * _const((1, 4, 1, 1), 0.5, np.float64)


def _epilogues(plan):
    return [(s.epilogue, s.activation) for s in plan.steps
            if s.kind == "conv"]


def test_residual_computed_after_the_conv_is_not_absorbed():
    model = _LateResidual(np.random.default_rng(3))
    out, ref, plan = _compile_and_run(model, (3, 6, 6), 2, "numpy32")
    # The shortcut keeps its BN but stops at the add, whose other operand
    # is computed later; the main-path conv takes the add and the relu.
    assert _epilogues(plan) == [(("mul", "add"), None),
                                (("add",), "relu")]
    assert plan.stats.steps == 2
    assert out.tobytes() == ref.tobytes()
    x = np.random.default_rng(4).standard_normal((3, 3, 6, 6))
    x = x.astype(np.float32)
    assert (InferencePlan.from_bytes(plan.to_bytes()).bind(3)(x).data.tobytes()
            == _eager(model, x).tobytes())


@pytest.mark.parametrize("model, epilogues, kinds", [
    (_SharedBN, [(("mul", "add"), None)],
     ["conv", "relu", "eltwise"]),
    (_ConstOverConv, [((), None)], ["conv", "eltwise"]),
    (_PromotingScale, [((), None)], ["conv", "eltwise"]),
], ids=["shared-bn-output", "const-over-conv", "promoting-const"])
def test_ops_that_cannot_run_in_place_stay_separate(model, epilogues, kinds):
    with use_backend(get_backend("numpy32")):  # float32 parameters
        model = model(np.random.default_rng(5))
    out, ref, plan = _compile_and_run(model, (3, 6, 6), 2, "numpy32")
    assert _epilogues(plan) == epilogues
    assert [s.kind for s in plan.steps] == kinds
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("backend", ["numpy32", "numpy64"])
def test_biased_conv_with_batch_norm_keeps_eager_bits(backend):
    # Biased convs, shifted (16 channels in) and im2col, each with a BN
    # whose scale and shift fuse as the (mul, add) epilogue after the
    # bias add, at batch 1 and bound to batch 4.
    rng = np.random.default_rng(9)
    with use_backend(get_backend(backend)):
        model = Sequential(Conv2d(3, 16, 3, padding=1, rng=rng),
                           BatchNorm2d(16), ReLU(),
                           Conv2d(16, 16, 3, padding=1, rng=rng),
                           BatchNorm2d(16))
        for module in model.modules():
            if isinstance(module, BatchNorm2d):
                module.running_mean[...] = rng.standard_normal(16)
                module.running_var[...] = rng.random(16) + 0.5
    out, ref, plan = _compile_and_run(model, (3, 7, 7), 1, backend)
    assert _epilogues(plan) == [(("mul", "add"), "relu"),
                                (("mul", "add"), None)]
    assert out.tobytes() == ref.tobytes()
    x = rng.standard_normal((4, 3, 7, 7)).astype(plan.input_dtype)
    assert plan.bind(4)(x).data.tobytes() == _eager(model, x).tobytes()


#: A generated net (seed 7: conv → BN, residual conv → BN) in float32 at
#: batch 2, saved before conv epilogues existed: its BN chains and residual
#: add are separate eltwise steps in the stored program, and each BN is the
#: composed (add, div, mul, add) chain eval batch norm was then.
PRE_EPILOGUE_PLAN = (Path(__file__).parent / "data"
                     / "generated-seed7-float32.repro-plan-2.plan")
#: SHA-256 of the stored program's outputs on ``x[:2]`` and, bound to batch
#: 3, on ``x``: the bytes it gave when it was eager's, before eval batch
#: norm became one affine.  A stored program runs the ops it stores, so it
#: is held to its own bytes, not to today's eager.
PRE_EPILOGUE_DIGESTS = (
    "3eb79599f952071dade81f7aa464e7404c89c3f973913b683c91ae2500c642ad",
    "da57a72103303c614a37cd626a9666d69e5586a87bec231e7e5598c854a399cc")


def _sha256(tensor) -> str:
    return hashlib.sha256(tensor.data.tobytes()).hexdigest()


def test_plan_saved_before_epilogues_loads_bit_identically():
    backend = get_backend("numpy32")
    model, shape = generated_net(7, backend)
    data = PRE_EPILOGUE_PLAN.read_bytes()
    loaded = InferencePlan.from_bytes(data)
    assert loaded.to_bytes() == data
    assert loaded.stats.step_counts == {"conv": 4, "eltwise": 9, "relu": 1}
    x = np.random.default_rng(8).standard_normal((3,) + shape)
    x = x.astype(backend.dtype)
    assert (_sha256(loaded(x[:2])), _sha256(loaded.bind(3)(x))
            ) == PRE_EPILOGUE_DIGESTS
    with use_backend(backend):
        fresh = compile(model, shape, batch=2)
    assert fresh.stats.steps == 5
    assert fresh(x[:2]).data.tobytes() == _eager(model, x[:2]).tobytes()
    assert fresh.bind(3)(x).data.tobytes() == _eager(model, x).tobytes()


def test_compression_result_compile():
    rng = np.random.default_rng(0)
    model = Sequential(
        ALFConv2d(1, 8, 3, config=ALFConfig(), padding=1, rng=rng),
        ReLU(),
    )
    result = compress_model(model)
    plan = compile(result.model, (1, 10, 10), batch=2)
    x = rng.standard_normal((2, 1, 10, 10)).astype(plan.input_dtype)
    assert plan(x).data.tobytes() == _eager(result.model, x).tobytes()


# --------------------------------------------------------------------------- #
# Profiler integration
# --------------------------------------------------------------------------- #
def test_profile_inference_attributes_plan_steps_to_layers():
    model = build_model("lenet", rng=np.random.default_rng(0))
    plan = compile(model, (1, 16, 16), batch=2)
    profile = profile_inference(plan, (1, 16, 16))
    assert profile.total_calls == plan.stats.steps
    layers = profile.layers
    # plan steps carry the module dot-paths the eager profiler would use
    eager = profile_inference(model, (1, 16, 16), batch=2)
    assert set(layers) <= set(eager.layers) | {""}
    assert any(name for name in layers if name)


def test_profile_inference_rejects_mismatched_plan_shape():
    model = build_model("lenet", rng=np.random.default_rng(0))
    plan = compile(model, (1, 16, 16), batch=1)
    with pytest.raises(ValueError, match="compiled for input shape"):
        profile_inference(plan, (1, 8, 8))


# --------------------------------------------------------------------------- #
# API entry point
# --------------------------------------------------------------------------- #
def test_api_compile_report_round_trip():
    from repro.api import compile_report, compress

    report = compress("lenet", method="alf", hardware_batch=2, hardware=None)
    plan = report.plan()
    assert plan.batch == 2
    assert plan.input_shape == (1, 16, 16)
    x = np.random.default_rng(9).standard_normal((2, 1, 16, 16))
    x = x.astype(plan.input_dtype)
    assert plan(x).data.tobytes() == _eager(report.model, x).tobytes()

    small = compile_report(report, batch=1)
    assert small.batch == 1


def test_api_compile_report_honors_spec_dtype():
    from repro.api import compress

    report = compress("lenet", method="alf", hardware_batch=1,
                      dtype="float32", hardware=None)
    assert report.plan().input_dtype == np.float32


# --------------------------------------------------------------------------- #
# Step specialization coverage
# --------------------------------------------------------------------------- #
def test_linear_head_lowers_to_specialized_matmul():
    # lenet covers conv -> flatten -> linear; the dense head must lower to
    # a specialized (out=) matmul step rather than a generic fallback.
    plan = compile(build_model("lenet", rng=np.random.default_rng(0)),
                   (1, 16, 16), batch=2)
    assert plan.stats.step_counts.get("matmul", 0) >= 1
    assert plan.stats.specialized > plan.stats.generic
