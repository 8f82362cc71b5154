"""The ``repro-plan/2`` container: save/load bit-identity, batch
re-binding, cache-served plans, and plan shipping over ``repro-job/1``.

The contracts pinned here:

* ``plan.save()`` / ``InferencePlan.load()`` round-trip every zoo model
  **bit-identically** in float32 and float64 — the loaded plan's output
  bytes equal the original plan's (and therefore eager's).
* Tampered headers, stale weights digests, unknown schema versions and
  every structural mutation of the container are rejected with specific
  errors, never silently accepted; loaded constants are read-only.
* ``plan.bind(batch=k)`` serves k ∈ {1, 4, 8} from one compiled program
  without re-tracing the model, and bound batches auto-dispatch through
  the parent plan's ``__call__``.
* ``compile_report(cache=...)`` stores / serves serialized plans through
  the content-addressed store (damage → warning + recompile).
* A ``repro-job/1`` worker executing a shipped plan returns bytes equal
  to the sender's local forward.
"""

from __future__ import annotations

import gc
import io
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.api.jobs import array_from_payload, array_to_payload
from repro.deploy import InferencePlan, PLAN_SCHEMA, compile
from repro.deploy.serialize import pack_container, unpack_container
from repro.models import available_models, bench_input_shape, build_model
from repro.nn import Tensor, no_grad
from repro.nn.backend import get_backend, use_backend
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module

INPUT_SHAPE = (1, 16, 16)  # lenet's native geometry


def _eager(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _lenet_plan(batch=2, backend="numpy64", seed=0, **kwargs):
    model = build_model("lenet", rng=np.random.default_rng(seed))
    with use_backend(backend):
        plan = compile(model, INPUT_SHAPE, batch=batch, **kwargs)
    return model, plan


def _input(plan, batch=None, seed=1):
    rng = np.random.default_rng(seed)
    shape = ((batch or plan.batch),) + plan.input_shape
    return rng.standard_normal(shape).astype(plan.input_dtype)


# --------------------------------------------------------------------------- #
# Save / load bit-identity across the zoo
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["numpy32", "numpy64"])
@pytest.mark.parametrize("name", available_models())
def test_saved_plan_round_trips_bit_identical(name, backend, tmp_path):
    shape = bench_input_shape(name)
    model = build_model(name, rng=np.random.default_rng(7))
    with use_backend(backend):
        plan = compile(model, shape, batch=2)
    path = tmp_path / f"{name}.plan"
    plan.save(path)
    loaded = InferencePlan.load(path)
    x = _input(plan)
    assert loaded.batch == plan.batch
    assert loaded.input_shape == plan.input_shape
    assert loaded.input_dtype == plan.input_dtype
    assert loaded(x).data.tobytes() == plan(x).data.tobytes(), (
        f"{name} on {backend}: loaded plan diverged from the original")
    assert loaded(x).data.tobytes() == _eager(
        model, np.asarray(x, dtype=get_backend(backend).dtype)).tobytes()


def test_payload_is_a_canonical_fixed_point(tmp_path):
    _, plan = _lenet_plan()
    data = plan.to_bytes()
    header, _ = _split(data)
    assert header["schema"] == PLAN_SCHEMA
    assert InferencePlan.from_bytes(data).to_bytes() == data
    # On-disk form too: save → load → save is byte-equal.
    first, second = tmp_path / "a.plan", tmp_path / "b.plan"
    plan.save(first)
    InferencePlan.load(first).save(second)
    assert first.read_bytes() == second.read_bytes() == data


# --------------------------------------------------------------------------- #
# Rejection: tampering, stale digests, unknown versions, mutated containers
# --------------------------------------------------------------------------- #
def _container():
    return _lenet_plan()[1].to_bytes()


def _split(data):
    """``(parsed header, blob bytes)`` of a container."""
    header, blob = unpack_container(data)
    return json.loads(header), bytes(blob)


def _edit(data, change):
    """Re-pack a container after ``change(header)``: valid digests, edited
    content."""
    header, blob = _split(data)
    change(header)
    return pack_container(header, blob)


def test_tampered_payload_is_rejected():
    data = bytearray(_container())
    at = data.index(b'"op":"conv2d"')
    data[at + 6:at + 12] = b"relu__"  # flip an op behind the header digest
    with pytest.raises(ValueError, match="header digest mismatch"):
        InferencePlan.from_bytes(bytes(data))


def test_stale_weights_digest_is_rejected():
    data = bytearray(_container())
    data[-1] ^= 0x01  # one weight bit
    with pytest.raises(ValueError, match="blob digest mismatch"):
        InferencePlan.from_bytes(bytes(data))


def test_unknown_schema_version_is_rejected():
    data = _edit(_container(),
                 lambda header: header.update(schema="repro-plan/99"))
    with pytest.raises(ValueError, match="unsupported plan schema"):
        InferencePlan.from_bytes(data)
    with pytest.raises(TypeError):
        InferencePlan.from_bytes("not bytes")


def test_tampered_stored_layout_is_rejected():
    data = _container()
    spliced = data.replace(b'"capacities":[', b'"capacities":[1', 1)
    with pytest.raises(ValueError, match="header digest mismatch"):
        InferencePlan.from_bytes(spliced[:len(data)])

    def grow(header):
        header["arena"]["capacities"][0] += 8
    with pytest.raises(ValueError, match="layout mismatch"):
        InferencePlan.from_bytes(_edit(data, grow))


def test_v1_payload_fails_with_the_uniform_schema_error():
    legacy = Path(__file__).parent / "data" / "lenet.repro-plan-1.json"
    with pytest.raises(ValueError, match="unsupported plan schema "
                       "'repro-plan/1': expected 'repro-plan/2'"):
        InferencePlan.from_bytes(legacy.read_bytes())
    with pytest.raises(ValueError, match="unsupported plan schema"):
        InferencePlan.load(legacy)


def test_loaded_constants_are_read_only():
    loaded = InferencePlan.from_bytes(bytearray(_container()))
    consts = loaded._program.consts
    assert consts and not any(array.flags.writeable for array in consts)
    with pytest.raises(ValueError, match="read-only"):
        consts[0][...] = 0


def test_loaded_constants_keep_their_memory_order():
    # The linear head's weight is traced as a transposed (F-order) view.
    _, plan = _lenet_plan()
    loaded = InferencePlan.from_bytes(plan.to_bytes())
    pairs = list(zip(plan._program.consts, loaded._program.consts))
    assert any(a.flags.f_contiguous and not a.flags.c_contiguous
               for a, _ in pairs)
    for original, restored in pairs:
        assert restored.dtype == original.dtype
        assert restored.shape == original.shape
        assert restored.flags.f_contiguous == original.flags.f_contiguous
        assert restored.flags.c_contiguous == original.flags.c_contiguous
        assert restored.tobytes(order="A") == original.tobytes(order="A")


def _regions(data):
    """``(header length, header end, blob start)`` of a container."""
    length = int.from_bytes(data[8:16], "little")
    header_end = 80 + length
    return length, header_end, -(-header_end // 64) * 64


def _flip(data, at):
    out = bytearray(data)
    out[at] ^= 0x20
    return bytes(out)


def _with_length(data, length):
    return data[:8] + length.to_bytes(8, "little") + data[16:]


#: name -> (mutate container bytes, expected ValueError message).
BYTE_MUTATIONS = {
    "truncated-prefix": (lambda d: d[:40], "truncated inside its"),
    "truncated-header": (lambda d: d[:80 + _regions(d)[0] // 2],
                         "truncated: the prefix declares"),
    "truncated-padding": (lambda d: d[:_regions(d)[1] + 1],
                          "truncated inside the padding"),
    "truncated-blob": (lambda d: d[:(_regions(d)[2] + len(d)) // 2],
                       "blob digest mismatch"),
    "empty": (lambda d: b"", "unreadable"),
    "flip-magic": (lambda d: _flip(d, 0), "unreadable"),
    "flip-length": (lambda d: _flip(d, 8), "header digest mismatch"),
    "flip-header-digest": (lambda d: _flip(d, 20), "header digest mismatch"),
    "flip-blob-digest": (lambda d: _flip(d, 60), "blob digest mismatch"),
    "flip-header": (lambda d: _flip(d, 80 + _regions(d)[0] // 3),
                    "header digest mismatch"),
    "flip-padding": (lambda d: _flip(d, _regions(d)[1]),
                     "padding is not zero"),
    "flip-blob": (lambda d: _flip(d, _regions(d)[2] + 5),
                  "blob digest mismatch"),
    "length-too-long": (lambda d: _with_length(d, _regions(d)[0] + 64),
                        "header digest mismatch"),
    "length-too-short": (lambda d: _with_length(d, _regions(d)[0] - 1),
                         "header digest mismatch"),
    "length-past-end": (lambda d: _with_length(d, 2 ** 63),
                        "truncated: the prefix declares"),
    "appended": (lambda d: d + bytes(64), "blob digest mismatch"),
}


def _const(index, **fields):
    return lambda header: header["consts"][index].update(fields)


def _reinterpret_as_bytes(header):
    # Same bytes, read as uint8: the table is consistent, the graph value
    # it feeds is not.
    entry = header["consts"][0]
    entry.update(dtype="|u1", shape=[entry["nbytes"]])


def _shift_after_first(header):
    for entry in header["consts"][1:]:
        entry["offset"] += 64


def _conv_kwarg(key, encoded):
    """Re-encode kwarg ``key`` of the first conv node as ``encoded``."""
    def change(header):
        node = next(n for n in header["nodes"] if n["op"] == "conv2d")
        node["kwargs"][key] = encoded
    return change


def _fusion(op, **fields):
    """Set ``fields`` on the first ``op`` node; an ``epilogue`` given as a
    function gets the node and returns the entry list."""
    def change(header):
        node = next(n for n in header["nodes"] if n["op"] == op)
        for key, value in fields.items():
            node[key] = value(node) if callable(value) else value
    return change


def _epilogue(*entry):
    """The first conv's epilogue ``[entry]``; a callable entry item gets the
    node (to name its weight or output index)."""
    return _fusion("conv2d", epilogue=lambda node: [
        [item(node) if callable(item) else item for item in entry]])


def _weight(node):
    return node["inputs"][1]


#: name -> (edit the parsed header, expected ValueError message); the
#: container is re-packed with valid digests around the edit.
HEADER_MUTATIONS = {
    "offset-out-of-range": (_const(-1, offset=64 * 10 ** 6), "past the end"),
    "offset-overlapping": (_const(1, offset=0), "overlapping"),
    "offset-misaligned": (_const(1, offset=65), "misaligned"),
    "offset-gap": (_shift_after_first, "leaves a gap"),
    "offset-negative": (_const(0, offset=-64), "overlapping"),
    "offset-not-int": (_const(0, offset="0"), "misaligned"),
    "size-disagrees": (_const(0, nbytes=8), "disagrees with shape"),
    "shape-disagrees": (_const(0, shape=[1]), "disagrees with shape"),
    "shape-negative": (_const(0, shape=[-1]), "not a list of sizes"),
    "shape-past-blob": (_const(-1, shape=[10 ** 6], nbytes=4 * 10 ** 6,
                               dtype="<f4"), "past the end"),
    "dtype-object": (_const(0, dtype="|O"), "plain numeric dtype"),
    "dtype-string": (_const(0, dtype="<U4"), "plain numeric dtype"),
    "dtype-garbage": (_const(0, dtype="not-a-dtype"), "plain numeric dtype"),
    "dtype-not-str": (_const(0, dtype=7), "plain numeric dtype"),
    "dtype-reinterpreted": (_reinterpret_as_bytes, "but its value declares"),
    "order-unknown": (_const(0, order="K"), "neither 'C' nor 'F'"),
    "entry-extra-key": (_const(0, extra=1), "entry must hold"),
    "table-not-list": (lambda h: h.update(consts={}), "consts table"),
    "table-short": (lambda h: h["consts"].pop(), "after its last constant"),
    "value-const-index": (lambda h: h["values"][1].update(const=10 ** 6),
                          "malformed"),
    "node-missing-key": (lambda h: h["nodes"][0].pop("inputs"), "malformed"),
    "header-missing-key": (lambda h: h.pop("input_shape"), "malformed"),
    "header-untagged": (lambda h: h.pop("schema"), "unsupported plan schema"),
    "kwarg-int-as-str": (_conv_kwarg("stride", {"t": [{"i": ["0", "1"]}] * 2}),
                         "malformed"),
    "kwarg-tuple-not-list": (_conv_kwarg("padding", {"t": {"i": [0, 1]}}),
                             "malformed"),
    "kwarg-array-object": (_conv_kwarg("stride", {"a": ["|O", [2], [1, 1]]}),
                           "malformed"),
    "kwarg-array-count": (_conv_kwarg("stride", {"a": ["<i8", [3], [1, 1]]}),
                          "malformed"),
    "activation-unknown": (_fusion("conv2d", activation="exp"),
                           "repro-plan/2 .* fused activation 'exp'"),
    "epilogue-op-exp": (_epilogue("exp", _weight, 0),
                        "repro-plan/2 .* epilogue op 'exp' is not one of"),
    "epilogue-index-past-end": (_epilogue("add", 10 ** 6, 0),
                                "repro-plan/2 .* index 1000000 is out of"),
    "epilogue-index-negative": (_epilogue("add", -1, 0),
                                "repro-plan/2 .* index -1 is out of"),
    "epilogue-index-not-int": (_epilogue("add", "0", 0),
                               "repro-plan/2 .* index '0' is out of"),
    "epilogue-operand-weight": (_epilogue("mul", _weight, 0),
                                "repro-plan/2 .* neither a per-channel"),
    "epilogue-residual-later": (_epilogue("add", lambda n: n["out"], 0),
                                "repro-plan/2 .* neither a per-channel"),
    "epilogue-position": (_epilogue("add", 0, 2),
                          "repro-plan/2 .* neither a per-channel"),
    "epilogue-entry-short": (_fusion("conv2d", epilogue=[["add", 0]]),
                             "repro-plan/2 .* not \\[op, value index"),
    "epilogue-empty": (_fusion("conv2d", epilogue=[]),
                       "repro-plan/2 .* non-empty list"),
    "epilogue-on-matmul": (_fusion("matmul", epilogue=[["add", 0, 0]]),
                           "repro-plan/2 .* only a conv2d"),
}


@pytest.fixture(scope="module")
def container():
    return _container()


@pytest.mark.parametrize("name", list(BYTE_MUTATIONS))
def test_mutated_container_bytes_raise_specific_errors(container, name):
    mutate, message = BYTE_MUTATIONS[name]
    with pytest.raises(ValueError, match=message):
        InferencePlan.from_bytes(mutate(container))


@pytest.mark.parametrize("name", list(HEADER_MUTATIONS))
def test_mutated_headers_raise_specific_errors(container, name):
    change, message = HEADER_MUTATIONS[name]
    with pytest.raises(ValueError, match=message):
        InferencePlan.from_bytes(_edit(container, change))


def test_non_object_header_is_a_type_error(container):
    _, blob = _split(container)
    with pytest.raises(TypeError, match="plan payload must be a JSON object"):
        InferencePlan.from_bytes(pack_container([1, 2], blob))


# --------------------------------------------------------------------------- #
# Batch-polymorphic binding
# --------------------------------------------------------------------------- #
def test_bind_serves_multiple_batches_without_recompiling():
    model, plan = _lenet_plan(batch=1)
    xs = {k: _input(plan, batch=k, seed=k) for k in (1, 4, 8)}
    refs = {k: _eager(model, x) for k, x in xs.items()}
    # Invalidate the live model: if bind() re-traced instead of deriving
    # from the stored program, outputs would now be garbage.
    for _, param in model.named_parameters():
        param.data = param.data * 0.0
    for k in (1, 4, 8):
        bound = plan.bind(batch=k)
        assert bound.batch == k
        assert bound(xs[k]).data.tobytes() == refs[k].tobytes()
    assert plan.bind(batch=1) is plan
    assert plan.bind(batch=4) is plan.bind(batch=4)  # cached, not re-lowered
    assert set(plan.stats.batch_peaks) >= {1, 4, 8}
    assert all(peak > 0 for peak in plan.stats.batch_peaks.values())


def test_bound_batches_dispatch_through_the_parent_plan():
    _, plan = _lenet_plan(batch=2)
    bound = plan.bind(batch=4)
    x = _input(plan, batch=4, seed=9)
    assert plan(x).data.tobytes() == bound(x).data.tobytes()
    # Unbound batch sizes are still a hard error, not a silent re-bind.
    with pytest.raises(ValueError, match="input shape"):
        plan(np.zeros((3,) + INPUT_SHAPE, dtype=plan.input_dtype))


def test_profile_steps_dispatches_bound_batches_like_a_call():
    _, plan = _lenet_plan(batch=2)
    bound = plan.bind(batch=4)
    x = _input(plan, batch=4, seed=9)
    out, timings = plan.profile_steps(x)
    assert out.data.tobytes() == plan(x).data.tobytes()
    assert len(timings) == len(bound.steps)
    assert all(seconds >= 0.0 for _, seconds, _ in timings)


def test_loaded_plan_binds_too():
    model, plan = _lenet_plan(batch=2)
    loaded = InferencePlan.from_bytes(plan.to_bytes())
    x = _input(plan, batch=4, seed=3)
    ref = _eager(model, x)
    assert loaded.bind(batch=4)(x).data.tobytes() == ref.tobytes()


def test_a_dropped_bind_family_is_freed_by_reference_counting():
    _, plan = _lenet_plan(batch=2)
    loaded = InferencePlan.from_bytes(plan.to_bytes())
    loaded.bind(batch=4)  # not held by the caller: the plan keeps it
    gc.collect()
    x = _input(plan, batch=4, seed=3)
    assert loaded(x).data.tobytes() == plan.bind(batch=4)(x).data.tobytes()
    family = [weakref.ref(loaded), weakref.ref(loaded.bind(batch=4))]
    gc.disable()
    try:
        del loaded
        assert [ref() for ref in family] == [None, None]
    finally:
        gc.enable()


def test_bind_rejects_bad_batches():
    _, plan = _lenet_plan(batch=2)
    with pytest.raises(ValueError, match=">= 1"):
        plan.bind(batch=0)


class _ChannelPick(Module):
    """Picks channels with a numpy index array (an ``"a"`` kwarg)."""

    def __init__(self, rng):
        super().__init__()
        self.conv = Conv2d(3, 4, 3, padding=1, rng=rng)

    def forward(self, x):
        return self.conv(x)[:, np.array([2, 0])]


def test_array_index_graph_serves_serializes_and_binds():
    model = _ChannelPick(np.random.default_rng(0))
    plan = compile(model, (3, 8, 8), batch=2)
    x = _input(plan)
    assert plan(x).data.tobytes() == _eager(model, x).tobytes()
    data = plan.to_bytes()
    loaded = InferencePlan.from_bytes(data)
    assert loaded.to_bytes() == data
    assert loaded(x).data.tobytes() == plan(x).data.tobytes()
    x3 = _input(plan, batch=3, seed=2)
    assert plan.bind(3)(x3).data.tobytes() == _eager(model, x3).tobytes()


class _NanClip(Module):
    """A NaN float kwarg: the same in both traces, as its wire text is."""

    def __init__(self, rng):
        super().__init__()
        self.conv = Conv2d(3, 4, 3, padding=1, rng=rng)

    def forward(self, x):
        return self.conv(x).clip(float("nan"), 1.0)


def test_nan_float_kwarg_keeps_the_program_polymorphic():
    model = _NanClip(np.random.default_rng(0))
    plan = compile(model, (3, 8, 8), batch=2)
    assert plan._program.polymorphic is True
    data = plan.to_bytes()
    assert InferencePlan.from_bytes(data).to_bytes() == data
    x3 = _input(plan, batch=3, seed=2)
    assert plan.bind(3)(x3).data.tobytes() == _eager(model, x3).tobytes()


class _BatchOneHead(Module):
    """Flattens the whole batch into one row: cannot run at batch + 1."""

    def __init__(self, rng):
        super().__init__()
        self.conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        self.fc = Linear(4 * 8 * 8, 5, rng=rng)

    def forward(self, x):
        return self.fc(self.conv(x).relu().reshape(1, -1))


class _ParityActivation(Module):
    """relu at odd batch sizes, tanh at even: the two traces diverge."""

    def __init__(self, rng):
        super().__init__()
        self.conv = Conv2d(3, 4, 3, padding=1, rng=rng)

    def forward(self, x):
        out = self.conv(x)
        return out.relu() if x.shape[0] % 2 else out.tanh()


@pytest.mark.parametrize("make", [_BatchOneHead, _ParityActivation])
def test_fixed_batch_fallback_serves_and_round_trips(make):
    model = make(np.random.default_rng(0))
    plan = compile(model, (3, 8, 8), batch=1)
    x = _input(plan)
    assert plan(x).data.tobytes() == _eager(model, x).tobytes()
    data = plan.to_bytes()
    loaded = InferencePlan.from_bytes(data)
    assert loaded.to_bytes() == data
    assert loaded(x).data.tobytes() == plan(x).data.tobytes()
    assert plan._program.polymorphic is False
    assert loaded._program.polymorphic is False
    with pytest.raises(ValueError, match="not batch-polymorphic"):
        plan.bind(plan.batch + 1)


# --------------------------------------------------------------------------- #
# Cache-served plans (compile_report / report.plan / session.plan)
# --------------------------------------------------------------------------- #
@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return api.MemoryReportCache()
    return api.FileReportCache(tmp_path / "cache")


@pytest.fixture(scope="module")
def report():
    return api.compress("lenet", method="magnitude",
                        input_shape=INPUT_SHAPE, hardware=None)


def test_compile_report_stores_and_serves_plans(store, report):
    plan = api.compile_report(report, cache=store)
    assert store.stats().plans == 1
    served = report.plan(cache=store)  # the report method takes the knob too
    assert store.stats().hits >= 1
    x = _input(plan)
    assert served(x).data.tobytes() == plan(x).data.tobytes()


def test_plan_cache_respects_policy(report):
    cache = api.MemoryReportCache()
    api.compile_report(report, cache=(cache, "read"))
    assert cache.stats().plans == 0       # read-only never writes
    api.compile_report(report, cache=(cache, "write"))
    assert cache.stats().plans == 1
    assert cache.stats().hits == 0        # write-only never reads


def test_plan_address_tracks_model_and_options(report):
    resolved = get_backend("numpy64")
    base = dict(input_shape=INPUT_SHAPE, batch=2, backend=resolved,
                memory_budget=None, fold_bn=False)
    first = api.plan_address(report, **base)
    assert first == api.plan_address(report, **base)  # deterministic
    assert first != api.plan_address(report, **{**base, "batch": 4})
    assert first != api.plan_address(report, **{**base, "fold_bn": True})


def test_corrupt_stored_plan_recompiles_with_warning(tmp_path, report):
    cache = api.FileReportCache(tmp_path / "cache")
    plan = api.compile_report(report, cache=cache)
    address = cache._keys("plan")[0]
    path = cache._path("plan", address)
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:len(data) // 2])
    with pytest.warns(api.CacheIntegrityWarning):
        again = api.compile_report(report, cache=(cache, "read"))
    x = _input(plan)
    assert again(x).data.tobytes() == plan(x).data.tobytes()


def test_session_plan_routes_through_the_session_cache():
    cache = api.MemoryReportCache()
    spec = api.CompressionSpec(method="magnitude", input_shape=INPUT_SHAPE)
    with api.SweepSession(model="lenet", hardware=None,
                         input_shape=INPUT_SHAPE, cache=cache) as session:
        result = session.submit(spec).result()
        first = session.plan(result)
        assert cache.stats().plans == 1
        second = session.plan(result)
    x = _input(first)
    assert second(x).data.tobytes() == first(x).data.tobytes()


# --------------------------------------------------------------------------- #
# Plan shipping over repro-job/1
# --------------------------------------------------------------------------- #
def test_worker_main_executes_plan_jobs():
    _, plan = _lenet_plan()
    x = _input(plan)
    payload = api.plan_job_payload(plan, x, job_id=7)
    assert payload["schema"] == api.JOB_SCHEMA
    stdin = io.StringIO(json.dumps(payload) + "\n")
    stdout = io.StringIO()
    assert api.worker_main(stdin, stdout) == 0
    result = json.loads(stdout.getvalue().strip())
    assert result["schema"] == api.JOB_RESULT_SCHEMA
    assert result["ok"] is True and result["job_id"] == 7
    output = array_from_payload(result["output"])
    assert output.tobytes() == plan(x).data.tobytes()


def test_worker_reports_plan_failures_as_protocol_data():
    _, plan = _lenet_plan()
    payload = api.plan_job_payload(plan, _input(plan), job_id=3)
    stale = _edit(plan.to_bytes(),
                  lambda header: header.update(schema="repro-plan/99"))
    payload["plan"] = array_to_payload(np.frombuffer(stale, dtype=np.uint8))
    stdin = io.StringIO(json.dumps(payload) + "\n")
    stdout = io.StringIO()
    api.worker_main(stdin, stdout)
    result = json.loads(stdout.getvalue().strip())
    assert result["ok"] is False and result["job_id"] == 3
    assert result["error"]["type"] == "ValueError"


def test_remote_worker_runs_shipped_plan_bit_identically():
    """The acceptance smoke test: a subprocess that never saw the model
    reproduces the local eager forward from the wire form alone."""
    model, plan = _lenet_plan()
    x = _input(plan)
    remote = api.run_plan_remote(plan, x)
    assert remote.tobytes() == plan(x).data.tobytes()
    assert remote.tobytes() == _eager(model, x).tobytes()
