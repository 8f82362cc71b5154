"""The ``repro-plan/1`` wire form: save/load bit-identity, batch
re-binding, cache-served plans, and plan shipping over ``repro-job/1``.

The contracts pinned here:

* ``plan.save()`` / ``InferencePlan.load()`` round-trip every zoo model
  **bit-identically** in float32 and float64 — the loaded plan's output
  bytes equal the original plan's (and therefore eager's).
* Tampered payloads, stale weights digests and unknown schema versions
  are rejected with specific errors, never silently accepted.
* ``plan.bind(batch=k)`` serves k ∈ {1, 4, 8} from one compiled program
  without re-tracing the model, and bound batches auto-dispatch through
  the parent plan's ``__call__``.
* ``compile_report(cache=...)`` stores / serves serialized plans through
  the content-addressed store (damage → warning + recompile).
* A ``repro-job/1`` worker executing a shipped plan returns bytes equal
  to the sender's local forward.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

import repro.api as api
from repro.api.jobs import array_from_payload
from repro.deploy import InferencePlan, PLAN_SCHEMA, compile
from repro.models import available_models, bench_input_shape, build_model
from repro.nn import Tensor, no_grad
from repro.nn.backend import get_backend, use_backend

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
    path = tmp_path / f"{name}.json"
    plan.save(path)
    loaded = InferencePlan.load(path)
    x = _input(plan)
    assert loaded.batch == plan.batch
    assert loaded.input_shape == plan.input_shape
    assert loaded.input_dtype == plan.input_dtype
    assert loaded(x).data.tobytes() == plan(x).data.tobytes(), (
        f"{name} on {backend}: loaded plan diverged from the original")
    assert loaded(x).data.tobytes() == _eager(
        model, get_backend(backend).asarray(x)).tobytes()


def test_payload_is_a_canonical_fixed_point(tmp_path):
    _, plan = _lenet_plan()
    payload = plan.to_dict()
    assert payload["schema"] == PLAN_SCHEMA
    loaded = InferencePlan.from_dict(json.loads(json.dumps(payload)))
    assert api.canonical_json(loaded.to_dict()) == api.canonical_json(payload)
    # On-disk form too: save → load → save is byte-equal.
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    plan.save(first)
    InferencePlan.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()


# --------------------------------------------------------------------------- #
# Rejection: tampering, stale digests, unknown versions
# --------------------------------------------------------------------------- #
def _payload():
    return _lenet_plan()[1].to_dict()


def _restamp(payload):
    """Recompute the whole-payload digest after deliberate edits."""
    body = {k: v for k, v in payload.items() if k != "digest"}
    payload["digest"] = api.payload_digest(body)
    return payload


def test_tampered_payload_is_rejected():
    payload = _payload()
    payload["nodes"][0]["op"] = "relu"  # flip an op behind the digest
    with pytest.raises(ValueError, match="digest mismatch"):
        InferencePlan.from_dict(payload)


def test_stale_weights_digest_is_rejected():
    payload = _payload()
    payload["weights_digest"] = "0" * 64
    with pytest.raises(ValueError, match="weights digest"):
        InferencePlan.from_dict(_restamp(payload))


def test_unknown_schema_version_is_rejected():
    payload = _payload()
    payload["schema"] = "repro-plan/99"
    with pytest.raises(ValueError, match="unsupported plan schema"):
        InferencePlan.from_dict(_restamp(payload))
    with pytest.raises(TypeError):
        InferencePlan.from_dict("not a mapping")


def test_tampered_stored_layout_is_rejected():
    payload = _payload()
    payload["arena"]["capacities"][0] += 8
    with pytest.raises(ValueError, match="digest mismatch"):
        InferencePlan.from_dict(payload)
    with pytest.raises(ValueError, match="layout mismatch"):
        InferencePlan.from_dict(_restamp(payload))


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
    loaded = InferencePlan.from_dict(plan.to_dict())
    x = _input(plan, batch=4, seed=3)
    ref = _eager(model, x)
    assert loaded.bind(batch=4)(x).data.tobytes() == ref.tobytes()


def test_bind_rejects_bad_batches():
    _, plan = _lenet_plan(batch=2)
    with pytest.raises(ValueError, match=">= 1"):
        plan.bind(batch=0)


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
                memory_budget=None, fold_bn=False, elide_dead=True)
    first = api.plan_address(report, **base)
    assert first == api.plan_address(report, **base)  # deterministic
    assert first != api.plan_address(report, **{**base, "batch": 4})
    assert first != api.plan_address(report, **{**base, "fold_bn": True})


def test_corrupt_stored_plan_recompiles_with_warning(tmp_path, report):
    cache = api.FileReportCache(tmp_path / "cache")
    plan = api.compile_report(report, cache=cache)
    address = cache._plan_keys()[0]
    path = cache._plan_path(address)
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    with open(path, "w", encoding="utf-8") as f:
        f.write(text[:len(text) // 2])
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
    payload["plan"] = {**payload["plan"], "schema": "repro-plan/99"}
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
