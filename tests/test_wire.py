"""The shared wire machinery in ``repro.wire``.

The contracts pinned here:

* Every parsed wire kind rejects a payload tagged with another version,
  or with no tag, with ``unsupported <kind> schema <got>: expected
  '<tag>'``, and a payload that is not a JSON object (a list, a string,
  ``null``) with a ``TypeError`` naming the kind — never an
  ``AttributeError``.  Kinds read from a store degrade to a
  :class:`~repro.api.CacheIntegrityWarning` plus a miss; worker frames
  raise :class:`~repro.api.RemoteWorkerError`.
* A correctly tagged report or job payload with a required key dropped
  raises a ``ValueError`` naming the kind and the key, never a bare
  ``KeyError``.
* Every kind without a round-trip test elsewhere (job, failure,
  op-profile, run-profile, cache entry) is a serialization fixed point:
  serialize → JSON → deserialize → serialize is byte-equal, and the
  ``repro-job/1`` bytes of one canonical job are pinned by digest.
* The one base64-npy codec round-trips dtype, shape, bytes and memory
  order.
* A stored ``repro-plan/2`` container damaged in any region — prefix,
  header, padding or blob — is a warned miss, and so is a stored
  ``repro-plan/1`` payload; the header of a container is tag-checked
  like every other kind.
"""

from __future__ import annotations

import io
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import repro.api as api
from repro.api.jobs import _RemotePool, _WorkerProcess
from repro.api.pipeline import REPORT_SCHEMA
from repro.api.spec import SPEC_SCHEMA
from repro.data import SyntheticImageDataset
from repro.deploy import PLAN_SCHEMA, InferencePlan
from repro.deploy import compile as compile_plan
from repro.deploy.serialize import pack_container
from repro.models import build_model
from repro.nn.backend import Backend
from repro.nn.profiler import (PROFILE_SCHEMA, RUN_PROFILE_SCHEMA, OpProfile,
                               RunProfile)
from repro.wire import array_from_payload, array_to_payload, payload_digest

FIXTURE_ENTRY = os.path.join(
    os.path.dirname(__file__), "data", "cache_store", "entries",
    "f68e695c5fb02fda2aea6c6b192d2ee15066dd5290f5787a8c43659de0d27cbd.json")
LEGACY_PLAN = os.path.join(os.path.dirname(__file__), "data",
                           "lenet.repro-plan-1.json")


def _stored_entry(payload):
    store = api.MemoryReportCache()
    key = api.CacheKey(method="magnitude", spec="a" * 64, model="b" * 64,
                       data="c" * 64)
    store._write("entry", key.combined, json.dumps(payload).encode())
    with pytest.warns(api.CacheIntegrityWarning) as caught:
        assert store.get(key) is None
    assert store.stats().misses == 1
    return str(caught[0].message)


def _stored_plan(payload):
    store = api.MemoryReportCache()
    store._write("plan", "a" * 64, json.dumps(payload).encode())
    with pytest.warns(api.CacheIntegrityWarning) as caught:
        assert store.get_plan("a" * 64) is None
    assert store.stats().misses == 1
    return str(caught[0].message)


def _answering_worker(payload):
    """A worker process stand-in whose one answer is ``payload``."""
    worker = _WorkerProcess.__new__(_WorkerProcess)
    worker.process = SimpleNamespace(
        stdin=io.StringIO(), stdout=io.StringIO(json.dumps(payload) + "\n"),
        poll=lambda: None)
    return worker


def _worker_frame(payload):
    with pytest.raises(api.RemoteWorkerError) as caught:
        _answering_worker(payload).roundtrip({"op": "ping"})
    return str(caught.value)


def _worker_result_frame(payload):
    """The pool's message for a worker that answered a job with ``payload``."""
    pool = _RemotePool(max_workers=1)
    pool._local.worker = _answering_worker(payload)
    try:
        with pytest.raises(api.RemoteWorkerError) as caught:
            pool._run_job(canonical_job().to_dict())
    finally:
        pool.shutdown()
    return str(caught.value)


def _raising(decode):
    """A reader that must raise: ValueError on a tag, TypeError otherwise."""
    def read(payload):
        error = ValueError if isinstance(payload, dict) else TypeError
        with pytest.raises(error) as caught:
            decode(payload)
        return str(caught.value)
    return read


#: (wire kind, tag, reader returning the rejection message) for every site
#: that parses a versioned payload.
READERS = {
    "spec": ("spec", SPEC_SCHEMA, _raising(api.CompressionSpec.from_dict)),
    "report": ("report", REPORT_SCHEMA,
               _raising(api.CompressionReport.from_dict)),
    "job": ("job", api.JOB_SCHEMA, _raising(api.SweepJob.from_dict)),
    "job-result": ("job-result", api.JOB_RESULT_SCHEMA, _worker_frame),
    "failure": ("failure", api.FAILURE_SCHEMA,
                _raising(api.SweepFailure.from_dict)),
    "cache-entry": ("cache-entry", api.CACHE_ENTRY_SCHEMA, _stored_entry),
    "plan": ("plan", PLAN_SCHEMA, _raising(
        lambda header: InferencePlan.from_bytes(pack_container(header, b"")))),
    "stored-plan": ("plan", PLAN_SCHEMA, _stored_plan),
    "op-profile": ("op-profile", PROFILE_SCHEMA,
                   _raising(OpProfile.from_dict)),
    "run-profile": ("run-profile", RUN_PROFILE_SCHEMA,
                    _raising(RunProfile.from_dict)),
}

NON_OBJECTS = {"list": [1, 2], "string": "x", "null": None}


@pytest.mark.parametrize("bad", ["wrong-tag", "untagged", *NON_OBJECTS])
@pytest.mark.parametrize("site", list(READERS))
def test_every_kind_rejects_wrong_tags_and_non_objects(site, bad):
    kind, tag, read = READERS[site]
    if bad == "wrong-tag":
        wrong = tag.rsplit("/", 1)[0] + "/99"
        message = read({"schema": wrong})
        assert f"unsupported {kind} schema '{wrong}': expected '{tag}'" \
            in message
    elif bad == "untagged":
        message = read({})
        assert f"unsupported {kind} schema None: expected '{tag}'" in message
    else:
        message = read(NON_OBJECTS[bad])
        assert f"{kind} payload must be a JSON object" in message


def canonical_job():
    """A job filling every ``repro-job/1`` field with a non-default value."""
    split = SyntheticImageDataset(
        images=np.linspace(-1.0, 1.0, 32, dtype=np.float32).reshape(2, 1, 4, 4),
        labels=np.array([0, 1], dtype=np.int64), num_classes=2, name="canon")
    return api.SweepJob(
        spec=api.CompressionSpec(method="alf",
                                 config=api.ALFSpec(remaining_fraction=0.4),
                                 input_shape=(1, 16, 16), epochs=1, seed=3,
                                 label="canon"),
        model="lenet", seed=3,
        dense=api.DenseBaseline(profile=None,
                                cost={"params": 10.0, "macs": 20.0,
                                      "ops": 40.0},
                                hardware=None, accuracy=0.5),
        engine=api.EngineState(Backend("numpy", "float64")),
        hardware=api.EYERISS_PAPER,
        data=api.LoaderPlan(kind="synthetic", train_split=split,
                            val_split=split, seed=5),
        job_id=7, warm={"w": np.arange(6, dtype=np.float32).reshape(2, 3)})


#: ``payload_digest`` of ``canonical_job().to_dict()``.  A different digest
#: means the ``repro-job/1`` bytes changed, which needs a new schema tag.
CANONICAL_JOB_DIGEST = \
    "bad22bba4776e3b2236b563b33cea84f8ee7c3c384efadf9b0e62c52fd9d749b"


def _op_profile(scale):
    profile = OpProfile()
    profile.record("conv2d", 0.1 * scale, layer="features.0")
    profile.record("conv2d", 0.2 * scale, layer="features.3")
    profile.record("relu", 0.03 * scale, layer="features.1")
    return profile


def _entry_fields():
    with open(FIXTURE_ENTRY, encoding="utf-8") as handle:
        stored = json.load(handle)
    key = api.CacheKey(**{name: stored["key"][name]
                          for name in ("method", "spec", "model", "data")})
    return (key, api.CompressionReport.from_dict(stored["report"]), True,
            "d" * 64)


def _entry_fields_from(payload):
    entry = api.ReportCache._decode(json.dumps(payload).encode("utf-8"))
    key = api.CacheKey(**{name: entry["key"][name]
                          for name in ("method", "spec", "model", "data")})
    return (key, api.CompressionReport.from_dict(entry["report"]),
            entry["checkpoint"], entry["warm_source"])


#: (build a live object, serialize it, deserialize a payload) per kind.
FIXED_POINTS = {
    "job": (canonical_job, api.SweepJob.to_dict, api.SweepJob.from_dict),
    "failure": (
        lambda: api.SweepFailure(
            index=2, spec=api.CompressionSpec(
                method="fpgm", config=api.FPGMSpec(prune_ratio=0.25),
                input_shape=(1, 16, 16), label="fpgm-25"),
            error_type="SweepTimeoutError", message="exceeded 5.0s",
            attempts=3, category="timeout"),
        api.SweepFailure.to_dict, api.SweepFailure.from_dict),
    "op-profile": (lambda: _op_profile(1.0), OpProfile.to_dict,
                   OpProfile.from_dict),
    "run-profile": (lambda: RunProfile(train=_op_profile(3.0),
                                       eval=_op_profile(0.7)),
                    RunProfile.to_dict, RunProfile.from_dict),
    "cache-entry": (_entry_fields,
                    lambda fields: api.ReportCache._encode(*fields),
                    _entry_fields_from),
}


@pytest.mark.parametrize("kind", list(FIXED_POINTS))
def test_every_kind_is_a_serialization_fixed_point(kind):
    build, serialize, deserialize = FIXED_POINTS[kind]
    text = json.dumps(serialize(build()))
    again = json.dumps(serialize(deserialize(json.loads(text))))
    assert again == text


def test_canonical_job_bytes_are_pinned():
    assert payload_digest(canonical_job().to_dict()) == CANONICAL_JOB_DIGEST


def _stored_report():
    with open(FIXTURE_ENTRY, encoding="utf-8") as handle:
        return json.load(handle)["report"]


def _entry_around(report):
    """A cache entry payload storing ``report`` under a valid digest."""
    return {
        "schema": api.CACHE_ENTRY_SCHEMA,
        "key": {"method": "magnitude", "spec": "a" * 64, "model": "b" * 64,
                "data": "c" * 64},
        "spec": _stored_report()["spec"], "report": report,
        "report_digest": payload_digest(report), "checkpoint": False,
        "warm_source": None}


def _dropped(payload, path):
    *parents, last = path.split(".")
    nested = payload
    for name in parents:
        nested = nested[name]
    del nested[last]
    return payload


#: (kind, payload builder, key path) of every key a tagged report or job
#: payload cannot be read without.
REQUIRED_KEYS = [
    *(("report", _stored_report, key) for key in (
        "method", "policy", "spec", "dense", "cost",
        "remaining_filter_fraction", "dense.cost")),
    *(("job", lambda: canonical_job().to_dict(), key) for key in (
        "spec", "model", "seed", "dense", "dense_digest")),
]


@pytest.mark.parametrize("kind, build, path", REQUIRED_KEYS,
                         ids=[f"{kind}-{path}" for kind, _, path
                              in REQUIRED_KEYS])
def test_payloads_missing_a_required_key_name_the_kind_and_key(kind, build,
                                                               path):
    """A dropped key is a ``ValueError`` naming the kind and the key,
    directly, as a warned cache miss (reports), as a worker's error frame
    (jobs) and as a :class:`~repro.api.RemoteWorkerError` when a worker's
    result frame carries the damaged report -- never a bare ``KeyError``."""
    payload = _dropped(build(), path)
    parent, key = (path.rsplit(".", 1) if "." in path else (kind, path))
    message = f"{parent} payload lacks the required key '{key}'"
    read = (api.CompressionReport.from_dict if kind == "report"
            else api.SweepJob.from_dict)
    with pytest.raises(ValueError, match=message):
        read(payload)
    if kind == "job":
        stdout = io.StringIO()
        api.worker_main(io.StringIO(json.dumps(payload) + "\n"), stdout)
        result = json.loads(stdout.getvalue())
        assert result["ok"] is False
        assert result["error"] == {"type": "ValueError", "message": message}
        return
    assert message in _stored_entry(_entry_around(payload))
    assert message in _worker_result_frame({
        "schema": api.JOB_RESULT_SCHEMA, "job_id": 0, "ok": True,
        "report": payload})


@pytest.mark.parametrize("order", ["C", "F"])
def test_array_codec_round_trips_exactly(order):
    array = np.asarray(np.arange(12, dtype=np.float32).reshape(3, 4),
                       order=order)
    restored = array_from_payload(json.loads(json.dumps(
        array_to_payload(array))))
    assert restored.dtype == array.dtype
    assert restored.tobytes(order="A") == array.tobytes(order="A")
    assert restored.flags.f_contiguous == array.flags.f_contiguous
    np.testing.assert_array_equal(restored, array)


# --------------------------------------------------------------------------- #
# Stored plan containers: damage in any region is a warned miss
# --------------------------------------------------------------------------- #
def _plan_container():
    model = build_model("lenet", rng=np.random.default_rng(0))
    return compile_plan(model, (1, 16, 16), batch=2).to_bytes()


def _damaged_containers(data):
    length = int.from_bytes(data[8:16], "little")
    header_end = 80 + length
    blob_start = -(-header_end // 64) * 64
    cuts = {"prefix": 30, "header": 80 + length // 2,
            "padding": header_end + 1, "blob": len(data) - 1}
    flips = {"magic": 3, "length": 9, "header-digest": 30, "blob-digest": 70,
             "header": 80 + length // 2, "padding": header_end,
             "blob": blob_start}
    for region, cut in cuts.items():
        yield f"truncated-{region}", data[:cut]
    for region, at in flips.items():
        flipped = bytearray(data)
        flipped[at] ^= 0x01
        yield f"flipped-{region}", bytes(flipped)


def test_damaged_stored_containers_are_warned_misses():
    data = _plan_container()
    store = api.MemoryReportCache()
    store.put_plan("a" * 64, data)
    assert store.get_plan("a" * 64) == data
    for name, damaged in _damaged_containers(data):
        store._write("plan", "a" * 64, damaged)
        with pytest.warns(api.CacheIntegrityWarning) as caught:
            assert store.get_plan("a" * 64) is None, name
        assert "repro-plan/2" in str(caught[0].message), name


def test_stored_v1_plan_is_a_warned_miss_with_the_uniform_error():
    with open(LEGACY_PLAN, "rb") as handle:
        legacy = handle.read()
    store = api.MemoryReportCache()
    store._write("plan", "a" * 64, legacy)
    with pytest.warns(api.CacheIntegrityWarning,
                      match="unsupported plan schema 'repro-plan/1': "
                            "expected 'repro-plan/2'"):
        assert store.get_plan("a" * 64) is None


#: The field each damaged spec must name -> the spec fields that damage it.
DAMAGED_SPECS = {
    "epochs": {"epochs": "x"},
    "hardware_batch": {"hardware_batch": 2.5},
    "conv_only": {"conv_only": "yes"},
    "bogus": {"config": {"type": "MagnitudeSpec", "fields": {"bogus": 1}}},
    "type": {"config": {"fields": {}}},
}


@pytest.mark.parametrize("field", list(DAMAGED_SPECS))
def test_spec_fields_of_the_wrong_type_or_name_are_value_errors(field):
    """A spec payload with a mistyped field, an unknown config field or a
    config without ``type`` is a ``ValueError`` naming the field, directly
    and as a warned miss when the damaged spec sits in a stored report."""
    report = _stored_report()
    report["spec"].update(DAMAGED_SPECS[field])
    with pytest.raises(ValueError, match=f"'{field}'"):
        api.CompressionSpec.from_dict(report["spec"])
    assert f"'{field}'" in _stored_entry(_entry_around(report))
