"""The shared wire machinery in ``repro.wire``.

The contracts pinned here:

* Every parsed wire kind rejects a payload tagged with another version
  with ``unsupported <kind> schema <got>: expected '<tag>'``, and a
  payload that is not a JSON object (a list, a string, ``null``) with a
  ``TypeError`` naming the kind — never an ``AttributeError``.  Kinds read
  from a store degrade to a :class:`~repro.api.CacheIntegrityWarning`
  plus a miss; worker frames raise
  :class:`~repro.api.RemoteWorkerError`.
* The one base64-npy codec round-trips dtype, shape, bytes and memory
  order.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

import repro.api as api
from repro.api.jobs import _WorkerProcess
from repro.api.pipeline import REPORT_SCHEMA
from repro.api.spec import SPEC_SCHEMA
from repro.deploy import PLAN_SCHEMA, InferencePlan
from repro.nn.profiler import (PROFILE_SCHEMA, RUN_PROFILE_SCHEMA, OpProfile,
                               RunProfile)
from repro.wire import array_from_payload, array_to_payload, check_schema


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


def _worker_frame(payload):
    worker = _WorkerProcess.__new__(_WorkerProcess)
    worker.process = SimpleNamespace(
        stdin=io.StringIO(), stdout=io.StringIO(json.dumps(payload) + "\n"),
        poll=lambda: None)
    with pytest.raises(api.RemoteWorkerError) as caught:
        worker.roundtrip({"op": "ping"})
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
    "plan": ("plan", PLAN_SCHEMA, _raising(InferencePlan.from_dict)),
    "stored-plan": ("plan", PLAN_SCHEMA, _stored_plan),
    "op-profile": ("op-profile", PROFILE_SCHEMA,
                   _raising(OpProfile.from_dict)),
    "run-profile": ("run-profile", RUN_PROFILE_SCHEMA,
                    _raising(RunProfile.from_dict)),
}

NON_OBJECTS = {"list": [1, 2], "string": "x", "null": None}


@pytest.mark.parametrize("bad", ["wrong-tag", *NON_OBJECTS])
@pytest.mark.parametrize("site", list(READERS))
def test_every_kind_rejects_wrong_tags_and_non_objects(site, bad):
    kind, tag, read = READERS[site]
    if bad == "wrong-tag":
        wrong = tag.replace("/1", "/99")
        message = read({"schema": wrong})
        assert f"unsupported {kind} schema '{wrong}': expected '{tag}'" \
            in message
    else:
        message = read(NON_OBJECTS[bad])
        assert f"{kind} payload must be a JSON object" in message


def test_untagged_payloads_pass_only_for_kinds_older_than_their_tag():
    # Specs and run profiles accept pre-tag payloads, so a round trip would
    # not notice if to_dict() stopped tagging them.
    assert api.CompressionSpec(method="magnitude").to_dict()["schema"] == \
        SPEC_SCHEMA
    assert RunProfile().to_dict()["schema"] == RUN_PROFILE_SCHEMA
    assert api.CompressionSpec.from_dict({"method": "fpgm"}).method == "fpgm"
    assert RunProfile.from_dict({}).phases() == {}
    with pytest.raises(ValueError, match="expected 'repro-plan/1'"):
        check_schema({}, PLAN_SCHEMA)


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
