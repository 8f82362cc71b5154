"""Wire-format round trips over the *entire* method registry.

Every registered method must satisfy, for its spec, its config and a full
report: serialize → deserialize → re-serialize produces the identical
payload (and therefore the identical content digest).  This is the
foundation the result cache stands on — a method whose payload drifts
through one JSON round trip would replay a different report than it
stored — so the suite is parameterized over ``api.available_methods()``
and picks up new registrations automatically.

The same fixed-point discipline applies to the ``repro-plan/2``
container: serialize → load → serialize is byte-equal, and the loaded plan's
forwards are bit-identical in both working precisions.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

import repro.api as api
from repro.api.spec import config_from_dict, config_to_dict
from repro.deploy import InferencePlan, compile as compile_plan
from repro.models import build_model
from repro.nn.backend import use_backend

INPUT_SHAPE = (1, 16, 16)  # lenet's native geometry

METHODS = api.available_methods()


def non_default_config(method: str):
    """A config with non-default knobs, so defaults can't mask drift."""
    return {
        "alf": api.ALFSpec(remaining_fraction=0.4, deploy=False,
                           stage_remaining={8: 0.5, 16: 0.3}),
        "magnitude": api.MagnitudeSpec(prune_ratio=0.35, norm="l2"),
        "fpgm": api.FPGMSpec(prune_ratio=0.25, iterations=17),
        "amc": api.AMCSpec(target_ops_fraction=0.6, iterations=2,
                           population=4),
        "lcnn": api.LCNNSpec(dictionary_fraction=0.3, sparsity=2),
        "lowrank": api.LowRankSpec(rank_fraction=0.45),
    }[method]


def spec_for(method: str) -> api.CompressionSpec:
    return api.CompressionSpec(
        method=method, config=non_default_config(method),
        input_shape=INPUT_SHAPE, epochs=0, lr=0.01, hardware_batch=8,
        layer_names=("L1", "L2"), seed=3, label=f"{method}-rt")


def json_round_trip(payload):
    """Force the payload through real JSON text (tuples → lists, etc.)."""
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("method", METHODS)
class TestSpecRoundTrip:
    def test_spec_payload_is_a_fixed_point(self, method):
        spec = spec_for(method)
        payload = spec.to_dict()
        rebuilt = api.CompressionSpec.from_dict(json_round_trip(payload))
        assert rebuilt.to_dict() == payload
        # One more cycle: the payload must already be the fixed point.
        assert api.CompressionSpec.from_dict(
            rebuilt.to_dict()).to_dict() == payload

    def test_spec_digest_survives_the_round_trip(self, method):
        spec = spec_for(method)
        rebuilt = api.CompressionSpec.from_dict(
            json_round_trip(spec.to_dict()))
        assert rebuilt.digest() == spec.digest()

    def test_config_payload_is_a_fixed_point(self, method):
        config = non_default_config(method)
        payload = config_to_dict(config)
        rebuilt = config_from_dict(json_round_trip(payload))
        assert type(rebuilt) is type(config)
        assert config_to_dict(rebuilt) == payload

    def test_default_config_round_trips_too(self, method):
        entry = api.get_method(method)
        payload = config_to_dict(entry.config_type())
        rebuilt = config_from_dict(json_round_trip(payload))
        assert config_to_dict(rebuilt) == payload


def _totals_only(*path):
    def mutate(payload):
        *parents, last = path
        for name in parents:
            payload = payload[name]
        payload[last] = {"total_energy": payload[last]["total_energy"],
                         "total_latency": payload[last]["total_latency"]}
    return mutate


#: Report damage no current writer produces -> the error it must raise.
UNREADABLE = {
    "dense_hardware": (_totals_only("dense_hardware"),
                       "report payload 'dense_hardware' lacks the key "
                       "'layers'"),
    "compressed_hardware": (_totals_only("compressed_hardware"),
                            "report payload 'compressed_hardware' lacks the "
                            "key 'layers'"),
    "dense.hardware": (_totals_only("dense", "hardware"),
                       "report payload 'dense.hardware' lacks the key "
                       "'layers'"),
    "spec-untagged": (lambda payload: payload["spec"].pop("schema"),
                      "unsupported spec schema None"),
    "spec-no-method": (lambda payload: payload["spec"].pop("method"),
                       "spec payload lacks the required key 'method'"),
    "profile-untagged": (lambda payload: payload.update(profile={}),
                         "unsupported run-profile schema None"),
}


@pytest.mark.parametrize("method", METHODS)
class TestReportRoundTrip:
    @pytest.fixture(scope="class")
    def reports(self):
        cache = {}

        def build(method: str) -> api.CompressionReport:
            if method not in cache:
                cache[method] = api.compress(
                    "lenet", method=method, config=non_default_config(method),
                    input_shape=INPUT_SHAPE, hardware=api.EYERISS_PAPER,
                    hardware_batch=8, seed=3, label=f"{method}-rt")
            return cache[method]

        return build

    def test_report_payload_is_a_fixed_point(self, method, reports):
        payload = reports(method).to_dict()
        rebuilt = api.CompressionReport.from_dict(json_round_trip(payload))
        assert rebuilt.to_dict() == payload

    def test_report_digest_survives_the_round_trip(self, method, reports):
        payload = reports(method).to_dict()
        rebuilt = api.CompressionReport.from_dict(json_round_trip(payload))
        assert api.payload_digest(rebuilt.to_dict()) == \
            api.payload_digest(payload)

    def test_hardware_breakdown_survives_the_round_trip(self, method, reports):
        """Per-layer energy / latency views work on a rebuilt report."""
        report = reports(method)
        rebuilt = api.CompressionReport.from_dict(
            json_round_trip(report.to_dict()))
        for original, back in (
                (report.dense_hardware, rebuilt.dense_hardware),
                (report.compressed_hardware, rebuilt.compressed_hardware)):
            assert back.layer_names() == original.layer_names()
            assert back.energy_by_level() == original.energy_by_level()
            assert back.grouped_latency() == original.grouped_latency()

    @pytest.mark.parametrize("damage", list(UNREADABLE))
    def test_retired_payloads_raise(self, method, reports, damage):
        """Totals-only hardware, an untagged or method-less spec and an
        untagged run profile are rejected by name, directly and as a warned
        cache miss — never read as an empty report or a bare TypeError."""
        mutate, message = UNREADABLE[damage]
        payload = json_round_trip(reports(method).to_dict())
        mutate(payload)
        with pytest.raises(ValueError) as caught:
            api.CompressionReport.from_dict(payload)
        assert message in str(caught.value)
        store = api.MemoryReportCache()
        key = api.CacheKey(method=method, spec="a" * 64, model="b" * 64,
                           data="c" * 64)
        store._write("entry", key.combined, json.dumps({
            "schema": api.CACHE_ENTRY_SCHEMA, "key": key.to_dict(),
            "spec": payload["spec"], "report": payload,
            "report_digest": api.payload_digest(payload),
            "checkpoint": False, "warm_source": None}).encode("utf-8"))
        with pytest.warns(api.CacheIntegrityWarning,
                          match=re.escape(message)):
            assert store.get(key) is None
        assert store.stats().misses == 1

    def test_cached_replay_equals_the_original(self, method, reports):
        """The cache stores and replays through exactly this round trip."""
        report = reports(method)
        store = api.MemoryReportCache()
        key = api.CacheKey(method=method, spec=report.spec.digest(),
                           model="0" * 64, data="0" * 64)
        store.put(key, report)
        replay = store.get(key)
        assert replay.to_dict() == report.to_dict()


@pytest.mark.parametrize("backend", ["numpy32", "numpy64"])
class TestPlanRoundTrip:
    def _plan(self, backend):
        model = build_model("lenet", rng=np.random.default_rng(5))
        with use_backend(backend):
            return model, compile_plan(model, INPUT_SHAPE, batch=2)

    def test_plan_payload_is_a_fixed_point(self, backend):
        _, plan = self._plan(backend)
        data = plan.to_bytes()
        loaded = InferencePlan.from_bytes(data)
        assert loaded.to_bytes() == data
        # One more cycle: the reloaded container is already the fixed point.
        assert InferencePlan.from_bytes(loaded.to_bytes()).to_bytes() == data

    def test_save_load_save_is_byte_equal(self, backend, tmp_path):
        _, plan = self._plan(backend)
        first, second = tmp_path / "first.plan", tmp_path / "second.plan"
        plan.save(first)
        InferencePlan.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_plan_forward_is_bit_identical(self, backend):
        _, plan = self._plan(backend)
        loaded = InferencePlan.from_bytes(plan.to_bytes())
        x = np.random.default_rng(11).standard_normal(
            (2,) + INPUT_SHAPE).astype(plan.input_dtype)
        assert loaded(x).data.tobytes() == plan(x).data.tobytes()
