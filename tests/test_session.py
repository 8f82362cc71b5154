"""Tests for the streaming sweep API: sessions, futures, jobs and workers.

Four guarantees are pinned down:

* **Determinism** — results streamed through a :class:`SweepSession` are
  identical to the serial ``run_sweep`` reference on every executor,
  including the wire-level ``remote`` strategy and ``profile=True``
  merges.
* **Policy** — per-spec retry (``RetryPolicy``) and timeout are enforced
  by the session scheduler: retry-then-succeed, retries-exhausted and
  timeout-then-skip all resolve with the right ``attempts``/``category``.
* **Futures** — completion callbacks, progress events, ``as_completed``
  iteration and cancellation before/after scheduling behave like their
  ``concurrent.futures`` counterparts.
* **Wire formats** — ``repro-job/1`` round-trips through JSON with a
  digest-guarded dense baseline, workers speak the protocol over plain
  text streams, and every versioned payload rejects unknown schema tags.
"""

from __future__ import annotations

import collections
import gc
import io
import json
import os
import subprocess
import sys
import threading
import time
import weakref
import concurrent.futures as cf
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

import repro.api as api
import repro.api.executor as executor_module
import repro.api.jobs as jobs_module
from repro.api.executor import resolve_executor
from repro.data import DataLoader, make_synthetic_dataset

INPUT_SHAPE = (1, 16, 16)  # lenet's native geometry: registry-name sweeps
EXECUTORS = ["serial", "thread", "process", "remote"]

#: Light method set for cost-only determinism runs (no agent search).
LIGHT_METHODS = ["magnitude", "lowrank", "lcnn"]


def cost_specs(**overrides):
    return [api.CompressionSpec(method=m, **overrides) for m in LIGHT_METHODS]


def sweep_table(sweep: api.SweepResult):
    """Every table-level quantity of a sweep, for exact comparison."""
    rows = [(r.method, r.cost["params"], r.cost["macs"], r.cost["ops"],
             r.accuracy, r.remaining_filter_fraction,
             r.energy_reduction, r.latency_reduction)
            for r in sweep.reports]
    return (sweep.dense.cost, sweep.dense.accuracy, rows)


def profile_calls(sweep: api.SweepResult):
    """Deterministic view of a merged sweep profile (calls, layer order)."""
    profile = sweep.combined_profile()
    assert profile is not None
    return ({op: stat.calls for op, stat in profile.ops.items()},
            list(profile.layers))


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(80, num_classes=4,
                                  image_shape=INPUT_SHAPE, seed=0)


# --------------------------------------------------------------------------- #
# Registry / environment resolution
# --------------------------------------------------------------------------- #
class TestExecutorResolution:
    def test_remote_executor_registered(self):
        assert "remote" in api.available_executors()
        assert isinstance(api.get_executor("remote"), api.RemoteExecutor)
        assert api.RemoteExecutor.wire is True

    def test_invalid_env_executor_raises_value_error(self, monkeypatch):
        monkeypatch.setenv(api.EXECUTOR_ENV_VAR, "gpu-cluster")
        with pytest.raises(ValueError) as excinfo:
            resolve_executor(None)
        message = str(excinfo.value)
        assert api.EXECUTOR_ENV_VAR in message
        assert "gpu-cluster" in message
        for name in ("serial", "thread", "process", "remote"):
            assert name in message

    def test_valid_env_executor_still_resolves(self, monkeypatch):
        monkeypatch.setenv(api.EXECUTOR_ENV_VAR, "remote")
        assert isinstance(resolve_executor(None), api.RemoteExecutor)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_zero_workers_rejected_at_construction(self, executor):
        # Before the dense baseline is built, and for the inline strategy
        # (which never opens a pool) too.
        with pytest.raises(ValueError, match="max_workers"):
            api.SweepSession(model="lenet", hardware=None,
                             executor=executor, max_workers=0)

    def test_explicit_unknown_name_keeps_key_error(self):
        # The env-var path gains the ValueError; programmatic lookups keep
        # the registry's KeyError contract.
        with pytest.raises(KeyError, match="unknown executor"):
            api.get_executor("gpu-cluster")

    def test_invalid_env_executor_fails_loudly_in_subprocess(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_SWEEP_EXECUTOR"] = "gpu-clutser"
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.api import resolve_executor; resolve_executor()"],
            env=env, capture_output=True, text=True)
        assert proc.returncode != 0
        assert "REPRO_SWEEP_EXECUTOR" in proc.stderr
        assert "gpu-clutser" in proc.stderr


# --------------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_defaults_mean_no_retry(self):
        policy = api.RetryPolicy().validate()
        assert policy.max_attempts == 1

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            api.RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ValueError, match="backoff"):
            api.RetryPolicy(backoff=-1.0).validate()

    @pytest.mark.parametrize("fields, match", [
        (dict(max_attempts=2.5), "max_attempts"),
        (dict(max_attempts=2.0), "max_attempts"),
        (dict(max_attempts=True), "max_attempts"),
        (dict(backoff=float("nan")), "finite"),
        (dict(backoff=float("inf")), "finite"),
        (dict(backoff_multiplier=float("nan")), "finite"),
        (dict(backoff_multiplier=float("inf")), "finite"),
    ])
    def test_non_finite_or_non_integer_policies_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            api.RetryPolicy(**fields).validate()

    def test_backoff_schedule(self):
        policy = api.RetryPolicy(max_attempts=4, backoff=0.1,
                                 backoff_multiplier=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            api.SweepSession(model="lenet", hardware=None, timeout=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, value):
        with pytest.raises(ValueError, match="timeout"):
            api.SweepSession(model="lenet", hardware=None, timeout=value)
        with api.SweepSession(model="lenet", hardware=None) as session:
            with pytest.raises(ValueError, match="timeout"):
                session.submit(api.CompressionSpec(method="magnitude"),
                               timeout=value)
            assert session.futures == []

    def test_zero_backoff_never_overflows(self):
        policy = api.RetryPolicy(max_attempts=1100).validate()
        assert policy.delay(1100) == 0.0
        assert api.RetryPolicy(backoff=0.0,
                               backoff_multiplier=10.0).delay(5000) == 0.0


# --------------------------------------------------------------------------- #
# Determinism: session streaming == serial reference, on every executor
# --------------------------------------------------------------------------- #
class TestSessionDeterminism:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        return api.run_sweep(cost_specs(), model="lenet", hardware=None,
                             executor="serial")

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_cost_sweep_matches_serial(self, executor, serial_reference):
        sweep = api.run_sweep(cost_specs(), model="lenet", hardware=None,
                              executor=executor, max_workers=2)
        assert sweep_table(sweep) == sweep_table(serial_reference)
        assert sweep.methods() == LIGHT_METHODS

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_streamed_session_matches_serial(self, executor, serial_reference):
        """as_completed consumption must not disturb the spec-ordered merge."""
        with api.SweepSession(model="lenet", hardware=None,
                              executor=executor, max_workers=2) as session:
            futures = session.submit_all(cost_specs())
            seen = {f.spec.method for f in session.as_completed(futures)}
            sweep = session.result()
        assert seen == set(LIGHT_METHODS)
        assert sweep_table(sweep) == sweep_table(serial_reference)

    def test_trained_sweep_identical_across_executors(self, dataset):
        specs = [api.CompressionSpec(method="magnitude", epochs=1),
                 api.CompressionSpec(method="lowrank", epochs=1)]
        tables = []
        for executor in EXECUTORS:
            sweep = api.run_sweep(specs, model="lenet", data=dataset,
                                  hardware=None, executor=executor,
                                  max_workers=2)
            assert sweep.dense.accuracy is not None
            tables.append(sweep_table(sweep))
        assert all(table == tables[0] for table in tables)

    def test_profiled_sweep_merges_identically_across_executors(self, dataset):
        specs = [api.CompressionSpec(method="magnitude", epochs=1, profile=True),
                 api.CompressionSpec(method="lcnn", profile=True)]
        references = None
        for executor in EXECUTORS:
            sweep = api.run_sweep(specs, model="lenet", data=dataset,
                                  hardware=None, executor=executor,
                                  max_workers=2)
            calls = profile_calls(sweep)
            if references is None:
                references = calls
            assert calls == references, executor

    def test_remote_hardware_tables_match_serial(self):
        specs = [api.CompressionSpec(method="magnitude"),
                 api.CompressionSpec(method="fpgm")]
        reference = api.run_sweep(specs, model="lenet",
                                  hardware=api.EYERISS_PAPER, executor="serial")
        sweep = api.run_sweep(specs, model="lenet",
                              hardware=api.EYERISS_PAPER, executor="remote",
                              max_workers=2)
        assert sweep_table(sweep) == sweep_table(reference)
        assert sweep.reports[0].energy_reduction is not None

    def test_user_registered_executor_runs_a_sweep(self, monkeypatch,
                                                   serial_reference):
        """The README contract: ``open`` returns any stock Executor."""
        class StockThreads(api.SweepExecutor):
            name = "stock-threads"

            def open(self, max_workers=None):
                return ThreadPoolExecutor(max_workers=1)

        # A private copy of the registry unregisters it on teardown.
        monkeypatch.setattr(executor_module, "_EXECUTORS",
                            dict(executor_module._EXECUTORS))
        api.register_executor("stock-threads", StockThreads)
        sweep = api.run_sweep(cost_specs(), model="lenet", hardware=None,
                              executor="stock-threads")
        assert sweep_table(sweep) == sweep_table(serial_reference)

    def test_incremental_submits_match_batch(self, serial_reference):
        with api.SweepSession(model="lenet", hardware=None,
                              executor="serial") as session:
            for spec in cost_specs():
                session.submit(spec)
            sweep = session.result()
        assert sweep_table(sweep) == sweep_table(serial_reference)

    def test_dense_baseline_identity_is_preserved(self):
        with api.SweepSession(model="lenet", hardware=None,
                              executor="thread", max_workers=2) as session:
            session.submit_all(cost_specs())
            sweep = session.result()
        assert all(report.dense is sweep.dense for report in sweep.reports)


# --------------------------------------------------------------------------- #
# Futures: callbacks, events, as_completed, cancellation
# --------------------------------------------------------------------------- #
@pytest.fixture
def stall_method():
    """A method whose fit stalls, so pool scheduling can be observed."""
    from repro.api.adapters import MagnitudeMethod
    from repro.api.spec import MagnitudeSpec

    @dataclass
    class StallConfig(MagnitudeSpec):
        stall_seconds: float = 0.5

    @api.register_method("session-stall", StallConfig, policy="—",
                         summary="magnitude pruning behind a stall (test only)")
    class StallMethod(MagnitudeMethod):
        def fit(self, train_loader=None, val_loader=None, epochs: int = 0):
            time.sleep(self.config.stall_seconds)
            return super().fit(train_loader, val_loader, epochs)

    yield "session-stall", StallConfig
    api.unregister_method("session-stall")


class TestFutures:
    def test_submit_returns_resolved_future_for_serial(self):
        with api.SweepSession(model="lenet", hardware=None,
                              executor="serial") as session:
            future = session.submit(api.CompressionSpec(method="magnitude"))
            assert future.done()
            assert future.category is None
            assert future.attempts == 1
            report = future.result()
        assert report.method == "magnitude"

    def test_done_callback_fires_and_late_registration_fires_immediately(self):
        calls = []
        with api.SweepSession(model="lenet", hardware=None,
                              executor="thread") as session:
            future = session.submit(api.CompressionSpec(method="magnitude"))
            future.add_done_callback(lambda f: calls.append(("during", f.index)))
            future.result()
            future.add_done_callback(lambda f: calls.append(("after", f.index)))
        assert ("during", 0) in calls
        assert ("after", 0) in calls

    def test_progress_events_follow_the_lifecycle(self):
        events = []
        with api.SweepSession(model="lenet", hardware=None,
                              executor="serial") as session:
            session.add_progress_callback(lambda e: events.append(e.kind))
            session.submit(api.CompressionSpec(method="magnitude"))
            session.result()
        assert events == ["submitted", "scheduled", "completed"]

    def test_cancel_before_scheduling(self, stall_method):
        name, config = stall_method
        with api.SweepSession(model="lenet", hardware=None,
                              executor="thread", max_workers=1) as session:
            busy = session.submit(api.CompressionSpec(
                method=name, config=config(stall_seconds=0.6), label="busy"))
            queued = session.submit(api.CompressionSpec(method="magnitude",
                                                        label="queued"))
            assert queued.cancel() is True
            assert queued.cancelled()
            assert queued.category == "cancelled"
            with pytest.raises(api.SweepCancelledError):
                queued.result()
            busy.result()  # the running shard is unaffected

    def test_cancel_after_completion_returns_false(self):
        with api.SweepSession(model="lenet", hardware=None,
                              executor="serial") as session:
            future = session.submit(api.CompressionSpec(method="magnitude"))
            assert future.done()
            assert future.cancel() is False
            assert not future.cancelled()

    def test_cancelled_future_recorded_as_skip_failure(self, stall_method):
        name, config = stall_method
        with api.SweepSession(model="lenet", hardware=None,
                              executor="thread", max_workers=1) as session:
            session.submit(api.CompressionSpec(
                method=name, config=config(stall_seconds=0.4), label="busy"))
            queued = session.submit(api.CompressionSpec(method="magnitude"))
            queued.cancel()
            sweep = session.result(on_error="skip")
        assert len(sweep.failures) == 1
        assert sweep.failures[0].category == "cancelled"
        assert sweep.failures[0].error_type == "SweepCancelledError"

    def test_submit_to_closed_session_raises(self):
        session = api.SweepSession(model="lenet", hardware=None)
        session.submit(api.CompressionSpec(method="magnitude"))
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(api.CompressionSpec(method="lowrank"))

    def test_result_without_submissions_raises(self):
        with api.SweepSession(model="lenet", hardware=None) as session:
            with pytest.raises(ValueError, match="no specs"):
                session.result()

    def test_mismatched_conventions_rejected_at_submit(self):
        with api.SweepSession(model="lenet", hardware=None) as session:
            session.submit(api.CompressionSpec(method="magnitude"))
            with pytest.raises(ValueError, match="dense baseline"):
                session.submit(api.CompressionSpec(method="fpgm",
                                                   conv_only=False))

    def test_failed_batch_registration_strands_no_futures(self):
        """A later spec failing registration must resolve the earlier ones."""
        with api.SweepSession(model="lenet", hardware=None,
                              executor="thread") as session:
            with pytest.raises(ValueError, match="dense baseline"):
                session.submit_all([
                    api.CompressionSpec(method="magnitude"),
                    api.CompressionSpec(method="fpgm", conv_only=False),
                ])
            assert session.wait(timeout=2.0)
            future = session.futures[0]
            assert future.done()
            assert future.category == "error"

    def test_inline_executor_runs_calls_in_the_callers_thread(self):
        pool = executor_module.SerialExecutor().open()
        assert isinstance(pool, cf.Executor)
        future = pool.submit(lambda a, b=0: (threading.get_ident(), a + b),
                             1, b=2)
        assert future.done()
        assert future.result() == (threading.get_ident(), 3)

    def test_inline_executor_stores_the_exception(self):
        def boom():
            raise RuntimeError("inline failure")

        future = executor_module.InlineExecutor().submit(boom)
        assert future.done()
        assert isinstance(future.exception(), RuntimeError)
        with pytest.raises(RuntimeError, match="inline failure"):
            future.result()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_futures_are_stock_futures(self, executor):
        with api.SweepSession(model="lenet", hardware=None,
                              executor=executor, max_workers=2) as session:
            futures = session.submit_all(cost_specs())
            assert all(isinstance(f, cf.Future) for f in futures)
            done, not_done = cf.wait(futures, timeout=60)
            assert done == set(futures) and not not_done
            assert set(cf.as_completed(futures)) == set(futures)
            assert [f.result().method for f in futures] == LIGHT_METHODS

    def test_result_timeout_raises_futures_timeout_error(self, stall_method):
        # concurrent.futures.TimeoutError is the builtin only on 3.11+.
        name, config = stall_method
        with api.SweepSession(model="lenet", hardware=None,
                              executor="thread") as session:
            future = session.submit(api.CompressionSpec(
                method=name, config=config(stall_seconds=0.4)))
            with pytest.raises(cf.TimeoutError):
                future.result(timeout=0.01)
            with pytest.raises(cf.TimeoutError):
                future.exception(timeout=0.01)
            assert future.result().method == name

    def test_session_dense_property_matches_sweep(self):
        with api.SweepSession(model="lenet", hardware=None) as session:
            session.submit(api.CompressionSpec(method="magnitude"))
            sweep = session.result()
            assert session.dense is sweep.dense


# --------------------------------------------------------------------------- #
# Lifetime: a finished session is freed by reference counting
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("executor", EXECUTORS)
def test_closed_dropped_session_leaves_nothing_to_the_cyclic_gc(executor):
    """With the cyclic GC off, a closed and deleted session frees itself,
    its futures and their reports at once: ``gc.collect()`` then finds no
    object of the ``repro`` package."""
    gc.collect()
    gc.disable()
    try:
        with api.SweepSession(model="lenet", hardware=None,
                              executor=executor, max_workers=2) as session:
            futures = session.submit_all(cost_specs())
            session.result()
        owned = [session] + futures + [f.result() for f in futures]
        refs = [weakref.ref(obj) for obj in owned]
        del session, futures, owned
        alive = [ref() for ref in refs if ref() is not None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = collections.Counter(
            type(obj).__qualname__ for obj in gc.garbage
            if type(obj).__module__.startswith("repro"))
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    assert not alive, [type(obj).__name__ for obj in alive]
    assert not found, found.most_common(5)


# --------------------------------------------------------------------------- #
# Retry / timeout policy (scheduler-enforced)
# --------------------------------------------------------------------------- #
@pytest.fixture
def flaky_method():
    """A method failing a configurable number of times per process."""
    from repro.api.adapters import MagnitudeMethod
    from repro.api.spec import MagnitudeSpec

    counters = {}

    @dataclass
    class FlakyConfig(MagnitudeSpec):
        fail_times: int = 1
        key: str = "default"

    @api.register_method("session-flaky", FlakyConfig, policy="—",
                         summary="fails N times, then works (test only)")
    class FlakyMethod(MagnitudeMethod):
        def fit(self, train_loader=None, val_loader=None, epochs: int = 0):
            seen = counters.get(self.config.key, 0)
            if seen < self.config.fail_times:
                counters[self.config.key] = seen + 1
                raise RuntimeError(
                    f"flaky failure {seen + 1}/{self.config.fail_times}")
            return super().fit(train_loader, val_loader, epochs)

    yield "session-flaky", FlakyConfig
    api.unregister_method("session-flaky")


class TestRetryAndTimeout:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_retry_then_succeed(self, flaky_method, executor):
        name, config = flaky_method
        reference = api.run_sweep(
            [api.CompressionSpec(method=name,
                                 config=config(fail_times=0, key=f"r0-{executor}"))],
            model="lenet", hardware=None, executor="serial")
        with api.SweepSession(model="lenet", hardware=None,
                              executor=executor) as session:
            future = session.submit(
                api.CompressionSpec(method=name,
                                    config=config(fail_times=1,
                                                  key=f"r1-{executor}")),
                retry=api.RetryPolicy(max_attempts=3, backoff=0.01))
            report = future.result()
            assert future.attempts == 2
            assert future.category is None
            sweep = session.result()
        assert report.cost == reference.reports[0].cost
        assert sweep_table(sweep)[2][0][1:] == sweep_table(reference)[2][0][1:]

    def test_retries_exhausted_resolve_as_error(self, flaky_method):
        name, config = flaky_method
        with api.SweepSession(model="lenet", hardware=None,
                              executor="thread") as session:
            future = session.submit(
                api.CompressionSpec(method=name,
                                    config=config(fail_times=10, key="spent")),
                retry=api.RetryPolicy(max_attempts=2, backoff=0.01))
            with pytest.raises(RuntimeError, match="flaky failure"):
                future.result()
            assert future.attempts == 2
            assert future.category == "error"
            sweep = session.result(on_error="skip")
        failure = sweep.failures[0]
        assert failure.attempts == 2
        assert failure.category == "error"
        assert failure.error_type == "RuntimeError"

    def test_retrying_events_are_emitted(self, flaky_method):
        name, config = flaky_method
        kinds = []
        with api.SweepSession(model="lenet", hardware=None,
                              executor="serial") as session:
            session.add_progress_callback(lambda e: kinds.append(e.kind))
            session.submit(
                api.CompressionSpec(method=name,
                                    config=config(fail_times=1, key="events")),
                retry=api.RetryPolicy(max_attempts=2))
            session.result()
        assert kinds == ["submitted", "scheduled", "retrying", "scheduled",
                         "completed"]

    def test_many_inline_retries_keep_the_stack_flat(self, flaky_method):
        """Serial retries loop in the submitting thread, never recurse."""
        name, config = flaky_method
        fails = sys.getrecursionlimit() // 4
        with api.SweepSession(model="lenet", hardware=None,
                              executor="serial") as session:
            future = session.submit(
                api.CompressionSpec(method=name,
                                    config=config(fail_times=fails,
                                                  key="deep")),
                retry=api.RetryPolicy(max_attempts=fails + 1))
            assert future.done()
            assert future.category is None
            assert future.attempts == fails + 1

    def test_timeout_then_skip_keeps_healthy_shards(self, stall_method):
        name, config = stall_method
        specs = [api.CompressionSpec(method=name,
                                     config=config(stall_seconds=10.0),
                                     label="slow"),
                 api.CompressionSpec(method="magnitude")]
        with api.SweepSession(model="lenet", hardware=None,
                              executor="thread", max_workers=2) as session:
            slow = session.submit(specs[0], timeout=0.3)
            session.submit(specs[1])
            with pytest.raises(api.SweepTimeoutError, match="0.3s timeout"):
                slow.result()
            assert slow.category == "timeout"
            sweep = session.result(on_error="skip")
        assert sweep.methods() == ["magnitude"]
        failure = sweep.failures[0]
        assert failure.category == "timeout"
        assert failure.index == 0
        assert failure.error_type == "SweepTimeoutError"
        # run_sweep semantics on top of the same scheduler: on_error="raise"
        # would have re-raised; "skip" recorded the timeout as a failure.
        assert failure.attempts == 1

    def test_inline_timeout_enforced_post_hoc(self, stall_method):
        """Serial shards cannot be preempted; the deadline still binds."""
        name, config = stall_method
        with api.SweepSession(model="lenet", hardware=None,
                              executor="serial") as session:
            future = session.submit(
                api.CompressionSpec(method=name,
                                    config=config(stall_seconds=0.3)),
                timeout=0.05)
            assert future.done()
            assert future.category == "timeout"
            with pytest.raises(api.SweepTimeoutError, match="inline"):
                future.result()
            sweep = session.result(on_error="skip")
        assert sweep.failures[0].category == "timeout"

    def test_timeout_cancels_queued_shard_before_it_starts(self, stall_method):
        name, config = stall_method
        with api.SweepSession(model="lenet", hardware=None,
                              executor="thread", max_workers=1) as session:
            session.submit(api.CompressionSpec(
                method=name, config=config(stall_seconds=0.8), label="busy"))
            queued = session.submit(api.CompressionSpec(method="magnitude"),
                                    timeout=0.2)
            assert queued.exception() is not None
            assert queued.category == "timeout"
            sweep = session.result(on_error="skip")
        assert sweep.failures[0].category == "timeout"


# --------------------------------------------------------------------------- #
# repro-job/1 wire protocol + workers
# --------------------------------------------------------------------------- #
def make_job(spec=None, **overrides):
    dense = api.DenseBaseline(
        profile=None, cost={"params": 10.0, "macs": 20.0, "ops": 40.0},
        hardware=None, accuracy=0.5)
    defaults = dict(
        spec=spec or api.CompressionSpec(method="magnitude",
                                         input_shape=INPUT_SHAPE),
        model="lenet", seed=3, dense=dense, engine=None, hardware=None,
        data=api.LoaderPlan(kind="none"), job_id=7)
    defaults.update(overrides)
    return api.SweepJob(**defaults)


class TestJobWireFormat:
    def test_job_round_trips_through_json(self):
        job = make_job()
        payload = json.loads(json.dumps(job.to_dict()))
        assert payload["schema"] == api.JOB_SCHEMA
        restored = api.SweepJob.from_dict(payload)
        assert restored.spec == job.spec
        assert restored.model == "lenet"
        assert restored.seed == 3
        assert restored.job_id == 7
        assert restored.dense.cost == job.dense.cost
        assert restored.dense.accuracy == job.dense.accuracy

    def test_live_model_job_has_no_wire_form(self):
        from repro.models import lenet
        job = make_job(model=lenet(num_classes=4, in_channels=1, width=8,
                                   rng=np.random.default_rng(0)))
        with pytest.raises(TypeError, match="registry name"):
            job.to_dict()

    def test_unknown_job_schema_rejected(self):
        payload = make_job().to_dict()
        payload["schema"] = "repro-job/9"
        with pytest.raises(ValueError, match="repro-job/1"):
            api.SweepJob.from_dict(payload)

    def test_tampered_dense_baseline_rejected_by_digest(self):
        payload = make_job().to_dict()
        payload["dense"]["cost"]["ops"] = 999.0
        with pytest.raises(ValueError, match="digest"):
            api.SweepJob.from_dict(payload)

    def test_engine_and_hardware_round_trip(self):
        from repro.api.executor import EngineState
        from repro.nn.backend import get_backend
        engine = EngineState(backend=get_backend("numpy32"),
                             grad_override=False)
        job = make_job(engine=engine, hardware=api.EYERISS_PAPER)
        restored = api.SweepJob.from_dict(
            json.loads(json.dumps(job.to_dict())))
        assert restored.engine == engine
        assert restored.hardware == api.EYERISS_PAPER

    def test_synthetic_data_round_trips_exactly(self, dataset):
        train, val = dataset.split(0.8)
        plan = api.LoaderPlan(kind="synthetic", train_split=train,
                              val_split=val, seed=5)
        restored = api.LoaderPlan.from_payload(
            json.loads(json.dumps(plan.to_payload())))
        np.testing.assert_array_equal(restored.train_split.images, train.images)
        np.testing.assert_array_equal(restored.val_split.labels, val.labels)
        assert restored.seed == 5

    def test_template_loaders_have_no_wire_format(self, dataset):
        loader = DataLoader(dataset, batch_size=8)
        plan = api.LoaderPlan(kind="template", template=(loader, None))
        with pytest.raises(TypeError, match="remote"):
            plan.to_payload()

    def test_execute_job_matches_serial_pipeline(self):
        reference = api.run_sweep(
            [api.CompressionSpec(method="magnitude")], model="lenet",
            hardware=None, seed=3, executor="serial")
        dense = reference.dense
        shard_dense = api.DenseBaseline(profile=None, cost=dense.cost,
                                        hardware=None, accuracy=dense.accuracy)
        job = make_job(
            spec=reference.reports[0].spec, dense=shard_dense, seed=3)
        report = api.execute_job(
            api.SweepJob.from_dict(json.loads(json.dumps(job.to_dict()))))
        assert report.cost == reference.reports[0].cost

    def test_sweep_failure_round_trips(self):
        failure = api.SweepFailure(
            index=2, spec=api.CompressionSpec(method="magnitude"),
            error_type="RuntimeError", message="boom",
            exception=RuntimeError("boom"), attempts=3, category="timeout")
        payload = json.loads(json.dumps(failure.to_dict()))
        assert payload["schema"] == api.FAILURE_SCHEMA
        restored = api.SweepFailure.from_dict(payload)
        assert restored.index == 2
        assert restored.attempts == 3
        assert restored.category == "timeout"
        assert restored.exception is None
        assert restored.spec == failure.spec

    def test_sweep_failure_rejects_unknown_schema_and_category(self):
        failure = api.SweepFailure(
            index=0, spec=api.CompressionSpec(method="magnitude"),
            error_type="RuntimeError", message="boom")
        payload = failure.to_dict()
        bad_schema = dict(payload, schema="repro-failure/9")
        with pytest.raises(ValueError, match="repro-failure/1"):
            api.SweepFailure.from_dict(bad_schema)
        bad_category = dict(payload, category="melted")
        with pytest.raises(ValueError, match="category"):
            api.SweepFailure.from_dict(bad_category)


class TestWorkerProtocol:
    def test_worker_round_trips_a_job_over_text_streams(self):
        reference = api.run_sweep([api.CompressionSpec(method="magnitude")],
                                  model="lenet", hardware=None, seed=3,
                                  executor="serial")
        dense = reference.dense
        job = make_job(
            spec=reference.reports[0].spec,
            dense=api.DenseBaseline(profile=None, cost=dense.cost,
                                    hardware=None, accuracy=dense.accuracy),
            seed=3)
        stdin = io.StringIO(json.dumps(job.to_dict()) + "\n"
                            + json.dumps({"op": "shutdown"}) + "\n")
        stdout = io.StringIO()
        assert api.worker_main(stdin, stdout) == 0
        lines = [line for line in stdout.getvalue().splitlines() if line]
        assert len(lines) == 1
        result = json.loads(lines[0])
        assert result["schema"] == api.JOB_RESULT_SCHEMA
        assert result["ok"] is True
        assert result["job_id"] == 7
        report = api.CompressionReport.from_dict(result["report"])
        assert report.cost == reference.reports[0].cost

    def test_worker_reports_job_failures_as_protocol_data(self):
        payload = make_job().to_dict()
        payload["model"] = "no-such-model"
        # Recompute nothing: model name is outside the digest-guarded dense
        # payload, so the job parses and fails at build time in the worker.
        stdin = io.StringIO(json.dumps(payload) + "\n")
        stdout = io.StringIO()
        api.worker_main(stdin, stdout)
        result = json.loads(stdout.getvalue().splitlines()[0])
        assert result["ok"] is False
        assert result["error"]["type"] == "KeyError"
        assert "no-such-model" in result["error"]["message"]

    def test_worker_survives_malformed_lines(self):
        stdin = io.StringIO("this is not json\n"
                            + json.dumps({"op": "shutdown"}) + "\n")
        stdout = io.StringIO()
        assert api.worker_main(stdin, stdout) == 0
        result = json.loads(stdout.getvalue().splitlines()[0])
        assert result["ok"] is False

    def test_worker_answers_non_object_frames_and_keeps_serving(self):
        stdin = io.StringIO("[1, 2]\n\"x\"\n3\nnull\n"
                            + json.dumps({"op": "shutdown"}) + "\n")
        stdout = io.StringIO()
        assert api.worker_main(stdin, stdout) == 0
        results = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert len(results) == 4
        for result in results:
            assert result["schema"] == api.JOB_RESULT_SCHEMA
            assert result["ok"] is False
            assert result["job_id"] == -1
            assert "JSON object" in result["error"]["message"]


class TestRemoteExecutor:
    def test_remote_requires_model_registry_name(self):
        from repro.models import lenet
        model = lenet(num_classes=4, in_channels=1, width=8,
                      rng=np.random.default_rng(0))
        with pytest.raises(TypeError, match="registry"):
            api.run_sweep([api.CompressionSpec(method="magnitude")],
                          model=model, hardware=None,
                          input_shape=(1, 12, 12), executor="remote")

    def test_bootstrap_failure_resolves_registered_futures(self):
        """A baseline that cannot materialize must not strand futures."""
        from repro.models import lenet
        model = lenet(num_classes=4, in_channels=1, width=8,
                      rng=np.random.default_rng(0))
        session = api.SweepSession(model=model, hardware=None,
                                   input_shape=(1, 12, 12), executor="remote")
        with session:
            with pytest.raises(TypeError, match="registry"):
                session.submit(api.CompressionSpec(method="magnitude"))
            future = session.futures[0]
            assert future.done()
            assert future.category == "error"
            assert session.wait(timeout=1.0)
            with pytest.raises(TypeError, match="registry"):
                future.result()

    def test_non_job_tasks_rejected_with_a_clear_error(self):
        """The remote transport moves repro-job/1 text, never task objects."""
        pool = api.RemoteExecutor().open(max_workers=1)
        try:
            with pytest.raises(TypeError, match="repro-job/1"):
                pool.submit(None, object())
        finally:
            pool.shutdown()

    def test_transport_failure_fails_the_shard_without_stranding_workers(self):
        """A worker slot must come back even when the round-trip itself dies."""
        bad = make_job().to_dict()
        bad["hardware"] = object()  # passes validation, defeats json.dumps
        good = make_job().to_dict()
        pool = api.RemoteExecutor().open(max_workers=1)
        try:
            # The failed shard discards its worker; the next shard must get
            # a fresh one instead of deadlocking on a lost capacity slot.
            first = pool.submit(None, bad).exception(timeout=60)
            second = pool.submit(None, good).exception(timeout=120)
        finally:
            pool.shutdown()
        assert isinstance(first, TypeError)
        assert second is None

    def test_remote_pool_spawns_workers_lazily(self):
        """A single job must not fork a whole host's worth of workers."""
        job = make_job()
        pool = api.RemoteExecutor().open(max_workers=4)
        try:
            error = pool.submit(None, job.to_dict()).exception(timeout=120)
            assert error is None
            assert len(pool._workers) == 1
        finally:
            pool.shutdown()

    def test_no_remote_worker_outlives_its_pool(self, monkeypatch):
        spawned = []
        spawn = jobs_module._WorkerProcess.__init__

        def recording_spawn(worker):
            spawn(worker)
            spawned.append(worker)

        monkeypatch.setattr(jobs_module._WorkerProcess, "__init__",
                            recording_spawn)
        api.run_sweep(cost_specs(), model="lenet", hardware=None,
                      executor="remote", max_workers=2)
        assert 1 <= len(spawned) <= 2
        swept = len(spawned)

        # More pool threads than cores and a short switch interval, so the
        # worker bookkeeping races; the first job fails in transport.
        bad = make_job().to_dict()
        bad["hardware"] = object()
        jobs = [bad] + [make_job(job_id=i).to_dict() for i in range(7)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        pool = api.RemoteExecutor().open(max_workers=4)
        try:
            errors = [future.exception(timeout=120) for future in
                      [pool.submit(None, job) for job in jobs]]
            live = len(pool._workers)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert isinstance(errors[0], TypeError)
        assert errors[1:] == [None] * 7
        # Every spawn but the retired one is tracked until shutdown.
        assert live == len(spawned) - swept - 1 <= 4
        assert pool._workers == []
        assert all(worker.process.poll() is not None for worker in spawned)

    def test_remote_rejects_template_loaders(self, dataset):
        train, val = dataset.split(0.8)
        loaders = (DataLoader(train, batch_size=8), DataLoader(val, batch_size=8))
        with pytest.raises(TypeError, match="remote"):
            api.run_sweep([api.CompressionSpec(method="magnitude")],
                          model="lenet", data=loaders, hardware=None,
                          executor="remote")

    def test_remote_worker_error_recorded_as_failure(self):
        # AMCSpec validation fails inside the worker (iterations <= 0): the
        # failure must come back as protocol data, not kill the sweep.
        specs = [api.CompressionSpec(method="magnitude"),
                 api.CompressionSpec(method="amc",
                                     config=api.AMCSpec(iterations=0))]
        sweep = api.run_sweep(specs, model="lenet", hardware=None,
                              executor="remote", on_error="skip")
        assert sweep.methods() == ["magnitude"]
        failure = sweep.failures[0]
        assert failure.index == 1
        assert failure.error_type == "RemoteJobError"
        assert "iterations" in failure.message

    def test_remote_reports_are_wire_reconstructed(self):
        sweep = api.run_sweep([api.CompressionSpec(method="magnitude")],
                              model="lenet", hardware=None, executor="remote")
        # No live model travels over the JSON protocol...
        assert sweep.reports[0].compressed.model is None
        # ...but the merge rebinds the parent's full dense baseline.
        assert sweep.reports[0].dense is sweep.dense
