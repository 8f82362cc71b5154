"""The ``repro-job/1`` wire protocol: sweep shards as pure-JSON payloads.

A :class:`SweepJob` is everything an *off-host* worker needs to run one
:class:`~repro.api.spec.CompressionSpec` — the spec's ``to_dict()``
payload, the **model registry name** plus build seed (never a live
module), the parent's table-level dense baseline guarded by a SHA-256
digest, the engine snapshot (backend / dtype / grad mode, by name), the
accelerator spec, and the data *recipe*.  The whole job round-trips
through JSON, so any transport that moves text — stdio, ssh, a job queue
— can move sweep shards.

Two result schemas complete the protocol:

* ``repro-job/1`` — parent → worker, one job;
* ``repro-job-result/1`` — worker → parent, either ``ok: true`` with a
  ``repro-report/1`` payload or ``ok: false`` with the error's type and
  message.

Jobs may also carry a serialized **compiled plan** instead of a spec:
:func:`plan_job_payload` ships a ``repro-plan/1`` payload plus one input
batch, the worker executes it via :func:`execute_plan_job`, and the
result frame returns the output array — bit-identical to the sender's
local forward (see :func:`run_plan_remote`).

:class:`RemoteExecutor` (registered as ``"remote"``) is the reference
transport: a pool of worker subprocesses (``python -m repro.api.worker``)
speaking exactly one JSON line per job over stdin/stdout.  It exists to
*prove* the protocol supports off-host workers — results streamed back
through it merge bit-identically with the serial path — and to serve as
the template for ssh / job-queue transports.
"""

from __future__ import annotations

import copy
import json
import os
import queue
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Mapping, Optional

import numpy as np

from ..data import DataLoader, SyntheticImageDataset
from ..hardware import EnergyTable, EyerissSpec
from ..models import build_model
from ..wire import (array_from_payload, array_to_payload, check_schema,
                    payload_digest)
from .executor import (
    EngineState,
    ShardPool,
    ShardResult,
    SweepExecutor,
    op_hook_isolation,
    register_executor,
)
from .pipeline import CompressionPipeline, CompressionReport, DenseBaseline
from .spec import CompressionSpec

#: Wire-format identifier of :meth:`SweepJob.to_dict` payloads.
JOB_SCHEMA = "repro-job/1"
#: Wire-format identifier of worker result payloads.
JOB_RESULT_SCHEMA = "repro-job-result/1"


class RemoteJobError(RuntimeError):
    """A job failed *inside* a remote worker.

    Carries the worker-side exception's type name and message — the live
    exception object never travels (the protocol is JSON-only).
    """

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.error_message = message


class RemoteWorkerError(RuntimeError):
    """The worker *transport* failed (crash, EOF, malformed protocol line)."""


# --------------------------------------------------------------------------- #
# JSON codecs: datasets, loader plans, hardware specs, engine state
# --------------------------------------------------------------------------- #
def dataset_to_payload(dataset: SyntheticImageDataset) -> Dict[str, Any]:
    return {
        "images": array_to_payload(dataset.images),
        "labels": array_to_payload(dataset.labels),
        "num_classes": int(dataset.num_classes),
        "name": dataset.name,
    }


def dataset_from_payload(payload: Mapping[str, Any]) -> SyntheticImageDataset:
    return SyntheticImageDataset(
        images=array_from_payload(payload["images"]),
        labels=array_from_payload(payload["labels"]),
        num_classes=int(payload["num_classes"]),
        name=payload.get("name", "synthetic"),
    )


@dataclass
class LoaderPlan:
    """Deterministic, position-independent recipe for building shard loaders.

    ``DataLoader`` shuffling advances a persistent RNG, so handing the same
    loader object to several consumers would make each one's batch order —
    and thus its result — depend on its position in the spec list.  Every
    consumer (the dense probe and each shard, wherever it runs) therefore
    builds its loaders from this plan: freshly-seeded loaders over the
    one-time dataset split, or a deep copy of the pristine resolved pair.
    The plan is picklable, and the ``none`` / ``synthetic`` kinds also
    round-trip through the JSON wire format (:meth:`to_payload`), which is
    how data reaches ``repro-job/1`` workers; a ``template`` plan wraps
    live user loaders and can only travel by pickle.
    """

    kind: str  # "none" | "synthetic" | "template"
    train_split: Any = None
    val_split: Any = None
    seed: int = 0
    template: Any = None

    def make(self):
        if self.kind == "none":
            return None
        if self.kind == "synthetic":
            return (DataLoader(self.train_split, batch_size=32, shuffle=True,
                               seed=self.seed),
                    DataLoader(self.val_split, batch_size=64))
        return copy.deepcopy(self.template)

    # -- wire format ---------------------------------------------------- #
    def to_payload(self) -> Optional[Dict[str, Any]]:
        """The JSON data recipe, or a ``TypeError`` for live-loader plans."""
        if self.kind == "none":
            return None
        if self.kind == "template":
            raise TypeError(
                "user-supplied DataLoader objects have no JSON wire format "
                "and cannot be shipped to repro-job/1 workers; pass a "
                "SyntheticImageDataset (or data=None) for sweeps that run "
                "on the remote executor")
        return {
            "kind": "synthetic",
            "seed": int(self.seed),
            "train": dataset_to_payload(self.train_split),
            "val": dataset_to_payload(self.val_split),
        }

    @classmethod
    def from_payload(cls, payload: Optional[Mapping[str, Any]]) -> "LoaderPlan":
        if payload is None:
            return cls(kind="none")
        return cls(kind="synthetic", seed=int(payload["seed"]),
                   train_split=dataset_from_payload(payload["train"]),
                   val_split=dataset_from_payload(payload["val"]))


def hardware_to_payload(spec: Optional[EyerissSpec]) -> Optional[Dict[str, Any]]:
    if spec is None:
        return None
    import dataclasses
    payload = dataclasses.asdict(spec)
    payload["energy"] = dataclasses.asdict(spec.energy)
    return payload


def hardware_from_payload(payload: Optional[Mapping[str, Any]]
                          ) -> Optional[EyerissSpec]:
    if payload is None:
        return None
    fields = dict(payload)
    fields["energy"] = EnergyTable(**fields["energy"])
    return EyerissSpec(**fields).validate()


def engine_to_payload(state: Optional[EngineState]) -> Optional[Dict[str, Any]]:
    if state is None:
        return None
    return {"backend": state.execution.backend, "dtype": state.execution.dtype,
            "grad_override": state.grad_override}


def engine_from_payload(payload: Optional[Mapping[str, Any]]
                        ) -> Optional[EngineState]:
    if payload is None:
        return None
    from ..nn.backend import ExecutionState
    return EngineState(
        execution=ExecutionState(backend=payload["backend"],
                                 dtype=payload["dtype"]),
        grad_override=payload.get("grad_override"))


def state_to_payload(state: Optional[Mapping[str, np.ndarray]]
                     ) -> Optional[Dict[str, Any]]:
    """Encode a module state dict (name → ndarray) for the JSON wire."""
    if state is None:
        return None
    return {name: array_to_payload(np.asarray(array))
            for name, array in state.items()}


def state_from_payload(payload: Optional[Mapping[str, Any]]
                       ) -> Optional[Dict[str, np.ndarray]]:
    if payload is None:
        return None
    return {name: array_from_payload(entry)
            for name, entry in payload.items()}


# --------------------------------------------------------------------------- #
# The job
# --------------------------------------------------------------------------- #
@dataclass
class SweepJob:
    """One sweep shard, fully described without any live python object.

    The worker bootstrap is *by name and seed*: ``model`` is a
    :func:`repro.models.build_model` registry name and ``seed`` the RNG
    seed it was built with in the parent, so the worker's rebuild is
    bit-identical to the parent's deep copy.  The dense baseline travels
    table-level (:meth:`DenseBaseline.to_dict`) and is integrity-checked
    on arrival against its ``dense_digest``, the
    :func:`~repro.wire.payload_digest` of that payload: a shard evaluated
    against a corrupted (or wrong sweep's) baseline would silently
    produce incomparable reductions.
    """

    spec: CompressionSpec
    model: str
    seed: int
    dense: DenseBaseline
    engine: Optional[EngineState] = None
    hardware: Optional[EyerissSpec] = None
    data: LoaderPlan = field(default_factory=lambda: LoaderPlan(kind="none"))
    job_id: int = 0
    #: Optional warm-start checkpoint (name → ndarray) seeding fine-tuning
    #: from a cached near-miss run; ``None`` runs the cold path.
    warm: Optional[Dict[str, np.ndarray]] = None

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-safe ``repro-job/1`` payload (round-trips exactly)."""
        dense_payload = self.dense.to_dict()
        return {
            "schema": JOB_SCHEMA,
            "job_id": int(self.job_id),
            "spec": self.spec.to_dict(),
            "model": self.model,
            "seed": int(self.seed),
            "dense": dense_payload,
            "dense_digest": payload_digest(dense_payload),
            "engine": engine_to_payload(self.engine),
            "hardware": hardware_to_payload(self.hardware),
            "data": self.data.to_payload(),
            "warm": state_to_payload(self.warm),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepJob":
        check_schema(payload, JOB_SCHEMA)
        dense_payload = payload["dense"]
        if payload.get("dense_digest") != payload_digest(dense_payload):
            raise ValueError(
                "dense-baseline digest mismatch: the repro-job/1 payload was "
                "corrupted in transport (or pairs a shard with the wrong "
                "sweep's baseline)")
        if not isinstance(payload["model"], str):
            raise TypeError("repro-job/1 requires a model registry name")
        return cls(
            spec=CompressionSpec.from_dict(payload["spec"]),
            model=payload["model"],
            seed=int(payload["seed"]),
            dense=DenseBaseline.from_dict(dense_payload),
            engine=engine_from_payload(payload.get("engine")),
            hardware=hardware_from_payload(payload.get("hardware")),
            data=LoaderPlan.from_payload(payload.get("data")),
            job_id=int(payload.get("job_id", 0)),
            warm=state_from_payload(payload.get("warm")),
        )


def execute_job(job: SweepJob) -> CompressionReport:
    """Run one job to a report — the worker-side half of the protocol.

    Mirrors the in-process shard execution exactly: the engine snapshot is
    re-applied (or hook isolation alone when no snapshot travelled), the
    model is rebuilt from the registry at the job's seed, loaders come from
    the data recipe, and the broadcast dense baseline suppresses the dense
    stage.
    """
    scope = job.engine.scope() if job.engine is not None else op_hook_isolation()
    with scope:
        model = build_model(job.model, rng=np.random.default_rng(job.seed))
        pipeline = CompressionPipeline(job.spec, hardware=job.hardware)
        return pipeline.run(model=model, data=job.data.make(),
                            dense=job.dense, inplace=True,
                            warm_start=job.warm)


# --------------------------------------------------------------------------- #
# Compiled-plan jobs: ship a serialized plan instead of a spec
# --------------------------------------------------------------------------- #
def plan_job_payload(plan: Any, x: Any, job_id: int = 0) -> Dict[str, Any]:
    """One ``repro-job/1`` payload carrying a compiled plan and its input.

    ``plan`` is an :class:`~repro.deploy.InferencePlan` or its serialized
    ``repro-plan/1`` mapping; ``x`` the input batch.  A worker receiving
    this executes the plan on the shipped input and returns the output
    array — bit-identically to the sender's local forward, since the plan
    wire form round-trips exactly (weights travel as base64-npy with
    their memory layout preserved).
    """
    plan_payload = dict(plan) if isinstance(plan, Mapping) else plan.to_dict()
    return {"schema": JOB_SCHEMA, "job_id": int(job_id),
            "plan": plan_payload,
            "plan_input": array_to_payload(np.asarray(x))}


def execute_plan_job(message: Mapping[str, Any]) -> np.ndarray:
    """Deserialize and run one shipped plan — the worker-side half."""
    from ..deploy import InferencePlan

    plan = InferencePlan.from_dict(message["plan"])
    out = plan(array_from_payload(message["plan_input"]))
    return np.asarray(getattr(out, "data", out))


# --------------------------------------------------------------------------- #
# Worker loop (the subprocess side of the stdio transport)
# --------------------------------------------------------------------------- #
def job_result_payload(job_id: int, report: Optional[CompressionReport] = None,
                       error: Optional[BaseException] = None) -> Dict[str, Any]:
    """Build one ``repro-job-result/1`` payload (ok or error form)."""
    if error is not None:
        return {"schema": JOB_RESULT_SCHEMA, "job_id": int(job_id), "ok": False,
                "error": {"type": type(error).__name__, "message": str(error)}}
    return {"schema": JOB_RESULT_SCHEMA, "job_id": int(job_id), "ok": True,
            "report": report.to_dict()}


def worker_main(stdin: Optional[IO[str]] = None,
                stdout: Optional[IO[str]] = None) -> int:
    """Serve ``repro-job/1`` payloads over line-delimited JSON until EOF.

    One line in, one line out, strictly in order.  ``{"op": "shutdown"}``
    ends the loop early.  The worker claims the real stdout for protocol
    frames and points ``sys.stdout`` at stderr, so nothing a compression
    method prints can corrupt the stream.
    """
    proto_in = stdin if stdin is not None else sys.stdin
    proto_out = stdout if stdout is not None else sys.stdout
    if stdout is None:
        sys.stdout = sys.stderr
    for line in proto_in:
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            proto_out.write(json.dumps(job_result_payload(-1, error=exc)) + "\n")
            proto_out.flush()
            continue
        if message.get("op") == "shutdown":
            break
        job_id = message.get("job_id", -1)
        try:
            if message.get("plan") is not None:
                output = execute_plan_job(message)
                payload = {"schema": JOB_RESULT_SCHEMA,
                           "job_id": int(job_id), "ok": True,
                           "output": array_to_payload(output)}
            else:
                report = execute_job(SweepJob.from_dict(message))
                payload = job_result_payload(job_id, report=report)
        except Exception as exc:  # job failures are protocol data, not crashes
            payload = job_result_payload(job_id, error=exc)
        proto_out.write(json.dumps(payload) + "\n")
        proto_out.flush()
    return 0


# --------------------------------------------------------------------------- #
# Parent-side transport: subprocess workers over stdio
# --------------------------------------------------------------------------- #
def _coerce_job_payload(task: Any) -> Dict[str, Any]:
    """Accept a :class:`SweepJob` or its payload dict; reject anything else.

    The remote transport moves ``repro-job/1`` text, not pickled task
    objects — a :class:`~repro.api.session.ShardTask` (or any other value)
    must fail here with a clear message instead of surfacing as an opaque
    ``json.dumps`` error after burning a worker subprocess.
    """
    if isinstance(task, SweepJob):
        return task.to_dict()
    if isinstance(task, Mapping) and task.get("schema") == JOB_SCHEMA:
        return dict(task)
    raise TypeError(
        f"the remote executor transports '{JOB_SCHEMA}' payloads (a SweepJob "
        f"or its to_dict() form), got {type(task).__name__}; in-process task "
        "objects cannot travel over the JSON worker protocol")


class _WorkerProcess:
    """One persistent ``python -m repro.api.worker`` subprocess."""

    def __init__(self):
        import repro
        env = dict(os.environ)
        # The worker must import the same repro package as the parent even
        # when it was put on the path by pytest / a src-layout checkout.
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.api.worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env)

    def roundtrip(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            self.process.stdin.write(json.dumps(payload) + "\n")
            self.process.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise RemoteWorkerError(f"worker stdin closed: {exc}") from None
        line = self.process.stdout.readline()
        if not line:
            raise RemoteWorkerError(
                f"worker exited mid-job (returncode="
                f"{self.process.poll()})")
        try:
            result = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RemoteWorkerError(
                f"malformed worker protocol line: {exc}") from None
        try:
            check_schema(result, JOB_RESULT_SCHEMA)
        except (TypeError, ValueError) as exc:
            raise RemoteWorkerError(str(exc)) from None
        return result

    def alive(self) -> bool:
        return self.process.poll() is None

    def close(self) -> None:
        try:
            if self.alive():
                self.process.stdin.write(json.dumps({"op": "shutdown"}) + "\n")
                self.process.stdin.flush()
                self.process.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.alive():
                self.process.kill()
                self.process.wait()


def run_plan_remote(plan: Any, x: Any) -> np.ndarray:
    """Ship ``plan`` and ``x`` to a fresh worker subprocess; return its output.

    The reference transport for plan shipping: a worker that never saw the
    model (or this process's memory) reproduces the local forward bit for
    bit from the ``repro-plan/1`` wire form alone.  Raises
    :class:`RemoteJobError` when the worker reports a failure.
    """
    worker = _WorkerProcess()
    try:
        result = worker.roundtrip(plan_job_payload(plan, x))
    finally:
        worker.close()
    if not result.get("ok"):
        error = result.get("error") or {}
        raise RemoteJobError(error.get("type", "Error"),
                             error.get("message", "plan job failed"))
    return array_from_payload(result["output"])


class _RemoteShardPool(ShardPool):
    """Worker subprocesses checked out by up to N submitter threads.

    Subprocesses spawn lazily — one per concurrently-running job, up to the
    capacity — so a single-spec session does not fork a whole host's worth
    of interpreters.  A worker that crashes (or corrupts the protocol) is
    discarded and its capacity slot freed, so later shards spawn a fresh
    one instead of waiting on a queue entry that will never return.
    """

    def __init__(self, workers: int):
        from concurrent.futures import ThreadPoolExecutor
        self._capacity = workers
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="repro-remote")
        self._idle: "queue.Queue[_WorkerProcess]" = queue.Queue()
        self._all: List[_WorkerProcess] = []
        self._spawned = 0
        self._lock = threading.Lock()
        self._closed = False

    def _checkout(self) -> _WorkerProcess:
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue.Empty:
                break
            if worker is not None:  # None = close() wake-up sentinel
                return worker
        with self._lock:
            if self._closed:
                raise RemoteWorkerError("the remote shard pool is closed")
            spawn = self._spawned < self._capacity
            if spawn:
                self._spawned += 1
        if not spawn:
            # Capacity is fully deployed: wait for a busy worker to return
            # (at most `capacity` jobs run concurrently, each holding one).
            # close() feeds sentinels so this wait can never outlive the
            # pool — a woken waiter fails its shard instead of hanging
            # shutdown(wait=True).
            worker = self._idle.get()
            if worker is None:
                raise RemoteWorkerError("the remote shard pool is closed")
            return worker
        worker = _WorkerProcess()
        with self._lock:
            self._all.append(worker)
        return worker

    def _checkin(self, worker: _WorkerProcess) -> None:
        with self._lock:
            closed = self._closed
        if closed:
            worker.close()
            return
        self._idle.put(worker)

    def _discard(self, worker: _WorkerProcess) -> None:
        with self._lock:
            if worker in self._all:
                self._all.remove(worker)
            self._spawned -= 1
        worker.close()

    def _run_job(self, index: int, payload: Dict[str, Any]) -> ShardResult:
        worker = self._checkout()
        healthy = False
        try:
            result = worker.roundtrip(payload)
            healthy = True
        except Exception as exc:
            # RemoteWorkerError (crash, EOF, malformed frame) or anything
            # unexpected (e.g. an unencodable payload): surface it as this
            # shard's failure — the finally block frees the capacity slot
            # either way, so later shards never wait on a stranded worker.
            return ShardResult(index=index, error=exc)
        finally:
            if healthy:
                self._checkin(worker)
            else:
                self._discard(worker)
        if result.get("ok"):
            return ShardResult(
                index=index,
                value=CompressionReport.from_dict(result["report"]))
        error = result.get("error") or {}
        return ShardResult(index=index, error=RemoteJobError(
            error.get("type", "Exception"), error.get("message", "")))

    def submit(self, fn, index, task):
        # ``fn`` (the in-process shard callable) is unused — the worker
        # subprocess is the callee.
        return self._pool.submit(self._run_job, index, _coerce_job_payload(task))

    def close(self, wait: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Wake every _checkout blocked on the idle queue (one sentinel per
        # possible waiter) so shutdown(wait=True) cannot deadlock on a
        # shard thread that will never be handed a worker.
        for _ in range(self._capacity):
            self._idle.put(None)
        self._pool.shutdown(wait=wait)
        with self._lock:
            workers = list(self._all)
            self._all.clear()
        for worker in workers:
            worker.close()


class RemoteExecutor(SweepExecutor):
    """Reference remote strategy: jobs round-trip through stdio workers.

    Shards travel as ``repro-job/1`` JSON lines to persistent
    ``python -m repro.api.worker`` subprocesses and come back as
    ``repro-report/1`` payloads — no pickle, no shared memory, no live
    objects — proving the protocol supports genuinely off-host workers
    (an ssh or job-queue transport only has to move the same text).
    Results are wire-reconstructed, so reports carry every table-level
    quantity but no live compressed model.
    """

    name = "remote"
    wire = True

    def open(self, max_workers: Optional[int] = None) -> ShardPool:
        return _RemoteShardPool(self.pool_capacity(max_workers))

    def run(self, fn, tasks, max_workers=None, fail_fast=False):
        """Batch surface over the same transport (``fn`` is unused).

        ``tasks`` must be :class:`SweepJob` instances or their ``to_dict``
        payloads — validated up front, so a caller handing this strategy
        in-process task objects gets one clear ``TypeError`` instead of a
        per-shard transport failure.
        """
        tasks = [_coerce_job_payload(task) for task in tasks]
        if not tasks:
            return []
        workers = self.resolved_workers(len(tasks), max_workers)
        results: List[ShardResult] = []
        with self.open(workers) as pool:
            futures = [pool.submit(fn, index, task)
                       for index, task in enumerate(tasks)]
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except Exception as exc:
                    results.append(ShardResult(index=index, error=exc))
        return results


register_executor("remote", RemoteExecutor)
