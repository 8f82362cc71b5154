"""Content-addressed result cache + checkpoint store for sweep sessions.

Every report a sweep produces is a deterministic function of (spec, model,
data recipe, engine state) — the executors are *proven* bit-identical to
serial recomputation — so a completed :class:`CompressionReport` can be
stored under a content address and replayed for free when the same
submission arrives again:

* :class:`CacheKey` — the address: ``CompressionSpec.digest()`` (canonical
  JSON), :func:`~repro.wire.model_digest` (parameter-byte hash) and
  :func:`~repro.wire.data_digest` (the ``repro-job/1`` base64-npy
  data recipe), combined into one SHA-256.
* :class:`FileReportCache` — the persistent store: one atomic
  ``repro-cache-entry/1`` JSON file per report (digest-guarded; a corrupt,
  truncated or unknown-version entry is a warning and a *miss*, never a
  crash) plus an ``.npz`` checkpoint of the finalized compressed model's
  parameters.  The root defaults to ``~/.cache/repro`` and is overridden by
  the ``REPRO_CACHE_DIR`` environment variable.
* :class:`MemoryReportCache` — the same contract in a dict, for tests and
  single-process warm layers.
* Warm starts — :meth:`ReportCache.nearest_checkpoint` finds the entry with
  the same (method, model, data) whose spec payload is *closest* to a new
  near-miss submission, so its checkpoint can seed fine-tuning instead of
  training from dense.
* Plan artifacts — :meth:`ReportCache.put_plan` / :meth:`get_plan` store
  serialized ``repro-plan/1`` compiled-inference payloads next to the
  checkpoints, so :func:`~repro.api.plan.compile_report` can serve a plan
  from the store instead of re-tracing and re-lowering the model.

:class:`~repro.api.session.SweepSession` consults the store through the
``cache=`` policy knob (``"off"`` / ``"read"`` / ``"write"`` /
``"readwrite"``, a :class:`ReportCache` instance, or an explicit
``(store, policy)`` pair); see :func:`resolve_cache`.

Maintenance from the command line::

    python -m repro.api.cache stats            # entries / checkpoints / bytes
    python -m repro.api.cache gc --max-entries 100
    python -m repro.api.cache gc --clear
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..deploy.serialize import PLAN_SCHEMA
from ..wire import check_schema, data_digest, model_digest, payload_digest
from .pipeline import CompressionReport
from .spec import CompressionSpec

#: Wire-format identifier of stored cache entries.
CACHE_ENTRY_SCHEMA = "repro-cache-entry/1"
#: Environment variable overriding the default filesystem cache root.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"
#: Accepted values of the session-level ``cache=`` policy knob.
CACHE_POLICIES = ("off", "read", "write", "readwrite")

CacheArg = Union[None, str, "ReportCache", Tuple["ReportCache", str]]


class CacheIntegrityWarning(UserWarning):
    """A stored cache entry failed validation and was treated as a miss."""


class CacheEntryError(ValueError):
    """Internal: why an entry failed validation (surfaced as a warning)."""


# --------------------------------------------------------------------------- #
# Keys
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CacheKey:
    """The content address of one submission.

    ``spec`` / ``model`` / ``data`` are the three component digests;
    ``method`` rides along (it is already encoded in ``spec``) so stores
    can group entries for near-miss lookups without re-parsing spec
    payloads.
    """

    method: str
    spec: str
    model: str
    data: str

    @property
    def combined(self) -> str:
        """One SHA-256 over the three component digests — the store address."""
        return payload_digest(
            {"spec": self.spec, "model": self.model, "data": self.data})

    def to_dict(self) -> Dict[str, str]:
        return {"method": self.method, "spec": self.spec, "model": self.model,
                "data": self.data, "combined": self.combined}


def cache_key(spec: CompressionSpec, model: Any,
              plan: Any = None) -> Optional[CacheKey]:
    """Build the :class:`CacheKey` of (validated spec, built model, loader plan).

    ``None`` when the submission has no sound content address: the spec
    carries a live ``Module`` (no canonical payload) or the data plan wraps
    live user loaders (no canonical recipe).
    """
    try:
        spec_part = spec.digest()
    except TypeError:
        return None
    data_part = data_digest(plan) if plan is not None else payload_digest(None)
    if data_part is None:
        return None
    return CacheKey(method=spec.method, spec=spec_part,
                    model=model_digest(model), data=data_part)


@dataclass
class WarmStart:
    """A cached checkpoint selected to seed a near-miss run's fine-tuning.

    ``source`` is the providing entry's combined key (recorded on the
    warm-started run's own cache entry as ``warm_source``); ``spec`` is the
    providing entry's spec; ``state`` the stored parameter/buffer arrays.
    """

    source: str
    spec: CompressionSpec
    state: Dict[str, np.ndarray]


@dataclass
class CacheStats:
    """Store contents plus this instance's traffic counters."""

    entries: int = 0
    checkpoints: int = 0
    plans: int = 0
    total_bytes: int = 0
    hits: int = 0
    misses: int = 0
    writes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"entries": self.entries, "checkpoints": self.checkpoints,
                "plans": self.plans, "total_bytes": self.total_bytes,
                "hits": self.hits, "misses": self.misses,
                "writes": self.writes}


# --------------------------------------------------------------------------- #
# Spec nearness (for warm-start selection)
# --------------------------------------------------------------------------- #
_MISSING = object()


def _flatten(payload: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    if isinstance(payload, Mapping):
        for key, value in payload.items():
            yield from _flatten(value, f"{prefix}{key}.")
    elif isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            yield from _flatten(value, f"{prefix}{index}.")
    else:
        yield prefix[:-1], payload


def spec_distance(a: Mapping[str, Any], b: Mapping[str, Any]) -> float:
    """How far apart two spec payloads are (0 = identical).

    Each differing leaf contributes 1, except numeric pairs, which
    contribute their relative difference in ``(0, 1)`` — so among cached
    candidates that differ in the same knob (say the pruning ratio), the
    numerically *nearest* operating point wins.
    """
    flat_a, flat_b = dict(_flatten(a)), dict(_flatten(b))
    score = 0.0
    for path in set(flat_a) | set(flat_b):
        va = flat_a.get(path, _MISSING)
        vb = flat_b.get(path, _MISSING)
        if va is _MISSING or vb is _MISSING:
            score += 1.0
            continue
        numeric = (isinstance(va, (int, float)) and not isinstance(va, bool)
                   and isinstance(vb, (int, float)) and not isinstance(vb, bool))
        if numeric:
            score += min(1.0, abs(va - vb) / (1.0 + abs(va) + abs(vb)))
        elif va != vb:
            score += 1.0
    return score


# --------------------------------------------------------------------------- #
# The store contract + shared entry codec
# --------------------------------------------------------------------------- #
class ReportCache:
    """Content-addressed report + checkpoint store.

    Subclasses implement the raw primitives (``_read_entry`` /
    ``_write_entry`` / ``_read_state`` / ``_write_state`` / ``_keys`` /
    ``_remove``); validation, the ``repro-cache-entry/1`` codec, traffic
    counters and near-miss search are shared here.  ``get`` never raises on
    a damaged entry: a bad digest, truncated JSON or unknown schema version
    is reported as a :class:`CacheIntegrityWarning` and treated as a miss.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0

    # -- primitives (subclass responsibility) ---------------------------- #
    def _read_entry(self, combined: str) -> Optional[str]:
        """The entry's raw JSON text, or ``None`` when absent."""
        raise NotImplementedError

    def _write_entry(self, combined: str, text: str) -> None:
        raise NotImplementedError

    def _read_state(self, combined: str) -> Optional[Dict[str, np.ndarray]]:
        raise NotImplementedError

    def _write_state(self, combined: str,
                     state: Mapping[str, np.ndarray]) -> None:
        raise NotImplementedError

    def _keys(self) -> List[str]:
        """Combined keys of every stored entry (no particular order).

        Recency does **not** live here: filesystem mtimes are too coarse
        (1 s on some filesystems) to order same-second writes, so age is
        tracked by the monotonic ``seq`` number persisted inside each
        entry — see :meth:`_lru_keys`.
        """
        raise NotImplementedError

    def _remove(self, combined: str) -> None:
        """Drop one entry and its checkpoint (missing entries are fine)."""
        raise NotImplementedError

    def _read_plan(self, address: str) -> Optional[str]:
        """The raw JSON text of one stored plan artifact, or ``None``."""
        raise NotImplementedError

    def _write_plan(self, address: str, text: str) -> None:
        raise NotImplementedError

    def _plan_keys(self) -> List[str]:
        """Addresses of every stored plan artifact."""
        raise NotImplementedError

    def _remove_plan(self, address: str) -> None:
        raise NotImplementedError

    def _content_stats(self) -> Tuple[int, int, int, int]:
        """(entries, checkpoints, plans, total_bytes) of the stored content."""
        raise NotImplementedError

    # -- entry codec ------------------------------------------------------ #
    @staticmethod
    def _encode(key: CacheKey, report: CompressionReport,
                has_checkpoint: bool,
                warm_source: Optional[str]) -> Dict[str, Any]:
        report_payload = report.to_dict()
        return {
            "schema": CACHE_ENTRY_SCHEMA,
            "key": key.to_dict(),
            "spec": report_payload["spec"],
            "report": report_payload,
            "report_digest": payload_digest(report_payload),
            "checkpoint": bool(has_checkpoint),
            "warm_source": warm_source,
        }

    @staticmethod
    def _parse(text: str, tag: str) -> Dict[str, Any]:
        """JSON-decode stored text and check its ``tag``."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CacheEntryError(f"unreadable JSON ({exc})") from None
        try:
            check_schema(payload, tag)
        except (TypeError, ValueError) as exc:
            raise CacheEntryError(str(exc)) from None
        return payload

    @classmethod
    def _decode(cls, text: str) -> Dict[str, Any]:
        """Parse + validate raw entry text; raises :class:`CacheEntryError`."""
        payload = cls._parse(text, CACHE_ENTRY_SCHEMA)
        report_payload = payload.get("report")
        if payload.get("report_digest") != payload_digest(report_payload):
            raise CacheEntryError(
                "report digest mismatch: the stored entry was corrupted")
        return payload

    @classmethod
    def _decode_plan(cls, text: str) -> Dict[str, Any]:
        """Parse + validate raw plan text; raises :class:`CacheEntryError`."""
        payload = cls._parse(text, PLAN_SCHEMA)
        body = {k: v for k, v in payload.items() if k != "digest"}
        if payload.get("digest") != payload_digest(body):
            raise CacheEntryError(
                "plan payload digest mismatch: the stored artifact was "
                "corrupted")
        return payload

    def _warn(self, combined: str, error: Exception) -> None:
        warnings.warn(
            f"report-cache entry {combined[:12]}… is unusable and was "
            f"treated as a miss: {error}", CacheIntegrityWarning,
            stacklevel=3)

    # -- recency ----------------------------------------------------------- #
    def _entry_seq(self, combined: str) -> int:
        """The persisted ``seq`` of one entry; ``-1`` for damaged/legacy."""
        text = self._read_entry(combined)
        if text is None:
            return -1
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return -1
        seq = payload.get("seq") if isinstance(payload, dict) else None
        return seq if isinstance(seq, int) and not isinstance(seq, bool) else -1

    def _next_seq(self) -> int:
        """One more than the highest ``seq`` stored anywhere in this store."""
        highest = -1
        for combined in self._keys():
            highest = max(highest, self._entry_seq(combined))
        return highest + 1

    def _lru_keys(self) -> List[str]:
        """Combined keys, least recently used first.

        Ordered by the persisted ``seq`` (written on :meth:`put`, refreshed
        on every :meth:`get` hit) with the combined digest as a
        deterministic tie-break; legacy entries without a ``seq`` sort
        first and are evicted before anything stamped.
        """
        return sorted(self._keys(),
                      key=lambda combined: (self._entry_seq(combined),
                                            combined))

    # -- public API -------------------------------------------------------- #
    def get(self, key: CacheKey) -> Optional[CompressionReport]:
        """The stored report for ``key``, or ``None`` (miss) — never raises."""
        entry = self.entry(key)
        if entry is None:
            with self._lock:
                self._misses += 1
            return None
        try:
            report = CompressionReport.from_dict(entry["report"])
        except Exception as exc:
            self._warn(key.combined, exc)
            with self._lock:
                self._misses += 1
            return None
        try:
            # Touch: refresh the entry's seq so gc eviction is genuinely
            # least-recently-*used*, not write-order.  Best effort — a
            # read-only store must not turn a hit into a crash.
            entry["seq"] = self._next_seq()
            self._write_entry(key.combined, json.dumps(entry, sort_keys=True))
        except Exception:
            pass
        with self._lock:
            self._hits += 1
        return report

    def entry(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """The validated raw entry payload, or ``None`` — never raises."""
        text = self._read_entry(key.combined)
        if text is None:
            return None
        try:
            return self._decode(text)
        except CacheEntryError as exc:
            self._warn(key.combined, exc)
            return None

    def put(self, key: CacheKey, report: CompressionReport,
            checkpoint: Optional[Mapping[str, np.ndarray]] = None,
            warm_source: Optional[str] = None) -> None:
        """Store ``report`` (and optionally its checkpoint) under ``key``.

        The entry is written after the checkpoint so a reader never sees an
        entry advertising a checkpoint that does not exist yet; writes are
        atomic per artifact.
        """
        if checkpoint is not None:
            self._write_state(key.combined, checkpoint)
        entry = self._encode(key, report, checkpoint is not None, warm_source)
        entry["seq"] = self._next_seq()
        self._write_entry(key.combined,
                          json.dumps(entry, sort_keys=True))
        with self._lock:
            self._writes += 1

    def checkpoint(self, key: CacheKey) -> Optional[Dict[str, np.ndarray]]:
        """The stored parameter/buffer arrays for ``key``, or ``None``."""
        try:
            return self._read_state(key.combined)
        except Exception as exc:
            self._warn(key.combined, exc)
            return None

    def nearest_checkpoint(self, key: CacheKey,
                           spec_payload: Mapping[str, Any]
                           ) -> Optional[WarmStart]:
        """The closest same-(method, model, data) checkpoint to a new spec.

        Candidates must share the method, model digest and data digest
        (a checkpoint from another model or data recipe cannot seed this
        run), must not *be* the queried key, and must actually carry a
        checkpoint.  Among those, the entry whose stored spec payload has
        the smallest :func:`spec_distance` to ``spec_payload`` wins;
        distance ties break on the combined digest, so the winner is a
        deterministic function of the store *contents* rather than of
        write order or filesystem timestamps.
        """
        best: Optional[Tuple[float, str, Dict[str, Any]]] = None
        for combined in self._keys():
            if combined == key.combined:
                continue
            text = self._read_entry(combined)
            if text is None:
                continue
            try:
                entry = self._decode(text)
            except CacheEntryError:
                continue  # damaged entries never seed anything
            entry_key = entry.get("key") or {}
            if (entry_key.get("method") != key.method
                    or entry_key.get("model") != key.model
                    or entry_key.get("data") != key.data
                    or not entry.get("checkpoint")):
                continue
            distance = spec_distance(spec_payload, entry.get("spec") or {})
            if best is None or (distance, combined) < (best[0], best[1]):
                best = (distance, combined, entry)
        if best is None:
            return None
        _, combined, entry = best
        try:
            state = self._read_state(combined)
        except Exception as exc:
            self._warn(combined, exc)
            return None
        if state is None:
            return None
        return WarmStart(source=combined,
                         spec=CompressionSpec.from_dict(entry["spec"]),
                         state=state)

    # -- plan artifacts ----------------------------------------------------- #
    def get_plan(self, address: str) -> Optional[Dict[str, Any]]:
        """The stored ``repro-plan/1`` payload at ``address`` — never raises.

        Validation mirrors :meth:`get`: unreadable JSON, a non-plan schema
        or a payload-digest mismatch is a :class:`CacheIntegrityWarning`
        plus a miss, so a corrupt artifact can only cost a recompile.
        """
        text = self._read_plan(address)
        if text is None:
            with self._lock:
                self._misses += 1
            return None
        try:
            payload = self._decode_plan(text)
        except CacheEntryError as exc:
            self._warn(address, exc)
            with self._lock:
                self._misses += 1
            return None
        with self._lock:
            self._hits += 1
        return payload

    def put_plan(self, address: str, payload: Mapping[str, Any]) -> None:
        """Store one serialized plan payload under ``address``."""
        if not isinstance(payload, Mapping):
            raise TypeError(
                f"plan payload must be a mapping, got {type(payload).__name__}")
        self._write_plan(address, json.dumps(dict(payload), sort_keys=True))
        with self._lock:
            self._writes += 1

    # -- maintenance ------------------------------------------------------- #
    def stats(self) -> CacheStats:
        entries, checkpoints, plans, total_bytes = self._content_stats()
        with self._lock:
            return CacheStats(entries=entries, checkpoints=checkpoints,
                              plans=plans, total_bytes=total_bytes,
                              hits=self._hits, misses=self._misses,
                              writes=self._writes)

    def gc(self, max_entries: Optional[int] = None,
           clear: bool = False) -> int:
        """Evict entries (least recently used first) down to ``max_entries``.

        Recency is the persisted per-entry ``seq``, not filesystem mtime —
        a :meth:`get` hit protects an entry from eviction, and same-second
        writes still evict in a deterministic order.  ``clear=True``
        empties the store, plan artifacts included.  Checkpoints are
        removed with their entries.  Returns the number of entries
        removed.
        """
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        keys = self._lru_keys()
        if clear:
            doomed = keys
            for address in self._plan_keys():
                self._remove_plan(address)
        elif max_entries is not None and len(keys) > max_entries:
            doomed = keys[:len(keys) - max_entries]
        else:
            doomed = []
        for combined in doomed:
            self._remove(combined)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._keys())


# --------------------------------------------------------------------------- #
# In-memory store (tests / single-process warm layer)
# --------------------------------------------------------------------------- #
class MemoryReportCache(ReportCache):
    """The store contract over plain dicts — nothing touches the filesystem.

    Entries still round-trip through their JSON text, so everything the
    persistent store guarantees (schema validation, digest guarding,
    wire-format fidelity of replayed reports) holds here too.
    """

    def __init__(self) -> None:
        super().__init__()
        self._entries: "Dict[str, str]" = {}
        self._states: Dict[str, Dict[str, np.ndarray]] = {}
        self._plans: "Dict[str, str]" = {}

    def _read_entry(self, combined: str) -> Optional[str]:
        with self._lock:
            return self._entries.get(combined)

    def _write_entry(self, combined: str, text: str) -> None:
        with self._lock:
            self._entries[combined] = text

    def _read_state(self, combined: str) -> Optional[Dict[str, np.ndarray]]:
        with self._lock:
            state = self._states.get(combined)
            return None if state is None else {name: array.copy()
                                               for name, array in state.items()}

    def _write_state(self, combined: str,
                     state: Mapping[str, np.ndarray]) -> None:
        with self._lock:
            self._states[combined] = {name: np.ascontiguousarray(array).copy()
                                      for name, array in state.items()}

    def _keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def _remove(self, combined: str) -> None:
        with self._lock:
            self._entries.pop(combined, None)
            self._states.pop(combined, None)

    def _read_plan(self, address: str) -> Optional[str]:
        with self._lock:
            return self._plans.get(address)

    def _write_plan(self, address: str, text: str) -> None:
        with self._lock:
            self._plans[address] = text

    def _plan_keys(self) -> List[str]:
        with self._lock:
            return list(self._plans)

    def _remove_plan(self, address: str) -> None:
        with self._lock:
            self._plans.pop(address, None)

    def _content_stats(self) -> Tuple[int, int, int, int]:
        with self._lock:
            text_bytes = sum(len(text) for text in self._entries.values())
            state_bytes = sum(array.nbytes for state in self._states.values()
                              for array in state.values())
            plan_bytes = sum(len(text) for text in self._plans.values())
            return (len(self._entries), len(self._states), len(self._plans),
                    text_bytes + state_bytes + plan_bytes)


# --------------------------------------------------------------------------- #
# Filesystem store
# --------------------------------------------------------------------------- #
class FileReportCache(ReportCache):
    """Persistent content-addressed store under one root directory.

    Layout::

        <root>/entries/<combined>.json       repro-cache-entry/1 payloads
        <root>/checkpoints/<combined>.npz    finalized model parameters
        <root>/plans/<address>.json          repro-plan/1 compiled plans

    Both artifact kinds are written atomically (temp file + ``os.replace``)
    so concurrent sessions — or a crash mid-write — can never leave a
    half-written entry that parses; anything damaged on disk is handled by
    the read-side validation (warning + miss).
    """

    def __init__(self, root: Union[str, "os.PathLike[str]"]):
        super().__init__()
        self.root = os.path.abspath(os.fspath(root))
        self._entries_dir = os.path.join(self.root, "entries")
        self._states_dir = os.path.join(self.root, "checkpoints")
        self._plans_dir = os.path.join(self.root, "plans")

    # -- paths ------------------------------------------------------------- #
    def _entry_path(self, combined: str) -> str:
        return os.path.join(self._entries_dir, f"{combined}.json")

    def _state_path(self, combined: str) -> str:
        return os.path.join(self._states_dir, f"{combined}.npz")

    def _plan_path(self, address: str) -> str:
        return os.path.join(self._plans_dir, f"{address}.json")

    @staticmethod
    def _atomic_write(path: str, writer) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        handle, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".tmp-", suffix=os.path.splitext(path)[1])
        try:
            with os.fdopen(handle, "wb") as stream:
                writer(stream)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    # -- primitives -------------------------------------------------------- #
    def _read_entry(self, combined: str) -> Optional[str]:
        try:
            with open(self._entry_path(combined), "r", encoding="utf-8") as f:
                return f.read()
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError as exc:
            self._warn(combined, exc)
            return None

    def _write_entry(self, combined: str, text: str) -> None:
        self._atomic_write(self._entry_path(combined),
                           lambda stream: stream.write(text.encode("utf-8")))

    def _read_state(self, combined: str) -> Optional[Dict[str, np.ndarray]]:
        path = self._state_path(combined)
        if not os.path.exists(path):
            return None
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}

    def _write_state(self, combined: str,
                     state: Mapping[str, np.ndarray]) -> None:
        arrays = {name: np.ascontiguousarray(array)
                  for name, array in state.items()}
        self._atomic_write(self._state_path(combined),
                           lambda stream: np.savez(stream, **arrays))

    @staticmethod
    def _listing(directory: str, suffix: str) -> List[str]:
        try:
            names = os.listdir(directory)
        except (FileNotFoundError, NotADirectoryError):
            return []
        # Sorted filenames, not mtimes: getmtime is 1 s-coarse on some
        # filesystems, so mtime order for same-second writes was really
        # digest-alphabetical — and never "least recently used" anyway,
        # since reads don't bump mtime.  Recency lives in the entry's
        # persisted seq (see ReportCache._lru_keys).
        return sorted(name[:-len(suffix)] for name in names
                      if name.endswith(suffix) and not name.startswith("."))

    def _keys(self) -> List[str]:
        return self._listing(self._entries_dir, ".json")

    def _remove(self, combined: str) -> None:
        for path in (self._entry_path(combined), self._state_path(combined)):
            try:
                os.unlink(path)
            except OSError:
                pass

    def _read_plan(self, address: str) -> Optional[str]:
        try:
            with open(self._plan_path(address), "r", encoding="utf-8") as f:
                return f.read()
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError as exc:
            self._warn(address, exc)
            return None

    def _write_plan(self, address: str, text: str) -> None:
        self._atomic_write(self._plan_path(address),
                           lambda stream: stream.write(text.encode("utf-8")))

    def _plan_keys(self) -> List[str]:
        return self._listing(self._plans_dir, ".json")

    def _remove_plan(self, address: str) -> None:
        try:
            os.unlink(self._plan_path(address))
        except OSError:
            pass

    def _content_stats(self) -> Tuple[int, int, int, int]:
        entries = checkpoints = plans = total_bytes = 0
        for directory, suffix in ((self._entries_dir, ".json"),
                                  (self._states_dir, ".npz"),
                                  (self._plans_dir, ".json")):
            try:
                names = os.listdir(directory)
            except (FileNotFoundError, NotADirectoryError):
                continue
            for name in names:
                if not name.endswith(suffix) or name.startswith("."):
                    continue
                try:
                    total_bytes += os.path.getsize(os.path.join(directory, name))
                except OSError:
                    continue
                if directory is self._entries_dir:
                    entries += 1
                elif directory is self._states_dir:
                    checkpoints += 1
                else:
                    plans += 1
        return entries, checkpoints, plans, total_bytes


# --------------------------------------------------------------------------- #
# Defaults + the session-facing policy knob
# --------------------------------------------------------------------------- #
def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro`` when unset."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def default_cache() -> FileReportCache:
    """The process-default persistent store (honours ``REPRO_CACHE_DIR``)."""
    return FileReportCache(default_cache_dir())


def resolve_cache(cache: CacheArg) -> Tuple[Optional[ReportCache], str]:
    """Normalize the ``cache=`` knob into ``(store, policy)``.

    * ``None`` / ``"off"`` → no store, policy ``"off"``;
    * ``"read"`` / ``"write"`` / ``"readwrite"`` → the
      :func:`default_cache` store under that policy;
    * a :class:`ReportCache` instance → that store, ``"readwrite"``;
    * an explicit ``(store, policy)`` pair → as given.
    """
    if cache is None or cache == "off":
        return None, "off"
    if isinstance(cache, str):
        if cache not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {cache!r}: expected one of "
                f"{list(CACHE_POLICIES)}")
        return default_cache(), cache
    if isinstance(cache, ReportCache):
        return cache, "readwrite"
    if isinstance(cache, tuple) and len(cache) == 2:
        store, policy = cache
        if not isinstance(store, ReportCache):
            raise TypeError(
                f"cache=(store, policy) requires a ReportCache store, got "
                f"{type(store).__name__}")
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}: expected one of "
                f"{list(CACHE_POLICIES)}")
        return (store, "off") if policy == "off" else (store, policy)
    raise TypeError(
        "cache must be None, a policy string ('off'/'read'/'write'/"
        "'readwrite'), a ReportCache, or a (ReportCache, policy) tuple; "
        f"got {type(cache).__name__}")


# --------------------------------------------------------------------------- #
# ``python -m repro.api.cache`` — stats / gc maintenance
# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.api.cache",
        description="Inspect or prune the content-addressed report cache.")
    parser.add_argument("--dir", default=None,
                        help="cache root (default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro)")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("stats", help="print entry / checkpoint / byte counts")
    gc_parser = commands.add_parser(
        "gc", help="evict entries (least recently used first)")
    gc_parser.add_argument("--max-entries", type=int, default=None,
                           help="keep at most this many entries")
    gc_parser.add_argument("--clear", action="store_true",
                           help="remove every entry and checkpoint")
    args = parser.parse_args(argv)

    store = FileReportCache(args.dir) if args.dir else default_cache()
    if args.command == "stats":
        stats = store.stats()
        print(json.dumps({"root": store.root,
                          **{k: v for k, v in stats.to_dict().items()
                             if k in ("entries", "checkpoints", "plans",
                                      "total_bytes")}},
                         indent=2, sort_keys=True))
        return 0
    if args.command == "gc" and not args.clear and args.max_entries is None:
        parser.error("gc needs --max-entries or --clear")
    removed = store.gc(max_entries=args.max_entries, clear=args.clear)
    remaining = len(store)
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"({remaining} remaining) from {store.root}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
