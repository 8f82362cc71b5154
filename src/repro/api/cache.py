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
* :class:`ReportCache` — the store contract: six byte-level primitives
  (``_read`` / ``_write`` / ``_remove`` / ``_keys`` / ``_nbytes`` /
  ``_stamp``) keyed by ``(kind, key)`` over three artifact kinds — ``entry`` (a digest-guarded
  ``repro-cache-entry/1`` JSON report), ``checkpoint`` (an ``.npz`` of the
  finalized compressed model's parameters) and ``plan`` (a ``repro-plan/2``
  container).  Every codec and all validation is shared: a corrupt,
  truncated, non-UTF-8 or unknown-version artifact is a warning and a
  *miss*, never a crash.
* :class:`FileReportCache` — the persistent store: one atomically written
  file per artifact.  The root defaults to ``~/.cache/repro`` and is
  overridden by the ``REPRO_CACHE_DIR`` environment variable.
* :class:`MemoryReportCache` — the same bytes in dicts, for tests and
  single-process warm layers.
* Recency — each entry carries a monotonic ``seq``, stamped on ``put``
  and refreshed on every ``get`` hit, that orders LRU eviction.  The
  ``seq`` stays in the entry; each instance memoizes the ``seq`` it last
  saw per entry under the entry's change token, so a scan re-parses only
  entries whose token changed.  A hit costs one entry parse plus one
  ``stat`` (token check) per stored entry.
* Warm starts — :meth:`ReportCache.nearest_checkpoint` finds the entry with
  the same (method, model, data) whose spec payload is *closest* to a new
  near-miss submission, so its checkpoint can seed fine-tuning instead of
  training from dense.
* Plan artifacts — :meth:`ReportCache.put_plan` / :meth:`get_plan` store
  ``repro-plan/2`` compiled-inference containers next to the checkpoints,
  so :func:`~repro.api.plan.compile_report` can serve a plan from the
  store instead of re-tracing and re-lowering the model.

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

import io
import json
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..deploy.serialize import unpack_container
from ..wire import (check_schema, data_digest, decoded_payload_digest,
                    model_digest, payload_digest)
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
# The store contract + shared artifact codecs
# --------------------------------------------------------------------------- #
#: Every artifact kind a store holds: kind -> (directory, file suffix).  A
#: :class:`FileReportCache` keeps ``<root>/<directory>/<key><suffix>``; this
#: table is the one place the on-disk layout is spelled.  Entries and
#: checkpoints are keyed by the combined cache key, plans by plan address.
_KINDS: Dict[str, Tuple[str, str]] = {
    "entry": ("entries", ".json"),          # repro-cache-entry/1
    "checkpoint": ("checkpoints", ".npz"),  # finalized model parameters
    # repro-plan/2 containers are binary; the suffix is older, and keeping
    # it lets a store's repro-plan/1 files warn, recompile and overwrite.
    "plan": ("plans", ".json"),
}


def _dump(payload: Mapping[str, Any]) -> bytes:
    return json.dumps(dict(payload), sort_keys=True).encode("utf-8")


class ReportCache:
    """Content-addressed report + checkpoint + plan store.

    A store is six byte-level primitives over ``(kind, key)``, where
    ``kind`` is one of the artifact kinds in ``_KINDS`` (``"entry"``,
    ``"checkpoint"``, ``"plan"``): :meth:`_read`, :meth:`_write`,
    :meth:`_remove`, :meth:`_keys`, :meth:`_nbytes` and the change token
    :meth:`_stamp` that lets recency scans skip unchanged entries.
    Everything else —
    the UTF-8/JSON ``repro-cache-entry/1`` codec, the ``repro-plan/2``
    container check, the ``.npz`` checkpoint codec, validation, traffic
    counters, stats, LRU eviction and near-miss search — is shared here.
    ``get`` never raises on a damaged entry: a bad digest, truncated JSON,
    non-UTF-8 bytes or an unknown schema version is reported as a
    :class:`CacheIntegrityWarning` and treated as a miss.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        # combined key -> (change token, seq) of the entry as last seen.
        self._seqs: Dict[str, Tuple[Any, int]] = {}

    # -- primitives (subclass responsibility) ---------------------------- #
    def _read(self, kind: str, key: str) -> Optional[bytes]:
        """The stored bytes of one artifact, or ``None`` when absent."""
        raise NotImplementedError

    def _write(self, kind: str, key: str, data: bytes) -> Any:
        """Store one artifact atomically: readers see old or new bytes.

        Returns the change token of the stored bytes: what :meth:`_stamp`
        reports until the artifact changes again.
        """
        raise NotImplementedError

    def _remove(self, kind: str, key: str) -> None:
        """Drop one artifact (missing artifacts are fine)."""
        raise NotImplementedError

    def _keys(self, kind: str) -> List[str]:
        """Keys of every stored artifact of ``kind``, sorted.

        Recency does **not** live here: filesystem mtimes are too coarse
        (1 s on some filesystems) to order same-second writes, so age is
        tracked by the monotonic ``seq`` number persisted inside each
        entry — see :meth:`_lru_keys`.  Listing is cheap; reading each
        entry's ``seq`` is not, which is what :meth:`_stamp` saves.
        """
        raise NotImplementedError

    def _nbytes(self, kind: str, key: str) -> int:
        """Stored size of one artifact in bytes (``0`` when absent)."""
        raise NotImplementedError

    def _stamp(self, kind: str, key: str) -> Any:
        """A cheap token that changes whenever the artifact's bytes change
        (``None`` when absent)."""
        raise NotImplementedError

    # -- artifact codecs --------------------------------------------------- #
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
    def _parse(data: bytes, tag: str) -> Dict[str, Any]:
        """UTF-8 + JSON decode stored bytes and check their ``tag``."""
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CacheEntryError(f"unreadable JSON ({exc})") from None
        try:
            check_schema(payload, tag)
        except (TypeError, ValueError) as exc:
            raise CacheEntryError(str(exc)) from None
        return payload

    @classmethod
    def _decode(cls, data: bytes) -> Dict[str, Any]:
        """Parse + validate raw entry bytes; raises :class:`CacheEntryError`."""
        payload = cls._parse(data, CACHE_ENTRY_SCHEMA)
        # The payload is straight json.loads output, so the one-pass digest
        # equals payload_digest's normalizing three-pass one.
        report_payload = payload.get("report")
        if payload.get("report_digest") != decoded_payload_digest(
                report_payload):
            raise CacheEntryError(
                "report digest mismatch: the stored entry was corrupted")
        return payload

    @staticmethod
    def _decode_plan(data: bytes) -> bytes:
        """Check a plan container's framing and digests; raises
        :class:`CacheEntryError`.  Nothing is parsed: the caller's
        ``InferencePlan.from_bytes`` does that once."""
        try:
            unpack_container(data)
        except (TypeError, ValueError) as exc:
            raise CacheEntryError(str(exc)) from None
        return data

    def _load_checkpoint(self, combined: str
                         ) -> Optional[Dict[str, np.ndarray]]:
        """The decoded checkpoint of one entry, or ``None`` — never raises."""
        try:
            data = self._read("checkpoint", combined)
            if data is None:
                return None
            with np.load(io.BytesIO(data), allow_pickle=False) as archive:
                return {name: archive[name] for name in archive.files}
        except Exception as exc:
            self._warn(combined, exc)
            return None

    def _warn(self, combined: str, error: Exception) -> None:
        warnings.warn(
            f"report-cache entry {combined[:12]}… is unusable and was "
            f"treated as a miss: {error}", CacheIntegrityWarning,
            stacklevel=3)

    # -- recency ----------------------------------------------------------- #
    def _entry_seq(self, combined: str) -> int:
        """The persisted ``seq`` of one entry; ``-1`` for damaged/legacy.

        Memoized under the entry's :meth:`_stamp`: the entry is re-read and
        re-parsed only when its token changed since this instance last saw
        it, whichever instance or process wrote it.  The token is taken
        before the read, so a write racing the read can only cost a later
        re-parse, never a stale ``seq``.
        """
        stamp = self._stamp("entry", combined)
        if stamp is not None:
            with self._lock:
                known = self._seqs.get(combined)
            if known is not None and known[0] == stamp:
                return known[1]
        data = self._read("entry", combined)
        if data is None:
            return -1
        try:
            seq = self._parse(data, CACHE_ENTRY_SCHEMA).get("seq")
        except CacheEntryError:
            seq = -1
        if not isinstance(seq, int) or isinstance(seq, bool):
            seq = -1
        self._remember_seq(combined, stamp, seq)
        return seq

    def _remember_seq(self, combined: str, stamp: Any, seq: int) -> None:
        if stamp is not None:
            with self._lock:
                self._seqs[combined] = (stamp, seq)

    def _stored_seqs(self) -> Dict[str, int]:
        """``seq`` of every stored entry: one :meth:`_stamp` each, and a
        parse only for entries whose token changed."""
        seqs = {combined: self._entry_seq(combined)
                for combined in self._keys("entry")}
        with self._lock:
            for gone in set(self._seqs) - set(seqs):
                del self._seqs[gone]
        return seqs

    def _next_seq(self) -> int:
        """One more than the highest ``seq`` stored anywhere in this store."""
        return max(self._stored_seqs().values(), default=-1) + 1

    def _write_entry(self, combined: str, entry: Dict[str, Any]) -> None:
        """Stamp ``entry`` with the next ``seq`` and store it; the write's
        token is memoized so the next scan does not re-parse the entry."""
        entry["seq"] = seq = self._next_seq()
        stamp = self._write("entry", combined, _dump(entry))
        self._remember_seq(combined, stamp, seq)

    def _lru_keys(self) -> List[str]:
        """Combined keys, least recently used first.

        Ordered by the persisted ``seq`` (written on :meth:`put`, refreshed
        on every :meth:`get` hit) with the combined digest as a
        deterministic tie-break; legacy entries without a ``seq`` sort
        first and are evicted before anything stamped.  The ``seq`` stays
        in the entry; the scan re-parses only entries whose :meth:`_stamp`
        changed since this instance last saw them.
        """
        seqs = self._stored_seqs()
        return sorted(seqs, key=lambda combined: (seqs[combined], combined))

    # -- public API -------------------------------------------------------- #
    def get(self, key: CacheKey) -> Optional[CompressionReport]:
        """The stored report for ``key``, or ``None`` (miss) — never raises.

        A hit costs one entry parse (with a one-pass digest check) plus one
        :meth:`_stamp` per stored entry to find the next ``seq``.
        """
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
            self._write_entry(key.combined, entry)
        except Exception:
            pass
        with self._lock:
            self._hits += 1
        return report

    def entry(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """The validated raw entry payload, or ``None`` — never raises."""
        data = self._read("entry", key.combined)
        if data is None:
            return None
        try:
            return self._decode(data)
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
            buffer = io.BytesIO()
            np.savez(buffer, **{name: np.ascontiguousarray(array)
                                for name, array in checkpoint.items()})
            self._write("checkpoint", key.combined, buffer.getvalue())
        entry = self._encode(key, report, checkpoint is not None, warm_source)
        self._write_entry(key.combined, entry)
        with self._lock:
            self._writes += 1

    def checkpoint(self, key: CacheKey) -> Optional[Dict[str, np.ndarray]]:
        """The stored parameter/buffer arrays for ``key``, or ``None``."""
        return self._load_checkpoint(key.combined)

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
        for combined in self._keys("entry"):
            if combined == key.combined:
                continue
            data = self._read("entry", combined)
            if data is None:
                continue
            try:
                entry = self._decode(data)
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
        state = self._load_checkpoint(combined)
        if state is None:
            return None
        return WarmStart(source=combined,
                         spec=CompressionSpec.from_dict(entry["spec"]),
                         state=state)

    # -- plan artifacts ----------------------------------------------------- #
    def get_plan(self, address: str) -> Optional[bytes]:
        """The stored ``repro-plan/2`` container at ``address`` — never raises.

        Validation mirrors :meth:`get`, over bytes: bad framing, a header
        or blob digest mismatch, or a JSON payload of another schema
        (``repro-plan/1`` included) is a :class:`CacheIntegrityWarning`
        plus a miss, so a damaged or outdated artifact can only cost a
        recompile.
        """
        data = self._read("plan", address)
        if data is None:
            with self._lock:
                self._misses += 1
            return None
        try:
            data = self._decode_plan(data)
        except CacheEntryError as exc:
            self._warn(address, exc)
            with self._lock:
                self._misses += 1
            return None
        with self._lock:
            self._hits += 1
        return data

    def put_plan(self, address: str, data: bytes) -> None:
        """Store one plan container (``InferencePlan.to_bytes()``)."""
        if not isinstance(data, bytes):
            raise TypeError(
                f"plan artifact must be bytes, got {type(data).__name__}")
        self._write("plan", address, data)
        with self._lock:
            self._writes += 1

    # -- maintenance ------------------------------------------------------- #
    def stats(self) -> CacheStats:
        keys = {kind: self._keys(kind) for kind in _KINDS}
        total_bytes = sum(self._nbytes(kind, key)
                          for kind, names in keys.items() for key in names)
        with self._lock:
            return CacheStats(entries=len(keys["entry"]),
                              checkpoints=len(keys["checkpoint"]),
                              plans=len(keys["plan"]), total_bytes=total_bytes,
                              hits=self._hits, misses=self._misses,
                              writes=self._writes)

    def gc(self, max_entries: Optional[int] = None,
           clear: bool = False) -> int:
        """Evict entries (least recently used first) down to ``max_entries``.

        Recency is the persisted per-entry ``seq``, not filesystem mtime —
        a :meth:`get` hit protects an entry from eviction, and same-second
        writes still evict in a deterministic order.  Finding the order
        costs one :meth:`_stamp` per entry and a parse only of entries
        whose token changed since this instance last saw them.
        ``clear=True`` empties the store, plan artifacts included.
        Checkpoints are removed with their entries.  Returns the number of
        entries removed.
        """
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        keys = self._lru_keys()
        if clear:
            doomed = keys
            for address in self._keys("plan"):
                self._remove("plan", address)
        elif max_entries is not None and len(keys) > max_entries:
            doomed = keys[:len(keys) - max_entries]
        else:
            doomed = []
        for combined in doomed:
            self._remove("entry", combined)
            self._remove("checkpoint", combined)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._keys("entry"))


# --------------------------------------------------------------------------- #
# In-memory store (tests / single-process warm layer)
# --------------------------------------------------------------------------- #
class MemoryReportCache(ReportCache):
    """The store contract over one dict of bytes per artifact kind.

    Nothing touches the filesystem, but every artifact is stored as the
    same bytes the file store would write, so everything the persistent
    store guarantees (schema validation, digest guarding, wire-format
    fidelity of replayed reports, byte accounting) holds here too.
    """

    def __init__(self) -> None:
        super().__init__()
        self._blobs: Dict[str, Dict[str, bytes]] = {kind: {} for kind in _KINDS}
        # Change tokens: the store-wide write count at each artifact's
        # last write.
        self._stamps: Dict[str, Dict[str, int]] = {kind: {} for kind in _KINDS}
        self._write_count = 0

    def _read(self, kind: str, key: str) -> Optional[bytes]:
        with self._lock:
            return self._blobs[kind].get(key)

    def _write(self, kind: str, key: str, data: bytes) -> int:
        with self._lock:
            self._blobs[kind][key] = bytes(data)
            self._write_count += 1
            self._stamps[kind][key] = self._write_count
            return self._write_count

    def _remove(self, kind: str, key: str) -> None:
        with self._lock:
            self._blobs[kind].pop(key, None)
            self._stamps[kind].pop(key, None)

    def _keys(self, kind: str) -> List[str]:
        with self._lock:
            return sorted(self._blobs[kind])

    def _nbytes(self, kind: str, key: str) -> int:
        with self._lock:
            return len(self._blobs[kind].get(key, b""))

    def _stamp(self, kind: str, key: str) -> Optional[int]:
        with self._lock:
            return self._stamps[kind].get(key)


# --------------------------------------------------------------------------- #
# Filesystem store
# --------------------------------------------------------------------------- #
class FileReportCache(ReportCache):
    """Persistent content-addressed store under one root directory.

    Each artifact is one file, ``<root>/<directory>/<key><suffix>`` per the
    kind table ``_KINDS``.  Writes are atomic (temp file + ``os.replace``) so
    concurrent sessions — or a crash mid-write — can never leave a
    half-written artifact that parses; anything damaged on disk is handled
    by the read-side validation (warning + miss), and an unreadable file is
    a warning plus a miss too.

    An artifact's change token is its ``os.stat`` identity (inode, size,
    mtime and ctime in ns).  Every write is a fresh file renamed into
    place, so it gets a new inode while the old one is still linked; the
    ctime also moves on ``os.utime``.  Only two rewrites by other writers
    between two scans, reusing the inode number with the same size within
    one filesystem timestamp tick, could look unchanged.
    """

    def __init__(self, root: Union[str, "os.PathLike[str]"]):
        super().__init__()
        self.root = os.path.abspath(os.fspath(root))

    def _path(self, kind: str, key: str) -> str:
        directory, suffix = _KINDS[kind]
        return os.path.join(self.root, directory, key + suffix)

    def _read(self, kind: str, key: str) -> Optional[bytes]:
        try:
            with open(self._path(kind, key), "rb") as stream:
                return stream.read()
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError as exc:
            self._warn(key, exc)
            return None

    def _write(self, kind: str, key: str, data: bytes) -> Tuple[int, ...]:
        path = self._path(kind, key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        handle, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                            suffix=_KINDS[kind][1])
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
                stream.flush()
                os.replace(tmp_path, path)
                # fstat of the still-open file is the token of *these*
                # bytes even if another writer replaces the path meanwhile.
                return _stat_token(os.fstat(stream.fileno()))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _remove(self, kind: str, key: str) -> None:
        try:
            os.unlink(self._path(kind, key))
        except OSError:
            pass

    def _keys(self, kind: str) -> List[str]:
        directory, suffix = _KINDS[kind]
        try:
            names = os.listdir(os.path.join(self.root, directory))
        except (FileNotFoundError, NotADirectoryError):
            return []
        # Temp files of in-flight writes start with "." and never count.
        return sorted(name[:-len(suffix)] for name in names
                      if name.endswith(suffix) and not name.startswith("."))

    def _nbytes(self, kind: str, key: str) -> int:
        try:
            return os.path.getsize(self._path(kind, key))
        except OSError:
            return 0

    def _stamp(self, kind: str, key: str) -> Optional[Tuple[int, ...]]:
        try:
            return _stat_token(os.stat(self._path(kind, key)))
        except OSError:
            return None


def _stat_token(stat: os.stat_result) -> Tuple[int, ...]:
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns)


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
