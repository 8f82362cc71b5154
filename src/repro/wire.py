"""The payload machinery every versioned wire kind shares.

Everything a sweep computes is a deterministic function of (spec, model,
data recipe, engine state), and everything that travels or is stored —
specs, reports, jobs, cache entries, profiles — is a JSON object tagged
with a versioned ``schema`` string such as ``repro-job/1`` (a compiled
plan's ``repro-plan/2`` container carries its tag in a JSON header).
This module is the one home of what those kinds have in common:

* :func:`check_schema` — the one tag check.  A payload must be a JSON
  object (``TypeError`` otherwise) carrying exactly its kind's tag
  (``ValueError`` otherwise, worded ``unsupported <kind> schema <got>:
  expected '<tag>'``), so a payload with no tag or a future ``/2`` one
  fails loudly instead of being misparsed.  A tagged payload missing one
  of its kind's required keys is a ``ValueError`` worded ``<kind> payload
  lacks the required key '<key>'``, never a bare ``KeyError``.
* :func:`array_to_payload` / :func:`array_from_payload` — the one
  base64-npy array codec (job datasets, warm-start states, plan
  containers shipped to workers as ``uint8`` arrays).
* :func:`canonical_json` / :func:`payload_digest` — the one canonical JSON
  form (sorted keys, no whitespace) every digest in the repository
  hashes: ``repro-job/1`` guards its dense baseline with it,
  :meth:`CompressionSpec.digest() <repro.api.CompressionSpec.digest>`
  keys the report cache with it and ``repro-plan/2`` writes its header
  in it.  :func:`decoded_payload_digest` is the same digest in one
  encoding pass, for payloads ``json.loads`` just produced (stored cache
  entries check their report digest with it).
* :func:`model_digest` — a parameter-byte hash of a built
  :class:`~repro.nn.module.Module`: every named parameter and buffer
  contributes its name, dtype, shape and raw little-endian bytes, sorted by
  name so the digest is independent of registration order.
* :func:`data_digest` — a hash of a
  :class:`~repro.api.jobs.LoaderPlan`'s JSON recipe.  Plans wrapping live
  user loaders have no canonical encoding and digest to ``None`` —
  submissions over them are uncacheable.
* :func:`state_digest` — the same byte hash over a name → array mapping.

The module imports only the standard library and numpy, so ``repro.nn``,
``repro.deploy`` and ``repro.api`` can all share it without cycles.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np


def check_schema(payload: Any, tag: str, required: Sequence[str] = ()) -> None:
    """Raise unless ``payload`` is a JSON object tagged ``tag`` that
    carries every key in ``required``.

    The kind named in errors is the tag without its ``repro-`` prefix and
    version (``repro-cache-entry/1`` → ``cache-entry``).
    """
    kind = tag[len("repro-"):].split("/", 1)[0]
    if not isinstance(payload, Mapping):
        raise TypeError(
            f"{kind} payload must be a JSON object, "
            f"got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != tag:
        raise ValueError(
            f"unsupported {kind} schema {schema!r}: expected '{tag}'")
    for key in required:
        if key not in payload:
            raise ValueError(f"{kind} payload lacks the required key '{key}'")


def array_to_payload(array: np.ndarray) -> Dict[str, str]:
    """Encode an ndarray exactly (dtype, shape, memory order and bytes)."""
    # np.save preserves C/F memory order via the fortran_order header flag,
    # which matters for bit-identity: BLAS kernels round differently for
    # different layouts, so a transposed (F-order) linear weight must come
    # back F-ordered.
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return {"npy": base64.b64encode(buffer.getvalue()).decode("ascii")}


def array_from_payload(payload: Mapping[str, Any]) -> np.ndarray:
    return np.load(io.BytesIO(base64.b64decode(payload["npy"])),
                   allow_pickle=False)


def canonical_json(payload: Any) -> str:
    """The one canonical JSON encoding: sorted keys, compact separators.

    Two payloads that differ only in dict key order (or in the insertion
    order of config fields) encode — and therefore digest — identically.
    The payload is normalized through one JSON round trip first, so
    non-string mapping keys (e.g. ``ALFSpec.stage_remaining``'s integer
    filter counts) digest identically before and after a trip over the
    wire: keys sort by their JSON *string* form on both sides.
    """
    normalized = json.loads(json.dumps(payload, separators=(",", ":")))
    return _sorted_json(normalized)


def _sorted_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """SHA-256 hex digest over the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def decoded_payload_digest(payload: Any) -> str:
    """:func:`payload_digest` of a payload ``json.loads`` just produced.

    Decoded JSON has only string keys and values that re-encode exactly,
    so :func:`canonical_json`'s normalizing round trip is the identity on
    it and one sorted encoding gives the same string.  Only for payloads
    decoded from bytes: one built in memory can hold integer keys, which
    must go through :func:`payload_digest`.
    """
    return hashlib.sha256(_sorted_json(payload).encode("utf-8")).hexdigest()


def model_digest(model) -> str:
    """SHA-256 over a module tree's parameter and buffer bytes.

    The hash covers, for every named parameter and buffer in *name-sorted*
    order: the name, the dtype, the shape, and the raw array bytes — so two
    models digest equally iff they would behave bit-identically, regardless
    of the traversal order their modules were registered in.
    """
    hasher = hashlib.sha256()
    entries = list(model.named_parameters())
    entries += [(f"buffer:{name}", buf) for name, buf in model.named_buffers()]
    for name, value in sorted(entries, key=lambda item: item[0]):
        array = np.ascontiguousarray(
            value.data if hasattr(value, "data") else value)
        hasher.update(name.encode("utf-8"))
        hasher.update(str(array.dtype).encode("ascii"))
        hasher.update(repr(array.shape).encode("ascii"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def data_digest(plan) -> Optional[str]:
    """SHA-256 over a loader plan's JSON recipe, or ``None`` when it has none.

    ``None`` (for plans wrapping live user ``DataLoader`` objects) marks the
    submission as uncacheable: without a canonical encoding of the data there
    is no sound cache key.
    """
    try:
        payload = plan.to_payload()
    except TypeError:
        return None
    return payload_digest(payload)


def state_digest(state: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over a ``state_dict``-shaped mapping of named arrays."""
    hasher = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        hasher.update(name.encode("utf-8"))
        hasher.update(str(array.dtype).encode("ascii"))
        hasher.update(repr(array.shape).encode("ascii"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()
