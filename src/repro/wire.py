"""The payload machinery every versioned wire kind shares.

Everything a sweep computes is a deterministic function of (spec, model,
data recipe, engine state), and everything that travels or is stored —
specs, reports, jobs, cache entries, compiled plans, profiles — is a JSON
object tagged with a versioned ``schema`` string such as ``repro-plan/1``.
This module is the one home of what those kinds have in common:

* :func:`check_schema` — the one tag check.  A payload must be a JSON
  object (``TypeError`` otherwise) carrying exactly its kind's tag
  (``ValueError`` otherwise, worded ``unsupported <kind> schema <got>:
  expected '<tag>'``), so a future ``/2`` payload fails loudly instead of
  being misparsed.
* :func:`array_to_payload` / :func:`array_from_payload` — the one
  base64-npy array codec (job datasets, checkpoints, plan constants).
* :func:`canonical_json` / :func:`payload_digest` — the one canonical JSON
  form (sorted keys, no whitespace) every digest in the repository
  hashes: ``repro-job/1`` guards its dense baseline with it,
  :meth:`CompressionSpec.digest() <repro.api.CompressionSpec.digest>`
  keys the report cache with it and ``repro-plan/1`` seals its payload
  with it.
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
from typing import Any, Dict, Mapping, Optional

import numpy as np


def check_schema(payload: Any, tag: str, *, untagged: bool = False) -> None:
    """Raise unless ``payload`` is a JSON object tagged ``tag``.

    The kind named in errors is the tag without its ``repro-`` prefix and
    version (``repro-cache-entry/1`` → ``cache-entry``).  ``untagged``
    accepts payloads with no ``schema`` key, for kinds that predate their
    tag.
    """
    kind = tag[len("repro-"):].split("/", 1)[0]
    if not isinstance(payload, Mapping):
        raise TypeError(
            f"{kind} payload must be a JSON object, "
            f"got {type(payload).__name__}")
    schema = payload.get("schema", tag if untagged else None)
    if schema != tag:
        raise ValueError(
            f"unsupported {kind} schema {schema!r}: expected '{tag}'")


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
    return json.dumps(normalized, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """SHA-256 hex digest over the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


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
