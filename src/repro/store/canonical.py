"""Canonical JSON forms and content hashing for the result-store tier.

Every cache key in the repository -- the campaign cache, the engine result
cache, the persistent store -- is a SHA-256 over the *canonical* JSON form
of a configuration: containers collapsed to plain lists/dicts, numpy
scalars/arrays to their Python equivalents, dict keys stringified.  This
module owns that definition (it used to live in
:mod:`repro.campaign.cache`, which now re-exports it) so the store tier
sits below both the campaign and API layers without an import cycle.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import Any

import numpy as np

__all__ = ["canonicalize", "canonical_blob", "content_checksum",
           "decoded_checksum"]


def canonicalize(value: Any) -> Any:
    """Reduce a parameter/result value to a canonical JSON-compatible form.

    Tuples and lists collapse to lists, mappings to plain dicts with string
    keys (insertion order preserved -- key hashing sorts independently, and
    stored result rows keep their column order), numpy scalars/arrays to
    their Python equivalents.  Two configurations that compare equal after
    canonicalisation hash to the same cache key regardless of the container
    types used to express them.
    """
    if isinstance(value, (str, bool, int, type(None))):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.generic):
        return canonicalize(value.item())
    if isinstance(value, np.ndarray):
        return [canonicalize(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [canonicalize(v) for v in items]
    raise TypeError(f"cannot canonicalise {type(value).__name__!r} value {value!r} "
                    "for the result cache")


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_blob(value: Any) -> bytes:
    """The canonical, key-sorted, whitespace-free JSON bytes of ``value``."""
    return _ENCODER.encode(canonicalize(value)).encode("utf-8")


def content_checksum(value: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_blob` -- the integrity hash
    stored alongside every persistent record and re-checked on read."""
    return hashlib.sha256(canonical_blob(value)).hexdigest()


def decoded_checksum(value: Any) -> str:
    """:func:`content_checksum` of a value ``json`` decoded, in one pass of
    the C encoder.

    A decoded value holds only plain lists, string-keyed dicts, ``str``,
    ``int``, ``float``, ``bool`` and ``None``, on which :func:`canonicalize`
    is the identity, so skipping it hashes the same bytes.  This is the
    store's integrity check on both sides: a reader's over the payload it
    decoded, the writer's over its encoded payload decoded again.
    """
    return hashlib.sha256(_ENCODER.encode(value).encode("utf-8")).hexdigest()
