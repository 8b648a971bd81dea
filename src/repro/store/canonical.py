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
import math
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

__all__ = ["canonicalize", "canonical_blob", "content_checksum",
           "decoded_checksum", "plain_text", "scalar_text", "canonical_object",
           "CanonicalText"]


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


#: :data:`_ENCODER` without the cycle check: a plain JSON value has no
#: cycles, and the check costs a dict insert and delete per container.
_PLAIN_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  check_circular=False)


def plain_text(value: Any) -> str:
    """The canonical text of a value that is plain JSON already (string
    keys, lists, ``str``/``int``/``float``/``bool``/``None``), such as
    :func:`canonicalize`'s output: one C-encoder pass."""
    return _PLAIN_ENCODER.encode(value)


def scalar_text(value: Any) -> str:
    """:func:`plain_text` of a JSON scalar; a finite ``float`` is spelled
    by ``float.__repr__`` and a ``str`` by ``encode_basestring_ascii``
    directly, as the encoder spells them."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    return _PLAIN_ENCODER.encode(value)


def canonical_object(fields: Mapping[str, str]) -> CanonicalText:
    """The canonical text of a JSON object from its values' texts.

    ``fields`` maps each key to the canonical text of its value, as
    :func:`plain_text`, :func:`scalar_text` or this function render it;
    the keys are sorted and escaped here.  This is the only producer of
    :class:`CanonicalText`.
    """
    return CanonicalText("{" + ",".join(
        f"{encode_basestring_ascii(k)}:{text}"
        for k, text in sorted(fields.items())) + "}")


class CanonicalText(str):
    """A JSON text that is its own canonical form: keys sorted at every
    level, every scalar spelled as the canonical encoder spells it.

    ``json.loads`` of it re-encodes to the same text, so its
    :meth:`checksum` equals :func:`decoded_checksum` of the decoded value,
    and :meth:`repro.store.ResultStore.put_many` writes it verbatim instead
    of encoding a payload, decoding it and encoding it again.  Built only
    by :func:`canonical_object`, whose value texts must be canonical
    themselves; ``tests/test_store_zero_copy.py`` checks the engine's
    records re-encode to the same text.
    """

    __slots__ = ()

    def checksum(self) -> str:
        """SHA-256 hex digest of the text: the store checksum of the
        value it decodes to."""
        return hashlib.sha256(self.encode("utf-8")).hexdigest()


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
