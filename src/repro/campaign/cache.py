"""Content-addressed result cache for campaign runs.

Every scenario instance is keyed by a stable SHA-256 hash of its
canonicalised configuration (scenario name + effective keyword parameters)
plus a code-relevant version tag (the library version and the scenario's
``cache_version``), so re-running a campaign whose code and parameters did
not change is a pure disk read.

Since the store tier landed, this module is a thin adapter: records live in
the shared persistent :class:`repro.store.ResultStore` under the
``campaign`` namespace (sharded ``<root>/campaign/<key[:2]>/<key>.json``
envelopes with content checksums, atomic writes, quarantine of corrupt
entries) -- the *same* on-disk tree the API engine's result cache writes
through to, so campaigns and servers warm one tier, not two.  The public
surface (:class:`ResultCache` with ``get``/``put``/``records``/``path_for``,
:func:`instance_key`, :func:`make_record`, :func:`canonicalize`) is
unchanged.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import Any

from ..store import ResultStore
from ..store.canonical import canonical_blob, canonicalize

__all__ = ["ResultCache", "canonicalize", "instance_key", "make_record",
           "DEFAULT_CACHE_DIR", "NAMESPACE"]

#: Default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Store namespace campaign records live under.
NAMESPACE = "campaign"

#: Bump when the record layout itself changes (invalidates every entry).
_SCHEMA_VERSION = 2


def _version_tag(cache_version: int) -> str:
    from .. import __version__  # deferred: repro/__init__ imports this package

    return f"repro-{__version__}/schema-{_SCHEMA_VERSION}/scenario-{cache_version}"


def instance_key(scenario: str, params: Mapping[str, Any], *,
                 cache_version: int = 1) -> str:
    """Stable content hash of one scenario configuration."""
    payload = {
        "scenario": scenario,
        "params": canonicalize(params),
        "version": _version_tag(cache_version),
    }
    return hashlib.sha256(canonical_blob(payload)).hexdigest()


class ResultCache:
    """Campaign-facing view over the shared persistent result store.

    Addresses the ``campaign`` namespace of a :class:`ResultStore` rooted at
    ``root`` (default ``$REPRO_CACHE_DIR`` or ``.repro-cache``).  An
    existing store instance can be injected to share its counters and byte
    budget with other consumers in the process.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 store: ResultStore | None = None):
        if store is None:
            if root is None:
                root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
            store = ResultStore(root)
        self.store = store
        self.root: Path = store.root

    # -- addressing ----------------------------------------------------
    def path_for(self, key: str) -> Path:
        """On-disk envelope location for ``key`` (sharded under the
        ``campaign`` namespace)."""
        return self.store.path_for(key, NAMESPACE)

    # -- read ----------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """Return the cached record for ``key``, or None on a miss.

        Corrupt entries (invalid JSON / undecodable bytes / checksum
        mismatches) are quarantined -- moved aside to
        ``<key>.json.corrupt`` -- so they count as a miss exactly once and
        the recomputed record is not shadowed by a broken file on every
        future read.  Other I/O errors are plain misses.
        """
        record = self.store.get(key, NAMESPACE)
        return record if isinstance(record, dict) else None

    def records(self) -> Iterator[dict]:
        """All readable records in the cache, in key order."""
        for envelope in self.store.records(NAMESPACE):
            payload = envelope.get("payload")
            if isinstance(payload, dict):
                yield payload

    # -- write ---------------------------------------------------------
    def put(self, key: str, record: Mapping[str, Any]) -> Path:
        """Write ``record`` under ``key`` (atomically via a temp file)."""
        return self.store.put(key, dict(record), NAMESPACE)

    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed."""
        return self.store.clear(NAMESPACE)

    def __len__(self) -> int:
        return self.store.count(NAMESPACE)


def make_record(*, key: str, scenario: str, params: Mapping[str, Any],
                result: Any, elapsed_seconds: float,
                cache_version: int = 1) -> dict:
    """Assemble the JSON record stored for one executed instance."""
    return {
        "key": key,
        "scenario": scenario,
        "params": canonicalize(params),
        "version": _version_tag(cache_version),
        "created_unix": time.time(),
        "elapsed_seconds": elapsed_seconds,
        "result": canonicalize(result),
    }
