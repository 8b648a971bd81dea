"""Persistent, process-safe, content-addressed result store.

One on-disk tier shared by every cache in the repository.  The campaign
cache (:mod:`repro.campaign.cache`) and the API engine's result cache
(:mod:`repro.api.engine`) both key records by SHA-256 hashes of canonical
JSON; this module gives those keys a durable, multi-process home:

* **sharded layout** -- ``root/<namespace>/<key[:2]>/<key>.json`` keeps any
  one directory small even with hundreds of thousands of entries;
* **atomic writes** -- records land via a per-process/thread temp file and
  ``os.replace`` (an atomic rename on POSIX), so concurrent writers never
  expose a torn record: readers see the old complete record or the new one;
* **envelope + checksum** -- every file wraps its payload in
  ``{"v", "key", "namespace", "created_unix", "checksum", "payload"}`` where
  ``checksum`` is the SHA-256 of the canonical JSON of the payload a reader
  decodes from the file.  Keys hash the *request* configuration, not the
  stored content, so the envelope checksum is what lets ``verify`` detect
  bit rot or foreign tampering.  Both sides take it with
  :func:`~repro.store.canonical.decoded_checksum`: the writer over the
  decoded bytes it writes, a reader over the payload it decoded;
* **in-memory index** -- a small LRU of deserialised payloads keyed by
  ``(namespace, key)`` and invalidated by file ``(mtime_ns, size)``, so a
  hot read is a ``stat`` instead of a read+parse while writes from *other
  processes* are still picked up;
* **quarantine** -- unreadable or checksum-mismatched entries are moved
  aside to ``<key>.json.corrupt`` (outside the ``*.json`` glob), so a torn
  or rotted record costs exactly one miss and never shadows a recomputed
  result;
* **LRU-by-size eviction** -- ``evict_to(max_bytes)`` deletes
  oldest-accessed records first until the tree fits the budget; a store
  constructed with ``max_bytes`` self-evicts on write.

The store sits *below* :mod:`repro.campaign` and :mod:`repro.api` in the
layer diagram (see DESIGN.md) and must not import either.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

from .canonical import decoded_checksum

__all__ = ["ResultStore", "StoreError", "DEFAULT_STORE_DIR",
           "resolve_store_root", "parse_bytes"]

#: Default on-disk location, relative to the current working directory.
#: Deliberately the same directory the campaign cache always used -- the
#: point of the tier is one store, not two.
DEFAULT_STORE_DIR = ".repro-cache"

#: Envelope schema version; bump if the envelope layout itself changes.
ENVELOPE_VERSION = 1

#: Deserialised-payload LRU entries held per store instance.
DEFAULT_INDEX_ENTRIES = 1024

#: A store key: a hex content hash (at least the two shard characters and
#: one more).
_KEY = re.compile(r"[0-9a-f]{3,}")

#: Insertion-order, whitespace-free C encoder of a record's payload: the
#: bytes ``json.dumps(envelope, separators=(",", ":"))`` writes for it.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_CLOEXEC", 0)


class StoreError(RuntimeError):
    """Raised for unusable store configuration (not for per-entry damage --
    damaged entries are quarantined and read as misses)."""


def resolve_store_root(root: str | os.PathLike | None = None) -> Path:
    """The effective store root: explicit argument, else ``$REPRO_STORE_DIR``,
    else ``$REPRO_CACHE_DIR`` (the campaign cache's historical knob), else
    ``.repro-cache`` under the current directory."""
    if root is None:
        root = (os.environ.get("REPRO_STORE_DIR")
                or os.environ.get("REPRO_CACHE_DIR")
                or DEFAULT_STORE_DIR)
    return Path(root)


def parse_bytes(text: str) -> int:
    """Parse a byte budget: a plain integer or ``100k`` / ``64m`` / ``2g``
    (binary multiples).  Raises :class:`ValueError` on anything else, so it
    slots directly into ``argparse`` ``type=`` callbacks."""
    raw = text.strip().lower()
    multiplier = 1
    for suffix, scale in (("k", 1024), ("m", 1024 ** 2), ("g", 1024 ** 3)):
        if raw.endswith(suffix):
            raw, multiplier = raw[:-1], scale
            break
    try:
        value = int(float(raw) * multiplier)
    except ValueError:
        raise ValueError(f"expected a byte count like 500000, 100k, 64m "
                         f"or 2g, got {text!r}") from None
    if value < 0:
        raise ValueError(f"byte count must be >= 0, got {text!r}")
    return value


def _load(path: str | os.PathLike) -> Any:
    """One envelope file, decoded as strict UTF-8 text (so a file in any
    other encoding raises ``ValueError``, as a text-mode read does)."""
    with open(path, "rb") as fh:
        return json.loads(fh.read().decode("utf-8"))


def _write_atomically(path: str, tmp: str, data: bytes) -> os.stat_result:
    """Write ``data`` to ``tmp`` and rename it onto ``path``; the temp
    file's ``fstat`` (the rename keeps its mtime and size).  The shard
    directory is created only when opening the temp file finds it missing,
    and the temp file is removed if anything fails."""
    try:
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        # First write into this shard, or the tree was removed.
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            stat = os.fstat(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return stat


class ResultStore:
    """Sharded JSON-file store addressed by hex content-hash keys.

    All public methods are thread-safe; cross-process safety comes from the
    atomic rename write path and the mtime-validated in-memory index, not
    from any lock file -- there is no coordination to deadlock on.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 max_bytes: int | None = None,
                 index_entries: int = DEFAULT_INDEX_ENTRIES) -> None:
        self.root = resolve_store_root(root)
        self._root = os.fspath(self.root)
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._index: OrderedDict[tuple[str, str], tuple[int, int, Any]] = OrderedDict()  # guarded-by: _lock
        self._index_entries = max(0, index_entries)
        self._lock = threading.Lock()
        self._counters = {"hits": 0, "misses": 0, "writes": 0,  # guarded-by: _lock
                          "evictions": 0, "quarantined": 0}

    # -- addressing ----------------------------------------------------
    def path_for(self, key: str, namespace: str = "results") -> Path:
        """On-disk location of ``key``: ``root/<ns>/<key[:2]>/<key>.json``."""
        return Path(self._path(key, f"{self._root}/{namespace}/"))

    @staticmethod
    def _path(key: str, ns_dir: str) -> str:
        """``key``'s file under a namespace directory prefix, as a string."""
        if _KEY.fullmatch(key) is None:
            raise StoreError(f"store keys are hex content hashes, got {key!r}")
        return f"{ns_dir}{key[:2]}/{key}.json"

    def namespaces(self) -> list[str]:
        """Namespace directories present under the root, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and not p.name.startswith("."))

    # -- read ----------------------------------------------------------
    def get(self, key: str, namespace: str = "results") -> Any | None:
        """The payload stored under ``key``, or ``None`` on a miss.

        Corrupt or checksum-mismatched entries are quarantined (moved to
        ``<key>.json.corrupt``) and count as a miss exactly once.  A valid
        read refreshes the in-memory index; index entries are trusted only
        while the file's ``(mtime_ns, size)`` is unchanged, so writes from
        other processes invalidate naturally.
        """
        path = self._path(key, f"{self._root}/{namespace}/")
        try:
            stat = os.stat(path)
        except OSError:
            self._bump("misses")
            return None
        cache_key = (namespace, key)
        with self._lock:
            entry = self._index.get(cache_key)
            if entry is not None and entry[0] == stat.st_mtime_ns \
                    and entry[1] == stat.st_size:
                self._index.move_to_end(cache_key)
                self._counters["hits"] += 1
                return entry[2]
        payload = self._read_envelope(path, key, namespace)
        if payload is None:
            self._bump("misses")
            return None
        with self._lock:
            self._remember(cache_key, stat.st_mtime_ns, stat.st_size, payload)
            self._counters["hits"] += 1
        return payload

    def _read_envelope(self, path: str, key: str, namespace: str) -> Any | None:
        """Parse + integrity-check one envelope file; quarantine on damage."""
        try:
            envelope = _load(path)
        except FileNotFoundError:
            return None
        # ValueError covers JSONDecodeError and the UnicodeDecodeError a
        # torn write can leave behind.
        except ValueError:
            self.quarantine(path)
            return None
        except OSError:
            return None
        if (not isinstance(envelope, dict) or "payload" not in envelope
                or envelope.get("key") not in (None, key)
                or envelope.get("checksum")
                != decoded_checksum(envelope["payload"])):
            self.quarantine(path)
            return None
        return envelope["payload"]

    def _remember(self, cache_key: tuple[str, str], mtime_ns: int,
                  size: int, payload: Any) -> None:  # requires: _lock
        if self._index_entries <= 0:
            return
        self._index[cache_key] = (mtime_ns, size, payload)
        self._index.move_to_end(cache_key)
        while len(self._index) > self._index_entries:
            self._index.popitem(last=False)

    def records(self, namespace: str = "results") -> Iterator[dict]:
        """All readable envelopes in ``namespace``, in key order.

        Damaged files are quarantined and skipped, mirroring :meth:`get`.
        """
        ns_dir = self.root / namespace
        if not ns_dir.is_dir():
            return
        for path in sorted(ns_dir.rglob("*.json")):
            try:
                envelope = _load(path)
            except ValueError:
                self.quarantine(path)
                continue
            except OSError:
                continue
            if (not isinstance(envelope, dict) or "payload" not in envelope
                    or envelope.get("checksum")
                    != decoded_checksum(envelope["payload"])):
                self.quarantine(path)
                continue
            yield envelope

    # -- write ---------------------------------------------------------
    def put(self, key: str, payload: Any, namespace: str = "results") -> Path:
        """Persist ``payload`` under ``key`` atomically; returns the path.

        A :meth:`put_many` of one: a failed write raises its error.
        """
        self.put_many([(key, payload)], namespace)
        return self.path_for(key, namespace)

    def put_many(self, items: Iterable[tuple[str, Any]],
                 namespace: str = "results") -> int:
        """Persist ``(key, payload)`` records atomically; returns how many
        were written.

        Each payload is encoded once, in insertion order, and those bytes
        are the envelope's payload; the checksum is taken over what a
        reader decodes from them, so every record reads back in every
        process.  Each write goes through a per-process/thread temp file
        and an atomic rename, so a concurrent reader sees either the
        previous complete record or this one -- never a prefix.  The
        records share one timestamp and one index update, and a store with
        a byte budget evicts once, after the writes.  A record that cannot
        be written (``OSError``, or a ``TypeError``/``ValueError`` from
        encoding it) is skipped; the others are still written, and the
        first such error is raised after them.
        """
        ns_dir = f"{self._root}/{namespace}/"
        records = [(self._path(key, ns_dir), key, payload)
                   for key, payload in items]
        # The envelope fields between each key and checksum, in field order.
        middle = (f'","namespace":{_RECORD_ENCODER.encode(namespace)},'
                  f'"created_unix":{time.time()!r},"checksum":"')
        suffix = f".tmp-{os.getpid()}-{threading.get_ident()}"
        written: list[tuple[str, Any, os.stat_result]] = []
        error: Exception | None = None
        for path, key, payload in records:
            try:
                body = _RECORD_ENCODER.encode(payload)
                checksum = decoded_checksum(json.loads(body))
                data = (f'{{"v":{ENVELOPE_VERSION},"key":"{key}{middle}'
                        f'{checksum}","payload":{body}}}').encode()
                stat = _write_atomically(path, path[:-5] + suffix, data)
            except (OSError, TypeError, ValueError) as exc:
                error = error or exc
                continue
            written.append((key, payload, stat))
        with self._lock:
            self._counters["writes"] += len(written)
            for key, payload, stat in written:
                self._remember((namespace, key), stat.st_mtime_ns,
                               stat.st_size, payload)
        if written and self.max_bytes is not None:
            self.evict_to(self.max_bytes)
        if error is not None:
            raise error
        return len(written)

    def delete(self, key: str, namespace: str = "results") -> bool:
        """Remove one record; True if a file was deleted."""
        path = self.path_for(key, namespace)
        with self._lock:
            self._index.pop((namespace, key), None)
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def clear(self, namespace: str | None = None) -> int:
        """Delete every record (in one namespace, or all); returns count."""
        removed = 0
        for ns in ([namespace] if namespace else self.namespaces()):
            ns_dir = self.root / ns
            if not ns_dir.is_dir():
                continue
            for path in ns_dir.rglob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        with self._lock:
            if namespace is None:
                self._index.clear()
            else:
                for cache_key in [k for k in self._index if k[0] == namespace]:
                    del self._index[cache_key]
        return removed

    # -- maintenance ---------------------------------------------------
    def quarantine(self, path: str | os.PathLike) -> Path | None:
        """Move a damaged entry aside (best effort); returns its new path.

        ``<key>.json.corrupt`` does not match the ``*.json`` glob, so the
        entry vanishes from reads and counts while staying on disk for
        post-mortem inspection.
        """
        path = Path(path)
        target = path.with_suffix(path.suffix + ".corrupt")
        try:
            path.replace(target)
        except OSError:
            return None
        self._bump("quarantined")
        with self._lock:
            self._index.pop((path.parent.parent.name, path.stem), None)
        return target

    def evict_to(self, max_bytes: int, namespace: str | None = None) -> int:
        """Delete least-recently-used records until the tree fits the
        budget; returns the number of records evicted.

        "Recently used" is the file's ``st_mtime`` (refreshed by writes;
        eviction therefore approximates insertion-order LRU, which is the
        honest guarantee a multi-process store can give without a shared
        access log).
        """
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for ns in ([namespace] if namespace else self.namespaces()):
            ns_dir = self.root / ns
            if not ns_dir.is_dir():
                continue
            for path in ns_dir.rglob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        if total <= max_bytes:
            return 0
        evicted = 0
        entries.sort()                      # oldest mtime first
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            with self._lock:
                self._index.pop((path.parent.parent.name, path.stem), None)
        if evicted:
            with self._lock:
                self._counters["evictions"] += evicted
        return evicted

    def verify(self, namespace: str | None = None) -> dict[str, int]:
        """Re-check every envelope checksum; quarantine mismatches.

        Returns ``{"checked", "ok", "quarantined"}``.  Store keys hash the
        request configuration, not the stored content, so this pass is the
        only way bit rot or an interrupted write that survived rename (e.g.
        on a non-POSIX filesystem) gets detected before it is served.
        """
        checked = ok = quarantined = 0
        for ns in ([namespace] if namespace else self.namespaces()):
            ns_dir = self.root / ns
            if not ns_dir.is_dir():
                continue
            for path in sorted(ns_dir.rglob("*.json")):
                checked += 1
                try:
                    envelope = _load(path)
                    valid = (isinstance(envelope, dict)
                             and "payload" in envelope
                             and envelope.get("checksum")
                             == decoded_checksum(envelope["payload"]))
                except ValueError:
                    valid = False
                except OSError:
                    continue
                if valid:
                    ok += 1
                elif self.quarantine(path) is not None:
                    quarantined += 1
        return {"checked": checked, "ok": ok, "quarantined": quarantined}

    # -- observability -------------------------------------------------
    def _bump(self, counter: str) -> None:
        with self._lock:
            self._counters[counter] += 1

    def counters(self) -> dict[str, int]:
        """Hit/miss/write/eviction/quarantine counters (this process)."""
        with self._lock:
            return dict(self._counters)

    def count(self, namespace: str = "results") -> int:
        ns_dir = self.root / namespace
        if not ns_dir.is_dir():
            return 0
        return sum(1 for _ in ns_dir.rglob("*.json"))

    def size_bytes(self, namespace: str | None = None) -> int:
        total = 0
        for ns in ([namespace] if namespace else self.namespaces()):
            ns_dir = self.root / ns
            if not ns_dir.is_dir():
                continue
            for path in ns_dir.rglob("*.json"):
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def stats(self) -> dict[str, Any]:
        """Durable-tier snapshot: per-namespace entry/byte counts plus the
        in-process counters -- the payload of ``GET /v1/store`` and
        ``python -m repro cache stats``."""
        per_namespace = {}
        corrupt = 0
        for ns in self.namespaces():
            ns_dir = self.root / ns
            entries = size = 0
            for path in ns_dir.rglob("*.json"):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            corrupt += sum(1 for _ in ns_dir.rglob("*.json.corrupt"))
            per_namespace[ns] = {"entries": entries, "bytes": size}
        return {
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "namespaces": per_namespace,
            "entries_total": sum(n["entries"] for n in per_namespace.values()),
            "bytes_total": sum(n["bytes"] for n in per_namespace.values()),
            "corrupt_quarantined_files": corrupt,
            "counters": self.counters(),
        }
