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
  bit rot or foreign tampering.  A reader takes it with
  :func:`~repro.store.canonical.decoded_checksum` over the payload it
  decoded.  The engine's records arrive as
  :class:`~repro.store.canonical.CanonicalText`, already in canonical form
  (keys sorted), and are written verbatim with the SHA-256 of that text;
  any other payload (campaign rows, whose column order is part of their
  contract) is written in insertion order with ``decoded_checksum`` of
  its bytes decoded again.  The rule is the same either way, so every
  version of the writer reads every other's records.  An envelope counts
  only in its own file: one whose ``key`` names another record is damage
  to :meth:`~ResultStore.get`, :meth:`~ResultStore.records` and
  :meth:`~ResultStore.verify` alike.  The store holds no payload in
  memory: every read is a file read, so other processes' writes show at
  once (the engine's result LRU is the in-memory tier);
* **quarantine** -- unreadable or checksum-mismatched entries are moved
  aside to ``<key>.json.corrupt`` (outside the ``*.json`` glob), so a torn
  or rotted record costs exactly one miss and never shadows a recomputed
  result;
* **LRU-by-size eviction** -- ``evict_to(max_bytes)`` deletes
  oldest-accessed records first until the tree fits the budget; a store
  constructed with ``max_bytes`` self-evicts on write.  It keeps a byte
  estimate (the total of its last walk plus its own writes since) and
  walks the tree only when the estimate crosses the budget or it has
  written 10% of the budget since its last walk; a walk that finds the
  tree over budget evicts to 90% of it.  So a process writes at least
  10% of the budget for every two walks, and a budgeted write stats O(1)
  files amortised.  The estimate misses other processes' writes, so N
  processes sharing a root can hold up to (N-1) x 10% of the budget
  over it (plus one write call each) before a walk brings it back.

The store sits *below* :mod:`repro.campaign` and :mod:`repro.api` in the
layer diagram (see DESIGN.md) and must not import either.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

from .canonical import CanonicalText, decoded_checksum

__all__ = ["ResultStore", "StoreError", "DEFAULT_STORE_DIR",
           "resolve_store_root", "parse_bytes"]

#: Default on-disk location, relative to the current working directory.
#: Deliberately the same directory the campaign cache always used -- the
#: point of the tier is one store, not two.
DEFAULT_STORE_DIR = ".repro-cache"

#: Envelope schema version; bump if the envelope layout itself changes.
ENVELOPE_VERSION = 1

#: A store key: a hex content hash (at least the two shard characters and
#: one more).
_KEY = re.compile(r"[0-9a-f]{3,}")

#: Insertion-order, whitespace-free C encoder of a record's payload: the
#: bytes ``json.dumps(envelope, separators=(",", ":"))`` writes for it.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: A budgeted store walks its tree again once it has written this share
#: of its budget since its last walk, even when its byte estimate fits:
#: writes by other processes sharing the root are not in the estimate.
#: Between walks a process writes at least this share of the budget (or
#: the walk evicts), so a walk's cost is spread over that many bytes.
_REWALK_SHARE = 0.1

#: A budgeted store's walk that finds the tree over budget evicts down to
#: this share of it, so the walk buys that much headroom.
_EVICT_LOW_WATER = 0.9

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


def _is_record_of(envelope: Any, key: str) -> bool:
    """True when a decoded envelope file is a sound record of ``key``: an
    object with a payload whose checksum matches and whose ``key`` field,
    if any, is ``key`` (an envelope copied to another key's path is not)."""
    return (isinstance(envelope, dict) and "payload" in envelope
            and envelope.get("key") in (None, key)
            and envelope.get("checksum")
            == decoded_checksum(envelope["payload"]))


def _write_atomically(path: str, tmp: str, data: bytes) -> None:
    """Write ``data`` to ``tmp`` and rename it onto ``path``.  The shard
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
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Sharded JSON-file store addressed by hex content-hash keys.

    All public methods are thread-safe; cross-process safety comes from the
    atomic rename write path, not from any lock file -- there is no
    coordination to deadlock on.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 max_bytes: int | None = None) -> None:
        self.root = resolve_store_root(root)
        self._root = os.fspath(self.root)
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._counters = {"hits": 0, "misses": 0, "writes": 0,  # guarded-by: _lock
                          "evictions": 0, "quarantined": 0}
        # Bytes on disk at the last whole-tree walk plus this process's
        # writes since (``None``: no walk yet), and those writes alone; a
        # budgeted store walks again only when it is due (:meth:`_walk_due`).
        self._estimate: int | None = None  # guarded-by: _lock
        self._written_since_walk = 0  # guarded-by: _lock

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

    def _files(self, namespace: str | None = None, pattern: str = "*.json",
               *, ordered: bool = False) -> Iterator[Path]:
        """The files matching ``pattern`` in ``namespace`` (every namespace
        when ``None``), namespace by namespace; sorted within each one when
        ``ordered``."""
        for ns in ([namespace] if namespace else self.namespaces()):
            ns_dir = self.root / ns
            if ns_dir.is_dir():
                paths = ns_dir.rglob(pattern)
                yield from sorted(paths) if ordered else paths

    # -- read ----------------------------------------------------------
    def get(self, key: str, namespace: str = "results") -> Any | None:
        """The payload stored under ``key``, or ``None`` on a miss.

        Every call reads the file, so a write by any process shows at
        once.  Corrupt, checksum-mismatched or misfiled entries are
        quarantined (moved to ``<key>.json.corrupt``) and count as a miss
        exactly once.
        """
        envelope = self._read_envelope(
            self._path(key, f"{self._root}/{namespace}/"), key)
        self._bump("misses" if envelope is None else "hits")
        return None if envelope is None else envelope["payload"]

    def _read_envelope(self, path: str | os.PathLike,
                       key: str) -> dict | None:
        """The envelope in ``path`` when it is a sound record of ``key``
        (:func:`_is_record_of`), else ``None``; quarantine on damage."""
        try:
            envelope = _load(path)
        except OSError:
            return None
        # ValueError covers JSONDecodeError and the UnicodeDecodeError a
        # torn write can leave behind.
        except ValueError:
            envelope = None
        if _is_record_of(envelope, key):
            return envelope
        self.quarantine(path)
        return None

    def records(self, namespace: str = "results") -> Iterator[dict]:
        """All readable envelopes in ``namespace``, in key order.

        Damaged files are quarantined and skipped, mirroring :meth:`get`.
        """
        for path in self._files(namespace, ordered=True):
            envelope = self._read_envelope(path, path.stem)
            if envelope is not None:
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

        A :class:`~repro.store.canonical.CanonicalText` payload is written
        verbatim and its checksum is the SHA-256 of the text.  Any other
        payload is encoded once, in insertion order, and those bytes are
        the envelope's payload; the checksum is taken over what a reader
        decodes from them.  Either way it is the checksum a reader computes,
        so every record reads back in every process.  Each write goes
        through a per-process/thread temp file and an atomic rename, so a
        concurrent reader sees either the previous complete record or this
        one -- never a prefix.  The records share one timestamp, and a
        store with a byte budget walks its tree only when a walk is due
        (:meth:`_walk_due`), after the writes.  A record that cannot be
        written (``OSError``, or a ``TypeError``/``ValueError`` from
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
        written = nbytes = 0
        error: Exception | None = None
        for path, key, payload in records:
            try:
                if type(payload) is CanonicalText:
                    body, checksum = payload, payload.checksum()
                else:
                    body = _RECORD_ENCODER.encode(payload)
                    checksum = decoded_checksum(json.loads(body))
                data = (f'{{"v":{ENVELOPE_VERSION},"key":"{key}{middle}'
                        f'{checksum}","payload":{body}}}').encode()
                _write_atomically(path, path[:-5] + suffix, data)
            except (OSError, TypeError, ValueError) as exc:
                error = error or exc
                continue
            written += 1
            nbytes += len(data)
        with self._lock:
            self._counters["writes"] += written
        budget = self.max_bytes
        if written and budget is not None and self._walk_due(budget, nbytes):
            self._evict(budget, int(budget * _EVICT_LOW_WATER))
        if error is not None:
            raise error
        return written

    def delete(self, key: str, namespace: str = "results") -> bool:
        """Remove one record; True if a file was deleted."""
        try:
            self.path_for(key, namespace).unlink()
            return True
        except OSError:
            return False

    def clear(self, namespace: str | None = None) -> int:
        """Delete every record (in one namespace, or all); returns count."""
        removed = 0
        for path in self._files(namespace):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
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
        return target

    def _walk_due(self, budget: int, nbytes: int) -> bool:
        """Add ``nbytes`` written to the byte estimate; True when the tree
        must be walked: no walk yet, the estimate over ``budget``, or
        :data:`_REWALK_SHARE` of ``budget`` written since the last walk."""
        with self._lock:
            if self._estimate is None:
                return True
            self._estimate += nbytes
            self._written_since_walk += nbytes
            return (self._estimate > budget
                    or self._written_since_walk >= budget * _REWALK_SHARE)

    def evict_to(self, max_bytes: int, namespace: str | None = None) -> int:
        """Delete least-recently-used records until the tree fits the
        budget; returns the number of records evicted.

        "Recently used" is the file's ``st_mtime`` (refreshed by writes;
        eviction therefore approximates insertion-order LRU, which is the
        honest guarantee a multi-process store can give without a shared
        access log).
        """
        return self._evict(max_bytes, max_bytes, namespace)

    def _evict(self, max_bytes: int, target: int,
               namespace: str | None = None) -> int:
        """:meth:`evict_to`, evicting down to ``target`` once the tree is
        over ``max_bytes``.  A walk of the whole tree restarts the
        write-side byte estimate (:meth:`_walk_due`) from its total."""
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self._files(namespace):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        evicted = 0
        if total > max_bytes:
            entries.sort()                  # oldest mtime first
            for _, size, path in entries:
                if total <= target:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                evicted += 1
        with self._lock:
            self._counters["evictions"] += evicted
            if namespace is None:
                self._estimate = total
                self._written_since_walk = 0
        return evicted

    def verify(self, namespace: str | None = None) -> dict[str, int]:
        """Re-check every envelope checksum; quarantine mismatches.

        Returns ``{"checked", "ok", "quarantined"}``.  Store keys hash the
        request configuration, not the stored content, so this pass is the
        only way bit rot or an interrupted write that survived rename (e.g.
        on a non-POSIX filesystem) gets detected before it is served.  A
        record is sound by the rule :meth:`get` serves by
        (:func:`_is_record_of`).
        """
        checked = ok = quarantined = 0
        for path in self._files(namespace, ordered=True):
            checked += 1
            try:
                valid = _is_record_of(_load(path), path.stem)
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
        return sum(1 for _ in self._files(namespace))

    def size_bytes(self, namespace: str | None = None) -> int:
        total = 0
        for path in self._files(namespace):
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
            entries = size = 0
            for path in self._files(ns):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            corrupt += sum(1 for _ in self._files(ns, "*.json.corrupt"))
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
