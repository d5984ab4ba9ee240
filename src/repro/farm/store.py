"""Content-addressed on-disk artifact store for farm campaigns.

Artifacts (adversary traces, non-sorting certificates, lint reports,
experiment rows) are keyed by a canonical SHA-256 hash of the serialised
job that produced them, so identical work is never recomputed and two
stores built from the same campaign are byte-identical up to index
ordering.  Layout::

    <root>/
      objects/<k[:2]>/<k[2:]>.json    one JSON document per artifact
      index.jsonl                     append-only index, one line per put

Writes are atomic (temp file + ``os.replace`` in the object directory),
so a crash or SIGINT can never leave a half-written object: the worst
case is a stray ``*.tmp`` file, which readers ignore.  The index is
advisory -- :meth:`ArtifactStore.get` reads the object file on a cache
miss -- so a truncated final index line (the one failure appends admit)
cannot corrupt results either.

Reads go through a bounded in-process LRU (``cache_size`` entries, least
recently used evicted first), so a hot key is parsed from disk once per
process rather than on every :meth:`ArtifactStore.get`.  :meth:`put`
refreshes the cached entry, keeping a single-process reader-after-writer
coherent; the cache is advisory only -- a cached document is exactly the
parsed object file -- and callers must treat returned documents as
immutable, since cache hits share one dict.

The store is thread-safe: the serve daemon calls :meth:`get` and
:meth:`put` from ``asyncio.to_thread`` workers, so an internal lock
guards the LRU, its hit/miss counters and the index append.  Object
file I/O (the temp-file/fsync/replace dance) happens *outside* the
lock -- per-key atomicity comes from ``os.replace``, not from the
lock, so one slow disk write never serialises unrelated keys.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Iterator

from .._util import json_native
from ..errors import ReproError
from ..obs import events as obs_events
from ..obs.metrics import percentile
from ..obs.trace import get_tracer

__all__ = [
    "STORE_FORMAT",
    "DEFAULT_CACHE_SIZE",
    "canonical_json",
    "job_key",
    "ArtifactStore",
    "trusted_document",
    "cached",
]

#: Format tag hashed into every key; bump to invalidate all stores.
STORE_FORMAT = 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: native types, sorted keys, no whitespace."""
    return json.dumps(
        json_native(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def job_key(doc: Any) -> str:
    """SHA-256 hex digest of the canonical serialisation of ``doc``."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


#: Default bound of the per-store read cache (documents, not bytes).
DEFAULT_CACHE_SIZE = 256


class ArtifactStore:
    """A content-addressed JSON artifact store rooted at a directory.

    ``cache_size`` bounds the in-process read cache (0 disables it);
    documents returned by :meth:`get` are shared with the cache and must
    not be mutated by callers.
    """

    def __init__(self, root: str | Path, *, cache_size: int = DEFAULT_CACHE_SIZE):
        self.root = Path(root)
        self.cache_size = max(0, int(cache_size))
        self._cache: OrderedDict[str, dict[str, Any]] = OrderedDict()
        #: Guards the LRU, the hit/miss counters and the index append;
        #: never held across object-file I/O.
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def objects_dir(self) -> Path:
        """Directory holding the sharded artifact objects."""
        return self.root / "objects"

    @property
    def index_path(self) -> Path:
        """The advisory append-only JSONL index file."""
        return self.root / "index.jsonl"

    def object_path(self, key: str) -> Path:
        """Sharded on-disk location of one artifact."""
        return self.objects_dir / key[:2] / f"{key[2:]}.json"

    def put(self, key: str, doc: dict[str, Any]) -> Path:
        """Atomically write one artifact and append an index line."""
        doc = dict(doc)
        doc.setdefault("format", STORE_FORMAT)
        doc["key"] = key
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(json_native(doc), indent=2)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        line = canonical_json(
            {
                "key": key,
                "kind": (doc.get("job") or {}).get("kind"),
                "status": doc.get("status"),
                "elapsed": doc.get("elapsed"),
            }
        )
        # the lock serialises index lines from concurrent to_thread
        # writers and refreshes the cached entry, so a reader in this
        # process sees the overwrite immediately; re-parsing the written
        # text guarantees cache and disk agree byte for byte
        with self._lock:
            with open(self.index_path, "a") as fh:
                fh.write(line + "\n")
            self._remember(key, json.loads(text))
        return path

    def _remember(self, key: str, doc: dict[str, Any]) -> None:
        """Install one parsed document as the most-recent cache entry.

        Callers hold ``self._lock``.
        """
        if self.cache_size <= 0:
            return
        self._cache[key] = doc
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def invalidate(self, key: str | None = None) -> None:
        """Drop one cached document (or all of them with ``key=None``).

        Needed only when another *process* rewrote an object under this
        store's feet; same-process :meth:`put` refreshes automatically.
        """
        with self._lock:
            if key is None:
                self._cache.clear()
            else:
                self._cache.pop(key, None)

    def get(self, key: str) -> dict[str, Any] | None:
        """Load one artifact; a missing or unreadable object is a miss.

        Hits are served from the in-process LRU without touching disk;
        treat the returned document as immutable (it is shared).
        """
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return hit
            self.cache_misses += 1
        path = self.object_path(key)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("key") != key:
            return None
        with self._lock:
            self._remember(key, doc)
        return doc

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> Iterator[str]:
        """All artifact keys, reconstructed from the object tree."""
        if not self.objects_dir.is_dir():
            return
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield shard.name + path.name[: -len(".json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def iter_index(self) -> Iterator[dict[str, Any]]:
        """Parse the advisory index; skips the rare truncated line."""
        try:
            lines = self.index_path.read_text().splitlines()
        except OSError:
            return
        for line in lines:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                yield entry

    def stats(self) -> dict[str, Any]:
        """Aggregate counts for ``farm status``: artifacts, kinds, bytes."""
        by_kind: dict[str, int] = {}
        by_status: dict[str, int] = {}
        artifacts = 0
        total_bytes = 0
        elapsed_values: list[float] = []
        seen: set[str] = set()
        for entry in self.iter_index():
            key = entry.get("key")
            if not isinstance(key, str) or key in seen:
                continue
            seen.add(key)
            path = self.object_path(key)
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue  # indexed but gone: don't count it
            artifacts += 1
            kind = entry.get("kind") or "unknown"
            status = entry.get("status") or "unknown"
            by_kind[kind] = by_kind.get(kind, 0) + 1
            by_status[status] = by_status.get(status, 0) + 1
            if isinstance(entry.get("elapsed"), (int, float)):
                elapsed_values.append(float(entry["elapsed"]))
        # objects written while the index line was lost still count
        unindexed = sum(1 for k in self.keys() if k not in seen)
        return {
            "root": str(self.root),
            "artifacts": artifacts + unindexed,
            "unindexed": unindexed,
            "bytes": total_bytes,
            "compute_seconds": sum(elapsed_values),
            "elapsed_p50": percentile(elapsed_values, 50.0),
            "elapsed_p95": percentile(elapsed_values, 95.0),
            "elapsed_max": max(elapsed_values, default=0.0),
            "by_kind": dict(sorted(by_kind.items())),
            "by_status": dict(sorted(by_status.items())),
        }


def trusted_document(
    store: ArtifactStore,
    key: str,
    revalidate: Callable[[dict[str, Any]], bool] | None = None,
) -> tuple[dict[str, Any] | None, bool]:
    """The trust boundary for a stored result: ``(document, refused)``.

    The document is trusted (else ``None``) when its status is ``ok``,
    its result an object and ``revalidate(result)`` holds; ``refused``
    says an ``ok`` document was turned away.  A raising
    :class:`~repro.errors.ReproError` refuses it; other errors propagate.
    """
    doc = store.get(key)
    if doc is None or doc.get("status") != "ok":
        return None, False
    result = doc.get("result")
    try:
        valid = isinstance(result, dict) and (not revalidate or revalidate(result))
    except ReproError:
        valid = False
    return (doc, False) if valid else (None, True)


def cached(
    store: ArtifactStore | None,
    params: dict[str, Any],
    compute: Callable[[], dict[str, Any]],
    *,
    revalidate: Callable[[dict[str, Any]], bool] | None = None,
) -> tuple[dict[str, Any], bool]:
    """Memoise one experiment cell through a store; returns (result, hit).

    ``params`` must fully determine the computation.  A hit must pass
    :func:`trusted_document` with ``revalidate``; anything it refuses is
    a miss, and the cell is recomputed and rewritten, so stale or
    corrupted artifacts can never leak into a table.  With
    ``store=None`` this is just ``compute()``.
    """
    tracer = get_tracer()
    if store is None:
        with tracer.span(obs_events.SPAN_CELL, cached=False):
            return compute(), False
    key = job_key({"format": STORE_FORMAT, "kind": "cell", "params": params})
    doc, _ = trusted_document(store, key, revalidate)
    if doc is not None:
        if tracer.enabled:
            tracer.event(obs_events.EV_CACHE, key=key[:12], hit=True)
        return doc["result"], True
    # normalise before returning so cold and warm runs yield identical rows
    with tracer.span(obs_events.SPAN_CELL, key=key[:12], cached=False):
        result = json_native(compute())
    store.put(
        key,
        {
            "job": {"kind": "cell", "params": json_native(params)},
            "status": "ok",
            "result": result,
        },
    )
    return result, False
