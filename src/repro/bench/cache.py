"""Persistent, content-addressed result cache.

Experiment results are pure functions of (experiment parameters, system,
processor count, fault/replication/analysis/observability options, cost-model
constants, and the simulator's source code): the simulator is
deterministic, so a result computed once is valid until any of those
inputs changes.  This module stores one JSON document per cache key under
a cache directory so results survive across processes and sessions --
``repro sweep``, the figure/table renderers, and the benchmark suite all
read through it.

Keys are content-addressed: ``cache_key_from_material`` hashes the
canonical JSON encoding of the full key material, which includes a
*source-tree fingerprint* of ``src/repro/`` -- editing any simulator
source file invalidates every cached result (the safe default for a
research harness: no stale numbers after a protocol change).  The
fingerprint is of the source *the process imported*: it is taken once,
on first use, so a long-lived process keeps filing what its pre-edit
code computes under the pre-edit key, and the next process to start
sees the edit.

Layout: ``<dir>/<key[:2]>/<key>.json`` -- sharded by key prefix so no
single directory grows unboundedly under concurrent writers -- written
crash-safely (unique temp file + ``fsync`` + ``os.replace``) so
concurrent sweep workers and serve-layer worker processes can share a
directory.  Every entry embeds a SHA-256 checksum of its payload;
``get`` detects torn or corrupt entries (a crash mid-write, a truncated
copy, bit rot) and moves them into ``<dir>/quarantine/`` instead of
re-parsing the same broken file on every lookup (a miss-loop).  The
cache directory is resolved per call from ``$REPRO_CACHE_DIR``, else
``<repo root>/.repro_cache``, else ``~/.cache/repro-sc95``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "cache_key_from_material",
    "canonical_json",
    "default_cache",
    "default_cache_dir",
    "source_fingerprint",
]

#: Version of the on-disk cache entry format.  Bump on incompatible
#: changes to the stored payload; entries with another version are misses.
CACHE_SCHEMA_VERSION = 1


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: Digest of the source tree this process runs, taken on first use and
#: kept for the life of the process.  A process goes on executing the
#: modules it imported however the files change underneath it, so
#: re-reading the tree per lookup would file pre-edit results under a
#: post-edit key; a fresh process (every CLI invocation, every spawned
#: sweep or serve worker) hashes the tree it imports.  No lock: racing
#: first callers compute the same digest and the assignment is atomic.
_FINGERPRINT: Optional[str] = None


def _source_files() -> list:
    package_root = pathlib.Path(__file__).resolve().parent.parent
    return [(path, str(path.relative_to(package_root)))
            for path in sorted(package_root.rglob("*.py"))]


def _source_stamp() -> Tuple[Tuple[str, int, int], ...]:
    stamp = []
    for path, rel in _source_files():
        try:
            st = path.stat()
        except OSError:
            continue
        stamp.append((rel, st.st_mtime_ns, st.st_size))
    return tuple(stamp)


def source_fingerprint() -> str:
    """SHA-256 over every ``.py`` file under ``src/repro/`` (path + bytes)
    as this process found them on first use; later calls touch no file.

    A source edit -- a cost constant, a protocol change, a bug fix --
    changes the fingerprint, and every cache key derived from it, of
    the next process to start (restart ``repro serve`` to pick it up).
    """
    global _FINGERPRINT
    if _FINGERPRINT is not None:
        return _FINGERPRINT
    stamp = _source_stamp()
    digest = hashlib.sha256()
    for path, rel in _source_files():
        try:
            data = path.read_bytes()
        except OSError:
            continue
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update(data)
        digest.update(b"\0")
    value = digest.hexdigest()
    # Keep the digest only if the tree did not change while it was
    # being read: an edit landing mid-hash yields a digest of mixed
    # old/new content, which names no tree; the next call hashes again.
    if _source_stamp() == stamp:
        _FINGERPRINT = value
    return value


def cache_key_from_material(material: Dict[str, Any]) -> str:
    """Content-address arbitrary (JSON-encodable) key material."""
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()


def default_cache_dir() -> pathlib.Path:
    """Resolve the cache directory (env var, repo root, then home)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    # src/repro/bench/cache.py -> repo root is three parents above repro/.
    for parent in pathlib.Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").is_file():
            return parent / ".repro_cache"
    return pathlib.Path.home() / ".cache" / "repro-sc95"


#: Subdirectory corrupt entries are moved into (never read back).
QUARANTINE_DIR = "quarantine"

#: Shard glob: entries live under two-hex-digit shard directories, so
#: the quarantine directory is never scanned as entries.
_SHARD_GLOB = "[0-9a-f][0-9a-f]/*.json"


class ResultCache:
    """A directory of content-addressed JSON result documents.

    Hardened for concurrent writers and hostile traffic:

    * writes are crash-safe: unique temp file in the target shard,
      ``fsync``, then atomic ``os.replace`` -- readers see either the
      old entry or the new one, never a torn write;
    * every entry embeds ``payload_sha256``; a torn or bit-rotted entry
      fails the checksum (or JSON parse) and is *quarantined* -- moved
      to ``quarantine/`` -- so the next lookup is a clean miss instead
      of re-parsing the same broken file forever;
    * version- or key-mismatched entries (legitimate format evolution,
      misfiled copies) stay in place and read as misses; the next
      ``put`` overwrites them.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = (pathlib.Path(directory) if directory is not None
                          else default_cache_dir())
        #: Per-instance traffic counters (diagnostics; the authoritative
        #: hit-rate for a sweep comes from the per-run ``cached`` flags).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.json"

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry out of the lookup path (best-effort)."""
        qdir = self.directory / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            if target.exists():
                target = qdir / f"{path.stem}.{os.getpid()}{path.suffix}"
            os.replace(path, target)
            self.quarantined += 1
        except OSError:
            pass  # concurrent quarantine/overwrite: the entry is gone

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on a miss.

        Unreadable, corrupt, or version-mismatched entries are misses
        (never errors): the cache is an accelerator, not a dependency.
        Corrupt entries (unparseable, or failing their embedded payload
        checksum) are additionally quarantined.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError:
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
        except ValueError:
            # Torn write or bit rot: never a valid entry again.
            self._quarantine(path)
            self.misses += 1
            return None
        if (entry.get("cache_schema") != CACHE_SCHEMA_VERSION
                or entry.get("key") != key):
            self.misses += 1
            return None
        checksum = entry.get("payload_sha256")
        if checksum is not None:
            actual = hashlib.sha256(
                canonical_json(entry.get("payload")).encode()).hexdigest()
            if actual != checksum:
                self._quarantine(path)
                self.misses += 1
                return None
        self.hits += 1
        return entry.get("payload")

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (atomic, crash-safe)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "payload": payload,
            "payload_sha256": hashlib.sha256(
                canonical_json(payload).encode()).hexdigest(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(entry))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob(_SHARD_GLOB))

    def validate(self) -> Dict[str, int]:
        """Scan every entry; quarantine corrupt ones.

        Returns ``{"entries": ..., "corrupt": ..., "quarantined": ...}``
        where ``corrupt`` counts entries that failed parsing or their
        checksum during this scan, and ``quarantined`` counts files
        sitting in the quarantine directory afterwards.  The serve-layer
        chaos benchmark uses this for its zero-corruption assertion.
        """
        entries = corrupt = 0
        if self.directory.is_dir():
            for path in sorted(self.directory.glob(_SHARD_GLOB)):
                entries += 1
                before = self.quarantined
                self.get(path.stem)
                if self.quarantined != before:
                    corrupt += 1
        qdir = self.directory / QUARANTINE_DIR
        in_quarantine = (sum(1 for _ in qdir.glob("*.json"))
                         if qdir.is_dir() else 0)
        return {"entries": entries - corrupt, "corrupt": corrupt,
                "quarantined": in_quarantine}

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob(_SHARD_GLOB):
                path.unlink()
                removed += 1
        return removed


def default_cache() -> ResultCache:
    """A cache over the default directory (resolved at call time)."""
    return ResultCache()
