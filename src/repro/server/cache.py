"""Integrity-checked result cache keyed by submission content.

Identical resubmissions should not re-mine.  Two pieces make that safe:

* :func:`content_key` derives the cache/idempotency fallback key from
  *what the job would compute*, not how it was phrased:
  ``sha256(dataset bytes) + kind + algorithm + canonical params``
  (sorted-key, fixed-separator JSON of the normalised parameters).
  Renaming the dataset file does not change the key; editing one
  transaction does.  A dataset that cannot be read at submission time
  yields no key — the job still runs (and fails with its ordinary
  application error), it just cannot be deduplicated or cached.
* :class:`ResultCache` stores one entry per key under the checkpoint
  store's framing discipline: a magic+length+SHA-256 header over the
  canonical result bytes, written through the atomic
  write-fsync-rename seam.  A corrupted entry — truncated, bit-flipped,
  stale-format — is *quarantined* (renamed aside, kept for post-mortem)
  and reported as a miss, so the scheduler recomputes; a wrong answer
  is never served.  The :class:`~repro.runtime.faults.DiskGremlin`
  tests pin exactly that.

Entries hold the job's *canonical result bytes* (see
``scheduler.canonical_result_bytes``), so a cache hit is byte-identical
to the original run — the same equality the crash-recovery proofs
assert on.  Degraded (budget-truncated) results are never cached: their
shape depends on the submitting tenant's quota, and a cache must not
leak one tenant's truncation to another.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from ..core.exceptions import ReproError
from ..runtime.fsio import atomic_write_bytes
from ..tasks import result_params

#: magic + format version; bumping the version invalidates old entries.
MAGIC = b"RPRC0001"

#: header layout: magic, 8-byte big-endian payload length, SHA-256 digest.
_HEADER = struct.Struct(">8sQ32s")

_ENTRY_SUFFIX = ".rc"
_QUARANTINE_SUFFIX = ".quarantined"


def content_key(
    kind: str,
    algorithm: str,
    dataset: Union[str, Path],
    params: Optional[Mapping[str, Any]] = None,
) -> Optional[str]:
    """The content-derived submission key, or ``None`` if unreadable.

    ``sha256`` over the dataset *bytes* (streamed, so large files never
    load whole), combined with the job kind, algorithm name and the
    canonical JSON of :func:`repro.tasks.result_params`: defaults filled
    in, proven result-neutral parameters left out.  Every other
    difference — even an operational hook like ``pass_delay`` — yields
    a different key, so a false *hit* is impossible and a false miss
    merely re-mines.  Parameters that do not resolve yield no key.
    """
    digest = hashlib.sha256()
    try:
        with open(dataset, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        normalised = result_params(kind, dict(params or {}))
    except (OSError, ReproError):
        return None
    canonical = json.dumps(normalised, sort_keys=True,
                           separators=(",", ":"), default=repr)
    material = "\x00".join(
        (str(kind), str(algorithm), digest.hexdigest(), canonical)
    )
    return hashlib.sha256(material.encode()).hexdigest()


class ResultCache:
    """Checksummed result entries, one file per content key.

    ``hits`` / ``misses`` are in-memory counters for the current
    process (monitoring, not accounting — they reset on restart);
    entry and quarantine counts are read from disk so they survive.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def entry_path(self, key: str) -> Path:
        return self.root / f"{key}{_ENTRY_SUFFIX}"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        """Persist ``data`` under ``key`` (atomic; overwrites)."""
        body = _HEADER.pack(MAGIC, len(data),
                            hashlib.sha256(data).digest()) + data
        atomic_write_bytes(self.entry_path(key), body)

    def get(self, key: str) -> Optional[bytes]:
        """The verified payload for ``key``, or ``None`` on miss.

        A present-but-corrupt entry is quarantined and counts as a
        miss: the caller recomputes, and the damaged bytes stay on disk
        under ``*.quarantined`` for post-mortem.
        """
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        payload = self._verify(raw)
        if payload is None:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    @staticmethod
    def _verify(raw: bytes) -> Optional[bytes]:
        if len(raw) < _HEADER.size:
            return None
        magic, length, digest = _HEADER.unpack_from(raw)
        payload = raw[_HEADER.size:]
        if magic != MAGIC or len(payload) != length:
            return None
        if hashlib.sha256(payload).digest() != digest:
            return None
        return payload

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, Path(str(path) + _QUARANTINE_SUFFIX))
        except OSError:
            # Cannot even rename (read-only disk): remove best-effort so
            # the bad entry is at least never re-read as a candidate.
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _count(self, suffix: str) -> int:
        try:
            return sum(1 for entry in self.root.iterdir()
                       if entry.name.endswith(suffix))
        except OSError:
            return 0

    def entries(self) -> int:
        return self._count(_ENTRY_SUFFIX)

    def quarantined(self) -> int:
        return self._count(_QUARANTINE_SUFFIX)

    def stats(self) -> Dict[str, int]:
        """The ``/healthz`` payload: entries, hits, misses, quarantined."""
        return {
            "entries": self.entries(),
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined(),
        }


__all__ = [
    "MAGIC",
    "ResultCache",
    "content_key",
]
