"""Data transport between forked children and their parent.

Two mechanisms live here, one per direction and size class:

* **Result files** — one file per outcome, written atomically: the
  child pickles a payload dict, writes it to ``<path>.tmp``, fsyncs,
  and renames.  The parent either reads a complete payload or — when
  the child died mid-write — sees no file at all, never a torn one.
  Both the :class:`~repro.runtime.supervisor.Supervisor` and the
  :class:`~repro.runtime.parallel.WorkerPool` ship oversized results
  through here, so the two process layers cannot drift apart in their
  crash semantics.

* **Shared segments** — mmap-backed read-only input placement for the
  persistent worker pool.  A parallel region places its large inputs
  (transaction databases, bitmap matrices, feature arrays) into a
  :class:`SharedRegion` *once* and hands workers a tiny picklable
  :class:`SegmentHandle` per task instead of re-pickling the payload
  per shard.  Workers forked after placement inherit the parent's
  already-unpickled object copy-on-write (zero transport cost); a
  worker that outlives the placement attaches the mmap file once and
  caches the decoded object, so successive passes over the same
  segment pay nothing after the first touch.

Both process layers also bind each child's lifetime to its parent here
(:func:`bind_to_parent_death`).
"""

from __future__ import annotations

import os
import pickle
import shutil
import signal
import tempfile
import time
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple, Union

from ..core.exceptions import ReproError, ValidationError
from .fsio import atomic_write_bytes

#: exception types a result read can raise; anything here means the
#: writer exited "cleanly" but its payload is missing or unusable.
READ_ERRORS = (OSError, pickle.UnpicklingError, EOFError,
               AttributeError, ImportError)

#: suffix of the not-yet-renamed half of an atomic payload write.
TMP_SUFFIX = ".tmp"

#: filename prefix of shared-segment files; the stale-transport sweep
#: reclaims orphans carrying it from :func:`segment_dir`.
SEGMENT_PREFIX = "repro-shm-"

#: scratch-directory prefixes the process layers create under the system
#: temp root; the stale-transport sweep only ever touches these.
TRANSPORT_PREFIXES = ("repro-supervised-", "repro-pool-", SEGMENT_PREFIX)


def write_result(result_path: str, payload: Dict[str, Any]) -> None:
    """Atomically persist a child's outcome (success or app error).

    An unpicklable payload degrades to a pickled :class:`ReproError`
    describing the failure, so the parent always gets *something* to
    re-raise instead of a torn transport.
    """
    try:
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raw = pickle.dumps({
            "ok": False,
            "error": ReproError(
                f"supervised result is not picklable: {exc!r}"
            ),
        })
    path = Path(result_path)
    atomic_write_bytes(path, raw, tmp_name=path.name + TMP_SUFFIX,
                       fsync_dir=False)


def read_result(result_path: str) -> Dict[str, Any]:
    """Load a payload written by :func:`write_result`.

    Raises one of :data:`READ_ERRORS` when the file is missing or
    unreadable; callers classify that as a torn result.
    """
    with open(result_path, "rb") as handle:
        return pickle.load(handle)


def bind_to_parent_death(name: Optional[bytes] = None) -> None:
    """Ask the kernel to SIGKILL this child when its parent dies.

    ``PR_SET_PDEATHSIG`` (Linux; a no-op where ``prctl`` is missing).
    A SIGKILLed parent never runs its cleanup, and an orphan would keep
    computing — and keep writing the checkpoints that a resumed run
    reads.  Every supervised child and every pool worker calls this
    first.  ``name`` (at most 15 bytes) also becomes the kernel comm
    name, so the child shows up under it in ``ps -o comm``.
    """
    try:
        import ctypes

        PR_SET_PDEATHSIG, PR_SET_NAME = 1, 15
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        if name is not None:
            libc.prctl(PR_SET_NAME, name, 0, 0, 0)
    except Exception:  # pragma: no cover - non-Linux / no libc
        pass


# ----------------------------------------------------------------------
# Shared segments (mmap-backed input placement for the worker pool)
# ----------------------------------------------------------------------

def segment_dir() -> Path:
    """Directory shared-segment files are created in.

    ``/dev/shm`` when the platform provides it (a tmpfs, so "mmap" means
    page-cache sharing with no disk traffic); the system temp dir
    otherwise.  Either way the files are world-visible named objects, so
    a SIGKILLed owner leaks at worst files that
    :func:`sweep_stale_transport` reclaims by prefix and age.
    """
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return shm
    return Path(tempfile.gettempdir())


class SegmentHandle:
    """Picklable reference to one shared segment.

    The handle is what crosses the pipe to a worker: a path, a size (for
    validation), a ``kind`` discriminating the decode path, and for
    arrays the ``(dtype, shape)`` needed to rebuild a view without
    copying.  Handles compare and hash by path so they can key
    worker-side caches.
    """

    __slots__ = ("path", "size", "kind", "meta")

    def __init__(self, path: str, size: int, kind: str,
                 meta: Optional[Tuple[str, Tuple[int, ...]]] = None):
        self.path = str(path)
        self.size = int(size)
        self.kind = str(kind)
        self.meta = meta

    def __getstate__(self):
        return (self.path, self.size, self.kind, self.meta)

    def __setstate__(self, state):
        self.path, self.size, self.kind, self.meta = state

    def __eq__(self, other):
        return isinstance(other, SegmentHandle) and other.path == self.path

    def __hash__(self):
        return hash(self.path)

    def __repr__(self):
        return (f"SegmentHandle(kind={self.kind!r}, size={self.size}, "
                f"path={self.path!r})")


#: objects placed by *this* process, keyed by segment path.  A worker
#: forked after placement inherits this dict copy-on-write, so
#: :func:`get_object` resolves the handle to the parent's already-built
#: object with zero decode cost — the common case for pool workers,
#: which fork lazily at first dispatch, after the region is populated.
_LOCAL_OBJECTS: Dict[str, Any] = {}

#: decoded-object cache for segments attached from disk (workers that
#: outlive the placement fork).  Bounded LRU by segment count.
_ATTACH_CACHE: "OrderedDict[str, Any]" = OrderedDict()
_ATTACH_CACHE_SLOTS = 8


class SharedRegion:
    """Owner of a set of shared segments with one lifetime.

    Created by the parent of a parallel region (one region per
    algorithm run, typically), populated with :meth:`put_object` /
    :meth:`put_array`, and closed when the run finishes — a context
    manager, so the segments cannot outlive an exception.  Closing
    unlinks every file the region created and drops the local-object
    entries; workers holding an attached mmap keep it alive until they
    release it (POSIX unlink semantics), so close is safe while maps
    are still live.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None):
        self._dir = Path(directory) if directory is not None else segment_dir()
        self._owner_pid = os.getpid()
        self._handles: list = []
        self._closed = False

    # -- placement ------------------------------------------------------
    def _new_path(self) -> Path:
        return self._dir / f"{SEGMENT_PREFIX}{os.getpid()}-{uuid.uuid4().hex}"

    def _write(self, raw: bytes, kind: str, meta=None) -> SegmentHandle:
        if self._closed:
            raise ValidationError("SharedRegion is closed")
        path = self._new_path()
        tmp = path.with_name(path.name + TMP_SUFFIX)
        with open(tmp, "wb") as sink:
            sink.write(raw)
            sink.flush()
        os.replace(tmp, path)
        handle = SegmentHandle(str(path), len(raw), kind, meta)
        self._handles.append(handle)
        return handle

    def put_object(self, obj: Any) -> SegmentHandle:
        """Place one picklable object; workers decode (or inherit) it."""
        raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        handle = self._write(raw, kind="object")
        _LOCAL_OBJECTS[handle.path] = obj
        return handle

    def put_array(self, arr: Any) -> SegmentHandle:
        """Place one C-contiguous numpy array as raw bytes.

        Attaching rebuilds a read-only zero-copy view over the mmap —
        no pickle framing, no decode, pages shared through the page
        cache across every attached worker.
        """
        import numpy as np

        arr = np.ascontiguousarray(arr)
        handle = self._write(
            arr.tobytes(), kind="array", meta=(str(arr.dtype), arr.shape)
        )
        _LOCAL_OBJECTS[handle.path] = arr
        return handle

    # -- lifetime -------------------------------------------------------
    def release(self, handle: SegmentHandle) -> None:
        """Unlink one segment early (e.g. a per-pass candidate set)."""
        if handle in self._handles:
            self._handles.remove(handle)
        _LOCAL_OBJECTS.pop(handle.path, None)
        try:
            os.unlink(handle.path)
        except OSError:
            pass

    def close(self) -> None:
        """Unlink every segment this region created (idempotent).

        A region inherited across a fork is *not* the child's to tear
        down: only the creating pid unlinks, so a supervised child or
        pool worker exiting never deletes segments its parent is still
        serving to siblings.
        """
        if self._closed:
            return
        self._closed = True
        if os.getpid() != self._owner_pid:
            return
        for handle in self._handles:
            _LOCAL_OBJECTS.pop(handle.path, None)
            try:
                os.unlink(handle.path)
            except OSError:
                pass
        self._handles.clear()

    def __enter__(self) -> "SharedRegion":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


def _attach(handle: SegmentHandle) -> Any:
    """Decode one segment from its file (worker-side cold path)."""
    if handle.kind == "array":
        import mmap as _mmap

        import numpy as np

        with open(handle.path, "rb") as source:
            buf = _mmap.mmap(source.fileno(), 0, access=_mmap.ACCESS_READ)
        dtype, shape = handle.meta
        view = np.frombuffer(buf, dtype=np.dtype(dtype)).reshape(shape)
        view.flags.writeable = False
        return view
    with open(handle.path, "rb") as source:
        return pickle.load(source)


def get_object(handle: SegmentHandle) -> Any:
    """Resolve a handle to its object, cheapest path first.

    Order of preference: the placing process's own object (inherited
    copy-on-write by forked workers — free), then the per-process
    attach cache, then a cold attach from the segment file.  Raises
    :class:`ReproError` when the segment has been released and no
    inherited copy exists — a handle used after region close.
    """
    obj = _LOCAL_OBJECTS.get(handle.path)
    if obj is not None:
        return obj
    cached = _ATTACH_CACHE.get(handle.path)
    if cached is not None:
        _ATTACH_CACHE.move_to_end(handle.path)
        return cached
    try:
        obj = _attach(handle)
    except READ_ERRORS as exc:
        raise ReproError(
            f"shared segment {handle.path} is gone or unreadable ({exc!r}); "
            "was the owning SharedRegion closed while tasks still "
            "referenced it?"
        ) from exc
    _ATTACH_CACHE[handle.path] = obj
    while len(_ATTACH_CACHE) > _ATTACH_CACHE_SLOTS:
        _ATTACH_CACHE.popitem(last=False)
    return obj


def get_array(handle: SegmentHandle) -> Any:
    """Resolve an array handle (alias of :func:`get_object`, typed)."""
    return get_object(handle)


def sweep_stale_tmp(
    directory: Union[str, Path],
    min_age_seconds: float = 0.0,
    pattern: str = f"*{TMP_SUFFIX}",
) -> int:
    """Delete torn ``*.tmp`` payloads left in one transport directory.

    A writer SIGKILLed between opening its temp file and the atomic
    rename leaves the ``*.tmp`` half behind forever — harmless to
    correctness (readers only ever see renamed, complete payloads) but a
    disk leak in any directory that outlives a single run (job stores,
    persistent scratch dirs).  Callers invoke this on startup, before
    any writer of the new run is live, so every matching file is by
    definition orphaned.  Returns the number of files removed; missing
    directories and racing deleters are not errors.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    now = time.time()
    removed = 0
    for entry in directory.glob(pattern):
        try:
            if min_age_seconds and now - entry.stat().st_mtime < min_age_seconds:
                continue
            entry.unlink()
            removed += 1
        except OSError:  # pragma: no cover - concurrent cleanup
            continue
    return removed


#: temp roots already swept by this process (``once=True`` guard).
_SWEPT_ROOTS: Set[str] = set()


def sweep_stale_transport(
    root: Optional[Union[str, Path]] = None,
    min_age_seconds: float = 3600.0,
    once: bool = False,
) -> int:
    """Remove orphaned transport scratch directories from ``root``.

    The supervisor and the worker pool normally delete their
    ``mkdtemp`` scratch in a ``finally`` block, but a parent process
    SIGKILLed mid-run never reaches it and the whole directory —
    including any torn ``*.tmp`` payload its children were writing —
    leaks into the system temp dir.  This sweep deletes entries whose
    name carries one of :data:`TRANSPORT_PREFIXES` and whose mtime is
    older than ``min_age_seconds`` (the age guard keeps concurrently
    *live* runs safe).  With ``once=True`` the scan runs at most one
    time per process per root — the cheap form both process layers call
    on startup.  Returns the number of entries removed.

    When ``root`` is not pinned, the sweep also covers
    :func:`segment_dir`: shared-segment files (``repro-shm-*``) live in
    ``/dev/shm`` rather than the temp root, and a SIGKILLed pool owner
    leaks them exactly like orphaned scratch directories.
    """
    roots = (
        [Path(root)] if root is not None
        else [Path(tempfile.gettempdir()), segment_dir()]
    )
    now = time.time()
    removed = 0
    for root_dir in dict.fromkeys(roots):
        if once:
            key = str(root_dir)
            if key in _SWEPT_ROOTS:
                continue
            _SWEPT_ROOTS.add(key)
        if not root_dir.is_dir():
            continue
        for entry in root_dir.iterdir():
            if not entry.name.startswith(TRANSPORT_PREFIXES):
                continue
            if entry.name in _LOCAL_OBJECTS or str(entry) in _LOCAL_OBJECTS:
                continue
            try:
                if now - entry.stat().st_mtime < min_age_seconds:
                    continue
                if entry.is_dir() and not entry.is_symlink():
                    shutil.rmtree(entry, ignore_errors=True)
                else:
                    entry.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent cleanup
                continue
    return removed


__all__ = [
    "READ_ERRORS",
    "SEGMENT_PREFIX",
    "TMP_SUFFIX",
    "TRANSPORT_PREFIXES",
    "SegmentHandle",
    "SharedRegion",
    "bind_to_parent_death",
    "get_array",
    "get_object",
    "read_result",
    "segment_dir",
    "sweep_stale_tmp",
    "sweep_stale_transport",
    "write_result",
]
