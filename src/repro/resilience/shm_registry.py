"""Crash-safe lifecycle for shared-memory ColumnStore exports.

A process that exports a :class:`~repro.graph.columnar.ColumnStore` into
POSIX shared memory and then dies without ``close(unlink=True)`` leaks the
segment until reboot — the OS reference-counts *mappings*, not the name.
This module closes that hole three ways:

1. **Registry + exit cleanup.** Every owning export registers here
   (:func:`register`, called by ``ColumnStore.to_shared``); an ``atexit``
   hook and a chaining ``SIGTERM`` handler unlink every still-registered
   segment on the way down, so ordinary crashes (uncaught exception,
   ``sys.exit``, termination signal) cannot leak.
2. **Creator-pid stamping.** Exports embed the creating process id in the
   segment metadata; :meth:`ColumnStore.attach` flags segments whose
   creator died (an *orphan*) with a logged warning instead of silently
   adopting them.
3. **Orphan scanning.** :func:`scan_orphans` walks ``/dev/shm`` for
   ColumnStore-magic segments whose creator is gone; :func:`reap_orphans`
   unlinks them — the repair tool for segments leaked by ``SIGKILL``/
   ``os._exit``, which no in-process hook can catch.

The registry holds weak references: a store that is closed (which calls
:func:`unregister`) or garbage-collected never blocks cleanup, and cleanup
by name alone works even after the store object is gone.
"""

from __future__ import annotations

import atexit
import logging
import os
import signal
import struct
import threading
import weakref
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics

LOG = logging.getLogger("repro.resilience")

#: Magic + header layout of a shared ColumnStore segment. Canonical here so
#: the orphan scanner can recognize segments without importing (or
#: circularly depending on) :mod:`repro.graph.columnar`, which imports
#: these constants back. Durable file segments (:mod:`repro.graph.
#: segments`) reuse the same magic and header struct with a different
#: format version. The orphan scanner reads only the version-1 layout
#: (JSON right after the header) and only under ``/dev/shm``; sealed
#: files keep a checksum block there, and the crash leftovers in a
#: segment-store directory are :func:`repro.graph.segments.fsck`'s.
SEGMENT_MAGIC = b"FMCOLSTO"
SEGMENT_HEADER = struct.Struct("<8sQQ")

#: Format versions: 1 = volatile shared-memory export (no checksums — the
#: block never outlives its creator's crash-cleanup hooks), 2 = durable
#: sealed segment file (header checksum + per-column CRC32, validated on
#: every open).
SHM_FORMAT_VERSION = 1
SEGMENT_FILE_VERSION = 2


class SegmentCorruptionError(ValueError):
    """A segment (shm block or sealed file) fails validation.

    Raised instead of decoding garbage: magic/version mismatch, a
    truncated header, metadata that does not parse, a CRC mismatch, or a
    file whose size disagrees with its own header. Subclasses
    :class:`ValueError` so pre-existing callers that caught the untyped
    error keep working.
    """

_LOCK = threading.Lock()
#: name -> (registering pid, weakref to the owning ColumnStore). The pid
#: guards against forked children (e.g. process-pool workers) inheriting
#: the parent's registry and unlinking the parent's live segments from
#: their own exit hooks — cleanup only ever touches entries registered by
#: the current process.
_REGISTRY: Dict[str, Tuple[int, "weakref.ref"]] = {}
_INSTALLED = False
#: (chaining handler, the SIGTERM disposition it replaced), once
#: installed; a forked child still on the handler gets the latter back.
_SIGTERM_SWAP: Optional[Tuple[object, object]] = None

#: Extra callables run by the chaining SIGTERM handler *before* segment
#: cleanup — the flight recorder dumps its diagnostic bundle here, so a
#: terminated run leaves its last seconds of context on disk. Hooks are
#: pid-stamped like registry entries: a forked pool worker inheriting
#: the parent's hook list must not run the parent's hooks.
_SIGTERM_HOOKS: List[Tuple[int, object]] = []


def pid_alive(pid: Optional[int]) -> bool:
    """Best-effort liveness probe for a process id."""
    if not pid or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def _unlink_by_name(name: str) -> bool:
    """Remove a shared-memory segment by name; True when it existed."""
    try:
        import _posixshmem

        _posixshmem.shm_unlink(name if name.startswith("/") else "/" + name)
        return True
    except FileNotFoundError:
        return False
    except ImportError:  # non-POSIX: fall back to the stdlib wrapper
        from multiprocessing import shared_memory

        try:
            seg = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            return False
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:
            return False
        return True


def _install_handlers_once() -> None:
    """Arm atexit + SIGTERM cleanup (idempotent, main-thread only for
    the signal part; the atexit part always works)."""
    global _INSTALLED, _SIGTERM_SWAP
    if _INSTALLED:
        return
    _INSTALLED = True
    atexit.register(cleanup_segments)
    try:
        previous = signal.getsignal(signal.SIGTERM)

        def _on_sigterm(signum, frame):
            _run_sigterm_hooks()
            cleanup_segments()
            if callable(previous):
                previous(signum, frame)
            else:
                # Restore the default disposition and re-raise the signal
                # so the process still dies with the expected status.
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

        signal.signal(signal.SIGTERM, _on_sigterm)
        _SIGTERM_SWAP = (
            _on_sigterm,
            signal.SIG_DFL if previous is None else previous,
        )
    except (ValueError, OSError):  # non-main thread / unsupported platform
        pass


def _after_fork_in_child() -> None:
    """Give a forked child (a pool worker) a fresh lock and the SIGTERM
    disposition from before the chaining handler: another parent thread
    may have held ``_LOCK`` at the fork, so the inherited handler could
    block for good, and its pid-stamped hooks and entries do nothing in
    the child anyway."""
    global _LOCK, _INSTALLED, _SIGTERM_SWAP
    _LOCK = threading.Lock()
    _INSTALLED = False
    swap, _SIGTERM_SWAP = _SIGTERM_SWAP, None
    if swap is not None and signal.getsignal(signal.SIGTERM) is swap[0]:
        try:
            signal.signal(signal.SIGTERM, swap[1])
        except (ValueError, OSError):  # forked from a non-main thread
            pass


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def register_sigterm_hook(hook) -> None:
    """Run ``hook()`` from the chaining SIGTERM handler, before cleanup.

    Errors from hooks are swallowed — diagnostics must never block the
    termination path. Arms the handler chain if nothing registered yet.
    """
    with _LOCK:
        _install_handlers_once()
        _SIGTERM_HOOKS.append((os.getpid(), hook))


def _run_sigterm_hooks() -> None:
    pid = os.getpid()
    with _LOCK:
        hooks = [hook for owner, hook in _SIGTERM_HOOKS if owner == pid]
    for hook in hooks:
        try:
            hook()
        except Exception:  # noqa: BLE001 - must not mask the signal path
            LOG.debug("SIGTERM hook %r failed", hook, exc_info=True)


def register(store) -> None:
    """Track one owning shared-memory export for crash-safe cleanup."""
    name = getattr(store, "shm_name", None)
    if name is None:
        return
    with _LOCK:
        _install_handlers_once()
        _REGISTRY[name] = (os.getpid(), weakref.ref(store))


def unregister(name: Optional[str]) -> None:
    """Stop tracking a segment (its owner closed it deliberately)."""
    if name is None:
        return
    with _LOCK:
        _REGISTRY.pop(name, None)


def active_segments() -> List[str]:
    """Names of segments registered by this process and not yet unlinked."""
    pid = os.getpid()
    with _LOCK:
        return sorted(
            name for name, (owner, _) in _REGISTRY.items() if owner == pid
        )


def cleanup_segments() -> int:
    """Unlink every segment registered by this process; returns the count.

    Runs from ``atexit``/``SIGTERM`` but is safe to call directly (e.g.
    in a test's teardown). Errors are logged, never raised — cleanup must
    not mask the original crash. Entries inherited across ``fork`` (a
    pool worker carries the parent's registry) belong to another live
    process and are left strictly alone.
    """
    pid = os.getpid()
    with _LOCK:
        entries = [
            (name, ref)
            for name, (owner, ref) in _REGISTRY.items()
            if owner == pid
        ]
        for name, _ in entries:
            _REGISTRY.pop(name, None)
    removed = 0
    for name, ref in entries:
        store = ref()
        try:
            if store is not None:
                store.close(unlink=True)
                removed += 1
            elif _unlink_by_name(name):
                removed += 1
        except BufferError:
            # Live views pin the mapping; the unlink itself succeeded
            # (ColumnStore.close unlinks before closing), so the segment
            # is gone from the system either way.
            removed += 1
        except Exception as exc:  # pragma: no cover - defensive logging
            LOG.warning("failed to clean up shm segment %r: %s", name, exc)
    reg = _metrics.active()
    if reg is not None and removed:
        reg.counter("resilience.shm_cleanups").inc(removed)
    return removed


# ----------------------------------------------------------------------
# Orphan detection (segments whose creator died without unlinking)
# ----------------------------------------------------------------------

_SHM_DIR = "/dev/shm"


def _read_segment_pid(path: str) -> Optional[int]:
    """Creator pid of a ColumnStore segment file, or None if not ours."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(SEGMENT_HEADER.size)
            if len(header) < SEGMENT_HEADER.size:
                return None
            magic, _version, meta_len = SEGMENT_HEADER.unpack(header)
            if magic != SEGMENT_MAGIC or meta_len > 64 * 1024 * 1024:
                return None
            import json

            meta = json.loads(fh.read(meta_len).decode("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    pid = meta.get("pid")
    return pid if isinstance(pid, int) else None


def scan_orphans(shm_dir: str = _SHM_DIR) -> List[str]:
    """ColumnStore segments under ``shm_dir`` whose creator is dead.

    Linux-only best effort (POSIX shared memory appears as files in
    ``/dev/shm``); returns an empty list where the directory does not
    exist. Segments without a recorded creator pid are never reported —
    better to leak than to reap a segment we cannot prove is dead.
    """
    if not os.path.isdir(shm_dir):
        return []
    orphans: List[str] = []
    for entry in sorted(os.listdir(shm_dir)):
        path = os.path.join(shm_dir, entry)
        if not os.path.isfile(path):
            continue
        pid = _read_segment_pid(path)
        if pid is not None and not pid_alive(pid):
            orphans.append(entry)
    return orphans


def reap_orphans(names: Optional[List[str]] = None) -> List[str]:
    """Unlink orphaned ColumnStore segments; returns the names removed.

    With ``names=None`` the segments come from :func:`scan_orphans`. Each
    candidate is re-checked (magic + dead creator) immediately before
    unlinking, so a racing healthy exporter is never reaped.
    """
    candidates = scan_orphans() if names is None else list(names)
    reaped: List[str] = []
    for name in candidates:
        path = os.path.join(_SHM_DIR, name)
        pid = _read_segment_pid(path)
        if pid is None or pid_alive(pid):
            continue
        if _unlink_by_name(name):
            LOG.warning(
                "reaped orphaned shm segment %r (creator pid %d is dead)",
                name,
                pid,
            )
            reaped.append(name)
    reg = _metrics.active()
    if reg is not None and reaped:
        reg.counter("resilience.shm_orphans_reaped").inc(len(reaped))
    return reaped
