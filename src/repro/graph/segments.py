"""Durable, crash-safe tiered segment storage for columnar graphs.

:class:`~repro.graph.columnar.ColumnStore` already has two homes: a
process-local :mod:`array` buffer and a volatile ``/dev/shm`` export. This
module adds the third tier — a **file-backed, mmap'd sealed segment** with
the same zero-copy :class:`~repro.graph.columnar.ColumnarEdgeSeries`
views, so graphs larger than RAM search without materializing and flat
buffers ship across hosts as ordinary files.

Unlike the shm tier (whose lifetime is bounded by the exporter's crash
hooks), a file outlives every process — so data at rest must *prove* its
integrity instead of assuming it. The block layout, its mapping and its
metadata are :mod:`repro.graph.columnar`'s; this module keeps only the
durability protocol around them: checksums, the atomic seal, quarantine,
the manifest, compaction and fsck.

Segment file format (version 2)
-------------------------------
::

    [ 0:24)   SEGMENT_HEADER  — magic "FMCOLSTO", version=2, meta_len
    [24:32)   <II>            — header CRC32 (of bytes 0:24),
                                meta CRC32 (of bytes 32:off0, JSON + pad)
    [32:off0) metadata JSON   — num_series/num_events/pid/pairs
                                + per-column CRC32s; zero-padded to 8B
    [off0:)   columns         — offsets(int64) · times(f64) · flows(f64)
                                · cum(f64), exactly tiling to EOF

Every byte of the file is covered by a checksum (or *is* a stored
checksum, or is length-checked), so flipping any single bit is detected
at open time and surfaces as a typed
:class:`~repro.resilience.shm_registry.SegmentCorruptionError` — with the
damaged file renamed to ``*.quarantine-<pid>`` — never as a crash deeper
in the stack or a silently wrong search result.

Seal protocol (atomic, torn-write-safe)
---------------------------------------
:func:`write_segment` writes to ``<path>.tmp.<pid>``, fsyncs the file,
``os.replace``-renames it over the final name, then fsyncs the directory.
A crash at *any* point leaves either no final file or a complete valid
one; the leftover ``*.tmp.<pid>`` is provably dead (its writer pid is in
the name) and reaped by :func:`fsck`, the only code that sweeps a store
directory.

Store layout (LSM-style)
------------------------
A :class:`SegmentStore` directory holds sealed segments plus an
append-only, per-record-checksummed :class:`SegmentManifest`
(``MANIFEST.jsonl``). Streaming appends land in a
:class:`~repro.graph.columnar.GrowableColumnStore` memtable;
:meth:`SegmentStore.seal` freezes it into a new sealed segment, and
:meth:`SegmentStore.compact` k-way-merges the sealed tier into one
segment. **A segment exists once — and only once — its manifest record is
durable**; fault-injected crash points (:func:`repro.resilience.
faultinject.crash_point`) at every protocol seam let the chaos suite
prove that a SIGKILL anywhere costs at most the unsealed memtable.
"""

from __future__ import annotations

import heapq
import json
import logging
import mmap
import os
import struct
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.columnar import (
    _COLUMNS,
    ColumnStore,
    GrowableColumnStore,
    _align,
    _carve,
    _encode_metadata,
    _layout,
    _MappedBlock,
)
from repro.graph.timeseries import TimeSeriesGraph
from repro.obs import metrics as _metrics
from repro.resilience.faultinject import crash_point as _crash_point
from repro.resilience.shm_registry import (
    SEGMENT_FILE_VERSION,
    SEGMENT_HEADER as _HEADER,
    SEGMENT_MAGIC as _MAGIC,
    SegmentCorruptionError,
    pid_alive,
)

__all__ = [
    "FsckReport",
    "SegmentColumnStore",
    "SegmentCorruptionError",
    "SegmentManifest",
    "SegmentStore",
    "fsck",
    "open_segment",
    "quarantine_segment",
    "verify_segment",
    "write_segment",
]

LOG = logging.getLogger("repro.graph.segments")

#: CRC block right after the header: (header_crc, meta_crc), both CRC32.
_CRC_STRUCT = struct.Struct("<II")
_CRC_OFFSET = _HEADER.size
_META_OFFSET = _CRC_OFFSET + _CRC_STRUCT.size

MANIFEST_NAME = "MANIFEST.jsonl"
SEGMENT_SUFFIX = ".seg"
#: Suffix of an in-flight seal: ``<segment>.tmp.<pid>``. The writer pid
#: rides in the name so :func:`fsck` can prove the seal is dead without
#: parsing a half-written file.
TMP_MARKER = ".tmp."
#: Prefix-suffix of a quarantined segment: ``<segment>.quarantine-<pid>``.
QUARANTINE_MARKER = ".quarantine-"


def _counter(name: str, amount: int = 1) -> None:
    registry = _metrics.active()
    if registry is not None and amount:
        registry.counter(name).inc(amount)


# ----------------------------------------------------------------------
# Sealing (write side)
# ----------------------------------------------------------------------


def _fsync_dir(path: str) -> None:
    """Make a rename in ``path`` durable (POSIX requires the dir fsync)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def write_segment(store: ColumnStore, path: str) -> Dict[str, object]:
    """Seal one :class:`ColumnStore` into a durable segment file.

    Atomic against crashes: the bytes go to ``<path>.tmp.<pid>`` first,
    are fsynced, renamed over ``path`` with ``os.replace``, and the
    directory is fsynced — a reader never observes a partial segment
    under the final name. Returns the segment metadata dict (including
    the per-column CRCs), which the caller typically records in a
    :class:`SegmentManifest`.
    """
    columns = [memoryview(getattr(store, name)).cast("B") for name in _COLUMNS]
    meta = store._metadata()
    meta["crc"] = {
        name: zlib.crc32(column) for name, column in zip(_COLUMNS, columns)
    }
    meta_bytes = _encode_metadata(meta)
    meta_end = _META_OFFSET + len(meta_bytes)
    pad = b"\x00" * (_align(meta_end) - meta_end)
    header = _HEADER.pack(_MAGIC, SEGMENT_FILE_VERSION, len(meta_bytes))
    crc_block = _CRC_STRUCT.pack(
        zlib.crc32(header), zlib.crc32(meta_bytes + pad)
    )

    tmp = f"{path}{TMP_MARKER}{os.getpid()}"
    _crash_point("segments.seal.before_write")
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(crc_block)
        fh.write(meta_bytes)
        fh.write(pad)
        for column in columns:
            fh.write(column)
        fh.flush()
        _crash_point("segments.seal.before_fsync")
        os.fsync(fh.fileno())
    _crash_point("segments.seal.after_fsync")
    os.replace(tmp, path)
    _crash_point("segments.seal.after_rename")
    _fsync_dir(os.path.dirname(os.path.abspath(path)))
    _counter("segments.sealed")
    return meta


# ----------------------------------------------------------------------
# Opening (read side, validated)
# ----------------------------------------------------------------------


class SegmentColumnStore(ColumnStore):
    """A :class:`ColumnStore` whose buffers are an mmap of a sealed file.

    Identical query surface — :meth:`~ColumnStore.series_view` returns
    the same zero-copy :class:`~repro.graph.columnar.ColumnarEdgeSeries`
    — but the backing pages are demand-loaded by the OS, so a store much
    larger than RAM opens instantly and only the touched ranges occupy
    memory. The parallel engine recognizes the :attr:`path` attribute
    and ships workers shard tasks holding only the path and shard
    bounds; each worker maps the file itself (see
    :mod:`repro.parallel.worker`).
    """

    def __init__(self, pairs, times, flows, cum, offsets, block, path):
        super().__init__(
            pairs, times, flows, cum, offsets, shm=block, owns_shm=False
        )
        #: Filesystem path of the sealed segment backing this store.
        self.path = path

    @property
    def shm_name(self) -> Optional[str]:
        """Always None: the backing is a file, not shared memory."""
        return None


def _validate_buffer(
    path: str, buf: memoryview, check_crc: bool = True
) -> Tuple[dict, Dict[str, Tuple[int, int]]]:
    """Check every checksum of a mapped segment; returns its metadata
    and column ranges.

    Raises :class:`SegmentCorruptionError` describing the first failure:
    short file, bad magic, wrong version, header/meta CRC mismatch, size
    mismatch, or a per-column CRC mismatch. Every byte of the file is
    covered, so any single flipped bit trips exactly one of these.
    """
    if len(buf) < _META_OFFSET:
        raise SegmentCorruptionError(
            f"segment {path!r} is truncated: {len(buf)} bytes is shorter "
            f"than the {_META_OFFSET}-byte header"
        )
    header = bytes(buf[: _HEADER.size])
    magic, version, meta_len = _HEADER.unpack(header)
    stored_header_crc, stored_meta_crc = _CRC_STRUCT.unpack_from(
        buf, _CRC_OFFSET
    )
    if magic != _MAGIC:
        raise SegmentCorruptionError(
            f"segment {path!r} has bad magic {magic!r}: not a sealed "
            "ColumnStore segment (or its header is corrupt)"
        )
    if zlib.crc32(header) != stored_header_crc:
        raise SegmentCorruptionError(
            f"segment {path!r} header CRC mismatch: the header is corrupt"
        )
    if version != SEGMENT_FILE_VERSION:
        raise SegmentCorruptionError(
            f"segment {path!r} has format version {version}; this build "
            f"reads version {SEGMENT_FILE_VERSION}"
        )
    if _META_OFFSET + meta_len > len(buf):
        raise SegmentCorruptionError(
            f"segment {path!r} metadata ({meta_len} bytes) overruns the "
            f"{len(buf)}-byte file"
        )
    off0 = _align(_META_OFFSET + meta_len)
    if zlib.crc32(buf[_META_OFFSET:off0]) != stored_meta_crc:
        raise SegmentCorruptionError(
            f"segment {path!r} metadata CRC mismatch: the metadata block "
            "is corrupt"
        )
    try:
        meta = json.loads(bytes(buf[_META_OFFSET : _META_OFFSET + meta_len]))
        num_series = int(meta["num_series"])
        num_events = int(meta["num_events"])
        crcs = meta["crc"]
        if not isinstance(crcs, dict):
            raise ValueError("column CRC table is not an object")
        pairs = [(src, dst) for src, dst in meta["pairs"]]
    except (ValueError, KeyError, TypeError) as exc:
        # The CRC matched, so this is a writer bug rather than rot — but
        # the segment is equally unreadable either way.
        raise SegmentCorruptionError(
            f"segment {path!r} metadata does not decode: {exc}"
        ) from exc
    if len(pairs) != num_series:
        raise SegmentCorruptionError(
            f"segment {path!r} metadata is inconsistent: {len(pairs)} "
            f"pairs for {num_series} series"
        )
    ranges = _layout(_META_OFFSET + meta_len, num_series, num_events)
    total = ranges["cum"][1]
    if len(buf) != total:
        raise SegmentCorruptionError(
            f"segment {path!r} is {len(buf)} bytes; its header promises "
            f"{total} — truncated or padded file"
        )
    if check_crc:
        for name, (lo, hi) in ranges.items():
            if zlib.crc32(buf[lo:hi]) != crcs.get(name):
                raise SegmentCorruptionError(
                    f"segment {path!r} column {name!r} CRC mismatch: the "
                    "column data is corrupt"
                )
    meta["pairs"] = pairs
    return meta, ranges


def quarantine_segment(path: str) -> str:
    """Set a damaged segment aside as ``<path>.quarantine-<pid>``.

    Returns the quarantine path, whose suffix names the process that set
    the file aside. It stays as operator evidence until someone removes
    it: :func:`fsck` never deletes it.
    """
    target = f"{path}{QUARANTINE_MARKER}{os.getpid()}"
    os.replace(path, target)
    _counter("segments.quarantined")
    LOG.warning("quarantined corrupt segment %r -> %r", path, target)
    return target


def verify_segment(path: str) -> dict:
    """Validate every checksum of a sealed segment; returns its metadata.

    Pure check — never renames or repairs: :func:`open_segment` with
    ``quarantine=False``, closed at once. Raises
    :class:`SegmentCorruptionError` on any damage,
    ``FileNotFoundError``/``OSError`` when the file cannot be read.
    """
    store, meta = _map_segment(path, validate=True, quarantine=False)
    store.close()
    return meta


def open_segment(
    path: str, validate: bool = True, quarantine: bool = True
) -> SegmentColumnStore:
    """Map a sealed segment as a zero-copy :class:`SegmentColumnStore`.

    ``validate=True`` (default) checks every CRC before any view is
    handed out; a corrupt file raises :class:`SegmentCorruptionError`
    and — with ``quarantine=True`` — is renamed to
    ``*.quarantine-<pid>`` so it cannot be served again by a caller that
    skips validation. The returned store holds the mapping open; call
    ``close()`` (or drop every graph built from it) to release it.
    """
    return _map_segment(path, validate, quarantine)[0]


def _map_segment(
    path: str, validate: bool, quarantine: bool
) -> Tuple[SegmentColumnStore, dict]:
    """:func:`open_segment`, also returning the segment's metadata."""
    try:
        block = _MappedBlock(path, os.open(path, os.O_RDONLY), mmap.ACCESS_READ)
        try:
            meta, ranges = _validate_buffer(path, block.buf, check_crc=validate)
        except BaseException:
            block.close()
            raise
    except SegmentCorruptionError:
        _counter("segments.crc_failures")
        if quarantine:
            quarantine_segment(path)
        raise
    if validate:
        _counter("segments.validated")
    store = SegmentColumnStore(
        meta["pairs"], block=block, path=path, **_carve(block.buf, ranges)
    )
    creator = meta.get("pid")
    store.creator_pid = creator if isinstance(creator, int) else None
    return store, meta


# ----------------------------------------------------------------------
# Manifest (append-only, per-record checksummed)
# ----------------------------------------------------------------------


def _record_crc(record: Dict[str, object]) -> int:
    """CRC32 of a manifest record's canonical JSON, minus its crc field."""
    body = {k: v for k, v in record.items() if k != "crc"}
    return zlib.crc32(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    )


class SegmentManifest:
    """Append-only JSONL ledger of sealed segments in one store directory.

    Each line is one JSON record carrying its own CRC32; appends are
    fsynced, so **a segment is durable exactly when its record is**. On
    load, a partial or corrupt *final* line is treated as a torn write
    (the crash window between ``write`` and ``fsync``) and ignored; a
    corrupt record anywhere earlier means the ledger itself rotted and
    raises :class:`SegmentCorruptionError` — fsck refuses to guess.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    # -- append side ---------------------------------------------------

    def append(self, record: Dict[str, object]) -> None:
        record = dict(record)
        record["crc"] = _record_crc(record)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            _crash_point("segments.manifest.before_fsync")
            os.fsync(fh.fileno())
        _fsync_dir(os.path.dirname(os.path.abspath(self.path)))

    # -- load side -----------------------------------------------------

    def load(self) -> Tuple[List[Dict[str, object]], bool]:
        """All valid records, plus whether a torn tail was dropped."""
        try:
            with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
                lines = fh.read().split("\n")
        except FileNotFoundError:
            return [], False
        if lines and lines[-1] == "":
            lines.pop()
        records: List[Dict[str, object]] = []
        torn = False
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("manifest record is not an object")
                if record.get("crc") != _record_crc(record):
                    raise ValueError("manifest record CRC mismatch")
            except ValueError as exc:
                if index == len(lines) - 1:
                    torn = True  # torn final write: pre-crash tail
                    break
                raise SegmentCorruptionError(
                    f"manifest {self.path!r} line {index + 1} is corrupt "
                    f"({exc}) and is not the final line — the ledger "
                    "itself is damaged"
                ) from exc
            records.append(record)
        return records, torn

    def truncate_torn_tail(self) -> bool:
        """Rewrite the manifest keeping only its valid records.

        Returns True when a torn tail was actually removed. Uses the
        same tmp-fsync-rename discipline as segment sealing.
        """
        records, torn = self.load()
        if not torn:
            return False
        tmp = f"{self.path}{TMP_MARKER}{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(
                    json.dumps(record, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(os.path.dirname(os.path.abspath(self.path)))
        return True

    def replay(self) -> Tuple[List[str], List[str], bool]:
        """Fold the ledger: (live segment names, superseded names, torn).

        ``op="seal"`` adds a segment; ``op="compact"`` adds its output
        and retires every name in ``replaces``.
        """
        records, torn = self.load()
        live: Dict[str, None] = {}
        superseded: List[str] = []
        for record in records:
            op = record.get("op")
            name = record.get("name")
            if op == "seal" and isinstance(name, str):
                live[name] = None
            elif op == "compact" and isinstance(name, str):
                for old in record.get("replaces", ()):
                    if old in live:
                        live.pop(old)
                        superseded.append(old)
                live[name] = None
            else:
                raise SegmentCorruptionError(
                    f"manifest {self.path!r} carries unknown record "
                    f"op={op!r}"
                )
        return list(live), superseded, torn


# ----------------------------------------------------------------------
# The tiered store
# ----------------------------------------------------------------------


def _merge_stores(stores: Sequence[ColumnStore]) -> ColumnStore:
    """K-way-merge several stores into one (per-pair time-sorted).

    Pairs keep first-seen order across the input stores; within a pair,
    events merge by timestamp with ties broken by input order
    (``heapq.merge`` is stable), so compacting segments sealed from a
    time-ordered stream reproduces exactly the store a single seal of
    the whole stream would have produced.
    """
    order: List[Tuple] = []
    sources: Dict[Tuple, List[Tuple[memoryview, memoryview]]] = {}
    for store in stores:
        for slot, pair in enumerate(store.pairs):
            if pair not in sources:
                sources[pair] = []
                order.append(pair)
            view = store.series_view(slot)
            sources[pair].append((view.times, view.flows))
    times = array("d")
    flows = array("d")
    offsets = array("q", [0])
    for pair in order:
        streams = [zip(t, f) for t, f in sources[pair]]
        for t, f in heapq.merge(*streams, key=lambda event: event[0]):
            times.append(t)
            flows.append(f)
        offsets.append(len(times))
    return ColumnStore._from_columns(order, times, flows, offsets)


class SegmentStore:
    """An LSM-style tiered store directory: memtable + sealed segments.

    * :meth:`append`/:meth:`extend` land interactions in a
      :class:`~repro.graph.columnar.GrowableColumnStore` memtable
      (volatile — the crash-loss budget).
    * :meth:`seal` freezes the memtable into a durable sealed segment
      and records it in the manifest; from that fsync on, the data
      survives anything.
    * :meth:`compact` merges every live sealed segment into one, so
      reads stay zero-copy over a single mmap.
    * :meth:`search_graph` produces the :class:`TimeSeriesGraph` over
      everything sealed (plus, optionally, the memtable).

    Thread-compatibility matches the rest of the library: one writer.
    """

    def __init__(self, root: str, create: bool = True) -> None:
        self.root = root
        if create:
            os.makedirs(root, exist_ok=True)
        elif not os.path.isdir(root):
            raise FileNotFoundError(f"segment store {root!r} does not exist")
        self.manifest = SegmentManifest(os.path.join(root, MANIFEST_NAME))
        self._memtable = GrowableColumnStore()

    # -- ingestion -----------------------------------------------------

    def append(self, src, dst, time: float, flow: float) -> bool:
        """Ingest one interaction into the (volatile) memtable."""
        return self._memtable.append(src, dst, time, flow)

    def extend(self, interactions: Iterable) -> int:
        return self._memtable.extend(interactions)

    @property
    def memtable_events(self) -> int:
        """Events ingested but not yet sealed — the crash-loss budget."""
        return self._memtable.num_events

    # -- naming --------------------------------------------------------

    def _next_name(self) -> str:
        live, superseded, _torn = self.manifest.replay()
        used = set(live) | set(superseded)
        seq = 0
        while f"seg-{seq:06d}{SEGMENT_SUFFIX}" in used:
            seq += 1
        return f"seg-{seq:06d}{SEGMENT_SUFFIX}"

    def segment_path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def live_segments(self) -> List[str]:
        """Names of the sealed segments the manifest declares live."""
        return self.manifest.replay()[0]

    # -- sealing & compaction ------------------------------------------

    def seal(self) -> Optional[str]:
        """Freeze the memtable into a durable sealed segment.

        Returns the new segment's name, or None when the memtable is
        empty. Crash-safe: until the manifest record is fsynced the
        segment does not exist (fsck quarantines the dangling file), and
        afterwards it can never be lost.
        """
        if self._memtable.num_events == 0:
            return None
        snapshot = self._memtable.snapshot()
        name = self._next_name()
        meta = write_segment(snapshot, self.segment_path(name))
        self.manifest.append(
            {
                "op": "seal",
                "name": name,
                "num_series": meta["num_series"],
                "num_events": meta["num_events"],
                "column_crc": meta["crc"],
            }
        )
        self._memtable = GrowableColumnStore()
        return name

    def compact(self) -> Optional[str]:
        """Merge every live sealed segment into one new segment.

        Returns the new segment's name (None with fewer than two live
        segments — nothing to merge). The memtable is untouched: sealing
        and compaction compose but never race each other's data. Crash
        protocol: the merged segment is written and renamed first, the
        manifest ``compact`` record makes it authoritative, and only
        then are the superseded files deleted — a crash leaves either
        the old live set (plus a dangling file fsck quarantines) or the
        new one (plus superseded files fsck reaps).
        """
        live = self.live_segments()
        if len(live) < 2:
            return None
        _crash_point("segments.compact.before_seal")
        opened = [open_segment(self.segment_path(name)) for name in live]
        try:
            merged = _merge_stores(opened)
            name = self._next_name()
            meta = write_segment(merged, self.segment_path(name))
        finally:
            for store in opened:
                store.close()
        _counter("segments.compaction_bytes", int(meta["num_events"]) * 24)
        _crash_point("segments.compact.after_seal")
        self.manifest.append(
            {
                "op": "compact",
                "name": name,
                "replaces": live,
                "num_series": meta["num_series"],
                "num_events": meta["num_events"],
                "column_crc": meta["crc"],
            }
        )
        _crash_point("segments.compact.before_reap")
        for old in live:
            try:
                os.remove(self.segment_path(old))
            except FileNotFoundError:
                pass
        return name

    # -- reading -------------------------------------------------------

    def open_segment(self, name: str) -> SegmentColumnStore:
        """Open (validated, mmap'd) one live segment by name."""
        return open_segment(self.segment_path(name))

    def search_graph(self, include_memtable: bool = False) -> TimeSeriesGraph:
        """The queryable graph over the sealed tier.

        With exactly one live segment (the steady state after
        :meth:`compact`) and no requested memtable, the graph is a pure
        zero-copy view over the segment's mmap — the parallel engine
        then fans workers out with (path, bounds) shard tasks and no
        event ever crosses a process boundary. Multiple live segments
        (or ``include_memtable=True``) fall back to a materialized
        k-way merge; compact first to stay zero-copy.
        """
        live = self.live_segments()
        memtable_busy = include_memtable and self._memtable.num_events > 0
        if len(live) == 1 and not memtable_busy:
            return self.open_segment(live[0]).to_graph()
        stores: List[ColumnStore] = [
            self.open_segment(name) for name in live
        ]
        try:
            if memtable_busy:
                stores.append(self._memtable.snapshot())
            if not stores:
                return TimeSeriesGraph([])
            LOG.info(
                "materializing %d-way merge for search (compact the store "
                "to keep reads zero-copy)",
                len(stores),
            )
            return _merge_stores(stores).to_graph()
        finally:
            for store in stores:
                if isinstance(store, SegmentColumnStore):
                    store.close()


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------


@dataclass
class FsckReport:
    """What :func:`fsck` found (and, unless dry-run, repaired)."""

    root: str
    checked: int = 0
    valid: int = 0
    #: (segment name, reason) for every live segment failing validation.
    corrupted: List[Tuple[str, str]] = field(default_factory=list)
    #: Quarantine paths created for corrupt segments.
    quarantined: List[str] = field(default_factory=list)
    #: Live manifest entries with no file on disk — unrecoverable here.
    missing: List[str] = field(default_factory=list)
    #: ``*.tmp.<pid>`` seal leftovers removed (dead writer).
    tmp_reaped: List[str] = field(default_factory=list)
    #: Superseded-by-compaction files removed.
    superseded_reaped: List[str] = field(default_factory=list)
    #: ``.seg`` files present on disk but absent from the manifest —
    #: seals whose crash landed between rename and the manifest fsync.
    unmanifested: List[str] = field(default_factory=list)
    #: Whether a torn trailing manifest record was found (and dropped).
    manifest_torn: bool = False

    @property
    def ok(self) -> bool:
        """True when every sealed segment is present and valid."""
        return not self.corrupted and not self.missing

    def summary(self) -> str:
        parts = [
            f"{self.valid}/{self.checked} segments valid",
        ]
        if self.corrupted:
            parts.append(f"{len(self.corrupted)} corrupt")
        if self.missing:
            parts.append(f"{len(self.missing)} missing")
        if self.unmanifested:
            parts.append(f"{len(self.unmanifested)} unmanifested")
        if self.tmp_reaped:
            parts.append(f"{len(self.tmp_reaped)} stale tmp reaped")
        if self.superseded_reaped:
            parts.append(
                f"{len(self.superseded_reaped)} superseded reaped"
            )
        if self.manifest_torn:
            parts.append("torn manifest tail")
        status = "clean" if self.ok else "DAMAGED"
        return f"fsck {self.root}: {status} ({', '.join(parts)})"


def fsck(root: str, repair: bool = True) -> FsckReport:
    """Scan a :class:`SegmentStore` directory and verify every guarantee.

    * validates every live segment's checksums (corrupt → quarantined
      under ``repair``);
    * reaps ``*.tmp.<pid>`` seal leftovers whose writer pid is dead, and
      files a compaction finished superseding;
    * quarantines ``.seg`` files the manifest never admitted (a seal
      that crashed before its manifest fsync — unsealed by definition);
    * drops a torn trailing manifest record (under ``repair``).

    ``repair=False`` only reports. Raises
    :class:`SegmentCorruptionError` when the manifest itself is rotten
    (a corrupt non-final record) — that store needs a human.
    """
    report = FsckReport(root=root)
    manifest = SegmentManifest(os.path.join(root, MANIFEST_NAME))
    live, superseded, torn = manifest.replay()
    report.manifest_torn = torn
    if torn and repair:
        manifest.truncate_torn_tail()

    live_set = set(live)
    superseded_set = set(superseded)
    for name in live:
        path = os.path.join(root, name)
        report.checked += 1
        try:
            verify_segment(path)
        except FileNotFoundError:
            report.missing.append(name)
            continue
        except SegmentCorruptionError as exc:
            report.corrupted.append((name, str(exc)))
            if repair:
                report.quarantined.append(quarantine_segment(path))
            continue
        report.valid += 1

    if os.path.isdir(root):
        for entry in sorted(os.listdir(root)):
            path = os.path.join(root, entry)
            if not os.path.isfile(path) or entry == MANIFEST_NAME:
                continue
            stem, marker, suffix = entry.rpartition(TMP_MARKER)
            if marker:
                if stem and suffix.isdigit() and not pid_alive(int(suffix)):
                    report.tmp_reaped.append(entry)
                    if repair:
                        os.remove(path)
                continue  # a live writer's seal, or not a seal at all
            if QUARANTINE_MARKER in entry:
                continue  # operator evidence, kept until someone removes it
            if not entry.endswith(SEGMENT_SUFFIX):
                continue
            if entry in superseded_set and entry not in live_set:
                report.superseded_reaped.append(entry)
                if repair:
                    os.remove(path)
            elif entry not in live_set:
                report.unmanifested.append(entry)
                if repair:
                    report.quarantined.append(quarantine_segment(path))
    _counter("segments.fsck_corrupt", len(report.corrupted))
    if not report.ok:
        LOG.warning("%s", report.summary())
    return report
