"""Columnar zero-copy storage for :class:`~repro.graph.timeseries.TimeSeriesGraph`.

The list-backed :class:`~repro.graph.timeseries.EdgeSeries` keeps three
Python lists per connected pair. That representation is flexible but costly
at scale: every process-pool dispatch pickles entire event lists, and every
slice copies. :class:`ColumnStore` flattens *all* series of a graph into
four contiguous typed buffers (stdlib :mod:`array` — no new dependency):

``offsets`` int64, ``num_series + 1`` event offsets; slot ``i``'s events
            live in ``times[offsets[i]:offsets[i+1]]``
``times``   float64, all timestamps, series-concatenated in slot order
``flows``   float64, all flows, same layout
``cum``     float64, per-series prefix sums (``len(series) + 1`` entries
            each, so slot ``i``'s block starts at ``offsets[i] + i``)

Slots are assigned in the graph's deterministic ``all_series()`` order and
indexed by ``(src, dst)`` pair. :class:`ColumnarEdgeSeries` is an
:class:`EdgeSeries` whose backing containers are memoryview slices of these
buffers — a zero-copy *view* that keeps the exact public API, so everything
in :mod:`repro.core`, :mod:`repro.baselines` and :mod:`repro.experiments`
works unchanged on a columnar graph.

Block layout
------------
A store leaves its process as one block: a shared-memory export (format
version 1) or a sealed segment file (version 2,
:mod:`repro.graph.segments`). This module is the codec of both::

    [0:24)            SEGMENT_HEADER — magic "FMCOLSTO", version, meta_len
    [24:32)           v2 only: header and metadata CRC32s
    [24 or 32:end)    metadata JSON — num_series/num_events/pid/pairs
                      (v2 adds per-column CRC32s)
    [align8(end):)    columns, in the order above, ending the block

:func:`_layout` computes the column ranges from where the metadata ends,
:func:`_carve` casts them to typed views, :class:`_MappedBlock` maps a
sealed file or (Python < 3.13) an attached block, ``_metadata`` builds
the metadata, and ``ColumnStore._from_columns`` computes the prefix sums
of assembled columns (a memtable snapshot, a compaction).

Shared-memory lifecycle
-----------------------
``store.to_shared()`` serializes the whole store into **one**
``multiprocessing.shared_memory`` block; ``ColumnStore.attach(name)`` maps
it back in another process without copying a byte. The creator calls
``close(unlink=True)`` when every worker is done; attachers either call
``close()`` or simply exit (the segment is reference-counted by the OS,
not the interpreter). The parallel engine (:mod:`repro.parallel.engine`)
uses exactly this path so process workers receive a
:class:`~repro.parallel.worker.ShardTask` holding only the shm name and
shard bounds instead of pickled event lists.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
from array import array
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.graph.events import Node
from repro.graph.timeseries import EdgeSeries, TimeSeriesGraph
from repro.resilience import shm_registry as _shm_registry
from repro.resilience.shm_registry import (
    SEGMENT_HEADER as _HEADER,
    SEGMENT_MAGIC as _MAGIC,
    SHM_FORMAT_VERSION as _SHM_VERSION,
    SegmentCorruptionError,
)

__all__ = [
    "ColumnarEdgeSeries",
    "ColumnStore",
    "GrowableColumnStore",
    "columnarize",
]

LOG = logging.getLogger("repro.graph.columnar")

#: Shared-memory header layout (magic, format version, JSON metadata byte
#: length) is canonically defined in :mod:`repro.resilience.shm_registry`
#: so the orphan scanner can recognize segments without importing this
#: module; imported above as ``_MAGIC``/``_HEADER``.
_ALIGN = 8

#: The four columns of a block, in block order, with their array
#: typecodes (every item is 8 bytes).
_COLUMNS = {"offsets": "q", "times": "d", "flows": "d", "cum": "d"}


class ColumnarEdgeSeries(EdgeSeries):
    """A zero-copy :class:`EdgeSeries` view over :class:`ColumnStore` buffers.

    ``times``, ``flows`` and ``_cum`` are memoryview slices of the store's
    flat arrays; construction neither sorts nor copies (the store flattened
    already-sorted series). ``slot`` is the series' position in the store.
    """

    __slots__ = ("slot",)

    def __init__(
        self,
        src: Node,
        dst: Node,
        times: memoryview,
        flows: memoryview,
        cum: memoryview,
        slot: int,
    ) -> None:
        # Deliberately does not call EdgeSeries.__init__: the buffers are
        # pre-sorted, pre-validated and must not be copied into lists.
        self.src = src
        self.dst = dst
        self.times = times
        self.flows = flows
        self._cum = cum
        self.slot = slot

    def slice(self, lo: int, hi: int) -> "ColumnarEdgeSeries":
        """Zero-copy sub-series of the elements with index in ``[lo, hi]``.

        The ``_cum`` slice keeps one extra leading entry; ``total_flow``
        and ``flow_between`` are prefix-sum *differences*, so the nonzero
        base cancels out.
        """
        return ColumnarEdgeSeries(
            self.src,
            self.dst,
            self.times[lo : hi + 1],
            self.flows[lo : hi + 1],
            self._cum[lo : hi + 2],
            self.slot,
        )

    def append(self, time: float, flow: float) -> None:
        """Columnar views are immutable snapshots — appending is an error.

        Streams should grow a list-backed :class:`EdgeSeries` (see
        :meth:`EdgeSeries.append`) or a :class:`GrowableColumnStore` and
        snapshot into flat columns when a batch completes.
        """
        raise TypeError(
            f"cannot append to the zero-copy columnar view "
            f"{self.src!r}->{self.dst!r}; grow a list-backed EdgeSeries or "
            "a GrowableColumnStore instead"
        )


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _check_node(node: Node) -> Node:
    if not isinstance(node, (int, str)) or isinstance(node, bool):
        raise TypeError(
            "columnar storage requires int or str node ids, "
            f"got {type(node).__name__} ({node!r})"
        )
    return node


def _lossless_float64(value) -> bool:
    """Whether a timestamp/flow survives the float64 columns bit-exactly.

    Python floats already are float64. int values are exact up to 2^53
    (and must not overflow). Anything else (Fraction, Decimal, ...) is
    rejected outright — float() would round it silently.
    """
    if isinstance(value, float):
        return True
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return int(float(value)) == value
        except OverflowError:
            return False
    return False


class ColumnStore:
    """Flat columnar layout of every :class:`EdgeSeries` in one graph.

    Build with :meth:`from_graph`, map a shared copy with :meth:`attach`.
    ``times``/``flows``/``cum``/``offsets`` are memoryviews over either
    process-local :mod:`array` buffers or a shared-memory block; all view
    construction is zero-copy either way.
    """

    def __init__(
        self,
        pairs: List[Tuple[Node, Node]],
        times: memoryview,
        flows: memoryview,
        cum: memoryview,
        offsets: memoryview,
        shm=None,
        owns_shm: bool = False,
    ) -> None:
        self.pairs = pairs
        self.times = times
        self.flows = flows
        self.cum = cum
        self.offsets = offsets
        self._slot_by_pair: Dict[Tuple[Node, Node], int] = {
            pair: slot for slot, pair in enumerate(pairs)
        }
        self._shm = shm
        self._owns_shm = owns_shm
        #: Pid of the exporting process (set on attach; None otherwise).
        self.creator_pid: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls, graph: Union[TimeSeriesGraph, "object"]
    ) -> "ColumnStore":
        """Flatten a graph's series into contiguous typed arrays.

        Accepts a :class:`TimeSeriesGraph` or anything with a
        ``to_time_series()`` method (e.g. ``InteractionGraph``).
        """
        if not isinstance(graph, TimeSeriesGraph):
            to_ts = getattr(graph, "to_time_series", None)
            if to_ts is None:
                raise TypeError(
                    "graph must be a TimeSeriesGraph or provide "
                    f"to_time_series(), got {type(graph).__name__}"
                )
            graph = to_ts()
        series_list = graph.all_series()
        pairs: List[Tuple[Node, Node]] = []
        times = array("d")
        flows = array("d")
        cum = array("d")
        offsets = array("q", [0])
        for series in series_list:
            pairs.append((_check_node(series.src), _check_node(series.dst)))
            for value in series.times:
                if not _lossless_float64(value):
                    raise ValueError(
                        f"timestamp {value!r} on {series.src}->{series.dst} "
                        "is not exactly representable as float64; columnar "
                        "storage would silently alter it"
                    )
            for value in series.flows:
                if not _lossless_float64(value):
                    raise ValueError(
                        f"flow {value!r} on {series.src}->{series.dst} "
                        "is not exactly representable as float64; columnar "
                        "storage would silently alter it"
                    )
            times.extend(series.times)
            flows.extend(series.flows)
            # A sliced series' sums start at its parent's running total:
            # copy them as they are, never recompute.
            cum.extend(series._cum)
            offsets.append(len(times))
        return cls(
            pairs,
            memoryview(times),
            memoryview(flows),
            memoryview(cum),
            memoryview(offsets),
        )

    @classmethod
    def _from_columns(
        cls,
        pairs: List[Tuple[Node, Node]],
        times: array,
        flows: array,
        offsets: array,
    ) -> "ColumnStore":
        """A local store over assembled series-concatenated columns.

        Builds ``cum``: per slot a 0.0 followed by the running sums of its
        flows in event order, the same sums (and roundings) an
        :class:`EdgeSeries` of those events holds.
        """
        cum = array("d")
        for lo, hi in zip(offsets, offsets[1:]):
            cum.extend(accumulate(flows[lo:hi], initial=0.0))
        return cls(
            pairs,
            memoryview(times),
            memoryview(flows),
            memoryview(cum),
            memoryview(offsets),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_series(self) -> int:
        """Number of stored series (``|E_T|``)."""
        return len(self.pairs)

    @property
    def num_events(self) -> int:
        """Total number of stored interactions (``|E|``)."""
        return len(self.times)

    @property
    def nbytes(self) -> int:
        """Bytes held by the four flat buffers."""
        return sum(
            v.nbytes for v in (self.times, self.flows, self.cum, self.offsets)
        )

    @property
    def shm_name(self) -> Optional[str]:
        """Name of the backing shared-memory block (None when local)."""
        return self._shm.name if self._shm is not None else None

    def slot(self, src: Node, dst: Node) -> Optional[int]:
        """The slot of pair ``(src, dst)``, or None when absent."""
        return self._slot_by_pair.get((src, dst))

    def __repr__(self) -> str:
        backing = (
            f"shm={self._shm.name!r}" if self._shm is not None else "local"
        )
        return (
            f"ColumnStore({self.num_series} series, "
            f"{self.num_events} events, {self.nbytes} bytes, {backing})"
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def series_view(self, slot: int) -> ColumnarEdgeSeries:
        """The zero-copy :class:`ColumnarEdgeSeries` for one slot."""
        src, dst = self.pairs[slot]
        lo = self.offsets[slot]
        hi = self.offsets[slot + 1]
        # Slot i's cum block carries one extra leading element per
        # preceding series, hence the +slot shift.
        return ColumnarEdgeSeries(
            src,
            dst,
            self.times[lo:hi],
            self.flows[lo:hi],
            self.cum[lo + slot : hi + slot + 1],
            slot,
        )

    def iter_series(self) -> Iterable[ColumnarEdgeSeries]:
        """All series views in slot order."""
        return (self.series_view(slot) for slot in range(self.num_series))

    def to_graph(self) -> TimeSeriesGraph:
        """A :class:`TimeSeriesGraph` whose series are zero-copy views.

        The returned graph keeps a reference to this store (and therefore
        to its shared-memory mapping, when present) alive for its lifetime.
        """
        graph = TimeSeriesGraph(self.iter_series())
        graph._column_store = self  # keep the backing buffers alive
        return graph

    # ------------------------------------------------------------------
    # Shared-memory export / attach
    # ------------------------------------------------------------------

    def _metadata(self) -> Dict[str, object]:
        """The metadata every block carries (a sealed file adds ``crc``)."""
        return {
            "num_series": self.num_series,
            "num_events": self.num_events,
            # Creator pid: lets attachers and the orphan scanner detect
            # segments whose exporting process died without unlinking.
            "pid": os.getpid(),
            "pairs": [[src, dst] for src, dst in self.pairs],
        }

    def to_shared(self, name: Optional[str] = None) -> "ColumnStore":
        """Copy this store into one new shared-memory block.

        Returns a new :class:`ColumnStore` whose buffers are views of the
        block; the returned store *owns* the block (``close(unlink=True)``
        removes it). The single copy happens here — every later
        :meth:`attach` and every view built on top is zero-copy.
        """
        from multiprocessing import shared_memory

        meta = _encode_metadata(self._metadata())
        ranges = _layout(
            _HEADER.size + len(meta), self.num_series, self.num_events
        )
        total = ranges["cum"][1]
        shm = shared_memory.SharedMemory(
            create=True, size=max(total, 1), name=name
        )
        try:
            # On tmpfs a new block takes its pages on first write, and a
            # write past the free space is SIGBUS, not an error: back the
            # whole block now, so one that does not fit raises ENOSPC.
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(shm._fd, 0, max(total, 1))
        except OSError:
            shm.close()
            shm.unlink()
            raise
        buf = shm.buf
        _HEADER.pack_into(buf, 0, _MAGIC, _SHM_VERSION, len(meta))
        buf[_HEADER.size : _HEADER.size + len(meta)] = meta
        views = _carve(buf, ranges)
        for name, view in views.items():
            view[:] = getattr(self, name)
        store = ColumnStore(list(self.pairs), shm=shm, owns_shm=True, **views)
        # Crash-safe lifecycle: the registry's atexit/SIGTERM hooks unlink
        # this segment if the process dies before close(unlink=True).
        _shm_registry.register(store)
        return store

    @classmethod
    def attach(cls, name: str) -> "ColumnStore":
        """Map an exported store by shared-memory name, without copying.

        The attached store does not own the block: ``close()`` releases
        the local mapping only; the exporter is responsible for
        ``unlink``-ing.

        A block that is not a ColumnStore export — too short for the
        header, wrong magic, unsupported format version, or metadata
        that does not decode — raises a typed
        :class:`~repro.resilience.SegmentCorruptionError` instead of
        misreading foreign bytes as graph data.
        """
        shm = _open_shared_memory(name)
        buf = shm.buf
        size = len(buf)  # close() releases buf: snapshot before erroring
        if size < _HEADER.size:
            shm.close()
            raise SegmentCorruptionError(
                f"shared memory block {name!r} is {size} bytes — too "
                "short to hold a ColumnStore header; not ours"
            )
        magic, version, meta_len = _HEADER.unpack_from(buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise SegmentCorruptionError(
                f"shared memory block {name!r} is not a ColumnStore "
                f"export (magic {magic!r})"
            )
        if version != _SHM_VERSION:
            shm.close()
            raise SegmentCorruptionError(
                f"shared memory block {name!r} has ColumnStore format "
                f"version {version}; this build attaches version "
                f"{_SHM_VERSION}"
            )
        if _HEADER.size + meta_len > size:
            shm.close()
            raise SegmentCorruptionError(
                f"shared memory block {name!r} metadata ({meta_len} "
                f"bytes) overruns the {size}-byte block"
            )
        try:
            meta = json.loads(
                bytes(buf[_HEADER.size : _HEADER.size + meta_len]).decode(
                    "utf-8"
                )
            )
            pairs = [(src, dst) for src, dst in meta["pairs"]]
            num_series, num_events = (
                int(meta["num_series"]),
                int(meta["num_events"]),
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            shm.close()
            raise SegmentCorruptionError(
                f"shared memory block {name!r} carries a ColumnStore "
                f"header but its metadata does not decode: {exc}"
            ) from exc
        ranges = _layout(_HEADER.size + meta_len, num_series, num_events)
        if ranges["cum"][1] > size:
            shm.close()
            raise SegmentCorruptionError(
                f"shared memory block {name!r} is smaller than the "
                "column layout its metadata promises"
            )
        store = cls(pairs, shm=shm, owns_shm=False, **_carve(buf, ranges))
        creator_pid = meta.get("pid")
        store.creator_pid = (
            creator_pid if isinstance(creator_pid, int) else None
        )
        if store.creator_pid is not None and not _shm_registry.pid_alive(
            store.creator_pid
        ):
            # Orphan: the exporter died without unlinking. The data is
            # still perfectly readable (attach proceeds), but nobody will
            # clean the segment up — flag it so operators can
            # reap_orphans() instead of leaking /dev/shm until reboot.
            LOG.warning(
                "attached orphaned shm segment %r: creator pid %d is dead; "
                "repro.resilience.reap_orphans() can reclaim it",
                name,
                store.creator_pid,
            )
        return store

    def close(self, unlink: bool = False) -> None:
        """Release buffer views and the shared-memory mapping.

        ``unlink=True`` (owner side) also removes the block from the
        system; plain ``close()`` only drops this process's mapping, so
        other attachments keep working. Safe to call twice. Must not be
        called while graph views built from this store are still alive —
        their memoryviews pin the mapping (``BufferError``); a requested
        unlink happens first regardless, so the block is removed even
        when the local mapping cannot be closed yet.
        """
        for attr in ("times", "flows", "cum", "offsets"):
            view = getattr(self, attr, None)
            if isinstance(view, memoryview):
                view.release()
            setattr(self, attr, None)
        if self._shm is not None:
            shm, self._shm = self._shm, None
            if self._owns_shm:
                # Deliberate close: the crash-cleanup registry must not
                # unlink this name again (it could have been reused).
                _shm_registry.unregister(shm.name)
            if unlink and hasattr(shm, "unlink"):
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
            shm.close()

    def unlink(self) -> None:
        """Remove the backing shared-memory block (owner-side cleanup)."""
        self.close(unlink=True)


def _encode_metadata(meta: Dict[str, object]) -> bytes:
    return json.dumps(meta, separators=(",", ":")).encode("utf-8")


def _layout(
    meta_end: int, num_series: int, num_events: int
) -> Dict[str, Tuple[int, int]]:
    """The ``(start, end)`` byte range of each column, in block order.

    The one layout of both block formats: the columns follow one another
    from the first 8-byte boundary at or after ``meta_end``, where the
    metadata ends (byte 24 + its length in a shared-memory export, 32 +
    its length in a sealed file), and the last one ends the block.
    """
    items = (num_series + 1, num_events, num_events, num_events + num_series)
    ranges = {}
    start = _align(meta_end)
    for name, count in zip(_COLUMNS, items):
        ranges[name] = (start, start + 8 * count)
        start += 8 * count
    return ranges


def _carve(
    buf: memoryview, ranges: Dict[str, Tuple[int, int]]
) -> Dict[str, memoryview]:
    """Cast each column's byte range of ``buf`` to a typed view."""
    return {
        name: buf[start:end].cast(_COLUMNS[name])
        for name, (start, end) in ranges.items()
    }


class _MappedBlock:
    """The ``name``/``buf``/``close()`` surface of ``SharedMemory`` over
    one mmap of a whole file descriptor, which it closes.

    Maps a sealed segment file (read-only, see
    :func:`repro.graph.segments.open_segment`) and, on Python < 3.13, an
    attached shared-memory block: there even attach-only
    ``SharedMemory`` objects register with the multiprocessing resource
    tracker, which then either unlinks the exporter's block when an
    attaching process exits (spawn) or corrupts the shared registry
    (fork). It has no ``unlink``: closing a mapping never removes what
    it maps.
    """

    def __init__(
        self, name: str, fd: int, access: int = mmap.ACCESS_DEFAULT
    ) -> None:
        self.name = name
        try:
            size = os.fstat(fd).st_size
            if size == 0:  # mmap refuses an empty file
                raise SegmentCorruptionError(f"segment {name!r} is empty")
            self._mmap: Optional[mmap.mmap] = mmap.mmap(fd, size, access=access)
        finally:
            os.close(fd)
        self.buf: Optional[memoryview] = memoryview(self._mmap)

    def close(self) -> None:
        if self.buf is not None:
            self.buf.release()
            self.buf = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None


def _open_shared_memory(name: str):
    """Attach to an existing block without resource-tracker side effects."""
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    try:
        import _posixshmem
    except ImportError:  # non-POSIX: tracker is not involved anyway
        return shared_memory.SharedMemory(name=name, create=False)
    fd = _posixshmem.shm_open(
        name if name.startswith("/") else "/" + name, os.O_RDWR, mode=0o600
    )
    return _MappedBlock(name, fd)


class GrowableColumnStore:
    """Append-friendly typed ingestion buffer for streaming workloads.

    :class:`ColumnStore` is frozen by design — its series-concatenated
    layout cannot absorb a new event in the middle of the ``times`` column
    without shifting everything behind it. This variant keeps the columns
    in **arrival order** (``times``/``flows`` plus an int64 pair-slot
    column), so :meth:`append` is O(1) amortized with the same compact
    typed-array footprint, and :meth:`snapshot` produces a frozen
    :class:`ColumnStore` in one O(|E|) stable counting pass when a batch
    completes (per-pair arrival order is enforced non-decreasing at
    append time, exactly like
    :meth:`~repro.graph.timeseries.GrowableTimeSeriesGraph.append`, so
    the snapshot never sorts).

    Typical cycle: feed a micro-batch, ``snapshot().to_shared()`` for the
    parallel workers, keep appending.
    """

    def __init__(self) -> None:
        self._times = array("d")
        self._flows = array("d")
        self._slots = array("q")
        self._pairs: List[Tuple[Node, Node]] = []
        self._slot_by_pair: Dict[Tuple[Node, Node], int] = {}
        self._tail_time = array("d")  # last timestamp per pair slot

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------

    def append(self, src: Node, dst: Node, time: float, flow: float) -> bool:
        """Ingest one interaction; returns True when ``(src, dst)`` is new.

        Validates what :meth:`ColumnStore.from_graph` would: int/str node
        ids, float64-lossless values, positive flow, and per-pair
        non-decreasing timestamps.
        """
        if not _lossless_float64(time):
            raise ValueError(
                f"timestamp {time!r} on {src}->{dst} is not exactly "
                "representable as float64"
            )
        if not _lossless_float64(flow):
            raise ValueError(
                f"flow {flow!r} on {src}->{dst} is not exactly "
                "representable as float64"
            )
        if flow <= 0:
            raise ValueError(
                f"flows must be positive, got {flow!r} on {src}->{dst}"
            )
        key = (_check_node(src), _check_node(dst))
        slot = self._slot_by_pair.get(key)
        is_new = slot is None
        if is_new:
            slot = len(self._pairs)
            self._slot_by_pair[key] = slot
            self._pairs.append(key)
            self._tail_time.append(time)
        else:
            if time < self._tail_time[slot]:
                raise ValueError(
                    f"append out of order on {src}->{dst}: t={time!r} "
                    f"precedes the series tail t={self._tail_time[slot]!r}"
                )
            self._tail_time[slot] = time
        self._times.append(time)
        self._flows.append(flow)
        self._slots.append(slot)
        return is_new

    def extend(self, interactions: Iterable) -> int:
        """Append many ``(src, dst, time, flow)`` tuples; returns count."""
        n = 0
        for src, dst, time, flow in interactions:
            self.append(src, dst, time, flow)
            n += 1
        return n

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_events(self) -> int:
        return len(self._times)

    @property
    def num_series(self) -> int:
        return len(self._pairs)

    @property
    def nbytes(self) -> int:
        return (
            self._times.itemsize * len(self._times)
            + self._flows.itemsize * len(self._flows)
            + self._slots.itemsize * len(self._slots)
        )

    def __repr__(self) -> str:
        return (
            f"GrowableColumnStore({self.num_series} series, "
            f"{self.num_events} events, {self.nbytes} bytes)"
        )

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> ColumnStore:
        """Freeze the current contents into a :class:`ColumnStore`.

        One stable counting pass regroups the arrival-order columns into
        the store's series-concatenated layout; per-pair time order was
        enforced at append time, so no sorting happens. The snapshot is
        independent of this buffer — appending afterwards never mutates
        earlier snapshots.
        """
        num_series = len(self._pairs)
        n = len(self._times)
        counts = [0] * num_series
        for slot in self._slots:
            counts[slot] += 1
        offsets = array("q", bytes(8 * (num_series + 1)))
        for i, c in enumerate(counts):
            offsets[i + 1] = offsets[i] + c
        times = array("d", bytes(8 * n))
        flows = array("d", bytes(8 * n))
        position = list(offsets[:num_series])
        src_times, src_flows, src_slots = self._times, self._flows, self._slots
        for k in range(n):
            slot = src_slots[k]
            at = position[slot]
            times[at] = src_times[k]
            flows[at] = src_flows[k]
            position[slot] = at + 1
        return ColumnStore._from_columns(list(self._pairs), times, flows, offsets)

    def to_graph(self) -> TimeSeriesGraph:
        """Shorthand for ``snapshot().to_graph()``."""
        return self.snapshot().to_graph()


def columnarize(
    graph: Union[TimeSeriesGraph, "object"]
) -> TimeSeriesGraph:
    """Convenience: rebuild a graph on columnar zero-copy storage.

    ``columnarize(g)`` is equivalent to
    ``ColumnStore.from_graph(g).to_graph()``; the result behaves exactly
    like ``g`` (equal series, same search output) but is backed by flat
    contiguous buffers.
    """
    return ColumnStore.from_graph(graph).to_graph()
