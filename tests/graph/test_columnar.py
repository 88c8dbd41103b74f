"""The columnar zero-copy store: view parity, shared-memory round trips.

The contract under test is strong: a :class:`ColumnarEdgeSeries` view must
be *indistinguishable* from the list-backed :class:`EdgeSeries` it
flattened — same equality (both directions), same hash, same accessor
values, same slicing behaviour — and a shared-memory export must
round-trip the whole graph bit-exactly, including across a freshly
``spawn``-ed process that shares nothing with the exporter but the block
name.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import random
from unittest import mock

import pytest
from shm_faults import fail_shm_export

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.columnar import ColumnarEdgeSeries, ColumnStore, columnarize
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import EdgeSeries, TimeSeriesGraph
from repro.resilience.shm_registry import active_segments


def _random_graph(seed: int, num_events: int = 80) -> InteractionGraph:
    rng = random.Random(seed)
    nodes = ["n%d" % i for i in range(6)] + [0, 1, 2]  # mixed str/int ids
    graph = InteractionGraph()
    for _ in range(num_events):
        src, dst = rng.sample(nodes, 2)
        time = float(rng.randrange(0, 50))  # integer grid: many ties
        graph.add_interaction(src, dst, time, float(rng.randint(1, 9)))
    return graph


class TestViewParity:
    def test_series_equal_and_hash_both_directions(self):
        ts = _random_graph(0).to_time_series()
        cg = columnarize(ts)
        assert cg.num_series == ts.num_series
        for series in ts.all_series():
            view = cg.series(series.src, series.dst)
            assert isinstance(view, ColumnarEdgeSeries)
            assert view == series
            assert series == view
            assert hash(view) == hash(series)

    def test_accessors_match(self):
        ts = _random_graph(1).to_time_series()
        cg = columnarize(ts)
        for series in ts.all_series():
            view = cg.series(series.src, series.dst)
            assert len(view) == len(series)
            assert list(view) == [(t, f) for t, f in series]
            assert view.total_flow == pytest.approx(series.total_flow)
            assert view.first_time == series.first_time
            assert view.last_time == series.last_time
            for idx in range(len(series)):
                assert view.time(idx) == series.time(idx)
                assert view.flow(idx) == series.flow(idx)
                assert view.item(idx) == series.item(idx)
            for t in (-1.0, 0.0, 10.0, 25.5, 100.0):
                assert view.first_index_at_or_after(t) == series.first_index_at_or_after(t)
                assert view.first_index_after(t) == series.first_index_after(t)
                assert view.last_index_at_or_before(t) == series.last_index_at_or_before(t)
                assert view.flow_in_interval(t, t + 7) == pytest.approx(
                    series.flow_in_interval(t, t + 7)
                )

    def test_slicing_parity(self):
        ts = _random_graph(2).to_time_series()
        cg = columnarize(ts)
        for series in ts.all_series():
            if len(series) < 3:
                continue
            view = cg.series(series.src, series.dst)
            lo, hi = 1, len(series) - 2
            sliced_view = view.slice(lo, hi)
            sliced_list = series.slice(lo, hi)
            # zero-copy slices stay columnar and equal the copied slice
            assert isinstance(sliced_view, ColumnarEdgeSeries)
            assert sliced_view == sliced_list
            assert hash(sliced_view) == hash(sliced_list)
            assert sliced_view.total_flow == pytest.approx(sliced_list.total_flow)
            assert sliced_view.flow_between(0, hi - lo) == pytest.approx(
                sliced_list.flow_between(0, hi - lo)
            )

    def test_columnar_graph_search_parity(self):
        graph = _random_graph(3)
        ts = graph.to_time_series()
        cg = columnarize(ts)
        motif = Motif.chain(3, delta=12, phi=2)
        reference = FlowMotifEngine(ts).find_instances(motif)
        columnar = FlowMotifEngine(cg).find_instances(motif)
        assert columnar.count == reference.count
        assert [i.canonical_key() for i in columnar.instances] == [
            i.canonical_key() for i in reference.instances
        ]

    def test_store_layout_invariants(self):
        ts = _random_graph(4).to_time_series()
        store = ColumnStore.from_graph(ts)
        assert store.num_series == ts.num_series
        assert store.num_events == ts.num_events
        assert len(store.offsets) == store.num_series + 1
        assert store.offsets[0] == 0
        assert store.offsets[store.num_series] == store.num_events
        assert len(store.cum) == store.num_events + store.num_series
        for slot, (src, dst) in enumerate(store.pairs):
            assert store.slot(src, dst) == slot
        assert store.slot("nope", "nothere") is None

    def test_rejects_unhashable_node_types(self):
        series = EdgeSeries(("tuple", "node"), "b", [1.0], [2.0])
        with pytest.raises(TypeError):
            ColumnStore.from_graph(TimeSeriesGraph([series]))

    def test_rejects_values_not_exact_in_float64(self):
        series = EdgeSeries("a", "b", [2 ** 53 + 1], [2.0])
        with pytest.raises(ValueError, match="float64"):
            ColumnStore.from_graph(TimeSeriesGraph([series]))

    def test_empty_graph_round_trips(self):
        store = ColumnStore.from_graph(TimeSeriesGraph([]))
        assert store.num_series == 0 and store.num_events == 0
        shared = store.to_shared()
        try:
            attached = ColumnStore.attach(shared.shm_name)
            assert attached.num_series == 0
            attached.close()
        finally:
            shared.close(unlink=True)


def _digest(graph: TimeSeriesGraph):
    """A value-complete fingerprint of a graph's series contents."""
    return [
        (s.src, s.dst, list(s.times), list(s.flows), s.total_flow)
        for s in graph.all_series()
    ]


def _attach_and_digest(name, queue):
    """Spawn target: attach by name only, fingerprint, report back."""
    store = ColumnStore.attach(name)
    try:
        queue.put(_digest(store.to_graph()))
    finally:
        # Views pin the mapping; let process exit reclaim it.
        pass


class TestSharedMemory:
    def test_in_process_round_trip_bit_exact(self):
        ts = _random_graph(5).to_time_series()
        store = ColumnStore.from_graph(ts)
        shared = store.to_shared()
        try:
            attached = ColumnStore.attach(shared.shm_name)
            assert _digest(attached.to_graph()) == _digest(ts)
        finally:
            shared.close(unlink=True)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_spawned_process_round_trip_bit_exact(self, seed):
        """Property: attach() in a spawned process reproduces the graph
        bit-exactly — the zero-copy fan-out's correctness foundation."""
        ts = _random_graph(seed).to_time_series()
        shared = ColumnStore.from_graph(ts).to_shared()
        try:
            ctx = multiprocessing.get_context("spawn")
            queue = ctx.Queue()
            proc = ctx.Process(
                target=_attach_and_digest, args=(shared.shm_name, queue)
            )
            proc.start()
            remote = queue.get(timeout=60)
            proc.join(timeout=60)
            assert proc.exitcode == 0
            assert remote == _digest(ts)
        finally:
            shared.close(unlink=True)

    @pytest.mark.skipif(
        not hasattr(os, "posix_fallocate"), reason="no posix_fallocate"
    )
    def test_export_backs_its_whole_block_before_writing(self):
        """On tmpfs a new block takes its pages on first write, and a
        write past the free space is SIGBUS, not an error; so the export
        reserves every byte of the block first."""
        ts = _random_graph(8).to_time_series()
        with mock.patch.object(
            os, "posix_fallocate", wraps=os.posix_fallocate
        ) as fallocate:
            shared = ColumnStore.from_graph(ts).to_shared()
        try:
            ((_fd, offset, length),) = [
                call.args for call in fallocate.call_args_list
            ]
            assert offset == 0 and length == shared._shm.size
        finally:
            shared.close(unlink=True)

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm to list"
    )
    def test_export_that_does_not_fit_raises_and_leaves_no_block(self):
        ts = _random_graph(9).to_time_series()
        store = ColumnStore.from_graph(ts)
        before = set(os.listdir("/dev/shm"))
        with fail_shm_export() as fallocate:
            with pytest.raises(OSError) as excinfo:
                store.to_shared()
        assert excinfo.value.errno == errno.ENOSPC
        assert fallocate.call_count == 1
        assert set(os.listdir("/dev/shm")) - before == set()
        assert active_segments() == []

    def test_attach_missing_block_raises(self):
        with pytest.raises((FileNotFoundError, OSError)):
            ColumnStore.attach("flow_motifs_no_such_block")

    def test_close_is_idempotent_and_unlinks(self):
        ts = _random_graph(6).to_time_series()
        shared = ColumnStore.from_graph(ts).to_shared()
        name = shared.shm_name
        shared.close(unlink=True)
        shared.close(unlink=True)  # second close is a no-op
        with pytest.raises((FileNotFoundError, OSError)):
            ColumnStore.attach(name)

    def test_plain_close_keeps_block_for_other_attachments(self):
        """close() without unlink drops only the local mapping — the
        exporter's crash-recovery story and the attach-side contract."""
        ts = _random_graph(7).to_time_series()
        shared = ColumnStore.from_graph(ts).to_shared()
        name = shared.shm_name
        shared.close()  # no unlink: the block must survive
        try:
            attached = ColumnStore.attach(name)
            assert attached.num_events == ts.num_events
            attached.close()
        finally:
            ColumnStore.attach(name).close(unlink=True)


class TestGrowableColumnStore:
    def _filled(self):
        from repro.graph.columnar import GrowableColumnStore

        store = GrowableColumnStore()
        events = [
            ("a", "b", 1.0, 2.0),
            ("b", "c", 2.0, 3.0),
            ("a", "b", 4.0, 1.0),
            ("c", "a", 4.0, 5.0),
        ]
        assert store.extend(events) == 4
        return store

    def test_append_and_snapshot_layout(self):
        store = self._filled()
        assert store.num_events == 4
        assert store.num_series == 3
        frozen = store.snapshot()
        graph = frozen.to_graph()
        ab = graph.series("a", "b")
        assert list(ab.times) == [1.0, 4.0]
        assert ab.total_flow == 3.0
        assert graph.num_events == 4

    def test_snapshot_equals_batch_columnarization(self):
        import random

        from repro.graph.columnar import ColumnStore, GrowableColumnStore
        from repro.graph.interaction import InteractionGraph

        rng = random.Random(9)
        events = []
        for _ in range(70):
            u, v = rng.sample(range(6), 2)
            events.append((u, v, float(rng.randrange(0, 40)), float(rng.randint(1, 7))))
        events.sort(key=lambda e: e[2])
        grow = GrowableColumnStore()
        grow.extend(events)
        grown_graph = grow.to_graph()
        batch_graph = ColumnStore.from_graph(
            InteractionGraph.from_tuples(events).to_time_series()
        ).to_graph()
        assert grown_graph.all_series() == batch_graph.all_series()

    def test_snapshot_is_independent_of_later_appends(self):
        store = self._filled()
        frozen = store.snapshot()
        before = list(frozen.to_graph().series("a", "b").times)
        store.append("a", "b", 9.0, 1.0)
        assert list(frozen.to_graph().series("a", "b").times) == before
        assert store.snapshot().to_graph().series("a", "b").times[-1] == 9.0

    def test_validation(self):
        from fractions import Fraction

        from repro.graph.columnar import GrowableColumnStore

        store = GrowableColumnStore()
        store.append("a", "b", 5.0, 1.0)
        with pytest.raises(ValueError, match="out of order"):
            store.append("a", "b", 4.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            store.append("a", "b", 6.0, 0.0)
        with pytest.raises(ValueError, match="float64"):
            store.append("a", "b", Fraction(1, 3), 1.0)
        with pytest.raises(TypeError, match="int or str"):
            store.append(("tuple", "node"), "b", 6.0, 1.0)

    def test_empty_snapshot(self):
        from repro.graph.columnar import GrowableColumnStore

        frozen = GrowableColumnStore().snapshot()
        assert frozen.num_events == 0
        assert frozen.num_series == 0
        assert frozen.to_graph().num_nodes == 0

    def test_search_parity_on_snapshot(self):
        """Search on a grown snapshot equals search on the list-backed graph."""
        from repro.core.engine import FlowMotifEngine
        from repro.core.motif import Motif
        from repro.graph.columnar import GrowableColumnStore
        from repro.graph.interaction import InteractionGraph

        events = [
            ("u3", "u1", 10.0, 10.0), ("u1", "u2", 13.0, 5.0),
            ("u1", "u2", 15.0, 7.0),  ("u2", "u3", 18.0, 20.0),
        ]
        grow = GrowableColumnStore()
        grow.extend(events)
        motif = Motif.cycle(3, delta=10, phi=7)
        columnar = FlowMotifEngine(grow.to_graph()).find_instances(motif)
        listed = FlowMotifEngine(
            InteractionGraph.from_tuples(events)
        ).find_instances(motif)
        assert columnar.count == listed.count == 1
        assert {i.canonical_key() for i in columnar.instances} == {
            i.canonical_key() for i in listed.instances
        }


def test_columnar_view_append_refused():
    from repro.graph.columnar import columnarize
    from repro.graph.interaction import InteractionGraph

    graph = columnarize(
        InteractionGraph.from_tuples([("a", "b", 1.0, 2.0)]).to_time_series()
    )
    with pytest.raises(TypeError, match="zero-copy"):
        graph.series("a", "b").append(2.0, 1.0)


class TestAttachTypedErrors:
    """attach() on a corrupted/foreign block raises the typed error.

    Without these checks, foreign bytes in a same-named block would be
    misread as graph data (or crash as a KeyError deep in carving).
    """

    def _export(self, seed=8):
        ts = _random_graph(seed).to_time_series()
        return ColumnStore.from_graph(ts).to_shared()

    def _corrupt(self, shared, offset, payload):
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(shared.shm_name)
        try:
            block.buf[offset : offset + len(payload)] = payload
        finally:
            block.close()

    def test_bad_magic(self):
        from repro.resilience import SegmentCorruptionError

        shared = self._export()
        try:
            self._corrupt(shared, 0, b"NOTOURS!")
            with pytest.raises(SegmentCorruptionError, match="magic"):
                ColumnStore.attach(shared.shm_name)
        finally:
            shared.close(unlink=True)

    def test_wrong_format_version(self):
        import struct

        from repro.resilience import SegmentCorruptionError

        shared = self._export()
        try:
            self._corrupt(shared, 8, struct.pack("<Q", 999))
            with pytest.raises(SegmentCorruptionError, match="version"):
                ColumnStore.attach(shared.shm_name)
        finally:
            shared.close(unlink=True)

    def test_metadata_overruns_block(self):
        import struct

        from repro.resilience import SegmentCorruptionError

        shared = self._export()
        try:
            self._corrupt(shared, 16, struct.pack("<Q", 2**40))
            with pytest.raises(SegmentCorruptionError, match="overruns"):
                ColumnStore.attach(shared.shm_name)
        finally:
            shared.close(unlink=True)

    def test_metadata_garbage(self):
        from repro.resilience import SegmentCorruptionError

        shared = self._export()
        try:
            self._corrupt(shared, 24, b"\xff\xfe{{{{")
            with pytest.raises(SegmentCorruptionError, match="decode"):
                ColumnStore.attach(shared.shm_name)
        finally:
            shared.close(unlink=True)

    def test_foreign_tiny_block(self):
        from multiprocessing import shared_memory

        from repro.resilience import SegmentCorruptionError

        block = shared_memory.SharedMemory(create=True, size=4)
        try:
            with pytest.raises(SegmentCorruptionError, match="too"):
                ColumnStore.attach(block.name)
        finally:
            block.close()
            block.unlink()

    def test_typed_error_is_a_value_error(self):
        """Compat: pre-existing `except ValueError` call sites still work."""
        from repro.resilience import SegmentCorruptionError

        assert issubclass(SegmentCorruptionError, ValueError)


# ----------------------------------------------------------------------
# Byte formats: the shared-memory block (v1) and the sealed file (v2)
# ----------------------------------------------------------------------

#: A fixed small interaction list. Its flows make the prefix sums round
#: (0.1 + 0.2 is not 0.3 in float64), so the pinned ``cum`` CRC also
#: pins the order in which the sums are taken.
_FORMAT_EVENTS = [
    ("a", "b", 1.0, 0.1),
    ("b", "c", 2.0, 3.0),
    ("a", "b", 4.0, 0.2),
    ("c", "a", 4.5, 5.0),
    ("a", "b", 6.0, 0.7),
    ("b", "c", 7.0, 1.25),
]

#: The metadata's pair table, in slot order.
_FORMAT_PAIRS = [["a", "b"], ["b", "c"], ["c", "a"]]

#: Per-column (byte length, CRC32). The byte ranges follow one another
#: from the first 8-aligned offset after the metadata.
_FORMAT_COLUMNS = [
    ("offsets", 32, 0xFD222814),
    ("times", 48, 0x25660B6D),
    ("flows", 48, 0xB41FB5C5),
    ("cum", 72, 0x5E935F75),
]


def _format_store():
    from repro.graph.columnar import GrowableColumnStore

    grow = GrowableColumnStore()
    grow.extend(_FORMAT_EVENTS)
    return grow.snapshot()


def _check_columns(data, meta_end):
    """Each column starts where the previous ends, from ``meta_end``
    rounded up to 8 bytes, and the last one ends the block."""
    import zlib

    at = (meta_end + 7) // 8 * 8
    crcs = {}
    for name, length, crc in _FORMAT_COLUMNS:
        assert zlib.crc32(data[at : at + length]) == crc, name
        crcs[name] = crc
        at += length
    assert at == len(data)
    return crcs


def _read_meta(data, start, meta_len):
    import json

    meta = json.loads(bytes(data[start : start + meta_len]))
    assert meta.pop("pid") == os.getpid()
    return meta


class TestByteFormats:
    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm to read"
    )
    def test_shared_block_v1(self):
        from repro.resilience.shm_registry import SEGMENT_HEADER, SEGMENT_MAGIC

        shared = _format_store().to_shared()
        try:
            with open(os.path.join("/dev/shm", shared.shm_name), "rb") as fh:
                data = fh.read()
        finally:
            shared.close(unlink=True)
        magic, version, meta_len = SEGMENT_HEADER.unpack_from(data, 0)
        assert (magic, version) == (SEGMENT_MAGIC, 1)
        assert meta_len == 78 + len(str(os.getpid()))
        meta = _read_meta(data, 24, meta_len)
        assert list(meta) == ["num_series", "num_events", "pairs"]
        assert meta == {"num_series": 3, "num_events": 6, "pairs": _FORMAT_PAIRS}
        _check_columns(data, 24 + meta_len)

    def test_sealed_file_v2(self, tmp_path):
        import struct
        import zlib

        from repro.graph.segments import write_segment
        from repro.resilience.shm_registry import SEGMENT_HEADER, SEGMENT_MAGIC

        path = str(tmp_path / "format.seg")
        returned = write_segment(_format_store(), path)
        with open(path, "rb") as fh:
            data = fh.read()
        magic, version, meta_len = SEGMENT_HEADER.unpack_from(data, 0)
        assert (magic, version) == (SEGMENT_MAGIC, 2)
        assert meta_len == 161 + len(str(os.getpid()))
        header_crc, meta_crc = struct.unpack_from("<II", data, 24)
        assert header_crc == zlib.crc32(data[:24])
        meta_end = 32 + meta_len
        assert meta_crc == zlib.crc32(data[32 : (meta_end + 7) // 8 * 8])
        meta = _read_meta(data, 32, meta_len)
        assert list(meta) == ["num_series", "num_events", "pairs", "crc"]
        crcs = _check_columns(data, meta_end)
        assert meta == {
            "num_series": 3,
            "num_events": 6,
            "pairs": _FORMAT_PAIRS,
            "crc": crcs,
        }
        assert list(meta["crc"]) == [name for name, _, _ in _FORMAT_COLUMNS]
        returned.pop("pid")
        assert returned == meta


def _series_of(graph):
    """``all_series()`` as plain values, prefix sums included (series
    equality ignores them); holds no view of the graph's buffers."""
    return [
        (s.src, s.dst, list(s.times), list(s.flows), list(s._cum))
        for s in graph.all_series()
    ]


class TestRoundTrips:
    def _reference(self):
        return InteractionGraph.from_tuples(_FORMAT_EVENTS).to_time_series()

    def _mapped(self, store):
        """``_series_of`` a mapped store's graph, then unmap the store."""
        graph = store.to_graph()
        try:
            assert graph.all_series() == self._reference().all_series()
            return _series_of(graph)
        finally:
            del graph
            store.close()

    def test_export_attach(self):
        shared = ColumnStore.from_graph(self._reference()).to_shared()
        try:
            attached = ColumnStore.attach(shared.shm_name)
            assert self._mapped(attached) == _series_of(self._reference())
        finally:
            shared.close(unlink=True)

    def test_seal_open(self, tmp_path):
        from repro.graph.segments import open_segment, write_segment

        path = str(tmp_path / "one.seg")
        write_segment(ColumnStore.from_graph(self._reference()), path)
        assert self._mapped(open_segment(path)) == _series_of(
            self._reference()
        )

    def test_snapshot(self):
        graph = _format_store().to_graph()
        assert graph.all_series() == self._reference().all_series()
        assert _series_of(graph) == _series_of(self._reference())

    def test_compacting_two_seals_equals_one_seal(self, tmp_path):
        from repro.graph.segments import SegmentStore

        split = SegmentStore(str(tmp_path / "split"))
        split.extend(_FORMAT_EVENTS[:3])
        split.seal()
        split.extend(_FORMAT_EVENTS[3:])
        split.seal()
        merged = split.compact()
        whole = SegmentStore(str(tmp_path / "whole"))
        whole.extend(_FORMAT_EVENTS)
        sealed = whole.seal()
        assert split.live_segments() == [merged]
        with open(split.segment_path(merged), "rb") as fh:
            merged_bytes = fh.read()
        with open(whole.segment_path(sealed), "rb") as fh:
            sealed_bytes = fh.read()
        assert merged_bytes == sealed_bytes
        assert self._mapped(split.open_segment(merged)) == _series_of(
            self._reference()
        )
