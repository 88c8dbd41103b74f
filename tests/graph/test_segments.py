"""Durable segment tier: byte-flip detection, atomic seal, LSM lifecycle.

The acceptance property tested exhaustively here: flipping **any single
byte** of a sealed segment is detected at open time by a CRC (or length)
check and surfaces as the typed
:class:`~repro.resilience.shm_registry.SegmentCorruptionError` — never a
crash deeper in the stack or a silently wrong search result.
"""

from __future__ import annotations

import gc
import json
import os
import random

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.columnar import GrowableColumnStore
from repro.graph.interaction import InteractionGraph
from repro.graph.segments import (
    MANIFEST_NAME,
    QUARANTINE_MARKER,
    TMP_MARKER,
    FsckReport,
    SegmentColumnStore,
    SegmentCorruptionError,
    SegmentManifest,
    SegmentStore,
    fsck,
    open_segment,
    quarantine_segment,
    verify_segment,
    write_segment,
)


def _random_events(seed: int, num_events: int = 60, nodes: int = 6):
    rng = random.Random(seed)
    events = []
    t = 0.0
    for _ in range(num_events):
        u, v = rng.sample(range(nodes), 2)
        t += rng.random() * 2
        events.append((u, v, t, float(rng.randint(1, 9))))
    return events


def _store_from(events) -> GrowableColumnStore:
    grow = GrowableColumnStore()
    grow.extend(events)
    return grow


def _digest(graph):
    return sorted(
        (s.src, s.dst, list(s.times), list(s.flows))
        for s in graph.all_series()
    )


def _seal(tmp_path, events, name="one.seg"):
    path = str(tmp_path / name)
    write_segment(_store_from(events).snapshot(), path)
    return path


class TestSealOpenRoundTrip:
    def test_graph_round_trips_bit_exact(self, tmp_path):
        events = _random_events(0)
        path = _seal(tmp_path, events)
        store = open_segment(path)
        try:
            assert isinstance(store, SegmentColumnStore)
            assert store.path == path
            assert store.shm_name is None  # a file is not shared memory
            assert _digest(store.to_graph()) == _digest(
                _store_from(events).to_graph()
            )
        finally:
            store.close()

    def test_search_parity_with_list_backed_graph(self, tmp_path):
        events = _random_events(1, num_events=120)
        path = _seal(tmp_path, events)
        motif = Motif.chain(3, delta=6, phi=2)
        reference = FlowMotifEngine(
            InteractionGraph.from_tuples(events)
        ).find_instances(motif)
        store = open_segment(path)
        try:
            mapped = FlowMotifEngine(store.to_graph()).find_instances(motif)
            count = mapped.count
            keys = sorted(i.canonical_key() for i in mapped.instances)
            # instances hold zero-copy runs that pin the mapping: drop
            # them (and any cycles) before close(), same contract as shm
            del mapped
            gc.collect()
        finally:
            store.close()
        assert count == reference.count
        assert keys == sorted(i.canonical_key() for i in reference.instances)

    def test_empty_store_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.seg")
        write_segment(GrowableColumnStore().snapshot(), path)
        assert verify_segment(path)["num_events"] == 0
        store = open_segment(path)
        try:
            assert store.num_series == 0
        finally:
            store.close()

    def test_seal_leaves_no_tmp_file(self, tmp_path):
        _seal(tmp_path, _random_events(2))
        assert [e for e in os.listdir(tmp_path) if TMP_MARKER in e] == []

    def test_metadata_contents(self, tmp_path):
        events = _random_events(4)
        path = _seal(tmp_path, events)
        meta = verify_segment(path)
        snapshot = _store_from(events).snapshot()
        assert meta["num_events"] == snapshot.num_events
        assert meta["num_series"] == snapshot.num_series
        assert meta["pid"] == os.getpid()
        assert set(meta["crc"]) == {"offsets", "times", "flows", "cum"}


class TestEveryByteFlipIsDetected:
    def test_flip_any_single_byte_raises_typed_error(self, tmp_path):
        """The headline durability property, exhaustively: every byte."""
        path = _seal(tmp_path, _random_events(5, num_events=8, nodes=4))
        with open(path, "rb") as fh:
            pristine = fh.read()
        assert len(pristine) < 2000  # keep the exhaustive sweep fast
        for index in range(len(pristine)):
            damaged = bytearray(pristine)
            damaged[index] ^= 0x40
            with open(path, "wb") as fh:
                fh.write(damaged)
            with pytest.raises(SegmentCorruptionError):
                verify_segment(path)
        # restore and prove the pristine bytes still verify
        with open(path, "wb") as fh:
            fh.write(pristine)
        verify_segment(path)

    @pytest.mark.parametrize("cut", [0, 7, 23, 24, 31, 40, -8, -1])
    def test_truncation_detected(self, tmp_path, cut):
        path = _seal(tmp_path, _random_events(6))
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: cut if cut >= 0 else len(data) + cut])
        with pytest.raises(SegmentCorruptionError):
            verify_segment(path)

    def test_appended_garbage_detected(self, tmp_path):
        path = _seal(tmp_path, _random_events(7))
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(SegmentCorruptionError, match="promises"):
            verify_segment(path)

    def test_empty_file_detected(self, tmp_path):
        path = str(tmp_path / "zero.seg")
        with open(path, "wb"):
            pass
        with pytest.raises(SegmentCorruptionError, match="empty"):
            open_segment(path, quarantine=False)

    def test_not_a_segment_detected(self, tmp_path):
        path = str(tmp_path / "noise.seg")
        with open(path, "wb") as fh:
            fh.write(b"definitely not a sealed ColumnStore segment file")
        with pytest.raises(SegmentCorruptionError, match="magic"):
            verify_segment(path)


class TestQuarantine:
    def _damaged(self, tmp_path):
        path = _seal(tmp_path, _random_events(8))
        with open(path, "r+b") as fh:
            fh.seek(-5, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-5, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0xFF]))
        return path

    def test_open_quarantines_damage(self, tmp_path):
        path = self._damaged(tmp_path)
        with pytest.raises(SegmentCorruptionError, match="CRC mismatch"):
            open_segment(path)
        assert not os.path.exists(path)
        leftovers = [
            e for e in os.listdir(tmp_path) if QUARANTINE_MARKER in e
        ]
        assert leftovers == [
            f"{os.path.basename(path)}{QUARANTINE_MARKER}{os.getpid()}"
        ]

    def test_quarantine_false_leaves_file_alone(self, tmp_path):
        path = self._damaged(tmp_path)
        with pytest.raises(SegmentCorruptionError):
            open_segment(path, quarantine=False)
        assert os.path.exists(path)

    def test_verify_never_renames(self, tmp_path):
        path = self._damaged(tmp_path)
        with pytest.raises(SegmentCorruptionError):
            verify_segment(path)
        assert os.path.exists(path)

    def test_quarantine_segment_names_the_pid(self, tmp_path):
        path = _seal(tmp_path, _random_events(9))
        target = quarantine_segment(path)
        assert target.endswith(f"{QUARANTINE_MARKER}{os.getpid()}")
        assert os.path.exists(target) and not os.path.exists(path)

    def test_validate_false_skips_column_crc_only(self, tmp_path):
        """validate=False trusts column bytes but still parses structure."""
        path = self._damaged(tmp_path)  # damage is in the cum column
        store = open_segment(path, validate=False)
        try:
            assert store.num_events > 0
        finally:
            store.close()


class TestManifest:
    def test_append_load_round_trip(self, tmp_path):
        manifest = SegmentManifest(str(tmp_path / MANIFEST_NAME))
        manifest.append({"op": "seal", "name": "a.seg", "num_events": 3})
        manifest.append({"op": "seal", "name": "b.seg", "num_events": 5})
        records, torn = manifest.load()
        assert not torn
        assert [r["name"] for r in records] == ["a.seg", "b.seg"]
        assert all("crc" in r for r in records)

    def test_replay_folds_compactions(self, tmp_path):
        manifest = SegmentManifest(str(tmp_path / MANIFEST_NAME))
        manifest.append({"op": "seal", "name": "a.seg"})
        manifest.append({"op": "seal", "name": "b.seg"})
        manifest.append(
            {"op": "compact", "name": "c.seg", "replaces": ["a.seg", "b.seg"]}
        )
        live, superseded, torn = manifest.replay()
        assert live == ["c.seg"]
        assert sorted(superseded) == ["a.seg", "b.seg"]
        assert not torn

    def test_missing_manifest_is_empty(self, tmp_path):
        manifest = SegmentManifest(str(tmp_path / MANIFEST_NAME))
        assert manifest.load() == ([], False)
        assert manifest.replay() == ([], [], False)

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        manifest = SegmentManifest(str(tmp_path / MANIFEST_NAME))
        manifest.append({"op": "seal", "name": "a.seg"})
        with open(manifest.path, "a", encoding="utf-8") as fh:
            fh.write('{"op":"seal","name":"b.se')  # crashed mid-write
        records, torn = manifest.load()
        assert torn and [r["name"] for r in records] == ["a.seg"]
        assert manifest.truncate_torn_tail()
        records, torn = manifest.load()
        assert not torn and [r["name"] for r in records] == ["a.seg"]
        assert not manifest.truncate_torn_tail()  # idempotent

    def test_crc_catches_tampered_record(self, tmp_path):
        manifest = SegmentManifest(str(tmp_path / MANIFEST_NAME))
        manifest.append({"op": "seal", "name": "a.seg", "num_events": 3})
        with open(manifest.path, "r", encoding="utf-8") as fh:
            record = json.loads(fh.read())
        record["num_events"] = 9999  # rewrite history, keep old crc
        with open(manifest.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
            fh.write('{"torn"')  # ensure the bad line is not final
        with pytest.raises(SegmentCorruptionError, match="ledger"):
            manifest.load()

    def test_unknown_op_rejected(self, tmp_path):
        manifest = SegmentManifest(str(tmp_path / MANIFEST_NAME))
        manifest.append({"op": "upsert", "name": "a.seg"})
        with pytest.raises(SegmentCorruptionError, match="unknown record"):
            manifest.replay()


class TestSegmentStore:
    def test_seal_empty_memtable_is_noop(self, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        assert store.seal() is None
        assert store.live_segments() == []

    def test_open_missing_store_without_create(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SegmentStore(str(tmp_path / "nope"), create=False)

    def test_lifecycle_parity_with_oracle(self, tmp_path):
        """Seals + compact must reproduce exactly the single-seal graph."""
        events = _random_events(10, num_events=150)
        store = SegmentStore(str(tmp_path / "store"))
        for index, event in enumerate(events):
            store.append(*event)
            if index % 40 == 39:
                store.seal()
        assert store.seal() is not None
        assert len(store.live_segments()) == 4
        oracle = _digest(InteractionGraph.from_tuples(events).to_time_series())
        assert _digest(store.search_graph()) == oracle
        merged = store.compact()
        assert merged is not None
        assert store.live_segments() == [merged]
        assert _digest(store.search_graph()) == oracle
        records, _torn = store.manifest.load()
        assert [r["num_events"] for r in records if r["name"] == merged] == [
            len(events)
        ]
        # steady state: reopen from disk alone, still the same graph
        reopened = SegmentStore(str(tmp_path / "store"), create=False)
        assert _digest(reopened.search_graph()) == oracle

    def test_compact_single_segment_is_noop(self, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        store.extend(_random_events(11, num_events=10))
        store.seal()
        assert store.compact() is None

    def test_compact_removes_superseded_files(self, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        for chunk in range(3):
            store.extend(_random_events(chunk, num_events=10))
            store.seal()
        merged = store.compact()
        on_disk = [
            e for e in os.listdir(store.root) if e.endswith(".seg")
        ]
        assert on_disk == [merged]

    def test_search_graph_includes_memtable_on_request(self, tmp_path):
        events = _random_events(12, num_events=30)
        store = SegmentStore(str(tmp_path / "store"))
        store.extend(events[:20])
        store.seal()
        store.extend(events[20:])
        sealed_only = _digest(store.search_graph())
        assert sealed_only == _digest(
            InteractionGraph.from_tuples(events[:20]).to_time_series()
        )
        everything = _digest(store.search_graph(include_memtable=True))
        assert everything == _digest(
            InteractionGraph.from_tuples(events).to_time_series()
        )
        assert store.memtable_events == 10  # memtable untouched by reads

    def test_names_never_reused_after_compaction(self, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        for chunk in range(2):
            store.extend(_random_events(20 + chunk, num_events=5))
            store.seal()
        merged = store.compact()
        store.extend(_random_events(23, num_events=5))
        sealed = store.seal()
        assert sealed not in {"seg-000000.seg", "seg-000001.seg", merged}


class TestFsck:
    def _populated(self, tmp_path, seals=3) -> SegmentStore:
        store = SegmentStore(str(tmp_path / "store"))
        for chunk in range(seals):
            store.extend(_random_events(30 + chunk, num_events=12))
            store.seal()
        return store

    def test_clean_store(self, tmp_path):
        store = self._populated(tmp_path)
        report = fsck(store.root)
        assert isinstance(report, FsckReport)
        assert report.ok and report.valid == report.checked == 3
        assert "clean" in report.summary()

    def test_corrupt_segment_quarantined(self, tmp_path):
        store = self._populated(tmp_path)
        victim = store.live_segments()[1]
        path = store.segment_path(victim)
        with open(path, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            fh.write(b"\xff")
        report = fsck(store.root)
        assert not report.ok
        assert [name for name, _ in report.corrupted] == [victim]
        assert len(report.quarantined) == 1
        assert not os.path.exists(path)
        assert "DAMAGED" in report.summary()
        # second pass: the quarantined segment is now missing, not corrupt
        report = fsck(store.root)
        assert report.missing == [victim] and not report.corrupted

    def test_dry_run_reports_without_touching(self, tmp_path):
        store = self._populated(tmp_path)
        victim = store.live_segments()[0]
        path = store.segment_path(victim)
        with open(path, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            fh.write(b"\xff")
        report = fsck(store.root, repair=False)
        assert not report.ok and report.quarantined == []
        assert os.path.exists(path)

    def test_stale_tmp_reaped_live_tmp_kept(self, tmp_path):
        store = self._populated(tmp_path, seals=1)
        dead = str(tmp_path / "store" / f"seg-000009.seg{TMP_MARKER}999999999")
        live = str(
            tmp_path / "store" / f"seg-000008.seg{TMP_MARKER}{os.getpid()}"
        )
        for path in (dead, live):
            with open(path, "wb") as fh:
                fh.write(b"partial")
        report = fsck(store.root)
        assert report.ok
        assert report.tmp_reaped == [os.path.basename(dead)]
        assert not os.path.exists(dead)
        assert os.path.exists(live)  # its writer (us) is still alive

    def test_tmp_without_pid_suffix_kept(self, tmp_path):
        """Only ``<name>.tmp.<dead pid>`` is provably a dead seal."""
        store = self._populated(tmp_path, seals=1)
        strays = ["notes.tmp.bak", "seg-000009.seg.tmp.", "seg.tmp.12x"]
        for name in strays:
            with open(os.path.join(store.root, name), "wb") as fh:
                fh.write(b"not ours")
        report = fsck(store.root)
        assert report.ok and report.tmp_reaped == []
        for name in strays:
            assert os.path.exists(os.path.join(store.root, name))

    def test_quarantine_of_dead_process_kept(self, tmp_path):
        """Quarantined files stay as evidence whoever set them aside."""
        store = self._populated(tmp_path, seals=1)
        evidence = os.path.join(
            store.root, f"seg-000005.seg{QUARANTINE_MARKER}999999999"
        )
        with open(evidence, "wb") as fh:
            fh.write(b"damaged")
        assert fsck(store.root).ok
        assert os.path.exists(evidence)

    def test_unmanifested_segment_quarantined(self, tmp_path):
        """A seal that crashed before its manifest fsync never happened."""
        store = self._populated(tmp_path, seals=1)
        stray = store.segment_path("seg-000007.seg")
        write_segment(_store_from(_random_events(40)).snapshot(), stray)
        report = fsck(store.root)
        assert report.ok  # every *manifested* segment is fine
        assert report.unmanifested == ["seg-000007.seg"]
        assert not os.path.exists(stray)
        assert len(report.quarantined) == 1

    def test_superseded_leftover_reaped(self, tmp_path):
        """Compaction crashed after its manifest record, before the reap."""
        store = self._populated(tmp_path, seals=2)
        old = store.live_segments()
        store.compact()
        # resurrect one superseded file, as a crash-before-reap would leave
        write_segment(_store_from(_random_events(41)).snapshot(),
                      store.segment_path(old[0]))
        report = fsck(store.root)
        assert report.ok
        assert report.superseded_reaped == [old[0]]
        assert not os.path.exists(store.segment_path(old[0]))

    def test_torn_manifest_tail_repaired(self, tmp_path):
        store = self._populated(tmp_path, seals=2)
        with open(store.manifest.path, "a", encoding="utf-8") as fh:
            fh.write('{"op":"seal","na')
        report = fsck(store.root)
        assert report.manifest_torn and report.ok
        assert not fsck(store.root).manifest_torn  # tail was truncated

    def test_missing_store_dir(self, tmp_path):
        report = fsck(str(tmp_path / "void"))
        assert report.ok and report.checked == 0
