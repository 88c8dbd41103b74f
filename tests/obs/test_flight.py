"""Flight recorder: ring semantics, bundle format, and fault wiring.

The recorder must never interfere with the run it is documenting: dumps
swallow I/O errors, installation is a single predicate on the hot path,
and the ring is bounded. The integration test arms a real injected
fault and asserts the retry path leaves a diagnostic bundle behind.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro import obs
from repro.obs import flight, tracing
from repro.obs.flight import FlightRecorder


@pytest.fixture(autouse=True)
def _clean_install():
    """Every test starts and ends with flight recording disarmed."""
    flight.uninstall()
    yield
    flight.uninstall()


def _read_bundle(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TestRing:
    def test_capacity_bounds_the_ring(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.note("tick", i=i)
        records = recorder.records()
        assert len(records) == 4
        assert [r["i"] for r in records] == [6, 7, 8, 9]

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(max_bundles=0)

    def test_note_fault_shape(self):
        recorder = FlightRecorder()
        recorder.note_fault(
            "crash", "boom", shard_index=3, backend="process", attempt=1
        )
        (record,) = recorder.records()
        assert record["kind"] == "fault"
        assert record["category"] == "crash"
        assert record["shard_index"] == 3
        assert "ts" in record


class TestBundles:
    def test_dump_writes_header_and_records(self, tmp_path):
        recorder = FlightRecorder(bundle_dir=str(tmp_path))
        recorder.note("tick", i=1)
        recorder.note_fault("timeout", "shard 2 stalled", shard_index=2)
        path = recorder.dump("shard-retry")
        assert path is not None
        assert os.path.basename(path).startswith(f"flight-{os.getpid()}-")
        assert path.endswith("-shard-retry.jsonl")
        lines = _read_bundle(path)
        assert lines[0]["kind"] == "flight-header"
        assert lines[0]["reason"] == "shard-retry"
        assert lines[0]["num_records"] == 2
        assert [r["kind"] for r in lines[1:]] == ["tick", "fault"]

    def test_dump_reason_is_sanitized(self, tmp_path):
        recorder = FlightRecorder(bundle_dir=str(tmp_path))
        path = recorder.dump("shard retry/0!")
        assert os.path.basename(path) == os.path.basename(path).replace(
            "/", "-"
        )
        assert " " not in os.path.basename(path)

    def test_dump_appends_active_metrics_snapshot(self, tmp_path):
        recorder = FlightRecorder(bundle_dir=str(tmp_path))
        recorder.note("tick")
        with obs.observe(trace=False) as observation:
            observation.registry.counter("stream.events").inc(7)
            path = recorder.dump("probe")
        lines = _read_bundle(path)
        assert lines[-1]["kind"] == "metrics"
        assert lines[-1]["snapshot"]["counters"]["stream.events"] == 7

    def test_old_bundles_trimmed(self, tmp_path):
        recorder = FlightRecorder(bundle_dir=str(tmp_path), max_bundles=2)
        paths = [recorder.dump(f"r{i}") for i in range(4)]
        assert len(recorder.bundles) == 2
        assert not os.path.exists(paths[0])
        assert not os.path.exists(paths[1])
        assert os.path.exists(paths[2]) and os.path.exists(paths[3])

    def test_dump_never_raises_on_bad_directory(self):
        recorder = FlightRecorder(
            bundle_dir="/proc/definitely/not/writable"
        )
        recorder.note("tick")
        assert recorder.dump("oops") is None
        assert recorder.bundles == []


class TestInstallation:
    def test_off_by_default(self):
        assert flight.installed() is None

    def test_install_is_idempotent(self, tmp_path):
        first = flight.install(bundle_dir=str(tmp_path))
        second = flight.install(bundle_dir="/elsewhere")
        assert first is second
        assert flight.installed() is first

    def test_span_hook_feeds_the_ring(self, tmp_path):
        recorder = flight.install(bundle_dir=str(tmp_path))
        with obs.observe():
            with tracing.span("p2.enumerate", shard=1):
                pass
        spans = [r for r in recorder.records() if r["kind"] == "span"]
        assert len(spans) == 1
        assert spans[0]["span"]["name"] == "p2.enumerate"

    def test_uninstall_disarms_hook(self, tmp_path):
        recorder = flight.install(bundle_dir=str(tmp_path))
        flight.uninstall()
        with obs.observe():
            with tracing.span("p1.match"):
                pass
        assert flight.installed() is None
        assert recorder.records() == []

    def test_env_var_installs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(flight.ENV_VAR, str(tmp_path))
        recorder = flight.maybe_install_from_env()
        assert recorder is not None
        assert recorder.bundle_dir == str(tmp_path)
        assert flight.installed() is recorder

    def test_env_var_unset_is_noop(self, monkeypatch):
        monkeypatch.delenv(flight.ENV_VAR, raising=False)
        assert flight.maybe_install_from_env() is None


class TestFaultIntegration:
    def test_shard_retry_dumps_a_bundle(self, tmp_path):
        """An injected shard fault must leave a shard-retry bundle with
        the fault context while the run still completes correctly."""
        from repro.core.engine import FlowMotifEngine
        from repro.core.motif import Motif
        from repro.graph.interaction import InteractionGraph
        from repro.parallel import ParallelFlowMotifEngine
        from repro.resilience import faultinject as fi

        rng = random.Random(11)
        g = InteractionGraph()
        nodes = [f"n{i}" for i in range(8)]
        for _ in range(400):
            u, v = rng.sample(nodes, 2)
            g.add_interaction(u, v, rng.uniform(0, 60.0), rng.uniform(0.5, 4))
        motif = Motif.chain(3, delta=6.0, phi=0.0)
        expected = FlowMotifEngine(g).find_instances(motif, collect=False).count

        flight.install(bundle_dir=str(tmp_path))
        with fi.inject(
            fi.FaultSpec("raise", shards=(0,), times=1, only_workers=False)
        ):
            with ParallelFlowMotifEngine(
                g, jobs=2, shards=4, backend="process"
            ) as engine:
                count = engine.find_instances(motif, collect=False).count
        assert count == expected

        bundles = [
            name
            for name in os.listdir(str(tmp_path))
            if name.startswith("flight-") and "shard-retry" in name
        ]
        assert bundles, "no shard-retry bundle written"
        lines = _read_bundle(os.path.join(str(tmp_path), bundles[0]))
        kinds = {line["kind"] for line in lines}
        assert "flight-header" in kinds
        assert "fault" in kinds
