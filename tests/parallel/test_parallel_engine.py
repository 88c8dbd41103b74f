"""ParallelFlowMotifEngine — equivalence with the serial engine and API."""

from __future__ import annotations

import gc
import os

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.instance import is_maximal, is_valid_instance
from repro.core.motif import Motif
from repro.parallel import BatchRunner, ParallelFlowMotifEngine
from repro.utils.timing import ShardTimingReport


def _keys(instances):
    return sorted(i.canonical_key() for i in instances)


def _kwargs_id(kwargs):
    return ",".join(f"{key}={value}" for key, value in kwargs.items())


class TestEquivalenceOnFixtures:
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_find_instances_matches_serial(self, fig2_graph, triangle, shards):
        serial = FlowMotifEngine(fig2_graph).find_instances(triangle)
        parallel = ParallelFlowMotifEngine(
            fig2_graph, jobs=1, shards=shards
        ).find_instances(triangle)
        assert parallel.count == serial.count
        assert _keys(parallel.instances) == _keys(serial.instances)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_delta_phi_overrides_match_serial(self, fig7_graph, shards):
        motif = Motif.cycle(3, delta=10, phi=0)
        serial = FlowMotifEngine(fig7_graph).find_instances(motif, delta=6, phi=2)
        parallel = ParallelFlowMotifEngine(
            fig7_graph, jobs=1, shards=shards
        ).find_instances(motif, delta=6, phi=2)
        assert _keys(parallel.instances) == _keys(serial.instances)

    def test_count_instances_matches_serial(self, fig2_graph, triangle_phi0):
        serial = FlowMotifEngine(fig2_graph).count_instances(triangle_phi0)
        parallel = ParallelFlowMotifEngine(
            fig2_graph, jobs=1, shards=3
        ).count_instances(triangle_phi0)
        assert parallel.count == serial.count
        assert parallel.instances == []

    def test_top_k_flows_match_serial(self, fig2_graph, triangle_phi0):
        serial = FlowMotifEngine(fig2_graph).top_k(triangle_phi0, 3)
        parallel = ParallelFlowMotifEngine(fig2_graph, jobs=1, shards=3).top_k(
            triangle_phi0, 3
        )
        assert [i.flow for i in parallel] == [i.flow for i in serial]

    def test_collect_false_counts_exactly(self, fig2_graph, triangle_phi0):
        serial = FlowMotifEngine(fig2_graph).find_instances(triangle_phi0)
        parallel = ParallelFlowMotifEngine(
            fig2_graph, jobs=1, shards=4
        ).find_instances(triangle_phi0, collect=False)
        assert parallel.count == serial.count
        assert parallel.instances == []


class TestRebinding:
    def test_instances_backed_by_parent_series(self, fig2_graph, triangle_phi0):
        ts = fig2_graph.to_time_series()
        result = ParallelFlowMotifEngine(
            fig2_graph, jobs=1, shards=4
        ).find_instances(triangle_phi0)
        assert result.count > 0
        for instance in result.instances:
            ok, reason = is_valid_instance(instance, ts)
            assert ok, reason
            assert is_maximal(instance)
            for run in instance.runs:
                assert ts.series(run.series.src, run.series.dst) is run.series


class TestHaloNecessity:
    """The regression case where a halo-free shard would emit a spurious,
    globally non-maximal instance (first-series element just across the
    shard boundary is addable to the first edge-set)."""

    def _graph_and_motif(self):
        from repro.graph.interaction import InteractionGraph

        graph = InteractionGraph.from_tuples(
            [("a", "b", 0.0, 3.0), ("a", "b", 4.0, 2.0), ("b", "c", 5.0, 1.0)]
        )
        return graph, Motif.chain(3, delta=6, phi=0)

    def test_serial_reference(self):
        graph, motif = self._graph_and_motif()
        result = FlowMotifEngine(graph).find_instances(motif)
        assert result.count == 1
        (instance,) = result.instances
        assert instance.start_time == 0.0  # anchored at the earliest event

    def test_sharded_search_suppresses_boundary_duplicate(self):
        graph, motif = self._graph_and_motif()
        engine = ParallelFlowMotifEngine(graph, jobs=1, shards=2)
        result = engine.find_instances(motif)
        serial = FlowMotifEngine(graph).find_instances(motif)
        assert _keys(result.instances) == _keys(serial.instances)

    def test_shards_contain_left_halo_events(self):
        graph, motif = self._graph_and_motif()
        engine = ParallelFlowMotifEngine(graph, jobs=1, shards=2)
        engine.find_instances(motif)  # an inline run slices the shards
        shards = engine.partition(motif.delta)
        last = shards[-1]
        if last.core_start > 0.0:  # the boundary split the series
            series = last.graph.series("a", "b")
            assert series is not None
            assert series.first_time < last.core_start


class TestBackendsAndConfig:
    def test_process_backend_matches_serial(self, fig2_graph, triangle_phi0):
        serial = FlowMotifEngine(fig2_graph).find_instances(triangle_phi0)
        parallel = ParallelFlowMotifEngine(
            fig2_graph, jobs=2, shards=2, backend="process"
        ).find_instances(triangle_phi0)
        assert _keys(parallel.instances) == _keys(serial.instances)

    def test_invalid_backend_rejected(self, fig2_graph):
        with pytest.raises(ValueError):
            ParallelFlowMotifEngine(fig2_graph, jobs=1, backend="gpu")

    def test_serial_backend_rejected_in_favour_of_one_job(self, fig2_graph):
        """An in-process run is ``jobs=1``; the error says so."""
        with pytest.raises(ValueError, match="jobs=1"):
            ParallelFlowMotifEngine(fig2_graph, jobs=2, backend="serial")

    def test_invalid_graph_rejected(self):
        with pytest.raises(TypeError):
            ParallelFlowMotifEngine(object(), jobs=1)

    def test_unknown_argument_raises_without_release_noise(
        self, fig2_graph, caplog
    ):
        """Removed inputs are rejected: an argument that does not bind
        (the cost model, the shared-memory switch) raises TypeError, the
        removed thread backend ValueError, and the half-built engine's
        finalizer logs nothing."""
        with caplog.at_level("DEBUG", logger="repro.parallel.engine"):
            with pytest.raises(TypeError):
                ParallelFlowMotifEngine(fig2_graph, jobs=1, cost_model=None)
            with pytest.raises(TypeError):
                ParallelFlowMotifEngine(
                    fig2_graph, jobs=2, use_shared_memory=False
                )
            with pytest.raises(ValueError, match="backend"):
                ParallelFlowMotifEngine(fig2_graph, jobs=2, backend="thread")
            gc.collect()
        assert caplog.records == []

    @pytest.mark.parametrize(
        "kwargs",
        [{"jobs": 0}, {"jobs": -3}, {"shards": 0}, {"shards": -1},
         {"jobs": -3, "shards": 0}],
        ids=_kwargs_id,
    )
    def test_out_of_range_jobs_or_shards_rejected(self, fig2_graph, kwargs):
        with pytest.raises(ValueError, match="at least 1"):
            ParallelFlowMotifEngine(fig2_graph, **kwargs)

    def test_none_keeps_the_defaults(self, fig2_graph):
        engine = ParallelFlowMotifEngine(fig2_graph, jobs=None, shards=None)
        assert engine.jobs == (os.cpu_count() or 1)
        assert engine.num_shards == engine.jobs
        engine = ParallelFlowMotifEngine(fig2_graph, jobs=3)
        assert engine.num_shards == 3

    @pytest.mark.parametrize(
        "kwargs", [{"jobs": 0}, {"shards": 0}], ids=_kwargs_id
    )
    def test_batch_runner_inherits_the_range_check(self, fig2_graph, kwargs):
        with pytest.raises(ValueError, match="at least 1"):
            BatchRunner(fig2_graph, **kwargs)

    def test_partition_is_memoized(self, fig2_graph):
        engine = ParallelFlowMotifEngine(fig2_graph, jobs=1, shards=2)
        first = engine.partition(10.0)
        assert engine.partition(10.0) is first
        engine.clear_cache()
        assert engine.partition(10.0) is not first


class TestShardTimings:
    def test_report_shape(self, fig2_graph, triangle_phi0):
        result = ParallelFlowMotifEngine(
            fig2_graph, jobs=1, shards=3
        ).find_instances(triangle_phi0)
        report = result.shard_timings
        assert isinstance(report, ShardTimingReport)
        assert report.num_shards == len(report.shards) > 0
        assert report.max_seconds <= report.sum_seconds + 1e-12
        assert report.imbalance_ratio >= 1.0
        assert report.wall_seconds >= 0.0
        summary = report.summary()
        assert set(summary) == {
            "num_shards",
            "wall_seconds",
            "max_seconds",
            "sum_seconds",
            "mean_seconds",
            "imbalance_ratio",
        }
        assert sum(s.num_instances for s in report.shards) == result.count

    def test_serial_engine_has_no_report(self, fig2_engine, triangle_phi0):
        assert fig2_engine.find_instances(triangle_phi0).shard_timings is None


class TestPartitionCacheBound:
    def test_lru_keeps_recent_partitions_only(self, fig2_graph):
        from repro.parallel.engine import _PARTITION_CACHE_SIZE

        engine = ParallelFlowMotifEngine(fig2_graph, jobs=1, shards=2)
        for halo in (1.0, 2.0, 3.0, 4.0):
            engine.partition(halo)
        assert len(engine._partition_cache) == _PARTITION_CACHE_SIZE
        recent = engine.partition(4.0)
        assert engine.partition(4.0) is recent  # still memoized
