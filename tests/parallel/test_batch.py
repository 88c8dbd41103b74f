"""BatchRunner — grid evaluation with shared phase P1."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.obs.tracing import stitch_trace
from repro.parallel import BatchRunner, MotifConfig


def _keys(instances):
    return sorted(i.canonical_key() for i in instances)


def _grid(delta=10, phi=7):
    triangle = Motif.cycle(3, delta=delta, phi=phi)
    chain = Motif.chain(3, delta=delta, phi=phi)
    return [
        MotifConfig(triangle),
        MotifConfig(triangle, phi=0),
        MotifConfig(triangle, delta=5),
        MotifConfig(chain),
        MotifConfig(chain, phi=0),
    ]


def _real_valued_graph():
    """Decimal flows (0.1 + 0.2 != 0.3 in floating point) with tied
    timestamps on every pair."""
    return InteractionGraph.from_tuples([
        ("a", "b", 1.0, 0.1), ("a", "b", 1.0, 0.2), ("b", "c", 2.0, 0.3),
        ("b", "c", 3.0, 0.1), ("c", "a", 4.0, 0.2), ("c", "a", 4.0, 0.1),
        ("a", "b", 5.0, 0.3), ("b", "c", 5.0, 0.2), ("b", "c", 6.0, 0.1),
        ("c", "a", 7.0, 0.3), ("a", "b", 8.0, 0.1), ("b", "c", 8.0, 0.2),
    ])


def _real_valued_grid():
    # φ = 0.3 is reached both by a lone 0.3 event and by 0.1 + 0.2.
    triangle = Motif.cycle(3, delta=4, phi=0.3)
    chain = Motif.chain(3, delta=3, phi=0.3)
    return [
        MotifConfig(triangle),
        MotifConfig(triangle, phi=0.1),
        MotifConfig(triangle, delta=6, phi=0.2),
        MotifConfig(chain),
        MotifConfig(chain, phi=0.2),
        MotifConfig(chain, delta=1),
    ]


class TestSerialBatch:
    def test_results_align_with_serial_engine(self, fig2_graph):
        inputs = [
            (fig2_graph, _grid()),
            (_real_valued_graph(), _real_valued_grid()),
        ]
        for graph, configs in inputs:
            results = BatchRunner(graph, jobs=1).run(configs)
            assert len(results) == len(configs)
            engine = FlowMotifEngine(graph)
            for config, result in zip(configs, results):
                reference = engine.find_instances(
                    config.motif, delta=config.delta, phi=config.phi
                )
                assert result.count == reference.count
                assert _keys(result.instances) == _keys(reference.instances)
            assert any(r.count for r in results)

    def test_traced_run_emits_phase_spans(self, fig2_graph):
        """A one-shard batch runs the shard kernel, so its P1/P2 work is
        attributed under ``query.batch`` like a sharded run's."""
        with obs.observe() as observation:
            BatchRunner(fig2_graph, jobs=1).run(_grid())
        [root] = stitch_trace(observation.spans())
        assert root.span.name == "query.batch"
        names = set()
        pending = list(root.children)
        while pending:
            node = pending.pop()
            names.add(node.span.name)
            pending.extend(node.children)
        assert {"p1.match", "p2.enumerate"} <= names

    def test_p1_shared_per_topology_group(self, fig2_graph):
        runner = BatchRunner(fig2_graph, jobs=1)
        results = runner.run(_grid())
        assert runner.last_stats["num_configs"] == 5
        assert runner.last_stats["num_topology_groups"] == 2
        # P1 is charged once per group: exactly two results carry P1 time.
        charged = [r for r in results if r.p1_seconds > 0.0]
        assert len(charged) == 2

    def test_collect_false_keeps_counts(self, fig2_graph):
        runner = BatchRunner(fig2_graph, jobs=1)
        configs = _grid()
        lean = runner.run(configs, collect=False)
        full = runner.run(configs, collect=True)
        assert [r.count for r in lean] == [r.count for r in full]
        assert all(r.instances == [] for r in lean)

    def test_empty_grid(self, fig2_graph):
        runner = BatchRunner(fig2_graph, jobs=1)
        assert runner.run([]) == []
        assert runner.last_stats["num_configs"] == 0


class TestShardedBatch:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
    def test_matches_serial_batch(self, fig2_graph, jobs):
        configs = _grid()
        serial = BatchRunner(fig2_graph, jobs=1).run(configs)
        sharded = BatchRunner(fig2_graph, jobs=jobs, shards=3).run(configs)
        for a, b in zip(serial, sharded):
            assert a.count == b.count
            assert _keys(a.instances) == _keys(b.instances)

    def test_halo_covers_grid_maximum_delta(self, fig2_graph):
        # Mixed δ grid: the partition must use the largest δ as halo so
        # the wide-δ config stays exact.
        triangle = Motif.cycle(3, delta=10, phi=0)
        configs = [MotifConfig(triangle, delta=2), MotifConfig(triangle, delta=10)]
        serial = BatchRunner(fig2_graph, jobs=1).run(configs)
        sharded = BatchRunner(fig2_graph, jobs=1, shards=4).run(configs)
        for a, b in zip(serial, sharded):
            assert _keys(a.instances) == _keys(b.instances)


class TestConfigCoercion:
    def test_accepts_bare_motifs_and_tuples(self, fig2_graph):
        triangle = Motif.cycle(3, delta=10, phi=7)
        runner = BatchRunner(fig2_graph, jobs=1)
        results = runner.run([triangle, (triangle, 5), (triangle, 10, 0)])
        engine = FlowMotifEngine(fig2_graph)
        assert results[0].count == engine.find_instances(triangle).count
        assert results[1].count == engine.find_instances(triangle, delta=5).count
        assert results[2].count == engine.find_instances(triangle, phi=0).count

    def test_effective_constraints(self):
        motif = Motif.chain(3, delta=7, phi=3)
        assert MotifConfig(motif).effective_delta == 7
        assert MotifConfig(motif).effective_phi == 3
        assert MotifConfig(motif, delta=1, phi=0).effective_delta == 1
        assert MotifConfig(motif, delta=1, phi=0).effective_phi == 0

    def test_rejects_unknown_items(self, fig2_graph):
        with pytest.raises(TypeError):
            BatchRunner(fig2_graph).run(["M(3,3)"])

    def test_rejects_non_graph(self):
        with pytest.raises(TypeError):
            BatchRunner(42)


class TestRunnerConfigValidation:
    def test_invalid_backend_rejected(self, fig2_graph):
        with pytest.raises(ValueError, match="backend"):
            BatchRunner(fig2_graph, jobs=2, backend="proces")

    def test_serial_backend_rejected_in_favour_of_one_job(self, fig2_graph):
        with pytest.raises(ValueError, match="jobs=1"):
            BatchRunner(fig2_graph, jobs=2, backend="serial")

    def test_sharded_reports_wall_time(self, fig2_graph):
        runner = BatchRunner(fig2_graph, jobs=1, shards=3)
        results = runner.run(_grid())
        for result in results:
            assert result.shard_timings is not None
            assert result.shard_timings.wall_seconds > 0.0

    def test_serial_path_has_one_shard_report(self, fig2_graph):
        results = BatchRunner(fig2_graph, jobs=1).run(_grid())
        for result in results:
            assert result.shard_timings.num_shards == 1
            assert result.shard_timings.imbalance_ratio == 1.0


class TestInstanceMotifAttachment:
    def test_serial_group_members_carry_their_own_motif(self, fig2_graph):
        """Same-topology configs built from *distinct* Motif objects: each
        result's instances must report that config's motif, not the
        topology group's first motif (regression)."""
        wide = Motif.cycle(3, delta=10, phi=0)
        narrow = Motif.cycle(3, delta=8, phi=0)
        serial = BatchRunner(fig2_graph, jobs=1).run([wide, narrow])
        sharded = BatchRunner(fig2_graph, jobs=1, shards=3).run([wide, narrow])
        for results in (serial, sharded):
            assert all(i.motif is wide for i in results[0].instances)
            assert all(i.motif is narrow for i in results[1].instances)
