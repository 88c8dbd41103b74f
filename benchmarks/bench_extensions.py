"""Benchmarks for the beyond-paper extensions.

* streaming detection throughput (replay + poll cadence);
* DAG (fork/join) motif search;
* per-match activity analysis.

These have no paper counterpart; they bound the cost of the extension
features so regressions are visible.
"""

from __future__ import annotations

import pytest

from repro.analysis import rank_matches_by_activity
from repro.core.dag import GeneralMotif
from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif, paper_motifs
from repro.core.streaming import StreamingDetector


@pytest.mark.parametrize("dataset", ["Bitcoin", "Facebook"])
def test_streaming_replay(benchmark, datasets, dataset):
    graph, delta, phi = datasets[dataset]
    stream = sorted(graph.interactions(), key=lambda it: it.time)
    motif = paper_motifs(delta, phi)["M(3,3)"]

    def replay():
        detector = StreamingDetector(motif)
        emitted = 0
        for i, it in enumerate(stream):
            detector.add(it.src, it.dst, it.time, it.flow)
            if i % 400 == 0 and i:
                emitted += len(detector.poll())
        return emitted + len(detector.flush())

    count = benchmark(replay)
    assert count >= 0


@pytest.mark.parametrize("dataset", ["Bitcoin", "Facebook"])
def test_dag_fork_join_search(benchmark, datasets, dataset):
    graph, delta, phi = datasets[dataset]
    ts = graph.to_time_series()
    motif = GeneralMotif(
        [("u", "v"), ("u", "w"), ("v", "x"), ("w", "x")], delta=delta, phi=phi
    )

    def search():
        # A fresh engine per round, so every round pays phase P1.
        return FlowMotifEngine(ts).find_instances(motif).instances

    instances = benchmark(search)
    assert isinstance(instances, list)


@pytest.mark.parametrize("dataset", ["Passenger"])
def test_activity_ranking(benchmark, engines, datasets, dataset):
    _, delta, phi = datasets[dataset]
    engine = engines[dataset]
    motif = paper_motifs(delta, phi)["M(3,2)"]
    instances = engine.find_instances(motif).instances

    profiles = benchmark(rank_matches_by_activity, instances, "total_flow", 10)
    assert len(profiles) <= 10
