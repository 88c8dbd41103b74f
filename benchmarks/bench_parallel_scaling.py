"""Parallel scaling — δ-overlap sharded search vs. the serial engine.

Measures wall-clock speedup of :class:`repro.parallel.
ParallelFlowMotifEngine` (process backend) over the serial
:class:`~repro.core.engine.FlowMotifEngine` on a synthetic Bitcoin-like
graph large enough to amortize pool startup, and charts parallel
efficiency from the per-shard :class:`~repro.utils.timing.
ShardTimingReport` (critical path, work sum, imbalance ratio).

Run directly for a speedup table::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [--scale 16]

or through pytest (the >1.5× assertion is skipped on single-core hosts,
where process parallelism cannot pay for itself)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_scaling.py -v
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import paper_motifs
from repro.datasets.synthetic import DATASET_GENERATORS
from repro.parallel import ParallelFlowMotifEngine

#: Dataset multiplier: ~30k edges, ~0.7 s serial — enough to amortize a
#: 4-worker pool start while keeping the benchmark laptop-friendly.
SCALE = float(os.environ.get("BENCH_PARALLEL_SCALE", "16"))
JOB_COUNTS = [1, 2, 4]


def _build():
    generator, delta, phi = DATASET_GENERATORS["Bitcoin"]
    graph = generator(scale=SCALE, seed=0)
    motif = paper_motifs(delta, phi)["M(3,2)"]
    return graph, motif


def _timed_serial(graph, motif):
    # Default two-phase configuration: the temporally pruned P1 the
    # parallel engine's shard kernel also runs, then Algorithm 1.
    engine = FlowMotifEngine(graph)
    start = time.perf_counter()
    result = engine.find_instances(motif, collect=False)
    return result, time.perf_counter() - start


def _timed_parallel(graph, motif, jobs):
    with ParallelFlowMotifEngine(
        graph, jobs=jobs, shards=jobs, backend="process"
    ) as engine:
        start = time.perf_counter()
        result = engine.find_instances(motif, collect=False)
        return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def workload():
    return _build()


def test_parallel_count_matches_serial(workload):
    graph, motif = workload
    serial, _ = _timed_serial(graph, motif)
    parallel, _ = _timed_parallel(graph, motif, jobs=2)
    assert parallel.count == serial.count


def test_shard_report_covers_all_shards(workload):
    graph, motif = workload
    parallel, _ = _timed_parallel(graph, motif, jobs=4)
    report = parallel.shard_timings
    assert report.num_shards == 4
    assert report.imbalance_ratio >= 1.0
    assert 0.0 < report.max_seconds <= report.sum_seconds


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="process-pool speedup needs more than one CPU core",
)
def test_speedup_at_jobs_4(workload):
    """The ISSUE acceptance bar: >1.5× wall-clock speedup at jobs=4."""
    graph, motif = workload
    _, serial_seconds = _timed_serial(graph, motif)
    best = min(_timed_parallel(graph, motif, jobs=4)[1] for _ in range(2))
    assert serial_seconds / best > 1.5, (
        f"speedup {serial_seconds / best:.2f}x "
        f"(serial {serial_seconds:.3f}s, jobs=4 {best:.3f}s)"
    )


def main() -> None:
    """Print the scaling table (serial baseline, then each job count)."""
    import argparse

    global SCALE
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=SCALE)
    args = parser.parse_args()
    SCALE = args.scale
    graph, motif = _build()
    print(
        f"graph: {graph.num_edges} edges, motif {motif.display_name}, "
        f"{os.cpu_count()} cores"
    )
    serial, serial_seconds = _timed_serial(graph, motif)
    print(
        f"serial         {serial_seconds:8.3f}s  "
        f"({serial.count} instances)"
    )
    for jobs in JOB_COUNTS:
        result, seconds = _timed_parallel(graph, motif, jobs)
        report = result.shard_timings
        print(
            f"jobs={jobs} shards={jobs}  {seconds:8.3f}s  "
            f"speedup {serial_seconds / seconds:5.2f}x  "
            f"critical-path {report.max_seconds:6.3f}s  "
            f"work {report.sum_seconds:6.3f}s  "
            f"imbalance {report.imbalance_ratio:4.2f}"
        )
        assert result.count == serial.count, "parallel/serial count mismatch"


if __name__ == "__main__":
    main()
