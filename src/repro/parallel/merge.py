"""Merging shard outputs back into engine-level results.

The merger performs two jobs:

1. **Rebinding** — shard workers return instances as shard-local
   ``(vertex_map, (lo, hi) per edge)`` records; rebinding maps the index
   ranges onto the parent graph's own :class:`EdgeSeries` via the slice
   offsets recorded at partition time, so merged instances are
   indistinguishable from serially-found ones (``is_valid_instance`` and
   ``is_maximal`` hold against the parent graph).
2. **Aggregation** — per-shard match counts and P1/P2 timings are summed
   into the merged :class:`~repro.core.engine.SearchResult` and kept
   individually in its :class:`~repro.utils.timing.ShardTimingReport`.

The anchored-ownership rule gives every instance exactly one owning
shard, so shard outputs are disjoint and the merge only concatenates
them: shards in index order, each in its own enumeration order. That
order does not depend on scheduling or job count, and with one shard it
is exactly the serial engine's list.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.engine import SearchResult
from repro.core.instance import MotifInstance, Run
from repro.core.motif import Motif
from repro.graph.timeseries import TimeSeriesGraph
from repro.obs import flight as _flight
from repro.obs import metrics as _metrics
from repro.parallel.partition import TimeShard
from repro.parallel.worker import InstanceRecord, ShardSearchOutput
from repro.utils.timing import ShardTiming, ShardTimingReport


def rebind_record(
    record: InstanceRecord,
    motif: Motif,
    shard: TimeShard,
    parent: TimeSeriesGraph,
) -> MotifInstance:
    """Rebind one shard-local record onto the parent graph's series."""
    vertex_map, ranges = record
    runs: List[Run] = []
    for edge_index, (lo, hi) in enumerate(ranges):
        m_src, m_dst = motif.edge(edge_index)
        pair = (vertex_map[m_src], vertex_map[m_dst])
        series = parent.series(*pair)
        if series is None:
            raise ValueError(
                f"shard {shard.index} produced an instance on pair {pair} "
                "absent from the parent graph"
            )
        offset = shard.offsets[pair]
        runs.append(Run(series, lo + offset, hi + offset))
    return MotifInstance(motif, vertex_map, runs)


def _rebind_in_shard_order(
    motif: Motif,
    shards: Sequence[TimeShard],
    outputs: Sequence[ShardSearchOutput],
    parent: TimeSeriesGraph,
) -> List[MotifInstance]:
    """Every record rebound onto ``parent``: shards in index order, each
    in its own enumeration order. Ownership makes the shards' outputs
    disjoint, so nothing is dropped and nothing re-sorted."""
    by_index: Dict[int, TimeShard] = {s.index: s for s in shards}
    return [
        rebind_record(record, motif, by_index[output.shard_index], parent)
        for output in sorted(outputs, key=lambda o: o.shard_index)
        for record in output.records
    ]


def merge_search_results(
    motif: Motif,
    shards: Sequence[TimeShard],
    outputs: Sequence[ShardSearchOutput],
    parent: TimeSeriesGraph,
    wall_seconds: float = 0.0,
) -> SearchResult:
    """Combine per-shard outputs into one :class:`SearchResult`.

    Parameters
    ----------
    motif:
        The searched motif (becomes the merged result's motif).
    shards:
        The partition the outputs were produced from (indexable by
        ``output.shard_index``).
    outputs:
        One :class:`ShardSearchOutput` per shard, any order.
    parent:
        The unsharded time-series graph instances are rebound onto.
    wall_seconds:
        Elapsed fan-out/merge time measured by the caller, recorded on the
        timing report.
    """
    result = SearchResult(motif=motif)
    result.instances = _rebind_in_shard_order(motif, shards, outputs, parent)
    timings: List[ShardTiming] = []
    for output in sorted(outputs, key=lambda o: o.shard_index):
        result.count += output.count
        result.num_matches += output.num_matches
        result.p1_seconds += output.p1_seconds
        result.p2_seconds += output.p2_seconds
        timings.append(
            ShardTiming(
                shard_index=output.shard_index,
                p1_seconds=output.p1_seconds,
                p2_seconds=output.p2_seconds,
                num_matches=output.num_matches,
                num_instances=output.count,
            )
        )
    result.shard_timings = ShardTimingReport(
        shards=timings, wall_seconds=wall_seconds
    )
    reg = _metrics.active()
    if reg is not None:
        reg.counter("p1.matches").inc(result.num_matches)
        reg.counter("p2.instances").inc(result.count)
        reg.gauge("parallel.shard_imbalance_ratio").set(
            result.shard_timings.imbalance_ratio
        )
        reg.gauge("parallel.num_shards").set(len(timings))
    recorder = _flight.installed()
    if recorder is not None:
        # A merge summary in the ring buffer gives post-mortem bundles
        # the last-known-good shape of the computation.
        recorder.note(
            "merge",
            num_shards=len(timings),
            num_matches=result.num_matches,
            num_instances=result.count,
            imbalance_ratio=result.shard_timings.imbalance_ratio,
        )
    return result


def merge_top_k(
    motif: Motif,
    shards: Sequence[TimeShard],
    outputs: Sequence[ShardSearchOutput],
    parent: TimeSeriesGraph,
    k: int,
) -> List[MotifInstance]:
    """Re-rank per-shard top-k candidate lists into the global top-k.

    Correctness: each globally top-k instance is owned by exactly one
    shard and therefore appears in that shard's local top-k candidates,
    so the union of candidates contains the global answer. The sort on
    flow is stable, so ties keep the shard-major merge order, which may
    differ from the serial engine's tie-break — the returned *flows*
    always agree.
    """
    candidates = _rebind_in_shard_order(motif, shards, outputs, parent)
    candidates.sort(key=lambda inst: -inst.flow)
    return candidates[:k]
