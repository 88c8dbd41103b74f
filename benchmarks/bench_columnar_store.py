"""Columnar store benchmark — fused DP kernels and zero-copy fan-out.

Quantifies two wins of the columnar store and the fused DP kernel and
writes them to ``BENCH_columnar.json``:

1. **DP kernels** (the ablation workload of ``bench_ablation_dp_method``,
   taken per window so the incumbent pruning cannot hide the kernel): the
   Eq. 2 recurrence over every maximal window of a dense synthetic match
   set, comparing the paper's ``quadratic`` method with the ``fused``
   two-pointer sweep — on both list-backed and columnar graphs.
   Acceptance: fused ≥ 2× over quadratic.
2. **Process fan-out**: bytes a worker spawn must deserialize — a
   :class:`~repro.parallel.worker.ShardTask` carrying the pickled shard
   slice versus one carrying only ``shm_name`` and the shard bounds —
   plus the one-off shared-memory export time and the
   worker-side attach + re-materialize time. Acceptance: payload ≥ 10×
   smaller.

Run directly to print the table and regenerate the JSON::

    PYTHONPATH=src python benchmarks/bench_columnar_store.py [--quick] [--out BENCH_columnar.json]

or through pytest for the regression assertions::

    PYTHONPATH=src python -m pytest benchmarks/bench_columnar_store.py -v

``--quick`` (also used by the CI smoke step) shrinks the workload to a
few seconds while still exercising every measured path.
"""

from __future__ import annotations

import pickle
import random
import time
from typing import Tuple

import pytest

import harness

from repro.core.dp import max_flow_in_window, top_one_instance
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.core.windows import iter_maximal_windows
from repro.graph.columnar import ColumnStore
from repro.graph.interaction import InteractionGraph
from repro.parallel import ParallelFlowMotifEngine
from repro.parallel.partition import materialize_shard, partition_time_range
from repro.parallel.worker import ShardTask

DP_METHODS = ("quadratic", "fused")


def _dense_graph(num_events: int, nodes: int = 4, horizon: float = 300.0):
    """Few nodes + many events → large τ per window (the DP-bound regime
    of Rocha & Blondel-scale interaction data)."""
    rng = random.Random(7)
    g = InteractionGraph()
    for _ in range(num_events):
        u, v = rng.sample(range(nodes), 2)
        g.add_interaction(u, v, rng.uniform(0.0, horizon), rng.uniform(0.5, 5.0))
    return g


def _fanout_graph(num_events: int, nodes: int = 15, horizon: float = 400.0):
    rng = random.Random(11)
    g = InteractionGraph()
    for _ in range(num_events):
        u, v = rng.sample(range(nodes), 2)
        g.add_interaction(f"n{u}", f"n{v}", rng.uniform(0.0, horizon), rng.uniform(0.5, 6.0))
    return g


def _dp_workload(quick: bool):
    """(series-backed match windows, columnar match windows, delta)."""
    # Quick mode keeps the event density (and therefore τ per window —
    # the regime the kernels differ in) by shrinking the horizon along
    # with the event count.
    g = _dense_graph(1500 if quick else 6000, horizon=75.0 if quick else 300.0)
    ts = g.to_time_series()
    delta = 40.0
    motif = Motif.chain(3, delta=delta, phi=0)
    matches = find_structural_matches(ts, motif)[: 3 if quick else 6]
    columnar = ColumnStore.from_graph(ts).to_graph()
    columnar_matches = find_structural_matches(columnar, motif)[: len(matches)]
    windows = [
        (m, w)
        for m in matches
        for w in iter_maximal_windows(m.series[0], m.series[-1], delta)
    ]
    columnar_windows = [
        (m, w)
        for m in columnar_matches
        for w in iter_maximal_windows(m.series[0], m.series[-1], delta)
    ]
    return windows, columnar_windows, delta, matches


def _time_dp(windows, method: str) -> Tuple[float, float]:
    start = time.perf_counter()
    checksum = 0.0
    for match, window in windows:
        checksum += max_flow_in_window(match.series, window, method=method)[0]
    elapsed = time.perf_counter() - start
    return elapsed, checksum


def run_dp_benchmark(quick: bool) -> dict:
    windows, columnar_windows, delta, matches = _dp_workload(quick)
    result: dict = {"num_windows": len(windows), "delta": delta}
    checksums = {}
    for backing, load in (("list", windows), ("columnar", columnar_windows)):
        seconds = {}
        for method in DP_METHODS:
            seconds[method], checksums[(backing, method)] = _time_dp(load, method)
        result[f"{backing}_seconds"] = seconds
    reference = checksums[("list", "quadratic")]
    for key, value in checksums.items():
        assert abs(value - reference) < 1e-6 * max(1.0, abs(reference)), key
    fused = min(
        result["list_seconds"]["fused"], result["columnar_seconds"]["fused"]
    )
    result["speedup_quadratic_over_fused"] = (
        result["list_seconds"]["quadratic"] / fused
    )
    # The match-level ablation entry point (incumbent pruning active).
    start = time.perf_counter()
    top = top_one_instance(matches, delta=delta, method="fused", reconstruct=False)
    result["top_one_fused_seconds"] = time.perf_counter() - start
    result["top_one_flow"] = top.flow
    return result


def run_fanout_benchmark(quick: bool) -> dict:
    g = _fanout_graph(1500 if quick else 6000)
    ts = g.to_time_series()
    delta, phi, shards = 40.0, 2.0, 4
    motif = Motif.chain(3, delta=delta, phi=phi)

    queries = ((motif, delta, phi),)
    pickled_shards = partition_time_range(ts, shards, delta)
    pickled_bytes = sum(
        len(pickle.dumps(ShardTask("search", s.bounds, queries, shard=s)))
        for s in pickled_shards
    )

    start = time.perf_counter()
    store = ColumnStore.from_graph(ts)
    shared = store.to_shared()
    export_seconds = time.perf_counter() - start
    try:
        light_shards = partition_time_range(ts, shards, delta, materialize=False)
        zero_copy_bytes = sum(
            len(
                pickle.dumps(
                    ShardTask(
                        "search", s.bounds, queries, shm_name=shared.shm_name,
                    )
                )
            )
            for s in light_shards
        )
        # Worker-side cost the payload saving buys: attach + re-slice.
        start = time.perf_counter()
        attached = ColumnStore.attach(shared.shm_name)
        attached_graph = attached.to_graph()
        attach_seconds = time.perf_counter() - start
        start = time.perf_counter()
        for s in light_shards:
            materialize_shard(attached_graph, s.bounds)
        materialize_seconds = time.perf_counter() - start
        del attached_graph  # release the series views pinning the mapping
        attached.close()
    finally:
        shared.close(unlink=True)

    # End-to-end sanity: zero-copy process run equals the serial count.
    with ParallelFlowMotifEngine(g, jobs=2, shards=shards, backend="process") as engine:
        parallel_count = engine.find_instances(motif, collect=False).count
    from repro.core.engine import FlowMotifEngine

    serial_count = FlowMotifEngine(g).find_instances(motif, collect=False).count
    assert parallel_count == serial_count

    return {
        "num_events": ts.num_events,
        "num_shards": shards,
        "pickled_payload_bytes": pickled_bytes,
        "zero_copy_payload_bytes": zero_copy_bytes,
        "payload_reduction": pickled_bytes / zero_copy_bytes,
        "shared_export_seconds": export_seconds,
        "attach_seconds": attach_seconds,
        "materialize_all_shards_seconds": materialize_seconds,
        "store_bytes": store.nbytes,
        "instances_found": parallel_count,
    }


def run_obs_benchmark(quick: bool) -> dict:
    """Observability overhead on the fused DP sweep: off vs on.

    "Off" is the shipped default — every kernel call site pays exactly one
    ``metrics.active()`` predicate. "On" additionally maintains live
    counters. The runs interleave so clock drift cancels; the reported
    counters double as a determinism check (windows_scanned must equal
    the workload's window count exactly).
    """
    from repro import obs

    windows, _columnar_windows, _delta, _matches = _dp_workload(quick)
    reps = 3
    off: list = []
    on: list = []
    snapshot: dict = {}
    for _ in range(reps):
        off.append(_time_dp(windows, "fused")[0])
        with obs.observe(trace=False) as observation:
            on.append(_time_dp(windows, "fused")[0])
        snapshot = observation.snapshot()
    off_seconds = min(off)
    on_seconds = min(on)
    return {
        "reps": reps,
        "num_windows": len(windows),
        "fused_off_seconds": off_seconds,
        "fused_on_seconds": on_seconds,
        "on_over_off": on_seconds / max(off_seconds, 1e-12),
        "counters": snapshot.get("counters", {}),
    }


def run_benchmark(quick: bool = False) -> dict:
    return harness.make_report(
        "bench_columnar_store",
        quick,
        {
            "dp": run_dp_benchmark(quick),
            "fanout": run_fanout_benchmark(quick),
            "metrics": run_obs_benchmark(quick),
        },
    )


# ----------------------------------------------------------------------
# pytest entry points (regression assertions; CI runs --quick via main)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def report():
    return run_benchmark(quick=True)


def test_dp_fused_at_least_2x_over_quadratic(report):
    """The ISSUE 3 acceptance bar: ≥2× on the DP ablation workload."""
    speedup = report["dp"]["speedup_quadratic_over_fused"]
    assert speedup >= 2.0, f"fused only {speedup:.2f}x over quadratic"


def test_fanout_payload_at_least_10x_smaller(report):
    """The ISSUE 3 acceptance bar: ≥10× smaller spawn payloads."""
    reduction = report["fanout"]["payload_reduction"]
    assert reduction >= 10.0, f"payload only {reduction:.1f}x smaller"


def test_obs_overhead_within_noise(report):
    """The ISSUE 7 smoke: metrics-off must be a genuine no-op.

    Even with counters *enabled* the fused sweep stays within noise of
    the disabled run (generous 1.5x bound for loaded CI machines); the
    disabled path does strictly less work than that — one predicate per
    kernel call — so its overhead is bounded by the same margin.
    """
    ratio = report["metrics"]["on_over_off"]
    assert ratio < 1.5, f"metrics-on fused sweep {ratio:.2f}x over off"


def test_obs_kernel_counters_deterministic(report):
    counters = report["metrics"]["counters"]
    assert (
        counters["p2.dp.windows_scanned"] == report["metrics"]["num_windows"]
    )
    assert counters["p2.dp.cells"] > 0
    assert counters["p2.dp.interval_sum_reuse"] > 0


def test_methods_agree(report):
    # run_dp_benchmark asserts checksum equality internally; reaching
    # here means quadratic and fused agreed on every window for both
    # list-backed and columnar graphs.
    assert report["dp"]["num_windows"] > 0


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced workload (seconds, used by the CI smoke step)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report JSON to this path",
    )
    args = parser.parse_args()
    report_dict = run_benchmark(quick=args.quick)

    dp = report_dict["dp"]
    print(f"DP kernel: {dp['num_windows']} windows, delta={dp['delta']:g}")
    for backing in ("list", "columnar"):
        row = dp[f"{backing}_seconds"]
        print(
            f"  {backing:9s} "
            + "  ".join(f"{m}={row[m]:.3f}s" for m in DP_METHODS)
        )
    print(
        f"  fused speedup: {dp['speedup_quadratic_over_fused']:.2f}x vs "
        f"quadratic"
    )
    fan = report_dict["fanout"]
    print(
        f"fan-out ({fan['num_events']} events, {fan['num_shards']} shards):\n"
        f"  payload {fan['pickled_payload_bytes']} B -> "
        f"{fan['zero_copy_payload_bytes']} B "
        f"({fan['payload_reduction']:.1f}x smaller)\n"
        f"  export {fan['shared_export_seconds']*1e3:.1f} ms, "
        f"attach {fan['attach_seconds']*1e3:.1f} ms, "
        f"re-slice all shards {fan['materialize_all_shards_seconds']*1e3:.1f} ms"
    )
    obs_report = report_dict["metrics"]
    print(
        f"metrics: fused sweep off={obs_report['fused_off_seconds']:.3f}s "
        f"on={obs_report['fused_on_seconds']:.3f}s "
        f"({(obs_report['on_over_off'] - 1) * 100:+.1f}% with counters live); "
        f"{obs_report['counters']['p2.dp.cells']:.0f} DP cells counted"
    )
    if args.out:
        harness.write_report(report_dict, args.out)
        print(f"[saved {args.out}]")


if __name__ == "__main__":
    main()
