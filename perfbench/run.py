"""End-to-end benchmark of the flow-motif library.

Run from the repository root (no build step; the library is imported from
``src/``)::

    python3 perfbench/run.py --workload query-sparse --seed 0 --seconds 55 --trace 0

``--workload`` is ``query-sparse`` or ``query-dense`` (see
``workloads.py`` for what each stresses). The run builds its dataset from
``--seed`` several times (``setup_s`` is the median), then repeats whole
passes over every operation, closed loop with one client, until the next
pass would end after ``--seconds``. Every
result is checked against the serial engine or the offline search; a
wrong result counts as a failed operation.

``--trace 0`` reports the end-to-end metrics (medians over passes; stream
batch latencies pooled over every batch of every pass). Their times are in
seconds of an idle machine: what runs in this process is timed by its CPU
clock and the sharded phases by the wall clock, a fixed pure-Python speed
probe runs before each set-up and around each timed phase, and the
seconds of the set-ups and of each pass are divided by how much slower
than on an idle machine the probe ran meanwhile on the same clock
(``probe.py``), so that the load other tenants put on a shared host does
not show as a change of the library. The environment line reports the
median slowdown by each clock. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (medians over traced
passes, not divided by any slowdown) plus ``obs.trace_overhead``; the
spans of the last traced pass are written to ``.perfbench/``.

Standard output ends with two JSON lines: the environment (core count,
Python, git revision, seed, dataset size) and the result, whose keys are
``correct``, ``attempted``, ``failed`` and ``metrics``. A run that cannot
import the library, or is stopped by a signal, prints no result and exits
non-zero.

Seed 0 is the development seed. Claims of a gain must also hold on the
held-out seed :data:`HELD_OUT_SEED`, never used while tuning.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import lifecycle  # noqa: E402

HELD_OUT_SEED = 1009
SETUP_REPEATS = 9
#: A run that is still going after this many seconds aborts itself.
DEADLINE_S = 170

#: Metric names and units, as declared in the benchmark's manifest.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Untraced passes a timed run always makes, whatever ``--seconds`` says:
#: the per-operation medians need three samples to drop a stall.
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny datasets, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def measure(args, workloads):
    """Set up, run passes for ``args.seconds``, and summarize."""
    workload = workloads.WORKLOADS[args.workload]
    ctx, setups = workloads.setup(
        workload, args.seed, args.smoke, SETUP_REPEATS
    )
    checks = workloads.Checks()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(plain) > len(traced)
        print(
            f"perfbench: pass {len(plain) + len(traced) + 1} "
            f"({'traced' if tracing else 'untraced'})",
            file=sys.stderr,
            flush=True,
        )
        t0 = time.perf_counter()
        try:
            out = workloads.run_pass(ctx, checks, traced=tracing)
            if tracing:
                layers = workloads.layer_metrics(ctx, out)
                layers.update(workloads.pipeline_metrics(ctx, checks))
                traced.append((out, layers))
            else:
                plain.append(out)
        except Exception:
            traceback.print_exc()
            checks.check(False, "a pass raised")
            break
        pass_s = time.perf_counter() - t0
        print(
            f"perfbench: pass took {pass_s:.2f} s, slowdown wall "
            f"{out['slowdown']['wall']:.2f} cpu {out['slowdown']['cpu']:.2f} ("
            + ", ".join(
                f"{phase}={sum(map(sum, out['ops'][phase].values())):.3f}"
                for phase in workloads.TIMED_PHASES
            )
            + ")",
            file=sys.stderr,
            flush=True,
        )
        done = (
            len(traced) >= 1 if args.trace else len(plain) >= MIN_PASSES
        )
        if done and time.perf_counter() - start + pass_s > args.seconds:
            break
    if not plain or (args.trace and not traced):
        return None, ctx, checks

    if args.trace:
        values = {
            name: statistics.median([layers[name] for _, layers in traced])
            for name in traced[0][1]
        }
        values["graph.generate_s"] = statistics.median([g for g, _, _ in setups])
        values["graph.to_time_series_s"] = statistics.median(
            [t for _, t, _ in setups]
        )
        values["obs.trace_overhead"] = statistics.median(
            [out["wall_s"] for out, _ in traced]
        ) / statistics.median([out["wall_s"] for out in plain])
        units = PER_LAYER
        _write_spans(args, traced[-1][0])
    else:
        values = {
            phase: workloads.phase_seconds(plain, phase)
            for phase in workloads.TIMED_PHASES
        }
        values["stream_events_per_s"] = workloads.stream_rate(plain)
        latencies = workloads.stream_batch_latencies(plain)
        values["setup_s"] = statistics.median(
            [g + t for g, t, _ in setups]
        ) / statistics.fmean([s for _, _, s in setups])
        values["stream_batch_p50_ms"] = 1e3 * workloads.percentile(latencies, 0.50)
        values["stream_batch_p99_ms"] = 1e3 * workloads.percentile(latencies, 0.99)
        values["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "dataset": workload.dataset,
        "scale": workload.smoke_scale if args.smoke else workload.scale,
        "events": ctx.ts.num_events,
        "series": ctx.ts.num_series,
        "stream_events": len(ctx.stream_events),
        "delta": workload.delta,
        "phi": workload.phi,
        "jobs": workloads.JOBS,
        "shards": workloads.SHARDS,
        "passes": len(plain) + len(traced),
        "traced_passes": len(traced),
        "slowdown": {
            clock: statistics.median(out["slowdown"][clock] for out in plain)
            for clock in ("wall", "cpu")
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(ROOT),
    }
    return {"env": env, "metrics": metrics}, ctx, checks


def _write_spans(args, out) -> None:
    """Keep the last traced pass's spans for inspection (JSON lines)."""
    directory = Path.cwd() / ".perfbench"
    directory.mkdir(exist_ok=True)
    path = directory / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as fh:
        for phase, observation in out["phases"].observations.items():
            for span in observation.spans():
                fh.write(json.dumps({"phase": phase, **span}, default=str) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    lifecycle.install(DEADLINE_S)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        # Measure the checkout's own library, never an installed copy.
        print(f"perfbench: no library source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    try:
        import workloads
        from repro.resilience import shm_registry
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        report, ctx, checks = measure(args, workloads)
    finally:
        terminated = lifecycle.finish()
    checks.check(terminated == 0, "every pool worker exits by itself")
    leaked = shm_registry.active_segments()
    checks.check(not leaked, f"shared-memory exports unlinked ({leaked})")
    for problem in checks.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if report is None:
        print("perfbench: no complete pass; no result", file=sys.stderr)
        return 1
    print(json.dumps({"env": report["env"]}))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
