"""Command-line interface.

Regenerate any table/figure of the paper::

    flow-motifs table4
    flow-motifs fig9 --datasets Bitcoin --motifs "M(3,2)" "M(3,3)"
    flow-motifs all --scale 0.5 --out results/

Or search motifs in your own edge list (CSV/TSV with src,dst,time,flow)::

    flow-motifs find edges.csv --motif "M(3,3)" --delta 600 --phi 5 --top 10

Large edge lists can be searched in parallel over δ-overlap time shards
(``.csv.gz`` inputs are decompressed transparently)::

    flow-motifs find edges.csv.gz --motif "M(3,2)" --delta 600 --jobs 4

Or watch a live, time-ordered stream with the incremental online detector
(instances print as JSON lines the moment their window closes)::

    flow-motifs stream live.csv --follow --motif "M(3,3)" --delta 600 --phi 5
    tail -F live.csv | flow-motifs stream - --motif "M(3,2)" --delta 600
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
from typing import List, Optional

from repro.core.engine import FlowMotifEngine
from repro.core.motif import PAPER_MOTIF_PATHS, Motif
from repro.experiments import EXPERIMENTS
from repro.experiments.report import render, save_result
from repro.graph import io as graph_io


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_profile_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "sample the run with the built-in wall-clock profiler and "
            "print span-attributed hot frames to stderr"
        ),
    )
    parser.add_argument(
        "--profile-hz", type=float, default=97.0, dest="profile_hz",
        help="profiler sampling rate (default 97 Hz)",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH", dest="profile_out",
        help=(
            "write collapsed stacks ('span;frame;... count' lines — "
            "flamegraph.pl / speedscope input) to PATH"
        ),
    )


def _add_experiment_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset size multiplier (default 1.0)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    parser.add_argument(
        "--datasets", nargs="+", default=None,
        choices=["Bitcoin", "Facebook", "Passenger"],
        help="restrict to these datasets",
    )
    parser.add_argument(
        "--motifs", nargs="+", default=None,
        metavar="MOTIF",
        help=f"restrict to these motifs (choices: {', '.join(PAPER_MOTIF_PATHS)})",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write the result JSON into this directory",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="render tables as markdown"
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="additionally render series as terminal bar charts",
    )


def _run_experiments(args: argparse.Namespace, names: List[str]) -> int:
    for name in names:
        runner = EXPERIMENTS[name]
        kwargs = {"scale": args.scale, "seed": args.seed}
        if args.datasets is not None:
            kwargs["datasets"] = args.datasets
        if name not in ("table3",) and args.motifs is not None:
            kwargs["motifs"] = args.motifs
        if name == "fig14" and args.num_random is not None:
            kwargs["num_random"] = args.num_random
        result = runner(**kwargs)
        print(render(result, markdown=args.markdown))
        if args.chart:
            from repro.utils.charts import series_chart

            for series in result.get("series", ()):
                print(series_chart(
                    series["x"], series["lines"],
                    title=series.get("title") or result["name"],
                ))
                print()
        if args.out:
            path = save_result(result, args.out)
            print(f"[saved {path}]\n")
    return 0


def _cmd_find(args: argparse.Namespace) -> int:
    if (args.edges is None) == (args.store is None):
        print(
            "error: pass exactly one input — an edge-list file or "
            "--store DIR",
            file=sys.stderr,
        )
        return 2
    if args.store is not None:
        from repro.graph.segments import SegmentCorruptionError, SegmentStore

        try:
            graph = SegmentStore(
                args.store, create=False
            ).search_graph()
        except (FileNotFoundError, SegmentCorruptionError) as exc:
            print(f"error: cannot open store: {exc}", file=sys.stderr)
            return 2
    else:
        graph = graph_io.read_csv(args.edges, on_error=args.on_error)
    try:
        motif = Motif.from_string(args.motif, args.delta, args.phi)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.jobs > 1 or args.shards:
        from repro.parallel import ParallelFlowMotifEngine

        engine = ParallelFlowMotifEngine(
            graph,
            jobs=args.jobs,
            shards=args.shards,
        )
    else:
        engine = FlowMotifEngine(graph)
    observation = None
    profiling = bool(args.profile or args.profile_out)
    if args.trace or args.metrics_out or profiling:
        from repro import obs as _obs

        observation = _obs.observe(
            trace=True, profile=profiling, profile_hz=args.profile_hz
        )
        observation.__enter__()
    try:
        if args.top:
            instances = engine.top_k(motif, args.top)
            print(f"top {len(instances)} instances of {motif.display_name}:")
        else:
            result = engine.find_instances(motif)
            instances = result.instances
            print(
                f"{result.count} instances of {motif.display_name} "
                f"({result.num_matches} temporally feasible structural matches, "
                f"{result.total_seconds:.3f}s)"
            )
            if result.shard_timings is not None:
                report = result.shard_timings
                print(
                    f"[{report.num_shards} shards, wall {report.wall_seconds:.3f}s, "
                    f"critical path {report.max_seconds:.3f}s, "
                    f"imbalance {report.imbalance_ratio:.2f}]"
                )
    finally:
        if observation is not None:
            observation.__exit__(None, None, None)
        # Parallel engines may own a shared-memory export; unlink it
        # deterministically rather than relying on interpreter shutdown.
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    if observation is not None:
        if args.trace:
            print(observation.render_trace(), file=sys.stderr)
            print(observation.render_text(), file=sys.stderr)
        profile_report = observation.profile()
        if args.profile and profile_report is not None:
            print(observation.render_profile(), file=sys.stderr)
        if args.profile_out and profile_report is not None:
            profile_report.write_collapsed(args.profile_out)
            print(
                f"[collapsed stacks written to {args.profile_out}]",
                file=sys.stderr,
            )
        if args.metrics_out:
            observation.write_jsonl(args.metrics_out)
            print(
                f"[observability written to {args.metrics_out}]",
                file=sys.stderr,
            )
    if not args.top:
        # Engines return instances in different orders (a sharded run is
        # shard-major): print the same ones whichever engine ran.
        instances = heapq.nsmallest(
            args.limit,
            instances,
            key=lambda inst: (inst.start_time, repr(inst.canonical_key())),
        )
    for instance in instances[: args.limit]:
        print(json.dumps(instance.as_dict()))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream an edge list into a durable segment store (seal batches)."""
    from repro.graph.segments import SegmentStore

    store = SegmentStore(args.store)
    events = 0
    sealed = []
    quarantined = 0

    def quarantine(line_number: int, message: str, _raw: str) -> None:
        nonlocal quarantined
        quarantined += 1
        if quarantined <= 5:
            print(
                f"[ingest] quarantined line {line_number}: {message}",
                file=sys.stderr,
            )

    source = sys.stdin if args.edges == "-" else args.edges
    try:
        for it in graph_io.iter_csv_interactions(
            source,
            on_error="raise" if args.strict else "skip",
            error_sink=None if args.strict else quarantine,
        ):
            try:
                store.append(it.src, it.dst, it.time, it.flow)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            events += 1
            if args.seal_every and store.memtable_events >= args.seal_every:
                sealed.append(store.seal())
    except graph_io.InteractionFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, EOFError) as exc:
        # Keep everything already sealed; the memtable tail seals below,
        # so an interrupted ingest loses nothing that was read.
        print(f"error: input stream failed: {exc}", file=sys.stderr)
    name = store.seal()
    if name is not None:
        sealed.append(name)
    extras = f", {quarantined} malformed lines quarantined" if quarantined else ""
    print(
        f"[ingest] {events} events into {args.store}: "
        f"{len(sealed)} segment(s) sealed "
        f"({', '.join(sealed) if sealed else 'none'}){extras}",
        file=sys.stderr,
    )
    if args.compact and len(store.live_segments()) > 1:
        merged = store.compact()
        print(f"[ingest] compacted into {merged}", file=sys.stderr)
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.graph.segments import SegmentCorruptionError, SegmentStore

    try:
        store = SegmentStore(args.store, create=False)
        live_before = store.live_segments()
        name = store.compact()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SegmentCorruptionError as exc:
        print(f"error: store is damaged, run fsck first: {exc}", file=sys.stderr)
        return 1
    if name is None:
        print(
            f"[compact] nothing to do ({len(live_before)} live segment(s))",
            file=sys.stderr,
        )
    else:
        print(
            f"[compact] {len(live_before)} segment(s) -> {name}",
            file=sys.stderr,
        )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.graph.segments import SegmentCorruptionError
    from repro.graph.segments import fsck as run_fsck

    if not args.quiet:
        mode = "dry-run (report only)" if args.dry_run else "repair"
        print(f"[fsck] scanning {args.store} ({mode})", file=sys.stderr)
    try:
        report = run_fsck(args.store, repair=not args.dry_run)
    except SegmentCorruptionError as exc:
        print(f"error: manifest is damaged beyond fsck: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    for name, reason in report.corrupted:
        print(f"  corrupt: {name}: {reason}")
    for name in report.missing:
        print(f"  missing: {name} (sealed in manifest, no file on disk)")
    for name in report.unmanifested:
        print(f"  unmanifested: {name} (seal crashed before its manifest record)")
    return 0 if report.ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import (
        load_observations,
        render_prometheus,
        render_text,
        render_trace_tree,
        stitch_trace,
    )

    try:
        snapshot, spans = load_observations(args.files)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read observations: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        if spans:
            print(render_trace_tree(stitch_trace(spans)))
        else:
            print("(no spans recorded)", file=sys.stderr)
        return 0
    if args.format == "text":
        print(render_text(snapshot))
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import load_profiles

    try:
        report = load_profiles(args.files)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read profiles: {exc}", file=sys.stderr)
        return 2
    if report.samples == 0:
        print("(no profile records found)", file=sys.stderr)
        return 1
    if args.collapsed_out:
        report.write_collapsed(args.collapsed_out)
        print(
            f"[collapsed stacks written to {args.collapsed_out}]",
            file=sys.stderr,
        )
    print(report.render_text(args.top))
    return 0


class _FollowLines:
    """Line source that keeps polling a file for appended rows (tail -F).

    Yields complete lines; partial trailing writes are buffered until the
    newline arrives. Stops after ``max_idle`` seconds without new data
    (None = follow forever). Duck-types the ``read`` attribute
    :func:`repro.graph.io._open_maybe` checks, so it plugs straight into
    :func:`repro.graph.io.iter_csv_interactions`.

    Survives the file disappearing or being rotated mid-tail (the real
    ``tail -F`` contract): a deleted file is waited on until it reappears
    (or ``max_idle`` expires), and a replaced/truncated file is reopened
    from its start.
    """

    def __init__(self, path, interval: float, max_idle: Optional[float]):
        self._path = path
        self._interval = max(interval, 0.01)
        self._max_idle = max_idle

    def read(self, *_args):  # pragma: no cover - iteration-only source
        raise NotImplementedError("_FollowLines is an iteration-only source")

    def __iter__(self):
        import os as _os
        import time as _time

        buffer = ""
        idle = 0.0
        handle = None
        inode = None
        try:
            while True:
                if handle is None:
                    try:
                        handle = open(self._path, "r", encoding="utf-8")
                        inode = _os.fstat(handle.fileno()).st_ino
                    except OSError:
                        # Not there (yet/anymore): wait for it like tail -F.
                        if self._max_idle is not None and idle >= self._max_idle:
                            if buffer:
                                yield buffer
                            return
                        _time.sleep(self._interval)
                        idle += self._interval
                        continue
                try:
                    chunk = handle.readline()
                except OSError:
                    chunk = ""
                if chunk:
                    idle = 0.0
                    buffer += chunk
                    if buffer.endswith("\n"):
                        yield buffer
                        buffer = ""
                    continue
                # No new data. Detect rotation (new inode) or truncation
                # (file shrank under our offset) — both mean our handle no
                # longer tails the live file — and deletion (stat fails).
                try:
                    stat = _os.stat(self._path)
                    stale = (
                        stat.st_ino != inode or stat.st_size < handle.tell()
                    )
                except OSError:
                    stale = True
                if stale:
                    handle.close()
                    handle = None
                    inode = None
                if self._max_idle is not None and idle >= self._max_idle:
                    if buffer:
                        yield buffer
                    return
                _time.sleep(self._interval)
                idle += self._interval
        finally:
            if handle is not None:
                handle.close()


def _write_checkpoint(detector, path: str) -> None:
    """Durably persist a detector snapshot: tmp file, fsync, rename,
    directory fsync — the seal protocol of the segment store."""
    from repro.graph.segments import _fsync_dir

    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(detector.checkpoint(), handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.streaming import StreamingDetector
    from repro.resilience.checkpoint import CheckpointError, load_checkpoint

    try:
        motif = Motif.from_string(args.motif, args.delta, args.phi)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.follow and args.edges == "-":
        print("error: --follow requires a file path, not stdin", file=sys.stderr)
        return 2
    if args.follow:
        source = _FollowLines(args.edges, args.interval, args.max_idle)
    elif args.edges == "-":
        source = sys.stdin
    else:
        source = args.edges

    if args.resume:
        try:
            with open(args.resume, "r", encoding="utf-8") as handle:
                detector = StreamingDetector.restore(load_checkpoint(handle.read()))
        except (OSError, CheckpointError) as exc:
            print(f"error: cannot resume from {args.resume}: {exc}", file=sys.stderr)
            return 2
        print(
            f"[stream] resumed from {args.resume} "
            f"(watermark {detector.watermark}, "
            f"{detector.emitted_count} already emitted)",
            file=sys.stderr,
        )
    else:
        detector = StreamingDetector(
            motif,
            slack=args.slack,
            late="raise" if args.strict else "drop",
        )
    profiler = None
    if args.profile or args.profile_out:
        from repro.obs.profiler import Profiler

        # The detector is single-threaded: one profiler pinned to this
        # (the ingesting) thread covers the whole pipeline.
        profiler = Profiler(hz=args.profile_hz)
        profiler.start()
    emitted = 0
    events = 0
    pending = 0
    quarantined = 0

    def quarantine(line_number: int, message: str, _raw: str) -> None:
        nonlocal quarantined
        quarantined += 1
        if quarantined <= 5:  # don't flood stderr on a corrupt file
            print(
                f"[stream] quarantined line {line_number}: {message}",
                file=sys.stderr,
            )

    def drain(batch) -> None:
        nonlocal emitted
        for instance in batch:
            print(json.dumps(instance.as_dict()), flush=True)
            emitted += 1

    def finish(flush: bool) -> None:
        """End of this run: flush everything, or poll + persist state."""
        if args.checkpoint:
            drain(detector.poll())
            _write_checkpoint(detector, args.checkpoint)
            print(f"[stream] checkpoint written to {args.checkpoint}", file=sys.stderr)
        elif flush:
            drain(detector.flush())
        else:
            drain(detector.poll())

    exit_code = 0
    try:
        for it in graph_io.iter_csv_interactions(
            source,
            on_error="raise" if args.strict else "skip",
            error_sink=None if args.strict else quarantine,
        ):
            try:
                accepted = detector.add(it.src, it.dst, it.time, it.flow)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not accepted:
                continue  # too late for the slack window; counted by the detector
            events += 1
            pending += 1
            if pending >= args.batch:
                drain(detector.poll())
                pending = 0
        finish(flush=True)
    except graph_io.InteractionFormatError as exc:
        # Malformed rows surface from the iterator itself under --strict;
        # report them like every other stream error.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, EOFError) as exc:
        # Truncated gzip, vanished file, unreadable input: keep what was
        # ingested (poll/checkpoint, never a premature flush) and signal
        # the failure through the exit code.
        print(f"error: input stream failed: {exc}", file=sys.stderr)
        finish(flush=False)
        exit_code = 1
    except KeyboardInterrupt:
        # Ctrl-C on a live tail: with --checkpoint the stream is expected
        # to continue later, so persist instead of force-closing windows.
        finish(flush=not args.checkpoint)
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed the pipe: stop
        # cleanly. Redirect stdout to devnull so interpreter shutdown
        # does not trip over the dead descriptor again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    extras = ""
    if quarantined:
        extras += f", {quarantined} malformed lines quarantined"
    if detector.late_dropped:
        extras += f", {detector.late_dropped} late events dropped"
    if detector.pending_count:
        extras += f", {detector.pending_count} events buffered ahead of watermark"
    print(
        f"[stream] {events} events, {emitted} instances emitted, "
        f"{detector.match_count} structural matches{extras}",
        file=sys.stderr,
    )
    profile_report = profiler.stop() if profiler is not None else None
    if profile_report is not None:
        if args.profile:
            print(profile_report.render_text(), file=sys.stderr)
        if args.profile_out:
            profile_report.write_collapsed(args.profile_out)
            print(
                f"[stream] collapsed stacks written to {args.profile_out}",
                file=sys.stderr,
            )
    if args.metrics_out:
        from repro.obs import JsonlSink

        with JsonlSink(args.metrics_out) as sink:
            sink.emit_metrics(detector.metrics().snapshot())
            if profile_report is not None and profile_report.samples:
                sink.emit_profile(profile_report.to_dict())
        print(f"[stream] metrics written to {args.metrics_out}", file=sys.stderr)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flow-motifs",
        description=(
            "Flow motifs in interaction networks (EDBT 2019) — "
            "experiments and motif search"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        exp_parser = sub.add_parser(name, help=f"regenerate {name}")
        _add_experiment_options(exp_parser)
        exp_parser.add_argument(
            "--num-random", type=int, default=None, dest="num_random",
            help="fig14 only: number of random permutations (default 20)",
        )

    all_parser = sub.add_parser("all", help="run every experiment")
    _add_experiment_options(all_parser)
    all_parser.add_argument(
        "--num-random", type=int, default=None, dest="num_random"
    )

    find_parser = sub.add_parser("find", help="search motifs in an edge list")
    find_parser.add_argument(
        "edges", nargs="?", default=None,
        help="CSV/TSV file: src,dst,time,flow (or use --store)",
    )
    find_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "search a durable segment store (from 'flow-motifs ingest') "
            "instead of an edge-list file; parallel workers mmap the "
            "sealed segments zero-copy"
        ),
    )
    find_parser.add_argument(
        "--motif", default="M(3,3)",
        help="catalog name or dashed path, e.g. M(3,3) or 0-1-2-0",
    )
    find_parser.add_argument("--delta", type=float, required=True)
    find_parser.add_argument("--phi", type=float, default=0.0)
    find_parser.add_argument(
        "--top", type=int, default=0, help="report the top-k instances instead"
    )
    find_parser.add_argument(
        "--limit", type=int, default=20, help="max instances to print"
    )
    find_parser.add_argument(
        "--on-error", choices=["raise", "skip"], default="raise",
        help="behaviour on malformed input rows",
    )
    find_parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker count; >1 runs the δ-overlap sharded parallel engine",
    )
    find_parser.add_argument(
        "--shards", type=_positive_int, default=None,
        help="time-shard count for parallel search (default: --jobs)",
    )
    find_parser.add_argument(
        "--trace", action="store_true",
        help=(
            "record metrics and spans during the search and print the "
            "stitched trace tree plus a metrics table to stderr"
        ),
    )
    find_parser.add_argument(
        "--metrics-out", default=None, metavar="PATH", dest="metrics_out",
        help=(
            "append the run's metrics snapshot and spans to PATH as JSON "
            "lines (readable by 'flow-motifs metrics PATH')"
        ),
    )
    _add_profile_options(find_parser)

    stream_parser = sub.add_parser(
        "stream",
        help="online detection over a live, time-ordered edge stream",
    )
    stream_parser.add_argument(
        "edges", help="CSV/TSV stream: src,dst,time,flow ('-' for stdin)"
    )
    stream_parser.add_argument(
        "--motif", default="M(3,3)",
        help="catalog name or dashed path, e.g. M(3,3) or 0-1-2-0",
    )
    stream_parser.add_argument("--delta", type=float, required=True)
    stream_parser.add_argument("--phi", type=float, default=0.0)
    stream_parser.add_argument(
        "--batch", type=int, default=1,
        help="events ingested between polls (default 1: emit ASAP)",
    )
    stream_parser.add_argument(
        "--follow", action="store_true",
        help="keep watching the file for appended rows (tail -F style)",
    )
    stream_parser.add_argument(
        "--interval", type=float, default=0.5,
        help="--follow poll interval in seconds (default 0.5)",
    )
    stream_parser.add_argument(
        "--max-idle", type=float, default=None, dest="max_idle",
        help=(
            "in --follow mode, stop after this many seconds without new "
            "rows and flush (default: follow forever)"
        ),
    )
    stream_parser.add_argument(
        "--strict", action="store_true",
        help=(
            "abort (exit 2) on malformed lines or events later than "
            "--slack allows, instead of quarantining/dropping them"
        ),
    )
    stream_parser.add_argument(
        "--slack", type=float, default=0.0,
        help=(
            "out-of-order tolerance: events up to this many time units "
            "behind the watermark are re-sequenced instead of refused "
            "(default 0: require a time-ordered stream)"
        ),
    )
    stream_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help=(
            "on exit (including Ctrl-C), write the detector state to "
            "PATH and keep open windows open instead of flushing, so a "
            "later run can --resume exactly where this one stopped"
        ),
    )
    stream_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help=(
            "restore the detector from a --checkpoint file before "
            "reading input (the checkpoint's motif/δ/φ/slack override "
            "the command-line values)"
        ),
    )
    stream_parser.add_argument(
        "--metrics-out", default=None, metavar="PATH", dest="metrics_out",
        help=(
            "on exit, append the detector's metrics snapshot to PATH as "
            "JSON lines (readable by 'flow-motifs metrics PATH')"
        ),
    )
    _add_profile_options(stream_parser)

    ingest_parser = sub.add_parser(
        "ingest",
        help="load an edge list into a durable on-disk segment store",
    )
    ingest_parser.add_argument(
        "edges", help="CSV/TSV file: src,dst,time,flow ('-' for stdin)"
    )
    ingest_parser.add_argument(
        "store", metavar="STORE_DIR",
        help="segment store directory (created if missing)",
    )
    ingest_parser.add_argument(
        "--seal-every", type=int, default=0, dest="seal_every",
        metavar="N",
        help=(
            "seal a segment every N ingested events (default 0: one "
            "segment for the whole input)"
        ),
    )
    ingest_parser.add_argument(
        "--compact", action="store_true",
        help="merge all live segments into one after ingesting",
    )
    ingest_parser.add_argument(
        "--strict", action="store_true",
        help="abort (exit 2) on malformed lines instead of quarantining",
    )

    compact_parser = sub.add_parser(
        "compact",
        help="merge a store's live segments into one sealed segment",
    )
    compact_parser.add_argument(
        "store", metavar="STORE_DIR", help="segment store directory"
    )

    fsck_parser = sub.add_parser(
        "fsck",
        help=(
            "verify a segment store's checksums and manifest; quarantine "
            "damage and reap crash leftovers"
        ),
    )
    fsck_parser.add_argument(
        "store", metavar="STORE_DIR", help="segment store directory"
    )
    fsck_parser.add_argument(
        "--dry-run", action="store_true", dest="dry_run",
        help="report problems without quarantining or deleting anything",
    )
    fsck_parser.add_argument(
        "--quiet", action="store_true", help="suppress the scan banner"
    )

    metrics_parser = sub.add_parser(
        "metrics",
        help="render observability JSON-lines files (from --metrics-out)",
    )
    metrics_parser.add_argument(
        "files", nargs="+", metavar="FILE",
        help="JSON-lines sink files; metrics snapshots merge associatively",
    )
    metrics_parser.add_argument(
        "--format", choices=["prometheus", "text"], default="prometheus",
        help="metrics rendering (default: Prometheus text exposition)",
    )
    metrics_parser.add_argument(
        "--trace", action="store_true",
        help="render the stitched span tree instead of the metrics",
    )

    profile_parser = sub.add_parser(
        "profile",
        help=(
            "render profile records from observability JSON-lines files "
            "(from find/stream --profile --metrics-out)"
        ),
    )
    profile_parser.add_argument(
        "files", nargs="+", metavar="FILE",
        help="JSON-lines sink files; profile records merge associatively",
    )
    profile_parser.add_argument(
        "-n", "--top", type=int, default=15, dest="top",
        help="hottest frames to list per ranking (default 15)",
    )
    profile_parser.add_argument(
        "--collapsed-out", default=None, metavar="PATH", dest="collapsed_out",
        help="also write the merged collapsed stacks to PATH",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "find":
        return _cmd_find(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "compact":
        return _cmd_compact(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "all":
        return _run_experiments(args, list(EXPERIMENTS))
    return _run_experiments(args, [args.command])


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit like a Unix tool
        # (point stdout at devnull so the shutdown flush cannot raise).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13
    sys.exit(code)
